//! Sweep checkpoint snapshots: versioned, checksummed, bit-exact.
//!
//! The sweep pool advances in deterministic rounds, so its complete
//! execution state at a round boundary is tiny: per-cell
//! `WasteAccum`s, the `next[]` replication cursors, the `active[]`
//! flags, and the round counter. This module persists that state so a
//! killed sweep resumes **bit-identically** — the simulator practicing
//! the paper's own discipline of surviving failures via checkpoints.
//!
//! # On-disk format (version 2)
//!
//! A snapshot is a two-line UTF-8 file named
//! `sweep-r{round:08}.dckpt`:
//!
//! ```text
//! {"magic":"dck-sweep-snapshot","version":2,"checksum":"<fnv1a64 hex>"}
//! {"spec_fingerprint":"<hex>","rounds_done":N,"checkpoint_every":K,"cells":[...]}
//! ```
//!
//! The header's checksum is FNV-1a 64 over the payload line's bytes,
//! so truncation or corruption anywhere in the payload is detected
//! before any field is trusted. Every `f64` in the payload is encoded
//! as the 16-hex-digit big-endian form of [`f64::to_bits`] — **not**
//! as a decimal literal — for two reasons: decimal round-trips are not
//! guaranteed bit-exact by every writer/parser pair, and an empty
//! [`OnlineStats`] carries infinite extrema, which JSON number syntax
//! cannot represent at all (the vendored serializer emits `null`).
//!
//! Version 2 additionally records the producing run's snapshot cadence
//! (`checkpoint_every`), so a resumed run can honor the schedule the
//! interrupted run was on instead of silently rebasing it.
//!
//! # Retention
//!
//! Following the paper's own double-checkpointing discipline, at least
//! the two newest **valid** snapshots are kept: if a kill lands
//! mid-rename of the newest (impossible with POSIX rename, but disks
//! lie) or the newest is corrupt, resume falls back to its buddy one
//! round earlier. Retention is parameterized by [`RetentionPolicy`] —
//! `keep = k` generations, like the protocol layer's k-buddy groups —
//! and the slots beyond the protected newest pair hold a well-spaced
//! history: each prune greedily discards the snapshot whose removal
//! minimizes the largest gap between consecutive retained rounds, the
//! online-checkpointing discard rule of arXiv 1302.4216, which keeps
//! the worst-case rewind from any round bounded instead of letting the
//! retained set cluster at the tail.
//!
//! Pruning only ever counts snapshots that pass the full checksum
//! decode against the budget — a corrupt file can never crowd a valid
//! one out, so the newest valid snapshot is never removed. Snapshots
//! are written via [`dck_simcore::fsio::atomic_write`], so a kill
//! mid-write never leaves a truncated file under the final name.
//!
//! # Resume safety
//!
//! A payload stores a fingerprint of the producing [`SweepSpec`]
//! (worker count normalized to zero — results are worker-independent,
//! so resuming on different parallelism is legal). Loading a valid
//! snapshot whose fingerprint differs from the resuming spec is a hard
//! error: silently continuing someone else's sweep would produce
//! plausible-looking garbage.

use crate::montecarlo::WasteAccum;
use crate::sweep::SweepSpec;
use dck_core::ModelError;
use dck_simcore::fsio::atomic_write;
use dck_simcore::OnlineStats;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot format version; bump on any payload change.
pub const SNAPSHOT_VERSION: u64 = 2;
/// Magic tag identifying sweep snapshot files.
pub const SNAPSHOT_MAGIC: &str = "dck-sweep-snapshot";
/// Snapshot file extension.
pub const SNAPSHOT_EXT: &str = "dckpt";
/// Default retained generations — the newest plus one buddy, mirroring
/// the paper's double-checkpoint discipline.
pub const DEFAULT_SNAPSHOT_KEEP: usize = 2;
/// Upper bound on retained generations, mirroring the protocol layer's
/// [`dck_core::MAX_GROUP_SIZE`] for k-buddy groups.
pub const MAX_SNAPSHOT_KEEP: usize = dck_core::MAX_GROUP_SIZE as usize;

/// How many snapshot generations survive a prune, and which.
///
/// `keep = 2` is the paper's double-checkpoint discipline (newest +
/// buddy). Larger `keep` values retain a history whose spacing follows
/// the online-checkpointing discard rule of arXiv 1302.4216: the
/// newest two generations are always protected (the buddy pair resume
/// depends on), and among the rest each prune discards the round whose
/// removal minimizes the largest gap between consecutive retained
/// rounds (round 0, the fresh start, anchors the sequence). The
/// retained set therefore stays within a constant factor of the
/// best-possible worst-case rewind for `keep` slots, rather than
/// collapsing into a cluster of the `keep` newest rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    keep: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            keep: DEFAULT_SNAPSHOT_KEEP,
        }
    }
}

impl RetentionPolicy {
    /// Policy retaining `keep` generations.
    ///
    /// # Errors
    /// `keep` must lie in `2..=MAX_SNAPSHOT_KEEP` — one generation
    /// would drop the buddy fallback, and the cap mirrors the k-buddy
    /// group bound.
    pub fn keep(keep: usize) -> Result<Self, ModelError> {
        if !(DEFAULT_SNAPSHOT_KEEP..=MAX_SNAPSHOT_KEEP).contains(&keep) {
            return Err(ModelError::invalid(
                "keep_snapshots",
                format!("retained generations must be in {DEFAULT_SNAPSHOT_KEEP}..={MAX_SNAPSHOT_KEEP}, got {keep}"),
            ));
        }
        Ok(RetentionPolicy { keep })
    }

    /// Retained generation count.
    pub fn generations(&self) -> usize {
        self.keep
    }

    /// Which of `rounds` (ascending, the valid snapshots on disk)
    /// survive: the newest two always, the rest by the greedy
    /// max-gap-minimizing discard rule.
    pub(crate) fn retain(&self, rounds: &[u64]) -> Vec<u64> {
        let mut kept: Vec<u64> = rounds.to_vec();
        while kept.len() > self.keep.max(2) {
            // Candidates exclude the protected newest pair. The victim
            // is the round whose removal leaves the smallest maximum
            // gap between consecutive survivors (with the fresh-start
            // round 0 as the leading anchor); ties discard the oldest.
            let n = kept.len();
            let mut best: Option<(u64, usize)> = None;
            for i in 0..n - 2 {
                let mut max_gap = 0u64;
                let mut prev = 0u64;
                for (j, &r) in kept.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    max_gap = max_gap.max(r.saturating_sub(prev));
                    prev = r;
                }
                if best.is_none_or(|(g, _)| max_gap < g) {
                    best = Some((max_gap, i));
                }
            }
            match best {
                Some((_, i)) => {
                    kept.remove(i);
                }
                None => break,
            }
        }
        kept
    }
}

/// The sweep pool's complete between-rounds execution state.
#[derive(Debug, Clone)]
pub(crate) struct PoolState {
    /// Per-cell merged accumulators.
    pub accs: Vec<WasteAccum>,
    /// Per-cell next replication index.
    pub next: Vec<usize>,
    /// Per-cell still-running flags.
    pub active: Vec<bool>,
    /// Rounds fully merged into `accs`.
    pub rounds_done: u64,
}

impl PoolState {
    /// Fresh state for `cells` cells with a per-cell budget.
    pub fn fresh(cells: usize, budget: usize) -> Self {
        PoolState {
            accs: vec![WasteAccum::default(); cells],
            next: vec![0; cells],
            active: vec![budget > 0; cells],
            rounds_done: 0,
        }
    }
}

#[derive(Serialize, Deserialize)]
struct HeaderDoc {
    magic: String,
    version: u64,
    checksum: String,
}

#[derive(Serialize, Deserialize)]
struct PayloadDoc {
    spec_fingerprint: String,
    rounds_done: u64,
    /// Snapshot cadence (rounds per snapshot) the producing run was
    /// on. Resume honors it unless explicitly overridden — a silently
    /// rebased cadence mid-run was the bug this field fixes.
    checkpoint_every: u64,
    cells: Vec<CellDoc>,
}

#[derive(Serialize, Deserialize)]
struct CellDoc {
    waste: StatsDoc,
    failures: StatsDoc,
    completed: u64,
    fatal: u64,
    truncated: u64,
    next: u64,
    active: bool,
}

/// Raw Welford state with floats as hex bit-strings (see module docs
/// for why decimal is not an option).
#[derive(Serialize, Deserialize)]
struct StatsDoc {
    n: u64,
    mean: String,
    m2: String,
    min: String,
    max: String,
}

fn hex_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_bits(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad float bit-string {s:?}: {e}"))
}

impl StatsDoc {
    fn encode(s: &OnlineStats) -> StatsDoc {
        let (n, mean, m2, min, max) = s.to_parts();
        StatsDoc {
            n,
            mean: hex_bits(mean),
            m2: hex_bits(m2),
            min: hex_bits(min),
            max: hex_bits(max),
        }
    }

    fn decode(&self) -> Result<OnlineStats, String> {
        Ok(OnlineStats::from_parts(
            self.n,
            parse_bits(&self.mean)?,
            parse_bits(&self.m2)?,
            parse_bits(&self.min)?,
            parse_bits(&self.max)?,
        ))
    }
}

/// FNV-1a 64-bit hash: tiny, dependency-free, and plenty for
/// detecting torn or bit-rotted snapshot payloads (not a defense
/// against adversarial tampering).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stable fingerprint of a [`SweepSpec`], with the worker count
/// normalized to 0 before hashing — results are bit-identical across
/// worker counts, so two specs differing only in parallelism share a
/// fingerprint. Keys both checkpoint-snapshot ownership (resume
/// refuses a foreign fingerprint) and the serving layer's sweep-cell
/// cache (`dck serve` keys cached cells by fingerprint + coordinates).
pub fn sweep_spec_fingerprint(spec: &SweepSpec) -> u64 {
    spec_fingerprint(spec)
}

/// Fingerprint of the spec that produced a snapshot. Workers are
/// normalized to 0 before hashing: results are bit-identical across
/// worker counts, so resuming with different parallelism is fine.
pub(crate) fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    let mut normalized = spec.clone();
    normalized.workers = 0;
    match serde_json::to_string(&normalized) {
        Ok(json) => fnv64(json.as_bytes()),
        // Serialization of a plain struct cannot fail with the vendored
        // serializer; treat the impossible as a distinct sentinel
        // rather than panicking a worker.
        Err(_) => u64::MAX,
    }
}

fn encode(state: &PoolState, fingerprint: u64, checkpoint_every: u64) -> io::Result<Vec<u8>> {
    let cells = state
        .accs
        .iter()
        .zip(&state.next)
        .zip(&state.active)
        .map(|((acc, &next), &active)| CellDoc {
            waste: StatsDoc::encode(&acc.waste),
            failures: StatsDoc::encode(&acc.failures),
            completed: acc.completed as u64,
            fatal: acc.fatal as u64,
            truncated: acc.truncated as u64,
            next: next as u64,
            active,
        })
        .collect();
    let payload = serde_json::to_string(&PayloadDoc {
        spec_fingerprint: format!("{fingerprint:016x}"),
        rounds_done: state.rounds_done,
        checkpoint_every,
        cells,
    })
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let header = serde_json::to_string(&HeaderDoc {
        magic: SNAPSHOT_MAGIC.to_string(),
        version: SNAPSHOT_VERSION,
        checksum: format!("{:016x}", fnv64(payload.as_bytes())),
    })
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(format!("{header}\n{payload}\n").into_bytes())
}

/// Parses and integrity-checks a snapshot's bytes, returning the
/// payload. Every failure mode is a distinct message so `dck validate
/// --snapshot` can tell a user exactly what is wrong.
fn decode(bytes: &[u8]) -> Result<PayloadDoc, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty file")?;
    let payload_line = lines.next().ok_or("missing payload line")?;
    let header: HeaderDoc =
        serde_json::from_str(header_line).map_err(|e| format!("bad header: {e}"))?;
    if header.magic != SNAPSHOT_MAGIC {
        return Err(format!("bad magic {:?}", header.magic));
    }
    if header.version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot version {} (supported: {SNAPSHOT_VERSION})",
            header.version
        ));
    }
    let computed = format!("{:016x}", fnv64(payload_line.as_bytes()));
    if header.checksum != computed {
        return Err(format!(
            "checksum mismatch: header says {}, payload hashes to {computed}",
            header.checksum
        ));
    }
    serde_json::from_str(payload_line).map_err(|e| format!("bad payload: {e}"))
}

fn state_from_payload(payload: &PayloadDoc) -> Result<PoolState, String> {
    let mut accs = Vec::with_capacity(payload.cells.len());
    let mut next = Vec::with_capacity(payload.cells.len());
    let mut active = Vec::with_capacity(payload.cells.len());
    for cell in &payload.cells {
        accs.push(WasteAccum {
            waste: cell.waste.decode()?,
            failures: cell.failures.decode()?,
            completed: cell.completed as usize,
            fatal: cell.fatal as usize,
            truncated: cell.truncated as usize,
        });
        next.push(cell.next as usize);
        active.push(cell.active);
    }
    Ok(PoolState {
        accs,
        next,
        active,
        rounds_done: payload.rounds_done,
    })
}

fn snapshot_path(dir: &Path, rounds_done: u64) -> PathBuf {
    dir.join(format!("sweep-r{rounds_done:08}.{SNAPSHOT_EXT}"))
}

/// Parses the round number out of a `sweep-r{N}.dckpt` file name.
/// Returns `None` for `.dckpt` files that don't follow the naming
/// scheme (they sort as oldest and are never preferred on resume).
fn snapshot_round(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    stem.strip_prefix("sweep-r")?.parse::<u64>().ok()
}

/// Lists the directory's snapshot files, sorted oldest → newest by the
/// **numeric** round component of the file name. Zero-padding makes
/// lexicographic order agree with round order up to 8 digits, but past
/// `r99999999` the padding overflows (`"r100000000" < "r99999999"`
/// lexicographically), so sorting by the parsed number is the only
/// ordering that is correct for every round count. Ties (and files
/// without a parseable round) fall back to path order for determinism.
fn list_snapshots(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT) {
            found.push(path);
        }
    }
    found.sort_by(|a, b| (snapshot_round(a), a.as_path()).cmp(&(snapshot_round(b), b.as_path())));
    Ok(found)
}

/// Writes the state as a new snapshot in `dir` (created if absent) and
/// prunes generations beyond the retention policy. Returns the
/// snapshot path.
///
/// # Errors
/// Any I/O error from directory creation or the atomic write; pruning
/// failures are ignored (stale snapshots are harmless).
pub(crate) fn write_snapshot(
    dir: &Path,
    state: &PoolState,
    fingerprint: u64,
    checkpoint_every: u64,
    retention: &RetentionPolicy,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = snapshot_path(dir, state.rounds_done);
    atomic_write(&path, &encode(state, fingerprint, checkpoint_every)?)?;
    prune_snapshots(dir, retention);
    Ok(path)
}

/// Removes snapshots beyond the retention budget. Only files that pass
/// the full checksum decode count against the budget — and only they
/// are candidates for *policy* removal, so a corrupt file on disk can
/// never push the newest valid snapshot out. Corrupt `.dckpt` files
/// themselves are deleted outright: they can never be loaded, and
/// leaving them around would shadow real generations in directory
/// listings.
fn prune_snapshots(dir: &Path, retention: &RetentionPolicy) {
    let Ok(all) = list_snapshots(dir) else { return };
    let mut valid: Vec<(u64, PathBuf)> = Vec::new();
    for path in all {
        let ok = fs::read(&path).map(|b| decode(&b).is_ok()).unwrap_or(false);
        if ok {
            valid.push((snapshot_round(&path).unwrap_or(0), path));
        } else {
            let _ = fs::remove_file(&path);
        }
    }
    let rounds: Vec<u64> = valid.iter().map(|(r, _)| *r).collect();
    let kept = retention.retain(&rounds);
    for (r, path) in &valid {
        if !kept.contains(r) {
            let _ = fs::remove_file(path);
        }
    }
}

/// What [`load_latest`] restored: the execution state plus the
/// snapshot-recorded run settings a resume must honor.
#[derive(Debug, Clone)]
pub(crate) struct ResumedSnapshot {
    /// The between-rounds execution state.
    pub state: PoolState,
    /// Snapshot cadence the interrupted run was on (rounds per
    /// snapshot; `max(1)`-normalized by the writer's caller).
    pub checkpoint_every: u64,
}

/// Loads the newest valid snapshot in `dir`, skipping corrupt files
/// (the buddy discipline: fall back to the previous generation).
/// Returns `Ok(None)` when the directory is absent, empty, or holds no
/// readable snapshot — the caller then starts fresh.
///
/// # Errors
/// A *valid* snapshot whose spec fingerprint differs from
/// `fingerprint` — resuming a different sweep's state would silently
/// produce wrong results, so this never falls through to fresh-start.
pub(crate) fn load_latest(
    dir: &Path,
    fingerprint: u64,
) -> Result<Option<ResumedSnapshot>, ModelError> {
    let snapshots = match list_snapshots(dir) {
        Ok(s) => s,
        Err(_) => return Ok(None),
    };
    for path in snapshots.iter().rev() {
        let Ok(bytes) = fs::read(path) else { continue };
        let Ok(payload) = decode(&bytes) else {
            continue;
        };
        let expect = format!("{fingerprint:016x}");
        if payload.spec_fingerprint != expect {
            return Err(ModelError::execution(format!(
                "snapshot {} was produced by a different sweep spec \
                 (fingerprint {} vs this spec's {expect}); refusing to resume",
                path.display(),
                payload.spec_fingerprint,
            )));
        }
        let state = state_from_payload(&payload)
            .map_err(|e| ModelError::execution(format!("snapshot {}: {e}", path.display())))?;
        return Ok(Some(ResumedSnapshot {
            state,
            checkpoint_every: payload.checkpoint_every,
        }));
    }
    Ok(None)
}

/// Summary of a validated snapshot, for `dck validate --snapshot`.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotInfo {
    /// Format version.
    pub version: u64,
    /// Rounds merged into the snapshot.
    pub rounds_done: u64,
    /// Grid cells tracked.
    pub cells: usize,
    /// Cells still consuming budget.
    pub active_cells: usize,
    /// Total replications already executed across the grid.
    pub replications_done: u64,
    /// Snapshot cadence (rounds per snapshot) recorded by the
    /// producing run.
    pub checkpoint_every: u64,
    /// Fingerprint (hex) of the producing sweep spec.
    pub spec_fingerprint: String,
}

/// Integrity-checks one snapshot file: header, magic, version,
/// checksum, payload schema, and float decodability.
///
/// # Errors
/// A human-readable description of the first problem found.
pub fn validate_snapshot(path: &Path) -> Result<SnapshotInfo, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let payload = decode(&bytes)?;
    let state = state_from_payload(&payload)?;
    Ok(SnapshotInfo {
        version: SNAPSHOT_VERSION,
        rounds_done: payload.rounds_done,
        cells: state.accs.len(),
        active_cells: state.active.iter().filter(|&&a| a).count(),
        replications_done: state.next.iter().map(|&n| n as u64).sum(),
        checkpoint_every: payload.checkpoint_every,
        spec_fingerprint: payload.spec_fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_core::{PlatformParams, Protocol};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dck-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `write_snapshot` at the default cadence/retention (the shape
    /// every pre-v2 test exercised).
    fn write(dir: &Path, state: &PoolState, fp: u64) -> PathBuf {
        write_snapshot(dir, state, fp, 1, &RetentionPolicy::default()).unwrap()
    }

    /// `load_latest` projected onto the state (cadence covered by its
    /// own tests).
    fn load(dir: &Path, fp: u64) -> Result<Option<PoolState>, ModelError> {
        load_latest(dir, fp).map(|o| o.map(|r| r.state))
    }

    fn sample_state() -> PoolState {
        let mut s = PoolState::fresh(3, 10);
        s.accs[0].waste.push(0.25);
        s.accs[0].waste.push(0.5);
        s.accs[0].failures.push(3.0);
        s.accs[0].completed = 2;
        s.accs[1].fatal = 1;
        s.next = vec![8, 8, 0];
        s.active = vec![true, false, true];
        s.rounds_done = 1;
        s
    }

    fn spec() -> SweepSpec {
        SweepSpec::new(
            Protocol::DoubleNbl,
            PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap(),
            vec![0.5],
            vec![3_600.0],
        )
    }

    #[test]
    fn fnv64_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let dir = scratch("roundtrip");
        let state = sample_state();
        let path = write(&dir, &state, 42);
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("r00000001"));
        let restored = load(&dir, 42).unwrap().expect("snapshot present");
        assert_eq!(restored.rounds_done, 1);
        assert_eq!(restored.next, state.next);
        assert_eq!(restored.active, state.active);
        for (a, b) in restored.accs.iter().zip(&state.accs) {
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.fatal, b.fatal);
            assert_eq!(a.truncated, b.truncated);
            assert_eq!(a.waste.mean().to_bits(), b.waste.mean().to_bits());
            assert_eq!(a.waste.variance().to_bits(), b.waste.variance().to_bits());
            // Empty accumulators: infinite extrema must survive.
            assert_eq!(a.waste.min().to_bits(), b.waste.min().to_bits());
            assert_eq!(a.waste.max().to_bits(), b.waste.max().to_bits());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_buddy() {
        let dir = scratch("buddy");
        let mut state = sample_state();
        write(&dir, &state, 7);
        state.rounds_done = 2;
        state.next = vec![16, 8, 8];
        let newest = write(&dir, &state, 7);
        // Torn write under the final name (cannot happen through
        // atomic_write, but disks lie): flip payload bytes.
        let mut bytes = fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let restored = load(&dir, 7).unwrap().expect("buddy survives");
        assert_eq!(restored.rounds_done, 1, "fell back one generation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_two_generations() {
        let dir = scratch("prune");
        let mut state = sample_state();
        for r in 1..=5 {
            state.rounds_done = r;
            write(&dir, &state, 1);
        }
        let files = list_snapshots(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[1].to_str().unwrap().contains("r00000005"));
        assert!(files[0].to_str().unwrap().contains("r00000004"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_picks_numerically_newest_across_digit_boundary() {
        // Round 9 → 10: the first place a naive unpadded name would
        // mis-sort. Zero-padding covers this one, but the test pins the
        // user-visible contract, not the mechanism.
        let dir = scratch("digit-boundary");
        let mut state = sample_state();
        state.rounds_done = 9;
        write(&dir, &state, 3);
        state.rounds_done = 10;
        state.next = vec![80, 80, 80];
        write(&dir, &state, 3);
        let restored = load(&dir, 3).unwrap().expect("snapshot present");
        assert_eq!(restored.rounds_done, 10, "resumed from round 9, not 10");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_picks_numerically_newest_past_padding_overflow() {
        // Round 99_999_999 → 100_000_000 overflows the 8-digit padding:
        // lexicographically "sweep-r100000000" < "sweep-r99999999", so
        // a plain `sort()` would resume from the OLDER snapshot and
        // prune the newer one. Numeric ordering must win.
        let dir = scratch("padding-overflow");
        let mut state = sample_state();
        state.rounds_done = 99_999_999;
        write(&dir, &state, 4);
        state.rounds_done = 100_000_000;
        state.next = vec![800, 800, 800];
        write(&dir, &state, 4);

        let files = list_snapshots(&dir).unwrap();
        assert_eq!(files.len(), 2, "both generations kept");
        assert!(
            files[1].to_str().unwrap().contains("r100000000"),
            "numerically newest sorts last: {files:?}"
        );

        let restored = load(&dir, 4).unwrap().expect("snapshot present");
        assert_eq!(restored.rounds_done, 100_000_000);
        assert_eq!(restored.next, vec![800, 800, 800]);

        // One more write must prune the numerically oldest generation,
        // not the lexicographically smallest.
        state.rounds_done = 100_000_001;
        write(&dir, &state, 4);
        let files = list_snapshots(&dir).unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[0].to_str().unwrap().contains("r100000000"));
        assert!(files[1].to_str().unwrap().contains("r100000001"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_a_hard_error() {
        let dir = scratch("fp");
        write(&dir, &sample_state(), 1);
        let err = load(&dir, 2).unwrap_err();
        assert!(matches!(err, ModelError::Execution { .. }));
        assert!(err.to_string().contains("different sweep spec"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_and_empty_dir_mean_fresh_start() {
        let dir = scratch("empty");
        assert!(load(&dir.join("nope"), 1).unwrap().is_none());
        assert!(load(&dir, 1).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_reports_and_rejects() {
        let dir = scratch("validate");
        let path = write(&dir, &sample_state(), 9);
        let info = validate_snapshot(&path).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.rounds_done, 1);
        assert_eq!(info.cells, 3);
        assert_eq!(info.active_cells, 2);
        assert_eq!(info.replications_done, 16);
        assert_eq!(info.spec_fingerprint, format!("{:016x}", 9u64));

        // Truncation: drop the payload's tail — checksum must catch it.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let err = validate_snapshot(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // Wrong version.
        let payload = r#"{"spec_fingerprint":"0","rounds_done":0,"cells":[]}"#;
        let header = format!(
            r#"{{"magic":"dck-sweep-snapshot","version":99,"checksum":"{:016x}"}}"#,
            fnv64(payload.as_bytes())
        );
        fs::write(&path, format!("{header}\n{payload}\n")).unwrap();
        let err = validate_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_never_removes_the_newest_valid_snapshot() {
        // The satellite-2 bug: the old prune trusted filename order, so
        // a corrupt newest file counted toward the keep budget and the
        // only loadable snapshot could be deleted. Validity-aware
        // pruning must keep the newest *valid* generation no matter how
        // much garbage sits above it.
        let dir = scratch("prune-corrupt");
        let mut state = sample_state();
        state.rounds_done = 1;
        write(&dir, &state, 11);
        // Plant two corrupt files that sort as the newest generations.
        for r in [2u64, 3] {
            fs::write(
                dir.join(format!("sweep-r{r:08}.{SNAPSHOT_EXT}")),
                b"{\"magic\":\"dck-sweep-snapshot\"",
            )
            .unwrap();
        }
        // A prune at default keep=2 with filename-order trust would
        // now delete sweep-r00000001 (three files, keep two newest by
        // name). Validity-aware pruning deletes the garbage instead.
        prune_snapshots(&dir, &RetentionPolicy::default());
        let files = list_snapshots(&dir).unwrap();
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].to_str().unwrap().contains("r00000001"));
        let restored = load(&dir, 11).unwrap().expect("valid snapshot survives");
        assert_eq!(restored.rounds_done, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_does_not_evict_the_valid_pair_on_write() {
        // End-to-end through write_snapshot: generations 1 and 2 are
        // valid, 3 lands corrupt (disk lies), then generation 4 is
        // written. The corrupt file must not push round 2 out of the
        // keep-2 budget before round 4's write completes the new pair.
        let dir = scratch("prune-corrupt-write");
        let mut state = sample_state();
        for r in [1u64, 2] {
            state.rounds_done = r;
            write(&dir, &state, 12);
        }
        let newest = dir.join(format!("sweep-r{:08}.{SNAPSHOT_EXT}", 3));
        fs::write(&newest, b"torn").unwrap();
        state.rounds_done = 4;
        write(&dir, &state, 12);
        let files = list_snapshots(&dir).unwrap();
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["sweep-r00000002.dckpt", "sweep-r00000004.dckpt"],
            "corrupt r3 deleted, newest valid pair kept"
        );
        assert_eq!(load(&dir, 12).unwrap().unwrap().rounds_done, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_policy_validates_like_k_buddy_groups() {
        assert!(RetentionPolicy::keep(0).is_err());
        assert!(RetentionPolicy::keep(1).is_err());
        assert!(RetentionPolicy::keep(MAX_SNAPSHOT_KEEP + 1).is_err());
        for k in DEFAULT_SNAPSHOT_KEEP..=MAX_SNAPSHOT_KEEP {
            assert_eq!(RetentionPolicy::keep(k).unwrap().generations(), k);
        }
        assert_eq!(
            RetentionPolicy::default().generations(),
            DEFAULT_SNAPSHOT_KEEP
        );
    }

    #[test]
    fn k_retention_keeps_a_well_spaced_history() {
        // Feed rounds 1..=T one at a time (the write pattern) and check
        // the 1302.4216-style guarantee: the newest two are always
        // retained, and the worst-case rewind — the largest gap between
        // consecutive retained rounds, anchored at 0 — stays within a
        // constant factor of the perfect T/(k-1) spacing.
        for keep in [3usize, 4, 6, 8] {
            let policy = RetentionPolicy::keep(keep).unwrap();
            let mut on_disk: Vec<u64> = Vec::new();
            for t in 1u64..=200 {
                on_disk.push(t);
                on_disk = policy.retain(&on_disk);
                assert!(on_disk.len() <= keep);
                assert!(on_disk.contains(&t), "newest retained (t={t})");
                if t > 1 {
                    assert!(on_disk.contains(&(t - 1)), "buddy retained (t={t})");
                }
                let mut prev = 0u64;
                let mut max_gap = 0u64;
                for &r in &on_disk {
                    max_gap = max_gap.max(r - prev);
                    prev = r;
                }
                let ideal = t.div_ceil(keep as u64 - 1).max(1);
                assert!(
                    max_gap <= 4 * ideal,
                    "keep={keep} t={t}: max gap {max_gap} vs ideal {ideal} ({on_disk:?})"
                );
            }
        }
    }

    #[test]
    fn keep_2_retention_matches_the_legacy_buddy_pair() {
        let policy = RetentionPolicy::default();
        assert_eq!(policy.retain(&[1, 2, 3, 4, 5]), vec![4, 5]);
        assert_eq!(policy.retain(&[7]), vec![7]);
        assert_eq!(policy.retain(&[]), Vec::<u64>::new());
    }

    #[test]
    fn cadence_round_trips_through_the_snapshot() {
        let dir = scratch("cadence");
        let state = sample_state();
        let path = write_snapshot(&dir, &state, 5, 3, &RetentionPolicy::default()).unwrap();
        let restored = load_latest(&dir, 5).unwrap().expect("snapshot present");
        assert_eq!(restored.checkpoint_every, 3);
        assert_eq!(validate_snapshot(&path).unwrap().checkpoint_every, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_ignores_workers_but_not_grid() {
        let a = spec();
        let mut b = spec();
        b.workers = 7;
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        let mut c = spec();
        c.mtbfs.push(7_200.0);
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&c));
        let mut d = spec();
        d.seed ^= 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&d));
    }
}
