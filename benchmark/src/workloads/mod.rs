//! The four workloads and the traced runs behind the per-layer metrics.
//!
//! A measured run ([`measure`]) times one workload with tracing off and
//! reports the end-to-end metrics. A traced run ([`trace`]) runs a
//! reduced copy of the workload at the same operating points and
//! reports the per-layer metrics.

pub mod adapt;
pub mod serve;
pub mod sweep;

use crate::catalog::LAYERS;
use crate::stats::median;
use crate::sys;
use crate::trace::Span;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads for the sweeps and the server, and concurrent
/// `adapt-regret` copies: the core count of the
/// 2-vCPU machine the baseline was measured on. Fixed, so results of
/// machines of any size compare.
pub const WORKERS: usize = 2;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest measured passes of a pass-based workload.
pub const MIN_PASSES: usize = 3;

/// Options every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Shrink every input for a smoke run (tests only).
    pub quick: bool,
}

/// What one run, or one traced copy, reports.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Digest of the simulated output, where there is one.
    pub digest: Option<u64>,
    /// Spans of the traced copy (traced runs only).
    pub spans: Vec<Span>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Run {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// Times `setup` [`SETUP_REPEATS`] times and returns the median seconds
/// and the last result.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let value = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or_else(|| "set-up never ran".to_string())?;
    Ok((median(&secs), value))
}

/// Runs `f` with the dck-obs counters on, from zero, and returns its
/// result with the counter snapshot. The registry is process-wide, so
/// the session lock keeps concurrent callers (test threads) apart.
///
/// # Errors
/// Propagates `f`'s error.
pub fn observed<T>(
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, dck_obs::MetricsSnapshot), String> {
    let _session = dck_obs::exclusive_session();
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let out = f();
    let snapshot = dck_obs::snapshot();
    dck_obs::set_enabled(was);
    Ok((out?, snapshot))
}

/// Self times of a traced copy's spans, as note lines.
pub fn self_time_notes(spans: &[Span]) -> Vec<String> {
    let times = crate::trace::self_times(spans);
    let total: u64 = times.iter().map(|t| t.self_ns).sum();
    times
        .iter()
        .map(|t| {
            format!(
                "  span {:<16} n={:<7} self {:>9.3} ms ({:>5.1}%)",
                t.name,
                t.count,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / total.max(1) as f64
            )
        })
        .collect()
}

/// Runs one workload with tracing off and reports its end-to-end
/// metrics.
///
/// # Errors
/// Unknown workload, or an operation that errored.
pub fn measure(workload: &str, opts: &Opts) -> Result<Run, String> {
    let mut run = match workload {
        "sweep-base" => sweep::measure(sweep::Platform::Base, opts),
        "sweep-exa" => sweep::measure(sweep::Platform::Exa, opts),
        "adapt-regret" => adapt::measure(opts),
        "serve-mix" => serve::measure(opts),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let rss = sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    run.set("peak_rss_mb", rss);
    Ok(run)
}

/// Runs the workload's traced copy, repeating it until `opts.seconds`
/// have passed, and reports the median of every per-layer metric over
/// the repeats. A metric the copy never measured reads 0: the workload
/// does not enter that layer.
///
/// # Errors
/// Unknown workload, or an operation that errored.
pub fn trace(workload: &str, opts: &Opts) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run::default();
    let mut cycles: Vec<BTreeMap<String, f64>> = Vec::new();
    loop {
        let first = cycles.is_empty();
        let r = match workload {
            "sweep-base" => sweep::trace(sweep::Platform::Base, opts, first),
            "sweep-exa" => sweep::trace(sweep::Platform::Exa, opts, first),
            "adapt-regret" => adapt::trace(opts),
            "serve-mix" => serve::trace(opts),
            other => Err(format!("unknown workload {other:?}")),
        }?;
        run.attempted += r.attempted;
        run.failed += r.failed;
        if first {
            run.spans = r.spans;
            run.notes = r.notes;
        }
        cycles.push(r.values);
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    for layer in LAYERS {
        let seen: Vec<f64> = cycles
            .iter()
            .filter_map(|c| c.get(layer.name).copied())
            .collect();
        let value = if seen.is_empty() { 0.0 } else { median(&seen) };
        run.set(layer.name, value);
    }
    run.notes.push(format!(
        "{} traced cycle(s); per-layer values are medians over cycles",
        cycles.len()
    ));
    Ok(run)
}
