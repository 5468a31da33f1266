//! Scoped-thread fork/join utilities for Monte-Carlo replication.
//!
//! The workspace's dependency policy does not include `rayon`, so this
//! module provides the two parallel patterns the simulators need:
//!
//! - [`parallel_map_indexed`]: map a function over an index range on a
//!   fixed number of worker threads and collect the results *in index
//!   order* — the pool behind the sweep engine, and so behind every
//!   Monte-Carlo waste estimate.
//! - [`parallel_map_fold`]: stream items into per-chunk accumulators
//!   and merge them in fixed chunk order, never materializing the full
//!   result vector.
//!
//! Work is handed out through an atomic cursor (work-stealing by
//! chunk), so uneven per-item cost — common in failure simulations,
//! where unlucky replications run much longer — still balances well.
//!
//! Determinism: results depend only on `(index, f)` and the fixed
//! chunk geometry, never on thread scheduling, because each item
//! derives everything (including RNG seeds) from its index and
//! accumulators merge in chunk order. [`parallel_map_fold`] is
//! bit-identical across worker counts, including the inline
//! `workers <= 1` path.
//!
//! # Failure containment
//!
//! A panic inside the mapped closure no longer tears down the whole
//! pool (and with it every other worker's finished chunks, as the old
//! `join().expect(..)` design did). Each chunk runs under
//! [`std::panic::catch_unwind`]; a panicking chunk is requeued and
//! retried exactly once on the caller's thread after the pool joins,
//! and a chunk that fails both attempts surfaces as a typed
//! [`PoolError`] carrying the panic message. Because chunk values are
//! keyed by chunk index and the mapped function is deterministic, a
//! retried chunk produces bit-identical results — containment never
//! perturbs the reduction order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Default chunk size for [`parallel_map_indexed`]: small enough to
/// balance skewed workloads, large enough to keep cursor contention
/// negligible.
const DEFAULT_CHUNK: usize = 4;

/// A failure of the work pool itself, as opposed to a domain error of
/// the mapped function (which cannot fail — panics are the only escape
/// hatch, and this type is how they surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A chunk's closure panicked on every attempt (initial run plus
    /// one requeue). The message is the panic payload when it was a
    /// string.
    UnitPanicked {
        /// Index of the failing chunk in the unit space.
        unit: usize,
        /// How many times the chunk was attempted before giving up.
        attempts: u32,
        /// The panic payload, if it was a `&str`/`String`.
        message: String,
    },
    /// A worker thread died outside the per-chunk containment — a bug
    /// in the pool's own bookkeeping, not in the mapped closure.
    WorkerLost {
        /// The panic payload, if recoverable.
        message: String,
    },
    /// Two workers reported results for the same chunk. This is a
    /// scheduling bug that would silently corrupt an accumulator if
    /// ignored, so it is a hard error in every build profile (it was
    /// previously only a `debug_assert!`).
    DuplicateUnit {
        /// The doubly-claimed chunk index.
        unit: usize,
    },
    /// A chunk was never executed — the dual of [`PoolError::DuplicateUnit`].
    MissingUnit {
        /// The unexecuted chunk index.
        unit: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnitPanicked {
                unit,
                attempts,
                message,
            } => write!(
                f,
                "work unit {unit} panicked on all {attempts} attempts: {message}"
            ),
            PoolError::WorkerLost { message } => {
                write!(f, "worker thread lost outside chunk containment: {message}")
            }
            PoolError::DuplicateUnit { unit } => {
                write!(f, "work unit {unit} was executed twice (scheduler bug)")
            }
            PoolError::MissingUnit { unit } => {
                write!(f, "work unit {unit} was never executed (scheduler bug)")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Returns a sensible worker count: the machine's available parallelism
/// capped at `cap` (0 = uncapped).
pub fn default_workers(cap: usize) -> usize {
    let hw = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cap == 0 {
        hw
    } else {
        hw.min(cap)
    }
}

/// Renders a panic payload into a message for [`PoolError`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one unit under panic containment.
fn run_contained<U>(exec: &(impl Fn(usize) -> U + Sync), unit: usize) -> Result<U, String> {
    // `AssertUnwindSafe` is sound here: on Err every value computed by
    // this call is discarded, and `exec` only reads shared state (it is
    // `Fn`, not `FnMut`), so no observer can see torn intermediate
    // state from the unwound attempt.
    catch_unwind(AssertUnwindSafe(|| exec(unit))).map_err(panic_message)
}

/// Places `value` into `slots[unit]`, rejecting double execution as a
/// hard error in every profile.
fn place<U>(slots: &mut [Option<U>], unit: usize, value: U) -> Result<(), PoolError> {
    match slots.get_mut(unit) {
        Some(slot @ None) => {
            *slot = Some(value);
            Ok(())
        }
        Some(_) => Err(PoolError::DuplicateUnit { unit }),
        None => Err(PoolError::MissingUnit { unit }),
    }
}

/// What one pool worker brings back from its claim loop: completed
/// `(unit, value)` pairs and `(unit, panic message)` failures awaiting
/// the retry pass.
type WorkerHarvest<U> = (Vec<(usize, U)>, Vec<(usize, String)>);

/// Executes units `0..num_units` on `workers` threads and returns their
/// results in unit order. The engine behind both public maps:
///
/// * units are claimed through an atomic cursor (work stealing);
/// * each unit runs under [`catch_unwind`]; panicked units are
///   collected and retried exactly once, sequentially, after the pool
///   joins (rare by construction, so the retry pass is not worth its
///   own fan-out);
/// * `occupancy`, when observability is on, receives the per-worker
///   claimed weights after the join (never during, so recording cannot
///   perturb the work-stealing race).
fn run_units<U, F>(
    num_units: usize,
    workers: usize,
    exec: F,
    occupancy_metric: &str,
    weigh: impl Fn(&U) -> u64,
) -> Result<Vec<U>, PoolError>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let mut slots: Vec<Option<U>> = Vec::with_capacity(num_units);
    slots.resize_with(num_units, || None);
    // (unit, first-attempt panic message) pairs awaiting their retry.
    let mut requeued: Vec<(usize, String)> = Vec::new();

    if workers <= 1 || num_units <= 1 {
        for unit in 0..num_units {
            match run_contained(&exec, unit) {
                Ok(v) => place(&mut slots, unit, v)?,
                Err(message) => requeued.push((unit, message)),
            }
        }
    } else {
        let workers = workers.min(num_units);
        let cursor = AtomicUsize::new(0);
        let joined: Vec<thread::Result<WorkerHarvest<U>>> = thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let exec = &exec;
                handles.push(scope.spawn(move || {
                    let mut done: Vec<(usize, U)> = Vec::new();
                    let mut failed: Vec<(usize, String)> = Vec::new();
                    loop {
                        let unit = cursor.fetch_add(1, Ordering::Relaxed);
                        if unit >= num_units {
                            break;
                        }
                        match run_contained(exec, unit) {
                            Ok(v) => done.push((unit, v)),
                            Err(message) => failed.push((unit, message)),
                        }
                    }
                    (done, failed)
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });

        let mut per_worker: Vec<Vec<(usize, U)>> = Vec::with_capacity(workers);
        for outcome in joined {
            match outcome {
                Ok((done, failed)) => {
                    per_worker.push(done);
                    requeued.extend(failed);
                }
                // A worker died outside the per-unit containment: the
                // pool's own bookkeeping panicked. Don't retry — this
                // is a bug, not a workload failure.
                Err(payload) => {
                    return Err(PoolError::WorkerLost {
                        message: panic_message(payload),
                    })
                }
            }
        }
        record_pool_occupancy(
            occupancy_metric,
            per_worker
                .iter()
                .map(|bucket| bucket.iter().map(|(_, v)| weigh(v)).sum()),
        );
        for bucket in per_worker {
            for (unit, v) in bucket {
                place(&mut slots, unit, v)?;
            }
        }
    }

    // Requeue pass: retry each panicked unit once, in unit order so
    // failure reporting is deterministic. The mapped function is
    // deterministic in its index, so a retried unit that succeeds
    // yields exactly the value the first attempt would have.
    if !requeued.is_empty() {
        requeued.sort_by_key(|&(unit, _)| unit);
        if dck_obs::enabled() {
            dck_obs::add("par.panics_contained", requeued.len() as u64);
            dck_obs::add("par.units_requeued", requeued.len() as u64);
        }
        for (unit, first_message) in requeued {
            match run_contained(&exec, unit) {
                Ok(v) => place(&mut slots, unit, v)?,
                Err(message) => {
                    if dck_obs::enabled() {
                        dck_obs::incr("par.panics_contained");
                    }
                    let message = if message == first_message {
                        message
                    } else {
                        format!("{message} (first attempt: {first_message})")
                    };
                    return Err(PoolError::UnitPanicked {
                        unit,
                        attempts: 2,
                        message,
                    });
                }
            }
        }
    }

    let mut out = Vec::with_capacity(num_units);
    for (unit, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(v) => out.push(v),
            None => return Err(PoolError::MissingUnit { unit }),
        }
    }
    Ok(out)
}

/// Maps `f` over `0..n` using `workers` threads and returns the results
/// in index order.
///
/// `f` must be `Sync` (shared by reference across workers) and the
/// result type `Send`. With `workers <= 1` the map runs inline on the
/// caller's thread, which keeps small jobs cheap and makes the parallel
/// path easy to A/B-test. Either way a panic in `f` is contained: the
/// covering chunk is retried once, and a persistent panic returns
/// [`PoolError::UnitPanicked`] instead of aborting the process.
///
/// # Errors
/// [`PoolError`] when a chunk panics twice or the pool's bookkeeping
/// breaks (duplicate/missing/lost units).
///
/// # Example
/// ```
/// use dck_simcore::par::parallel_map_indexed;
/// let squares = parallel_map_indexed(8, 4, |i| (i * i) as u64).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map_indexed<T, F>(n: usize, workers: usize, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let num_chunks = n.div_ceil(DEFAULT_CHUNK);
    let chunks = run_units(
        num_chunks,
        workers,
        |c| {
            let start = c * DEFAULT_CHUNK;
            let end = (start + DEFAULT_CHUNK).min(n);
            (start..end).map(&f).collect::<Vec<T>>()
        },
        "par.items_per_worker",
        |chunk: &Vec<T>| chunk.len() as u64,
    )?;
    // Chunks come back in ascending chunk order and each chunk is in
    // index order internally, so concatenation restores index order.
    Ok(chunks.into_iter().flatten().collect())
}

/// Streams `0..n` into per-chunk accumulators and merges them in
/// fixed chunk order, without materializing a `Vec` of per-item
/// results.
///
/// The index space is cut into chunks of `chunk` consecutive indices
/// (the last chunk may be short). Each chunk gets a fresh accumulator
/// from `new_acc`, items fold into it **sequentially in index order**
/// via `fold`, and the finished chunk accumulators merge via `merge`
/// **in ascending chunk order**. Because both the chunk geometry and
/// the merge order are fixed, the result is bit-identical for every
/// `workers` value — the inline `workers <= 1` path runs the exact
/// same chunked fold.
///
/// Workers claim chunks through an atomic cursor, so skewed per-item
/// cost still load-balances. Memory is `O(n / chunk)` accumulators
/// instead of `O(n)` items.
///
/// # Errors
/// [`PoolError`] when a chunk panics on both its attempts, or the
/// chunk bookkeeping detects a duplicate/missing chunk (hard errors in
/// every profile).
///
/// # Example
/// ```
/// use dck_simcore::par::parallel_map_fold;
/// let sum = parallel_map_fold(
///     100,
///     4,
///     16,
///     || 0u64,
///     |acc, i| *acc += i as u64,
///     |a, b| a + b,
/// )
/// .unwrap();
/// assert_eq!(sum, 4950);
/// ```
pub fn parallel_map_fold<A, New, Fold, Merge>(
    n: usize,
    workers: usize,
    chunk: usize,
    new_acc: New,
    fold: Fold,
    merge: Merge,
) -> Result<A, PoolError>
where
    A: Send,
    New: Fn() -> A + Sync,
    Fold: Fn(&mut A, usize) + Sync,
    Merge: Fn(A, A) -> A,
{
    let chunk = chunk.max(1);
    let num_chunks = n.div_ceil(chunk);
    let accs = run_units(
        num_chunks,
        workers,
        |c| {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let mut acc = new_acc();
            for i in start..end {
                fold(&mut acc, i);
            }
            acc
        },
        "par.chunks_per_worker",
        |_| 1,
    )?;
    Ok(accs.into_iter().fold(new_acc(), merge))
}

/// Records how much work each worker of a just-joined pool claimed —
/// the load-balance signal for `dck sweep --metrics`. Runs *after* the
/// scope joins, so recording can never perturb the work-stealing race;
/// a no-op unless observability is enabled.
fn record_pool_occupancy(name: &str, per_worker: impl Iterator<Item = u64>) {
    if !dck_obs::enabled() {
        return;
    }
    dck_obs::incr("par.pool_spawns");
    let hist = dck_obs::histogram(name);
    for claimed in per_worker {
        hist.observe(claimed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_in_index_order() {
        let out = parallel_map_indexed(1000, 8, |i| i * 3).unwrap();
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = parallel_map_indexed(257, 1, |i| (i as f64).sqrt()).unwrap();
        let par = parallel_map_indexed(257, 7, |i| (i as f64).sqrt()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn every_index_computed_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = parallel_map_indexed(500, 6, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        let unique: HashSet<_> = out.iter().collect();
        assert_eq!(unique.len(), 500);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = parallel_map_indexed(0, 4, |_| 1u32).unwrap();
        assert!(empty.is_empty());
        let one = parallel_map_indexed(1, 4, |i| i + 10).unwrap();
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn map_fold_bit_identical_across_workers() {
        // Sums of irrational values expose any reassociation: the
        // merge order must make all worker counts agree to the bit.
        let run = |workers: usize| {
            parallel_map_fold(
                1013,
                workers,
                8,
                OnlineStats::new,
                |acc: &mut OnlineStats, i| acc.push((i as f64).sqrt().sin()),
                |mut a, b| {
                    a.merge(&b);
                    a
                },
            )
            .unwrap()
        };
        let reference = run(1);
        for workers in [2, 3, 8] {
            let par = run(workers);
            assert_eq!(par.count(), reference.count());
            assert_eq!(par.mean().to_bits(), reference.mean().to_bits());
            assert_eq!(par.variance().to_bits(), reference.variance().to_bits());
        }
    }

    #[test]
    fn map_fold_empty_and_single_chunk() {
        let zero =
            parallel_map_fold(0, 4, 8, || 0u64, |a, i| *a += i as u64, |a, b| a + b).unwrap();
        assert_eq!(zero, 0);
        let small =
            parallel_map_fold(5, 4, 8, || 0u64, |a, i| *a += i as u64, |a, b| a + b).unwrap();
        assert_eq!(small, 10);
    }

    #[test]
    fn map_fold_chunk_size_changes_geometry_not_totals() {
        for chunk in [1, 3, 7, 64, 1000] {
            let total =
                parallel_map_fold(300, 5, chunk, || 0u64, |a, i| *a += i as u64, |a, b| a + b)
                    .unwrap();
            assert_eq!(total, 44850, "chunk {chunk}");
        }
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers(0) >= 1);
        assert_eq!(default_workers(1), 1);
    }

    #[test]
    fn transient_panic_is_contained_and_requeued() {
        // Index 13 panics on its first execution only; the requeue pass
        // must recover it and the result must be complete and correct,
        // with both worker counts (inline and pooled paths).
        for workers in [1, 4] {
            let fired = AtomicU64::new(0);
            let out = parallel_map_indexed(40, workers, |i| {
                if i == 13 && fired.swap(1, Ordering::Relaxed) == 0 {
                    panic!("transient failure at {i}");
                }
                i * 2
            })
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_panic_surfaces_as_typed_error_with_other_chunks_done() {
        let calls = AtomicU64::new(0);
        let err = parallel_map_fold(
            64,
            4,
            8,
            || 0u64,
            |acc, i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 42 {
                    panic!("replication 42 is cursed");
                }
                *acc += i as u64;
            },
            |a, b| a + b,
        )
        .unwrap_err();
        match &err {
            PoolError::UnitPanicked {
                unit,
                attempts,
                message,
            } => {
                assert_eq!(*unit, 5, "42 lives in chunk 5 at chunk size 8");
                assert_eq!(*attempts, 2);
                assert!(message.contains("cursed"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("panicked on all 2 attempts"));
        // Every other chunk still executed (the panic did not abort the
        // pool): 64 items minus the two aborted attempts' partial
        // chunks is at least 64 - 8 folds before the retry, and the
        // retry re-runs the cursed chunk once more.
        assert!(calls.load(Ordering::Relaxed) >= 56);
    }

    #[test]
    fn inline_path_contains_panics_too() {
        let err = parallel_map_indexed(8, 1, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        })
        .unwrap_err();
        assert!(matches!(err, PoolError::UnitPanicked { attempts: 2, .. }));
    }

    #[test]
    fn duplicate_unit_is_a_hard_error_in_all_profiles() {
        // `place` is the single point every computed chunk passes
        // through; a double execution must be rejected even in release
        // builds (this used to be a debug_assert that release builds
        // compiled out, silently overwriting an accumulator).
        let mut slots: Vec<Option<u32>> = vec![None, None];
        place(&mut slots, 1, 10).unwrap();
        let err = place(&mut slots, 1, 11).unwrap_err();
        assert_eq!(err, PoolError::DuplicateUnit { unit: 1 });
        assert_eq!(slots[1], Some(10), "first value must not be overwritten");
        let err = place(&mut slots, 7, 1).unwrap_err();
        assert_eq!(err, PoolError::MissingUnit { unit: 7 });
    }
}
