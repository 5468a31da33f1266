//! The scoped-thread work pool behind every Monte-Carlo estimate.
//!
//! The workspace's dependency policy does not include `rayon`, so this
//! module provides one engine, [`parallel_for_ordered`]: run `f` over
//! units `0..n` on a fixed number of workers and hand each
//! result to a sink *in ascending unit order*, as soon as every lower
//! unit is in. The sink only merges, so the pool holds just the
//! out-of-order tail of finished units. [`parallel_map_fold`] is a thin
//! wrapper that folds chunks of an index range and merges them in the
//! sink. Units are claimed through an atomic cursor (work stealing), so
//! uneven per-unit cost — unlucky replications run much longer — still
//! balances well. The calling thread is one of the workers, so `w`
//! workers spawn `w − 1` scoped threads and one worker spawns none.
//!
//! Every unit costs one pass through the pool's mutex, where it either
//! parks in the tail or merges, so callers size units to amortize that:
//! the sweep engine in `dck-sim` makes a unit 32 replications, four
//! fold chunks that land together and merge one by one, while the fold
//! chunk that fixes its bits stays 8 replications.
//!
//! Determinism: each unit derives everything (including RNG seeds) from
//! its index and the sink sees units in ascending order, so results
//! never depend on thread scheduling or the worker count, nor on which
//! thread, the caller's or a spawned one, ran a unit.
//!
//! # Failure containment
//!
//! Each unit runs under [`std::panic::catch_unwind`]; a panicking unit
//! is retried once, in place, by the worker that claimed it. A unit that
//! fails both attempts stops further claims and surfaces as a typed
//! [`PoolError`]; every lower unit was claimed before it, so the lowest
//! failing unit is always the one reported. A retried unit produces
//! bit-identical results, so containment never perturbs the merge
//! order. A panic in the sink ends its worker, the caller's included,
//! and surfaces as [`PoolError::WorkerLost`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// A failure of the work pool itself, as opposed to a domain error of
/// the mapped function (which cannot fail — panics are the only escape
/// hatch, and this type is how they surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A unit's closure panicked on every attempt (initial run plus
    /// one retry in place). The message is the panic payload when it
    /// was a string.
    UnitPanicked {
        /// Index of the lowest failing unit.
        unit: usize,
        /// How many times the unit was attempted before giving up.
        attempts: u32,
        /// The panic payload, if it was a `&str`/`String`.
        message: String,
    },
    /// A worker died outside the per-unit containment — a panic in the
    /// sink or in the pool's own bookkeeping, not in the mapped closure.
    WorkerLost {
        /// The panic payload, if recoverable.
        message: String,
    },
    /// Two workers reported results for the same unit. This is a
    /// scheduling bug that would silently corrupt an accumulator if
    /// ignored, so it is a hard error in every build profile.
    DuplicateUnit {
        /// The doubly-claimed unit index.
        unit: usize,
    },
    /// A unit never reached the sink — the dual of
    /// [`PoolError::DuplicateUnit`].
    MissingUnit {
        /// The lowest unit the sink never saw.
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
                write!(f, "worker thread lost outside unit containment: {message}")
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

/// Runs one unit under panic containment, retrying it once in place if
/// it panics. `f` is deterministic in its index, so a retry that
/// succeeds yields exactly the value the first attempt would have.
fn run_unit<U>(f: &impl Fn(usize) -> U, unit: usize) -> Result<U, PoolError> {
    // `AssertUnwindSafe` is sound here: on Err every value computed by
    // the attempt is discarded, and `f` only reads shared state (it is
    // `Fn`, not `FnMut`), so no observer can see torn intermediate
    // state from the unwound attempt.
    let attempt = || catch_unwind(AssertUnwindSafe(|| f(unit))).map_err(panic_message);
    let first = match attempt() {
        Ok(v) => return Ok(v),
        Err(message) => message,
    };
    if dck_obs::enabled() {
        dck_obs::incr("par.panics_contained");
        dck_obs::incr("par.units_requeued");
    }
    attempt().map_err(|message| {
        if dck_obs::enabled() {
            dck_obs::incr("par.panics_contained");
        }
        let message = if message == first {
            message
        } else {
            format!("{message} (first attempt: {first})")
        };
        PoolError::UnitPanicked {
            unit,
            attempts: 2,
            message,
        }
    })
}

/// The pool's shared state, behind its one mutex: the sink, the next
/// unit it expects, the units that finished ahead of it, and the first
/// failure.
struct Ordered<U, S> {
    next: usize,
    tail: BTreeMap<usize, U>,
    sink: S,
    failed: Option<PoolError>,
}

impl<U, S: FnMut(usize, U)> Ordered<U, S> {
    fn new(sink: S) -> Self {
        Ordered {
            next: 0,
            tail: BTreeMap::new(),
            sink,
            failed: None,
        }
    }

    /// Hands `value` to the sink if `unit` is the next one due, then
    /// every parked unit that now follows in sequence; parks it in the
    /// tail otherwise. A unit that lands twice is a hard error in every
    /// profile, and never overwrites the first value.
    fn land(&mut self, unit: usize, value: U) {
        if unit < self.next || self.tail.contains_key(&unit) {
            self.fail(PoolError::DuplicateUnit { unit });
        } else if unit > self.next {
            self.tail.insert(unit, value);
        } else {
            (self.sink)(unit, value);
            self.next += 1;
            while let Some(v) = self.tail.remove(&self.next) {
                (self.sink)(self.next, v);
                self.next += 1;
            }
        }
    }

    /// Records a failure; a panicked unit replaces a higher one, so the
    /// lowest failing unit is the one reported.
    fn fail(&mut self, err: PoolError) {
        let replace = match (&self.failed, &err) {
            (
                Some(PoolError::UnitPanicked { unit: old, .. }),
                PoolError::UnitPanicked { unit, .. },
            ) => unit < old,
            (old, _) => old.is_none(),
        };
        if replace {
            self.failed = Some(err);
        }
    }

    /// The pool's verdict once every worker has stopped.
    fn finish(self, n: usize) -> Result<(), PoolError> {
        match self.failed {
            Some(err) => Err(err),
            None if self.next < n => Err(PoolError::MissingUnit { unit: self.next }),
            None => Ok(()),
        }
    }
}

/// The engine behind both public entry points: runs units `0..n` on
/// `workers` workers, one of them the caller's thread and the rest
/// scoped threads (none for one worker or one unit). After a real pool
/// joins — never during, so recording cannot perturb the work-stealing
/// race — the units each worker claimed go to the `occupancy_metric`
/// histogram, the load-balance signal for `dck sweep --metrics`.
fn run_ordered<U, F, S>(
    n: usize,
    workers: usize,
    f: F,
    sink: S,
    occupancy_metric: &str,
) -> Result<(), PoolError>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    S: FnMut(usize, U) + Send,
{
    let shared = Mutex::new(Ordered::new(sink));
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut claimed = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let unit = cursor.fetch_add(1, Ordering::Relaxed);
            if unit >= n {
                break;
            }
            claimed += 1;
            let outcome = run_unit(&f, unit);
            // A poisoned lock means the sink panicked on another
            // worker, which reports the loss itself.
            let Ok(mut ordered) = shared.lock() else {
                break;
            };
            match outcome {
                Ok(v) => ordered.land(unit, v),
                Err(err) => ordered.fail(err),
            }
            if ordered.failed.is_some() {
                stop.store(true, Ordering::Relaxed);
            }
        }
        claimed
    };
    let workers = workers.min(n);
    let joined: Vec<thread::Result<u64>> = thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let own = catch_unwind(AssertUnwindSafe(worker));
        std::iter::once(own)
            .chain(handles.into_iter().map(|h| h.join()))
            .collect()
    });
    // A worker that died outside the per-unit containment means the
    // sink or the pool's own bookkeeping panicked: a bug, not a
    // workload failure, so it is not retried.
    let claimed = joined
        .into_iter()
        .map(|outcome| {
            outcome.map_err(|payload| PoolError::WorkerLost {
                message: panic_message(payload),
            })
        })
        .collect::<Result<Vec<u64>, _>>()?;
    if workers > 1 && dck_obs::enabled() {
        dck_obs::incr("par.pool_spawns");
        let hist = dck_obs::histogram(occupancy_metric);
        claimed.into_iter().for_each(|c| hist.observe(c));
    }
    // Every worker that could have poisoned the lock was reported above.
    shared
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .finish(n)
}

/// Runs `f` over units `0..n` on `workers` workers and hands each
/// result to `sink` in ascending unit order.
///
/// `f` must be `Sync` (shared by reference across workers). `sink` runs
/// under the pool's mutex on whichever worker completes the lowest
/// missing unit, so it should only merge; units that finish early wait
/// in a tail until every lower unit is in. The caller's thread is one of
/// the workers, so `workers <= 1` spawns nothing and keeps small jobs
/// cheap. On every worker a panic in `f` is contained: the unit is
/// retried once in place, and a persistent panic returns
/// [`PoolError::UnitPanicked`] for the lowest failing unit instead of
/// aborting the process. The sink has then seen every unit below that
/// one and none above it.
///
/// # Errors
/// [`PoolError`] when a unit panics twice, the sink panics, or the
/// pool's bookkeeping breaks (duplicate or missing units).
///
/// # Example
/// ```
/// use dck_simcore::par::parallel_for_ordered;
/// let mut squares = Vec::new();
/// parallel_for_ordered(8, 4, |i| (i * i) as u64, |_, sq| squares.push(sq)).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_for_ordered<U, F, S>(
    n: usize,
    workers: usize,
    f: F,
    sink: S,
) -> Result<(), PoolError>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    S: FnMut(usize, U) + Send,
{
    run_ordered(n, workers, f, sink, "par.items_per_worker")
}

/// Streams `0..n` into per-chunk accumulators and merges them in
/// fixed chunk order.
///
/// The index space is cut into chunks of `chunk` consecutive indices
/// (the last chunk may be short). Each chunk gets a fresh accumulator
/// from `new_acc`, items fold into it **sequentially in index order**
/// via `fold`, and the finished chunk accumulators merge via `merge`
/// **in ascending chunk order**, starting from one more `new_acc()`, as
/// the sink of [`parallel_for_ordered`]. Because both the chunk geometry
/// and the merge order are fixed, the result is bit-identical for every
/// `workers` value, whichever thread runs a chunk.
///
/// # Errors
/// [`PoolError`] when a chunk panics on both its attempts, `merge`
/// panics, or the chunk bookkeeping detects a duplicate/missing chunk
/// (hard errors in every profile).
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
    Merge: Fn(A, A) -> A + Send,
{
    let chunk = chunk.max(1);
    // `None` only if `merge` panicked, which the pool reports itself.
    let mut total = Some(new_acc());
    let slot = &mut total;
    run_ordered(
        n.div_ceil(chunk),
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
        move |_, acc| *slot = slot.take().map(|t| merge(t, acc)),
        "par.chunks_per_worker",
    )?;
    total.ok_or_else(|| PoolError::WorkerLost {
        message: "chunk merge panicked".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;
    use std::sync::atomic::AtomicU64;

    /// Runs `f` over `0..n` and returns what the sink saw, as
    /// `(unit, value)` pairs in arrival order.
    fn collect<T: Send>(
        n: usize,
        workers: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<(usize, T)>, PoolError> {
        let mut seen = Vec::new();
        parallel_for_ordered(n, workers, f, |u, v| seen.push((u, v)))?;
        Ok(seen)
    }

    #[test]
    fn results_in_index_order() {
        let out = collect(1000, 8, |i| i * 3).unwrap();
        assert_eq!(out.len(), 1000);
        for (i, &(u, v)) in out.iter().enumerate() {
            assert_eq!((u, v), (i, i * 3));
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = collect(257, 1, |i| (i as f64).sqrt()).unwrap();
        let par = collect(257, 7, |i| (i as f64).sqrt()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn every_unit_computed_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = collect(500, 6, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert!(out.iter().enumerate().all(|(i, &(u, v))| u == i && v == i));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for workers in [1, 4] {
            let empty = collect(0, workers, |_| 1u32).unwrap();
            assert!(empty.is_empty());
            let one = collect(1, workers, |i| i + 10).unwrap();
            assert_eq!(one, vec![(0, 10)]);
        }
    }

    /// Unit 0 finishes last on a pool: it waits until every other unit
    /// is computed, so all of them wait in the tail, and the sink still
    /// sees `0..n` in ascending order.
    #[test]
    fn slowest_first_unit_still_lands_first() {
        const N: usize = 64;
        for workers in [1, 4] {
            let others_done = AtomicUsize::new(0);
            let out = collect(N, workers, |i| {
                if i > 0 {
                    others_done.fetch_add(1, Ordering::SeqCst);
                } else if workers > 1 {
                    while others_done.load(Ordering::SeqCst) < N - 1 {
                        thread::yield_now();
                    }
                }
                i
            })
            .unwrap();
            let units: Vec<usize> = out.iter().map(|&(u, _)| u).collect();
            assert_eq!(units, (0..N).collect::<Vec<_>>(), "workers {workers}");
        }
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
    fn transient_panic_is_contained_and_retried() {
        // Unit 13 panics on its first execution only; the retry in
        // place must recover it and the result must be complete and
        // correct at every worker count, whether the unit lands on the
        // caller's thread or a spawned one.
        for workers in [1, 2, 4] {
            let fired = AtomicU64::new(0);
            let out = collect(40, workers, |i| {
                if i == 13 && fired.swap(1, Ordering::Relaxed) == 0 {
                    panic!("transient failure at {i}");
                }
                i * 2
            })
            .unwrap_or_else(|e| panic!("workers {workers}: {e}"));
            assert_eq!(out, (0..40).map(|i| (i, i * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_panic_surfaces_as_typed_error() {
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
        // Every chunk below the cursed one still ran (40 folds), and
        // both attempts of chunk 5 got as far as item 42 (3 folds each).
        assert!(calls.load(Ordering::Relaxed) >= 46);
    }

    /// With two persistent failures the lower unit is reported, and the
    /// sink has seen exactly the units below it.
    #[test]
    fn lowest_failing_unit_is_reported() {
        for workers in [1, 2, 4] {
            let mut seen = Vec::new();
            let err = parallel_for_ordered(
                64,
                workers,
                |i| {
                    if i == 10 || i == 40 {
                        panic!("unit {i} is cursed");
                    }
                    i
                },
                |u, _| seen.push(u),
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    PoolError::UnitPanicked {
                        unit: 10,
                        attempts: 2,
                        ..
                    }
                ),
                "workers {workers}: {err:?}"
            );
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn inline_path_contains_panics_too() {
        let err = collect(8, 1, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        })
        .unwrap_err();
        assert!(matches!(err, PoolError::UnitPanicked { attempts: 2, .. }));
    }

    #[test]
    fn sink_panic_is_a_lost_worker() {
        // At two and more workers the sink call may run on the caller's
        // worker or a spawned one; either way it is a lost worker.
        for workers in [1, 2, 4] {
            let err = parallel_for_ordered(
                16,
                workers,
                |i| i,
                |u, _| {
                    if u == 3 {
                        panic!("sink broke");
                    }
                },
            )
            .unwrap_err();
            assert!(
                matches!(&err, PoolError::WorkerLost { message } if message.contains("sink broke")),
                "workers {workers}: {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_and_missing_units_are_hard_errors_in_all_profiles() {
        // `land` is the single point every computed unit passes
        // through; a double execution must be rejected even in release
        // builds, without overwriting the first value.
        let mut seen = Vec::new();
        let mut ordered = Ordered::new(|u, v: u32| seen.push((u, v)));
        ordered.land(1, 10);
        ordered.land(1, 11);
        assert_eq!(ordered.failed, Some(PoolError::DuplicateUnit { unit: 1 }));
        assert_eq!(ordered.tail.get(&1), Some(&10), "first value kept");
        ordered.land(0, 5);
        ordered.land(0, 6);
        assert_eq!(ordered.next, 2);
        assert_eq!(ordered.finish(2), Err(PoolError::DuplicateUnit { unit: 1 }));
        assert_eq!(seen, vec![(0, 5), (1, 10)]);

        let mut ordered = Ordered::new(|_, _: u32| {});
        ordered.land(0, 1);
        ordered.land(2, 1);
        assert_eq!(ordered.finish(3), Err(PoolError::MissingUnit { unit: 1 }));
    }
}
