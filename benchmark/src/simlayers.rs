//! Per-failure simulation layers, timed by replaying the inputs a
//! traced run recorded.
//!
//! A replication calls these layers once per failure event, far too
//! often to span each call. The traced run keeps, per replication, the
//! events its failure source handed out ([`crate::trace::Recording`])
//! and the outcome; the replay pushes exactly those inputs through the
//! same public functions: `RngFactory::component_stream`,
//! `fill_exponential_events`,
//! `AggregatedExponential::next_failure`, `PeriodSchedule::work_at` and
//! `time_to_reach_work`, `FailureResponse::outage`,
//! `RiskTracker::record_failure`, `OnlineStats::push` and
//! `RunConfig::build`.

use crate::trace::ns_per_call;
use dck_failures::{AggregatedExponential, FailureEvent, FailureSource, MtbfSpec};
use dck_sim::{run_to_completion_traced, RunConfig, RunOutcome, StopReason, TimelineEvent};
use dck_simcore::par::parallel_map_fold;
use dck_simcore::{fill_exponential_events, OnlineStats, RngFactory};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Largest refill of `AggregatedExponential`; refills start at 8 and
/// double up to this, which the fill replay reproduces.
const FILL_BATCH_MAX: usize = 64;
const FILL_BATCH_FIRST: usize = 8;

/// Replications whose failure offsets are re-derived for the outage
/// replay (a traced re-run each, so the sample is capped).
const OFFSET_SAMPLE_REPS: usize = 512;

/// One recorded replication.
#[derive(Debug, Clone)]
pub struct RepRecord {
    /// Replication index (selects the RNG stream).
    pub rep: u64,
    /// Every event the failure source handed out, in order.
    pub events: Vec<FailureEvent>,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl RepRecord {
    /// The events the simulator handled (the last drawn event of a
    /// completed run lies beyond its end and is never handled).
    pub fn handled(&self) -> &[FailureEvent] {
        let n = (self.outcome.failures as usize).min(self.events.len());
        &self.events[..n]
    }
}

/// The recorded replications of one operating point, with what is
/// needed to rebuild their failure streams.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The run configuration.
    pub cfg: RunConfig,
    /// The failure source's calibration.
    pub mtbf: MtbfSpec,
    /// Master seed of the source streams.
    pub master: u64,
    /// Useful work per replication (s).
    pub t_base: f64,
    /// Replications, in index order.
    pub reps: Vec<RepRecord>,
}

impl CellRecord {
    fn stream(&self, rep: u64) -> StdRng {
        RngFactory::new(self.master).component_stream("failures", rep)
    }

    /// The replication's failure source, rebuilt from the recipe.
    pub fn source(&self, rep: u64) -> AggregatedExponential {
        AggregatedExponential::new(self.mtbf, self.stream(rep))
    }
}

/// How the risk replay treats the tracker's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// One tracker per operating point, reset between replications: the
    /// sweep engine's steady state when the tracker fits in cache.
    Warm,
    /// A freshly built tracker for every `n` replications, as the sweep
    /// engine builds one per work unit; each replay runs once, so its
    /// first touches stay cold.
    FreshEvery(usize),
}

/// Unit costs of the per-failure layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCosts {
    /// `RngFactory::component_stream`, once per replication.
    pub stream_ns: f64,
    /// `fill_exponential_events`, per gap drawn.
    pub fill_ns: f64,
    /// `AggregatedExponential::next_failure`, refills included.
    pub next_failure_ns: f64,
    /// `PeriodSchedule::time_to_reach_work` / `work_at`, per call.
    pub schedule_ns: f64,
    /// `FailureResponse::outage`, per call.
    pub outage_ns: f64,
    /// `RiskTracker::record_failure`, per call.
    pub risk_ns: f64,
    /// `OnlineStats::push`, per call.
    pub push_ns: f64,
    /// `RunConfig::build` plus drop (µs).
    pub build_us: f64,
}

/// Counts over the recorded replications.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    /// Replications.
    pub reps: u64,
    /// Events drawn from the sources.
    pub events: u64,
    /// Failures handled.
    pub failures: u64,
    /// Replications that completed their work.
    pub completed: u64,
}

/// Counts over `cells`.
pub fn counts(cells: &[CellRecord]) -> SimCounts {
    let mut c = SimCounts::default();
    for r in cells.iter().flat_map(|cell| &cell.reps) {
        c.reps += 1;
        c.events += r.events.len() as u64;
        c.failures += r.handled().len() as u64;
        c.completed += u64::from(r.outcome.reason == StopReason::WorkComplete);
    }
    c
}

/// Replays the recorded inputs of `cells` through every per-failure
/// layer and returns the unit costs.
///
/// # Errors
/// Fails when a configuration no longer builds or nothing was recorded.
pub fn replay(cells: &[CellRecord], touch: Touch) -> Result<SimCosts, String> {
    let first = cells
        .first()
        .ok_or_else(|| "no recorded operating point to replay".to_string())?;
    // Trackers are dropped as soon as each build returns: a sweep of Exa
    // operating points would otherwise hold 16 MB per point.
    let built: Vec<_> = cells
        .iter()
        .map(|c| {
            c.cfg
                .build()
                .map(|(s, r, _)| (s, r))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let c = counts(cells);
    let missing = |what: &str| format!("nothing recorded to replay {what}");

    let templates: Vec<Vec<StdRng>> = cells
        .iter()
        .map(|cell| cell.reps.iter().map(|r| cell.stream(r.rep)).collect())
        .collect();
    let mut gaps = [0.0f64; FILL_BATCH_MAX];
    let mut victims = [0u64; FILL_BATCH_MAX];
    let mut filled_total = 0usize;
    for cell in cells {
        for r in &cell.reps {
            filled_total += fill_sizes(r.events.len()).sum::<usize>();
        }
    }
    let stream_ns = ns_per_call(c.reps as usize, || {
        for cell in cells {
            let factory = RngFactory::new(cell.master);
            for r in &cell.reps {
                black_box(factory.component_stream("failures", black_box(r.rep)));
            }
        }
    })
    .ok_or_else(|| missing("stream derivations"))?;

    let fill_ns = ns_per_call(filled_total, || {
        for (cell, rngs) in cells.iter().zip(&templates) {
            let mean = cell.mtbf.platform_mtbf().as_secs();
            let nodes = cell.mtbf.nodes();
            for (r, rng0) in cell.reps.iter().zip(rngs) {
                let mut rng = rng0.clone();
                for b in fill_sizes(r.events.len()) {
                    fill_exponential_events(
                        &mut rng,
                        mean,
                        nodes,
                        &mut gaps[..b],
                        &mut victims[..b],
                    );
                    black_box((&gaps, &victims));
                }
            }
        }
    })
    .ok_or_else(|| missing("exponential fills"))?;

    let next_failure_ns = ns_per_call(c.events as usize, || {
        for (cell, rngs) in cells.iter().zip(&templates) {
            for (r, rng0) in cell.reps.iter().zip(rngs) {
                let mut src = AggregatedExponential::new(cell.mtbf, rng0.clone());
                for _ in 0..r.events.len() {
                    black_box(src.next_failure());
                }
            }
        }
    })
    .ok_or_else(|| missing("failure draws"))?;

    let schedule_ns = ns_per_call(2 * c.reps as usize, || {
        for (cell, (sched, _)) in cells.iter().zip(&built) {
            for _ in &cell.reps {
                let v = sched.time_to_reach_work(black_box(cell.t_base));
                black_box(sched.work_at(black_box(v)));
            }
        }
    })
    .ok_or_else(|| missing("schedule arithmetic"))?;

    let offsets = failure_offsets(cells)?;
    let outage_ns = ns_per_call(offsets.iter().map(Vec::len).sum(), || {
        for ((_, resp), offs) in built.iter().zip(&offsets) {
            for &off in offs {
                black_box(resp.outage(black_box(off)));
            }
        }
    })
    .ok_or_else(|| missing("outages"))?;

    let risk_ns = match touch {
        Touch::Warm => {
            let mut trackers: Vec<_> = cells
                .iter()
                .map(|c| c.cfg.build().map(|(_, _, t)| t).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            ns_per_call(c.failures as usize, || {
                for (cell, tracker) in cells.iter().zip(trackers.iter_mut()) {
                    for r in &cell.reps {
                        tracker.reset();
                        for e in r.handled() {
                            black_box(tracker.record_failure(e.node, e.at.as_secs()));
                        }
                    }
                }
            })
        }
        Touch::FreshEvery(unit) => cold_risk_ns(cells, unit.max(1))?,
    }
    .ok_or_else(|| missing("risk windows"))?;

    let samples: Vec<(f64, f64)> = cells
        .iter()
        .flat_map(|cell| &cell.reps)
        .filter(|r| r.outcome.reason == StopReason::WorkComplete)
        .map(|r| (r.outcome.waste(), r.outcome.failures as f64))
        .collect();
    let push_ns = ns_per_call(2 * samples.len(), || {
        let mut waste = OnlineStats::new();
        let mut fails = OnlineStats::new();
        for &(w, f) in &samples {
            waste.push(black_box(w));
            fails.push(black_box(f));
        }
        black_box((waste, fails));
    })
    .ok_or_else(|| missing("statistics pushes"))?;

    let build_ns = ns_per_call(1, || {
        black_box(first.cfg.build().ok());
    })
    .ok_or_else(|| missing("configuration builds"))?;

    Ok(SimCosts {
        stream_ns,
        fill_ns,
        next_failure_ns,
        schedule_ns,
        outage_ns,
        risk_ns,
        push_ns,
        build_us: build_ns / 1e3,
    })
}

/// Refill sizes `AggregatedExponential` uses to hand out `events`
/// events.
fn fill_sizes(events: usize) -> impl Iterator<Item = usize> {
    let mut filled = 0usize;
    let mut batch = FILL_BATCH_FIRST;
    std::iter::from_fn(move || {
        if filled >= events {
            return None;
        }
        let b = batch;
        filled += b;
        batch = (batch * 2).min(FILL_BATCH_MAX);
        Some(b)
    })
}

/// Failure offsets into the period, per operating point, re-derived
/// from the timelines of a sample of the recorded replications.
fn failure_offsets(cells: &[CellRecord]) -> Result<Vec<Vec<f64>>, String> {
    let per_cell = (OFFSET_SAMPLE_REPS / cells.len().max(1)).max(1);
    cells
        .iter()
        .map(|cell| {
            let mut offs = Vec::new();
            for r in cell.reps.iter().take(per_cell) {
                let mut src = cell.source(r.rep);
                let (_, timeline) = run_to_completion_traced(&cell.cfg, cell.t_base, &mut src)
                    .map_err(|e| e.to_string())?;
                offs.extend(timeline.iter().filter_map(|e| match e {
                    TimelineEvent::Failure { offset, .. } => Some(*offset),
                    _ => None,
                }));
            }
            Ok(offs)
        })
        .collect()
}

/// Risk-window cost on fresh trackers: a new one per `unit`
/// replications, built and dropped outside the timed region.
fn cold_risk_ns(cells: &[CellRecord], unit: usize) -> Result<Option<f64>, String> {
    let mut elapsed = Duration::ZERO;
    let mut calls = 0usize;
    for cell in cells {
        for chunk in cell.reps.chunks(unit) {
            let (_, _, mut tracker) = cell.cfg.build().map_err(|e| e.to_string())?;
            let start = Instant::now();
            for r in chunk {
                tracker.reset();
                for e in r.handled() {
                    black_box(tracker.record_failure(e.node, e.at.as_secs()));
                }
            }
            elapsed += start.elapsed();
            calls += chunk.iter().map(|r| r.handled().len()).sum::<usize>();
        }
    }
    Ok((calls > 0).then(|| elapsed.as_nanos() as f64 / calls as f64))
}

/// Pool dispatch costs in µs: the per-unit overhead of
/// `parallel_map_fold` with an empty fold and chunk 8 (inline, so it is
/// one thread's time), and one pool call with `workers` threads and one
/// trivial unit each (spawn plus join).
///
/// # Errors
/// Fails when the pool reports an error.
pub fn par_costs(workers: usize) -> Result<(f64, f64), String> {
    const UNITS: usize = 4096;
    let mut failure = None;
    let unit_ns = ns_per_call(UNITS, || {
        let acc = parallel_map_fold(
            UNITS * 8,
            1,
            8,
            || (OnlineStats::new(), OnlineStats::new()),
            |_, i| {
                black_box(i);
            },
            |mut a, b| {
                a.0.merge(&b.0);
                a.1.merge(&b.1);
                a
            },
        );
        if let Err(e) = &acc {
            failure = Some(e.to_string());
        }
        black_box(acc.ok());
    });
    let spawn_ns = ns_per_call(1, || {
        let sum = parallel_map_fold(
            workers,
            workers,
            1,
            || 0u64,
            |a, i| *a += i as u64,
            |a, b| a + b,
        );
        if let Err(e) = &sum {
            failure = Some(e.to_string());
        }
        black_box(sum.ok());
    });
    if let Some(e) = failure {
        return Err(format!("pool failed during the dispatch replay: {e}"));
    }
    match (unit_ns, spawn_ns) {
        (Some(u), Some(s)) => Ok((u / 1e3, s / 1e3)),
        _ => Err("pool dispatch replay measured nothing".to_string()),
    }
}

/// Share of one replication's traced time (`run_us`, through the boxed
/// path, which builds its configuration per run) that the per-failure
/// layers and the build account for.
pub fn covered_share(costs: &SimCosts, c: &SimCounts, run_us: f64) -> f64 {
    if c.reps == 0 || run_us <= 0.0 {
        return 0.0;
    }
    let reps = c.reps as f64;
    let per_rep_ns = costs.build_us * 1e3
        + costs.stream_ns
        + c.events as f64 / reps * costs.next_failure_ns
        + c.failures as f64 / reps * (costs.outage_ns + costs.risk_ns)
        + 2.0 * costs.schedule_ns;
    per_rep_ns / (run_us * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_sizes_follow_the_doubling_refills() {
        assert_eq!(fill_sizes(0).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(fill_sizes(1).collect::<Vec<_>>(), [8]);
        assert_eq!(fill_sizes(9).collect::<Vec<_>>(), [8, 16]);
        assert_eq!(fill_sizes(130).collect::<Vec<_>>(), [8, 16, 32, 64, 64]);
    }
}
