//! Two-level (hierarchical) simulation: buddy checkpointing plus
//! periodic global checkpoints to stable storage (§VIII future work).
//!
//! The run is a sequence of *segments* of `K` buddy periods, run as one
//! policy on the kernel ([`crate::run`]). Each segment attempt runs the
//! level-1 schedule from `t = 0` of a clock whose origin the policy
//! owns. A **fatal** buddy failure no longer ends the run: the
//! application reloads the last global checkpoint (blocking `D + Rg`)
//! and re-runs the segment. A completed segment is sealed by a blocking
//! global write `Cg`. Both are kernel transfers, and the kernel counts
//! and timelines the failures during them. The failure cap applies to
//! each segment attempt and each transfer separately.
//!
//! Transfers are **resumable**: each node writes or reads its own file,
//! so what was moved persists and a failure only pauses the transfer —
//! for a `D + R` buddy recovery during a write (the segment boundary's
//! buddy snapshots are intact), for the struck node's downtime `D`
//! during a reload. A failure during a pause restarts the pause. A
//! full-restart write would be unusable in exactly the regimes that
//! need global checkpoints (`Cg ≳ M` ⇒ `e^{Cg/M}` expected restarts).
//!
//! Known first-order seams, shared with the analytical
//! `HierarchicalModel`: risk windows do not persist across segment
//! boundaries (window ≪ segment), and a failure during a transfer is
//! never fatal and opens no risk window (a transfer ≪ a segment).

use crate::config::RunConfig;
use crate::run::{
    Policy, Resume, RunMachine, RunOutcome, RunState, Stop, StopReason, TimelineEvent,
};
use dck_core::{GlobalStore, ModelError};
use dck_failures::{FailureEvent, FailureSource};
use dck_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Configuration of a two-level run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalRunConfig {
    /// Level-1 (buddy) configuration.
    pub inner: RunConfig,
    /// Level-2 storage costs.
    pub store: GlobalStore,
    /// Buddy periods per global segment (`K`).
    pub periods_per_global: u32,
    /// Safety cap on fatal rollbacks per run.
    pub max_rollbacks: u64,
}

/// Outcome of a two-level run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalOutcome {
    /// Wall-clock duration.
    pub total_time: f64,
    /// Useful work completed.
    pub useful_work: f64,
    /// Level-1 failures absorbed from buddy memory.
    pub failures: u64,
    /// Fatal buddy failures converted into global rollbacks.
    pub fatal_rollbacks: u64,
    /// Global checkpoints written.
    pub global_writes: u64,
    /// True if the work target was reached (false = rollback cap hit).
    pub completed: bool,
}

impl HierarchicalOutcome {
    /// Empirical waste.
    pub fn waste(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            (1.0 - self.useful_work / self.total_time).clamp(0.0, 1.0)
        }
    }
}

/// Runs `t_base` units of work under the two-level scheme.
///
/// # Errors
/// Propagates level-1 configuration errors; `periods_per_global ≥ 1`.
pub fn run_hierarchical(
    cfg: &HierarchicalRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<HierarchicalOutcome, ModelError> {
    drive(cfg, t_base, source, |_| {}).map(|(_, out)| out)
}

/// [`run_hierarchical`], with the kernel's outcome and its timeline.
pub(crate) fn drive<S: FailureSource + ?Sized>(
    cfg: &HierarchicalRunConfig,
    t_base: f64,
    source: &mut S,
    observe: impl FnMut(TimelineEvent),
) -> Result<(RunOutcome, HierarchicalOutcome), ModelError> {
    if cfg.periods_per_global == 0 {
        return Err(ModelError::invalid("periods_per_global", "must be >= 1"));
    }
    let mut machine = RunMachine::new(&cfg.inner)?;
    let segment_work = cfg.periods_per_global as f64 * machine.sched.work_per_period();
    let mut h = Hierarchical {
        cfg: *cfg,
        t_base,
        segment_work,
        origin: SimTime::ZERO,
        target: t_base.min(segment_work),
        committed: 0.0,
        rollbacks: 0,
        writes: 0,
        transfer: None,
    };
    let run = machine.drive(Stop::Work(h.target), source, &mut h, observe)?;
    let out = HierarchicalOutcome {
        total_time: run.total_time,
        useful_work: match run.reason {
            StopReason::WorkComplete => t_base,
            StopReason::Fatal => h.committed,
            _ => h.committed + run.useful_work,
        },
        failures: run.failures,
        fatal_rollbacks: h.rollbacks,
        global_writes: h.writes,
        completed: run.reason == StopReason::WorkComplete,
    };
    Ok((run, out))
}

/// The two-level policy. The kernel's clock starts at `origin` on the
/// wall clock; during a transfer the origin is 0, so the transfer's
/// arithmetic runs in absolute seconds.
struct Hierarchical {
    cfg: HierarchicalRunConfig,
    t_base: f64,
    segment_work: f64,
    origin: SimTime,
    /// Work of the current segment.
    target: f64,
    /// Work sealed on stable storage.
    committed: f64,
    rollbacks: u64,
    writes: u64,
    /// The transfer in progress: `Some(true)` for a global write,
    /// `Some(false)` for a reload.
    transfer: Option<bool>,
}

impl Policy for Hierarchical {
    fn next_failure<S: FailureSource + ?Sized>(&mut self, source: &mut S) -> FailureEvent {
        let mut ev = source.next_failure();
        ev.at -= self.origin;
        ev
    }

    fn resume(&mut self, fatal: bool, run: &mut RunState, next: &mut FailureEvent) -> Resume {
        if let Some(write) = self.transfer.take() {
            if write {
                self.writes += 1;
                self.committed += self.target;
                if self.committed >= self.t_base {
                    return Resume::Stop;
                }
                self.target = (self.t_base - self.committed).min(self.segment_work);
            }
            // The next segment, or the same one again after a reload.
            self.origin = SimTime::seconds(run.t);
            next.at -= self.origin;
            return Resume::Segment(self.target, run.t);
        }
        let (origin, params) = (self.origin.as_secs(), self.cfg.inner.params);
        // Transfers are resumable; a failure pauses a write for a buddy
        // recovery `D + R`, a reload for the struck node's downtime `D`.
        let (from, left, pause) = if fatal {
            self.rollbacks += 1;
            if self.rollbacks >= self.cfg.max_rollbacks {
                return Resume::Stop;
            }
            // Reload: `D + Rg` from the failure, counted from the
            // attempt's origin. The attempt's work is lost.
            run.v = 0.0;
            let left = run.t + params.downtime + self.cfg.store.read_time;
            (origin, left, params.downtime)
        } else if self.committed >= self.t_base {
            // No work was asked for: there is nothing to seal.
            return Resume::Stop;
        } else {
            let recovery = params.downtime + params.recovery();
            (origin + run.t, self.cfg.store.write_time, recovery)
        };
        // The transfer runs on the wall clock.
        run.t += origin;
        next.at += self.origin;
        self.origin = SimTime::ZERO;
        self.transfer = Some(!fatal);
        Resume::Transfer { from, left, pause }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use dck_core::{HierarchicalModel, PlatformParams, Protocol};
    use dck_failures::{AggregatedExponential, FailureTrace, MtbfSpec};
    use dck_simcore::RngFactory;

    fn params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn store() -> GlobalStore {
        GlobalStore::new(600.0, 600.0).unwrap()
    }

    fn cfg(protocol: Protocol, nodes: u64, phi: f64, mtbf: f64, k: u32) -> HierarchicalRunConfig {
        HierarchicalRunConfig {
            inner: RunConfig::new(protocol, params(nodes), phi, mtbf),
            store: store(),
            periods_per_global: k,
            max_rollbacks: 10_000,
        }
    }

    fn exp_source(c: &HierarchicalRunConfig, seed: u64) -> AggregatedExponential {
        let spec = MtbfSpec::Individual {
            mtbf: SimTime::seconds(c.inner.mtbf * c.inner.params.nodes as f64),
            nodes: c.inner.usable_nodes(),
        };
        AggregatedExponential::new(spec, RngFactory::new(seed).stream(0))
    }

    #[test]
    fn failure_free_run_pays_exactly_the_global_writes() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 1e9, 10);
        c.inner.period = PeriodChoice::Explicit(100.0);
        // 10 periods × 97 work = 970 per segment; ask for 2 segments.
        let trace = FailureTrace::new(8, vec![]);
        let out = run_hierarchical(&c, 1940.0, &mut trace.replay()).unwrap();
        assert!(out.completed);
        assert_eq!(out.global_writes, 2);
        assert_eq!(out.fatal_rollbacks, 0);
        // 2 × (1000 schedule + 600 write).
        assert!((out.total_time - 3200.0).abs() < 1e-6, "{}", out.total_time);
        assert!((out.useful_work - 1940.0).abs() < 1e-9);
    }

    #[test]
    fn partial_last_segment_supported() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 1e9, 10);
        c.inner.period = PeriodChoice::Explicit(100.0);
        let trace = FailureTrace::new(8, vec![]);
        // 1.5 segments of work: the final write still seals the tail.
        let out = run_hierarchical(&c, 1455.0, &mut trace.replay()).unwrap();
        assert!(out.completed);
        assert_eq!(out.global_writes, 2);
        assert!((out.useful_work - 1455.0).abs() < 1e-9);
    }

    #[test]
    fn fatal_failure_rolls_back_instead_of_dying() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 1e9, 10);
        c.inner.period = PeriodChoice::Explicit(100.0);
        // Buddy pair (0,1) dies within the 38 s risk window at t=250:
        // fatal for plain level-1 — here it must roll back and finish.
        let trace = FailureTrace::new(
            8,
            vec![
                FailureEvent {
                    at: SimTime::seconds(250.0),
                    node: 0,
                },
                FailureEvent {
                    at: SimTime::seconds(260.0),
                    node: 1,
                },
            ],
        );
        let out = run_hierarchical(&c, 970.0, &mut trace.replay()).unwrap();
        assert!(out.completed);
        assert_eq!(out.fatal_rollbacks, 1);
        // Lost the 260 s of the first attempt + D + Rg, then a clean
        // segment: 260 + 600 + 1000 + 600(write).
        assert!((out.total_time - 2460.0).abs() < 1e-6, "{}", out.total_time);
    }

    #[test]
    fn failures_during_a_reload_are_never_fatal() {
        // D = 1: the fatal pair (0,1) at 250/260 starts the reload
        // D + Rg = 601 s, (260, 861). Buddy pair (2,3) then fails at 400
        // and 410, inside the reload: counted, never fatal, and each
        // pauses the reload for the downtime D.
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 1e9, 10);
        c.inner.params = PlatformParams::new(1.0, 2.0, 4.0, 10.0, 8).unwrap();
        c.inner.period = PeriodChoice::Explicit(100.0);
        let events = [(250.0, 0), (260.0, 1), (400.0, 2), (410.0, 3)];
        let trace = FailureTrace::new(
            8,
            events
                .iter()
                .map(|&(at, node)| FailureEvent {
                    at: SimTime::seconds(at),
                    node,
                })
                .collect(),
        );
        let out = run_hierarchical(&c, 970.0, &mut trace.replay()).unwrap();
        assert!(out.completed);
        assert_eq!(out.fatal_rollbacks, 1);
        assert_eq!(out.failures, 4);
        // Reload ends at 861 + 2·D = 863; then a clean segment and its
        // write: 863 + 1000 + 600.
        assert!((out.total_time - 2463.0).abs() < 1e-6, "{}", out.total_time);
    }

    #[test]
    fn failure_during_global_write_pauses_it() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 1e9, 10);
        c.inner.period = PeriodChoice::Explicit(100.0);
        // Segment completes at t = 1000; write runs (1000, 1600); a
        // failure at 1300 pauses it for D + R = 4 and the 300 s already
        // written persist: the remaining 300 s complete at 1904... no —
        // resume at 1304 with 300 s left ⇒ done at 1604.
        let trace = FailureTrace::new(
            8,
            vec![FailureEvent {
                at: SimTime::seconds(1300.0),
                node: 2,
            }],
        );
        let out = run_hierarchical(&c, 970.0, &mut trace.replay()).unwrap();
        assert!(out.completed);
        assert_eq!(out.global_writes, 1);
        assert!((out.total_time - 1604.0).abs() < 1e-6, "{}", out.total_time);
        // A second failure at 1302, inside that recovery, restarts it:
        // the recovery ends at 1306 and the 300 s still to write finish
        // at 1606. Nothing is written during a recovery.
        let trace = FailureTrace::new(
            8,
            vec![
                FailureEvent {
                    at: SimTime::seconds(1300.0),
                    node: 2,
                },
                FailureEvent {
                    at: SimTime::seconds(1302.0),
                    node: 4,
                },
            ],
        );
        let out = run_hierarchical(&c, 970.0, &mut trace.replay()).unwrap();
        assert!(out.completed);
        assert_eq!(out.failures, 2);
        assert!((out.total_time - 1606.0).abs() < 1e-6, "{}", out.total_time);
    }

    #[test]
    fn monte_carlo_matches_hierarchical_model() {
        // Harsh-ish regime at blocking φ so level 1 progresses: the
        // two-level waste prediction should land near the simulation.
        let m = 300.0;
        let k = 40;
        let c = cfg(Protocol::DoubleNbl, 64, 4.0, m, k);
        let model = HierarchicalModel::new(Protocol::DoubleNbl, &params(64), 4.0, store())
            .unwrap()
            .evaluate(k, m)
            .unwrap();
        let mut wastes = Vec::new();
        for seed in 0..24 {
            let mut src = exp_source(&c, seed);
            let out = run_hierarchical(&c, 30.0 * m, &mut src).unwrap();
            assert!(out.completed);
            wastes.push(out.waste());
        }
        let mean: f64 = wastes.iter().sum::<f64>() / wastes.len() as f64;
        assert!(
            (mean - model.waste).abs() < 0.12,
            "sim {mean} vs model {}",
            model.waste
        );
    }

    #[test]
    fn rollback_cap_reported() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 1e9, 10);
        c.inner.period = PeriodChoice::Explicit(100.0);
        c.max_rollbacks = 1;
        // Every attempt dies: pairs keep failing together.
        let events: Vec<FailureEvent> = (0..200)
            .flat_map(|i| {
                let t = 100.0 + i as f64 * 2000.0;
                [
                    FailureEvent {
                        at: SimTime::seconds(t),
                        node: 0,
                    },
                    FailureEvent {
                        at: SimTime::seconds(t + 5.0),
                        node: 1,
                    },
                ]
            })
            .collect();
        let trace = FailureTrace::new(8, events);
        let out = run_hierarchical(&c, 1e9, &mut trace.replay()).unwrap();
        assert!(!out.completed);
        assert_eq!(out.fatal_rollbacks, 1);
    }
}
