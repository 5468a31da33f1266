//! Single-run protocol simulation.
//!
//! The simulator advances in O(1) per failure event: between failures
//! the platform follows the deterministic period schedule, so nothing
//! needs to happen per period. State is three scalars — wall-clock
//! time `t`, schedule position `v` (seconds of schedule successfully
//! executed; work is `schedule.work_at(v)`), and an optional in-flight
//! outage `(end, off)`.
//!
//! Failure handling: a failure at schedule offset `off` freezes `v` and
//! opens an outage of `D + blocking + RE(off)` (§III/§V case analysis).
//! A failure during an outage rolls the platform back again: the outage
//! restarts in full from the same schedule position — the recovery and
//! partially re-executed work are lost, exactly as they would be on a
//! real machine where no new checkpoint exists until the schedule
//! resumes. Every failure also opens a fixed-length risk window for the
//! victim's group; a failure that closes the last redundant copy of a
//! group (buddy within an open window / all three triple members) is
//! **fatal** and ends the run.

use crate::config::RunConfig;
use dck_core::ModelError;
use dck_failures::FailureSource;
use serde::{Deserialize, Serialize};

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The configured amount of useful work was completed.
    WorkComplete,
    /// The exploitation horizon was reached (risk-mode runs).
    HorizonReached,
    /// A fatal failure destroyed a group's checkpoint data.
    Fatal,
    /// The failure-count safety cap was hit before completion.
    FailureCapReached,
    /// The schedule delivers no work at all (`W ≤ 0`): the operating
    /// point cannot make progress regardless of failures.
    NoProgress,
}

/// The measured outcome of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Wall-clock duration of the run (seconds).
    pub total_time: f64,
    /// Useful work completed (work units = seconds at unit speed).
    pub useful_work: f64,
    /// Failures processed.
    pub failures: u64,
    /// Wall-clock time spent in outages (downtime + blocking +
    /// re-execution).
    pub outage_time: f64,
    /// Time of the fatal failure, if one occurred.
    pub fatal_at: Option<f64>,
}

impl RunOutcome {
    /// Empirical waste: the fraction of wall-clock time not converted
    /// into useful work (0 for an empty run).
    ///
    /// `useful_work > total_time` is impossible for a real run (work
    /// accrues at unit speed); an outcome in that state is corrupted
    /// upstream. Clamping silently would launder it into a legal-looking
    /// waste of 0, so this records the always-on defect counter
    /// `run.waste_clamped` and debug-panics before clamping. A small
    /// negative tolerance absorbs float rounding at run boundaries.
    pub fn waste(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        let raw = 1.0 - self.useful_work / self.total_time;
        if raw < -1e-9 {
            // Count before asserting so release builds still record the
            // defect that debug builds would panic on.
            dck_obs::incr("run.waste_clamped");
            debug_assert!(
                false,
                "corrupt RunOutcome: useful_work {} exceeds total_time {} (raw waste {raw})",
                self.useful_work, self.total_time
            );
        }
        raw.clamp(0.0, 1.0)
    }

    /// True if the run saw no fatal failure.
    pub fn survived(&self) -> bool {
        self.fatal_at.is_none()
    }
}

/// When a run stops: after a fixed amount of useful work (waste mode)
/// or at a wall-clock horizon (risk mode). Crate-internal; the public
/// entry points pick the variant.
pub(crate) enum Stop {
    Work(f64),
    Horizon(f64),
}

/// One event in a simulated run's timeline (see
/// [`run_to_completion_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// A failure struck.
    Failure {
        /// Wall-clock time.
        at: f64,
        /// Victim node.
        node: u64,
        /// Offset into the checkpoint period at which it struck.
        offset: f64,
        /// Planned outage (downtime + blocking + re-execution).
        outage: f64,
        /// Whether this failure was fatal.
        fatal: bool,
        /// Whether it struck during an already-running outage
        /// (restarting it).
        during_outage: bool,
    },
    /// An outage completed and the schedule resumed.
    OutageEnd {
        /// Wall-clock time.
        at: f64,
    },
    /// The adaptive controller committed a new period, applied at a
    /// period boundary (see `dck-sim`'s adaptive executor). Never
    /// emitted by the static machine.
    Retune {
        /// Wall-clock time at which the new schedule took effect.
        at: f64,
        /// Period before the retune (seconds).
        old_period: f64,
        /// Period after the retune (seconds).
        new_period: f64,
        /// The MTBF estimate that drove the decision (seconds).
        mtbf_estimate: f64,
    },
    /// The run ended. Emitted on **every** stop path — a traced
    /// timeline always carries exactly one terminal `Finished` event,
    /// whose `reason` equals [`RunOutcome::reason`].
    Finished {
        /// Wall-clock time.
        at: f64,
        /// Why it ended.
        reason: StopReason,
    },
}

/// Runs until `t_base` units of useful work are complete (waste
/// measurement mode).
///
/// # Errors
/// Propagates configuration errors, and fails when the failure
/// `source` does not cover exactly [`RunConfig::usable_nodes`] nodes.
pub fn run_to_completion(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<RunOutcome, ModelError> {
    drive(cfg, Stop::Work(t_base), source).map(|(out, _)| out)
}

/// Like [`run_to_completion`], but also returns the failure event the
/// simulator had drawn from the source without handling (its timestamp
/// lies beyond the run's end). Drivers that continue the same failure
/// stream across multiple runs (e.g. the hierarchical wrapper) must
/// re-inject it, or the stream would be thinned at every boundary.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_to_completion_with_pending(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<(RunOutcome, Option<dck_failures::FailureEvent>), ModelError> {
    drive(cfg, Stop::Work(t_base), source)
}

/// Runs for a fixed exploitation horizon (risk measurement mode): the
/// application streams work indefinitely; the question is whether a
/// fatal failure strikes before `horizon`.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_until(
    cfg: &RunConfig,
    horizon: f64,
    source: &mut dyn FailureSource,
) -> Result<RunOutcome, ModelError> {
    drive(cfg, Stop::Horizon(horizon), source).map(|(out, _)| out)
}

/// Like [`run_to_completion`], but records every failure, outage end
/// and completion into a timeline — the observability surface for
/// debugging protocol behaviour and for visualization tooling.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_to_completion_traced(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<(RunOutcome, Vec<TimelineEvent>), ModelError> {
    let mut sink = dck_obs::VecSink::new();
    let out = run_to_completion_sinked(cfg, t_base, source, &mut sink)?;
    Ok((out, sink.into_events()))
}

/// Like [`run_to_completion`], but streams every [`TimelineEvent`] into
/// an [`EventSink`](dck_obs::EventSink) as it happens — no intermediate
/// `Vec`, so a long run can trace straight to a JSONL file. The sink is
/// flushed before returning.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_to_completion_sinked(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
    sink: &mut dyn dck_obs::EventSink<TimelineEvent>,
) -> Result<RunOutcome, ModelError> {
    let (out, _) = RunMachine::new(cfg)?.drive(Stop::Work(t_base), source, |e| sink.emit(&e))?;
    sink.flush();
    Ok(out)
}

/// Like [`run_until`], but records the full timeline (see
/// [`run_to_completion_traced`]).
///
/// # Errors
/// Propagates configuration errors.
pub fn run_until_traced(
    cfg: &RunConfig,
    horizon: f64,
    source: &mut dyn FailureSource,
) -> Result<(RunOutcome, Vec<TimelineEvent>), ModelError> {
    let mut sink = dck_obs::VecSink::new();
    let out = run_until_sinked(cfg, horizon, source, &mut sink)?;
    Ok((out, sink.into_events()))
}

/// Like [`run_until`], but streams every [`TimelineEvent`] into an
/// [`EventSink`](dck_obs::EventSink) as it happens. The sink is flushed
/// before returning.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_until_sinked(
    cfg: &RunConfig,
    horizon: f64,
    source: &mut dyn FailureSource,
    sink: &mut dyn dck_obs::EventSink<TimelineEvent>,
) -> Result<RunOutcome, ModelError> {
    let (out, _) =
        RunMachine::new(cfg)?.drive(Stop::Horizon(horizon), source, |e| sink.emit(&e))?;
    sink.flush();
    Ok(out)
}

type DriveResult = Result<(RunOutcome, Option<dck_failures::FailureEvent>), ModelError>;

fn drive(cfg: &RunConfig, stop: Stop, source: &mut dyn FailureSource) -> DriveResult {
    RunMachine::new(cfg)?.drive(stop, source, |_| {})
}

/// Reusable simulation machinery for one run configuration.
///
/// Building a [`RunConfig`] resolves the checkpoint period (possibly
/// solving for the optimal one) and derives the failure response and
/// an empty risk tracker — work identical for every replication of a
/// Monte-Carlo estimate, dominated by the period solve (the tracker
/// holds only open windows, so it costs nothing per node). `RunMachine` performs it once and drives
/// many runs against the same machinery: [`RunMachine::drive`] resets
/// the risk tracker on entry and is generic over the failure source,
/// so the Monte-Carlo fast path is monomorphized over the concrete
/// source type (no per-event dyn dispatch) while the public single-run
/// entry points keep their `&mut dyn FailureSource` signatures.
pub(crate) struct RunMachine {
    sched: dck_protocols::PeriodSchedule,
    resp: dck_protocols::FailureResponse,
    tracker: dck_protocols::RiskTracker,
    usable: u64,
    max_failures: u64,
}

impl RunMachine {
    /// Builds the machinery for `cfg`, resolving the period once.
    ///
    /// # Errors
    /// Propagates configuration errors.
    pub(crate) fn new(cfg: &RunConfig) -> Result<Self, ModelError> {
        let (sched, resp, tracker) = cfg.build()?;
        Ok(RunMachine {
            sched,
            resp,
            tracker,
            usable: cfg.usable_nodes(),
            max_failures: cfg.max_failures,
        })
    }

    /// Drives one run to its stop condition. Every return path emits a
    /// terminal [`TimelineEvent::Finished`] before building the
    /// outcome, so traced timelines are never missing their end marker.
    ///
    /// # Errors
    /// Fails when the failure source does not cover exactly the
    /// configuration's usable nodes.
    pub(crate) fn drive<S, O>(&mut self, stop: Stop, source: &mut S, mut observe: O) -> DriveResult
    where
        S: FailureSource + ?Sized,
        O: FnMut(TimelineEvent),
    {
        if source.nodes() != self.usable {
            return Err(ModelError::invalid(
                "failure_source",
                format!(
                    "failure source covers {} nodes but the configuration simulates {} usable nodes",
                    source.nodes(),
                    self.usable
                ),
            ));
        }
        self.tracker.reset();
        let sched = &self.sched;
        let resp = &self.resp;
        let tracker = &mut self.tracker;

        if sched.work_per_period() <= 0.0 {
            // The operating point makes no progress: zero work ever
            // completes, so waste() = 1 by convention. In work mode the
            // requested work is unreachable and total_time is +∞; the
            // terminal event is stamped at 0.0 because no wall-clock
            // usefully elapsed and JSON cannot carry an infinite
            // timestamp. In horizon mode the platform idles out the
            // horizon, so both stamps are the horizon itself.
            let (total_time, finished_at) = match stop {
                Stop::Work(_) => (f64::INFINITY, 0.0),
                Stop::Horizon(h) => (h, h),
            };
            observe(TimelineEvent::Finished {
                at: finished_at,
                reason: StopReason::NoProgress,
            });
            return Ok((
                RunOutcome {
                    reason: StopReason::NoProgress,
                    total_time,
                    useful_work: 0.0,
                    failures: 0,
                    outage_time: 0.0,
                    fatal_at: None,
                },
                None,
            ));
        }

        let v_end = match stop {
            Stop::Work(w) => Some(sched.time_to_reach_work(w)),
            Stop::Horizon(_) => None,
        };
        let horizon = match stop {
            Stop::Work(_) => f64::INFINITY,
            Stop::Horizon(h) => h,
        };

        let mut t = 0.0_f64; // wall clock
        let mut v = 0.0_f64; // schedule position (frozen during outages)
        let mut outage: Option<(f64, f64)> = None; // (end time, period offset)
        let mut failures = 0u64;
        let mut outage_time = 0.0_f64;
        let mut next = source.next_failure();

        let finish = |reason, t: f64, v: f64, failures, outage_time, fatal_at| RunOutcome {
            reason,
            total_time: t,
            useful_work: sched.work_at(v),
            failures,
            outage_time,
            fatal_at,
        };

        loop {
            let next_at = next.at.as_secs();
            let in_outage_at_event = outage.is_some();
            match outage {
                None => {
                    // Completion by work?
                    if let Some(ve) = v_end {
                        let t_complete = t + (ve - v);
                        if next_at >= t_complete && t_complete <= horizon {
                            observe(TimelineEvent::Finished {
                                at: t_complete,
                                reason: StopReason::WorkComplete,
                            });
                            return Ok((
                                finish(
                                    StopReason::WorkComplete,
                                    t_complete,
                                    ve,
                                    failures,
                                    outage_time,
                                    None,
                                ),
                                Some(next),
                            ));
                        }
                    }
                    // Completion by horizon?
                    if next_at >= horizon {
                        let dv = horizon - t;
                        observe(TimelineEvent::Finished {
                            at: horizon,
                            reason: StopReason::HorizonReached,
                        });
                        return Ok((
                            finish(
                                StopReason::HorizonReached,
                                horizon,
                                v + dv,
                                failures,
                                outage_time,
                                None,
                            ),
                            Some(next),
                        ));
                    }
                    // A failure strikes while the schedule is running.
                    v += next_at - t;
                    t = next_at;
                }
                Some((end, _)) => {
                    if next_at >= end && end <= horizon {
                        // Outage completes; schedule resumes.
                        observe(TimelineEvent::OutageEnd { at: end });
                        t = end;
                        outage = None;
                        continue;
                    }
                    if next_at >= horizon {
                        // Horizon falls inside the outage.
                        observe(TimelineEvent::Finished {
                            at: horizon,
                            reason: StopReason::HorizonReached,
                        });
                        return Ok((
                            finish(
                                StopReason::HorizonReached,
                                horizon,
                                v,
                                failures,
                                outage_time,
                                None,
                            ),
                            Some(next),
                        ));
                    }
                    // A failure strikes during the outage: the platform
                    // rolls back again. The remaining planned outage is
                    // discarded (its elapsed part already counted via t)
                    // and `outage` is re-armed below with the new recovery.
                    outage_time -= end - next_at; // un-count the unspent tail
                    t = next_at;
                }
            }

            failures += 1;
            let outcome = tracker.record_failure(next.node, t);
            let off = v % sched.period();
            let o = resp.outage(off);
            observe(TimelineEvent::Failure {
                at: t,
                node: next.node,
                offset: off,
                outage: o.total(),
                fatal: outcome.fatal,
                during_outage: in_outage_at_event,
            });
            if outcome.fatal {
                observe(TimelineEvent::Finished {
                    at: t,
                    reason: StopReason::Fatal,
                });
                return Ok((
                    finish(StopReason::Fatal, t, v, failures, outage_time, Some(t)),
                    None,
                ));
            }
            outage = Some((t + o.total(), off));
            outage_time += o.total();

            if failures >= self.max_failures {
                observe(TimelineEvent::Finished {
                    at: t,
                    reason: StopReason::FailureCapReached,
                });
                return Ok((
                    finish(
                        StopReason::FailureCapReached,
                        t,
                        v,
                        failures,
                        outage_time,
                        None,
                    ),
                    None,
                ));
            }
            next = source.next_failure();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use dck_core::{PlatformParams, Protocol};
    use dck_failures::{FailureEvent, FailureTrace};
    use dck_simcore::SimTime;

    fn base_params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn cfg(protocol: Protocol, nodes: u64, phi: f64, period: f64) -> RunConfig {
        let mut c = RunConfig::new(protocol, base_params(nodes), phi, 7.0 * 3600.0);
        c.period = PeriodChoice::Explicit(period);
        c
    }

    fn trace(nodes: u64, events: &[(f64, u64)]) -> FailureTrace {
        FailureTrace::new(
            nodes,
            events
                .iter()
                .map(|&(at, node)| FailureEvent {
                    at: SimTime::seconds(at),
                    node,
                })
                .collect(),
        )
    }

    #[test]
    fn failure_free_run_is_exact() {
        // φ=1 ⇒ θ=34, P=100, W=97. t_base = 970 ⇒ exactly 10 periods.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let empty = trace(8, &[]);
        let out = run_to_completion(&c, 970.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        assert!((out.total_time - 1000.0).abs() < 1e-9);
        assert!((out.useful_work - 970.0).abs() < 1e-9);
        assert_eq!(out.failures, 0);
        // Waste = fault-free waste = (δ+φ)/P = 3%.
        assert!((out.waste() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn single_failure_costs_exactly_the_outage() {
        // Failure at t = 250 (schedule position 250, offset 50 into the
        // 3rd period — compute phase). Outage = D+R + RE(50) with
        // RE(off≥δ+θ) = off−δ = 48 ⇒ outage = 4 + 48 = 52.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 3)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.failures, 1);
        assert!((out.outage_time - 52.0).abs() < 1e-9);
        assert!((out.total_time - 1052.0).abs() < 1e-9);
        assert_eq!(out.reason, StopReason::WorkComplete);
    }

    #[test]
    fn failure_during_outage_restarts_it() {
        // First failure at 250 opens outage until 302; second failure at
        // 300 (same offset) restarts: new end 300 + 52 = 352.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        // Use distant nodes so nothing is fatal (groups (0,1),(2,3),…).
        let tr = trace(8, &[(250.0, 0), (300.0, 2)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.failures, 2);
        // Outage time = (300−250 spent) + 52 = 102; completion at
        // 352 + (1000 − 250) remaining schedule = 1102.
        assert!(
            (out.outage_time - 102.0).abs() < 1e-9,
            "{}",
            out.outage_time
        );
        assert!((out.total_time - 1102.0).abs() < 1e-9, "{}", out.total_time);
    }

    #[test]
    fn buddy_failure_in_risk_window_is_fatal() {
        // Risk window (NBL, φ=1): D+R+θ = 38. Buddy fails 10 s later.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (260.0, 1)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::Fatal);
        assert_eq!(out.fatal_at, Some(260.0));
        assert!(!out.survived());
    }

    #[test]
    fn buddy_failure_after_risk_window_is_survivable() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        // 38 s window; buddy fails 40 s later.
        let tr = trace(8, &[(250.0, 0), (290.1, 1)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        assert!(out.survived());
    }

    #[test]
    fn triple_survives_double_failure() {
        let c = cfg(Protocol::Triple, 9, 1.0, 100.0);
        let tr = trace(9, &[(250.0, 0), (251.0, 1)]);
        let out = run_to_completion(&c, 960.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        // …but a third member within the windows kills it.
        let tr = trace(9, &[(250.0, 0), (251.0, 1), (252.0, 2)]);
        let out = run_to_completion(&c, 960.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::Fatal);
    }

    #[test]
    fn horizon_mode_reports_work_done() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let empty = trace(8, &[]);
        let out = run_until(&c, 1000.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        assert!((out.useful_work - 970.0).abs() < 1e-9);
        assert!((out.waste() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn horizon_inside_outage() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0)]);
        // Outage runs 250→302; horizon at 275 lands inside it.
        let out = run_until(&c, 275.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        // Work frozen at the failure position: work_at(250) =
        // 2·97 + (33 + 14) = 241.
        assert!(
            (out.useful_work - 241.0).abs() < 1e-9,
            "{}",
            out.useful_work
        );
        assert_eq!(out.total_time, 275.0);
    }

    #[test]
    fn no_progress_configuration_detected() {
        // DoubleBlocking at the minimum period: W = P − δ − θmin = 0.
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 6.0);
        let empty = trace(8, &[]);
        let out = run_to_completion(&c, 100.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::NoProgress);
        assert_eq!(out.useful_work, 0.0);
    }

    #[test]
    fn failure_cap_stops_runaway_runs() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        c.max_failures = 3;
        // Failures every 10 s starve the run (outage ≥ 38 s each).
        let events: Vec<(f64, u64)> = (1..100)
            .map(|i| (i as f64 * 1000.0, (2 * (i % 4)) as u64))
            .collect();
        let tr = trace(8, &events);
        let out = run_to_completion(&c, 1e9, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::FailureCapReached);
        assert_eq!(out.failures, 3);
    }

    #[test]
    fn timeline_records_failures_and_outages() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (300.0, 2)]);
        let (out, timeline) = run_to_completion_traced(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        // Two failures, one outage end, one completion.
        let failures: Vec<_> = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Failure { .. }))
            .collect();
        assert_eq!(failures.len(), 2);
        match failures[0] {
            TimelineEvent::Failure {
                at,
                node,
                during_outage,
                fatal,
                ..
            } => {
                assert_eq!(*at, 250.0);
                assert_eq!(*node, 0);
                assert!(!during_outage);
                assert!(!fatal);
            }
            _ => unreachable!(),
        }
        match failures[1] {
            TimelineEvent::Failure { during_outage, .. } => assert!(during_outage),
            _ => unreachable!(),
        }
        assert!(matches!(
            timeline.last(),
            Some(TimelineEvent::Finished {
                reason: StopReason::WorkComplete,
                ..
            })
        ));
        // Exactly one outage completed (the restarted one).
        let outage_ends = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::OutageEnd { .. }))
            .count();
        assert_eq!(outage_ends, 1);
    }

    #[test]
    fn timeline_marks_fatal() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (260.0, 1)]);
        let (out, timeline) = run_to_completion_traced(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::Fatal);
        assert!(timeline
            .iter()
            .any(|e| matches!(e, TimelineEvent::Failure { fatal: true, .. })));
        assert!(matches!(
            timeline.last(),
            Some(TimelineEvent::Finished {
                reason: StopReason::Fatal,
                ..
            })
        ));
    }

    #[test]
    fn traced_and_untraced_agree() {
        let c = cfg(Protocol::Triple, 9, 1.0, 100.0);
        let tr = trace(9, &[(250.0, 0), (700.0, 5)]);
        let plain = run_to_completion(&c, 960.0, &mut tr.replay()).unwrap();
        let (traced, _) = run_to_completion_traced(&c, 960.0, &mut tr.replay()).unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn waste_definition_sane() {
        let out = RunOutcome {
            reason: StopReason::WorkComplete,
            total_time: 200.0,
            useful_work: 150.0,
            failures: 0,
            outage_time: 0.0,
            fatal_at: None,
        };
        assert!((out.waste() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn waste_tolerates_float_rounding_without_counting() {
        let _guard = dck_obs::exclusive_session();
        dck_obs::reset();
        let out = RunOutcome {
            reason: StopReason::WorkComplete,
            total_time: 200.0,
            // One ulp over total_time: boundary rounding, not corruption.
            useful_work: 200.0 * (1.0 + 1e-15),
            failures: 0,
            outage_time: 0.0,
            fatal_at: None,
        };
        assert_eq!(out.waste(), 0.0);
        assert_eq!(dck_obs::snapshot().counter("run.waste_clamped"), 0);
    }

    #[test]
    fn corrupt_waste_is_counted_not_laundered() {
        let _guard = dck_obs::exclusive_session();
        dck_obs::reset();
        let out = RunOutcome {
            reason: StopReason::WorkComplete,
            total_time: 200.0,
            useful_work: 300.0, // impossible: work outran the clock
            failures: 0,
            outage_time: 0.0,
            fatal_at: None,
        };
        let waste = std::panic::catch_unwind(|| out.waste());
        if cfg!(debug_assertions) {
            assert!(waste.is_err(), "debug builds must panic on corruption");
        } else {
            assert_eq!(waste.unwrap(), 0.0);
        }
        // The defect counter records it either way — always-on, no
        // enabled() gate.
        assert_eq!(dck_obs::snapshot().counter("run.waste_clamped"), 1);
    }

    #[test]
    fn horizon_trace_ends_with_finished() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0)]);
        let (out, timeline) = run_until_traced(&c, 1000.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: 1000.0,
                reason: StopReason::HorizonReached,
            })
        );
        // Horizon landing inside the outage also gets its end marker.
        let (out, timeline) = run_until_traced(&c, 275.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: 275.0,
                reason: StopReason::HorizonReached,
            })
        );
    }

    #[test]
    fn failure_cap_trace_ends_with_finished() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        c.max_failures = 3;
        let events: Vec<(f64, u64)> = (1..100)
            .map(|i| (i as f64 * 1000.0, (2 * (i % 4)) as u64))
            .collect();
        let tr = trace(8, &events);
        let (out, timeline) = run_to_completion_traced(&c, 1e9, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::FailureCapReached);
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: out.total_time,
                reason: StopReason::FailureCapReached,
            })
        );
    }

    #[test]
    fn no_progress_trace_and_waste_convention_work_mode() {
        // W = 0: the run can never reach the requested work, so
        // total_time is +∞ and waste() = 1 by convention. The terminal
        // event is stamped at 0.0 (JSON cannot carry ∞).
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 6.0);
        let empty = trace(8, &[]);
        let (out, timeline) = run_to_completion_traced(&c, 100.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::NoProgress);
        assert!(out.total_time.is_infinite());
        assert_eq!(out.useful_work, 0.0);
        assert_eq!(out.waste(), 1.0);
        assert_eq!(
            timeline,
            vec![TimelineEvent::Finished {
                at: 0.0,
                reason: StopReason::NoProgress,
            }]
        );
        // The lone event must survive a JSON round-trip (the reason the
        // timestamp is finite).
        let json = serde_json::to_string(&timeline[0]).unwrap();
        let back: TimelineEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, timeline[0]);
    }

    #[test]
    fn no_progress_waste_convention_horizon_mode() {
        // Horizon mode: the platform idles out the horizon with zero
        // work, so total_time = horizon and waste() = 1 as well.
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 6.0);
        let empty = trace(8, &[]);
        let (out, timeline) = run_until_traced(&c, 500.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::NoProgress);
        assert_eq!(out.total_time, 500.0);
        assert_eq!(out.useful_work, 0.0);
        assert_eq!(out.waste(), 1.0);
        assert_eq!(
            timeline,
            vec![TimelineEvent::Finished {
                at: 500.0,
                reason: StopReason::NoProgress,
            }]
        );
    }

    #[test]
    fn mismatched_source_is_a_typed_error() {
        // A source covering the wrong node count must surface as a
        // ModelError, not abort a pool worker.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let wrong = trace(4, &[]);
        let err = run_to_completion(&c, 970.0, &mut wrong.replay()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("4") && msg.contains("8"), "message: {msg}");
    }

    #[test]
    fn sinked_run_matches_traced_and_serializes() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (300.0, 2)]);
        let (out, timeline) = run_to_completion_traced(&c, 970.0, &mut tr.replay()).unwrap();
        let mut buf = Vec::new();
        let mut jsonl = dck_obs::JsonlSink::new(&mut buf);
        let sinked = run_to_completion_sinked(&c, 970.0, &mut tr.replay(), &mut jsonl).unwrap();
        let lines = jsonl.finish().unwrap();
        assert_eq!(sinked, out);
        assert_eq!(lines as usize, timeline.len());
        let parsed: Vec<TimelineEvent> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, timeline);
    }
}
