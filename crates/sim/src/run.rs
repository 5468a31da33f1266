//! Single-run protocol simulation: the one event loop every run mode
//! shares.
//!
//! The simulator advances in O(1) per failure event: between events
//! the platform follows the deterministic period schedule, so nothing
//! needs to happen per period. State is a few scalars — wall-clock
//! time `t`, schedule position `v` (seconds of schedule successfully
//! executed; work is `schedule.work_at(v)`), work `done` banked by
//! earlier schedules, and an optional in-flight outage `(end, off)`.
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
//!
//! # One kernel, several policies
//!
//! `RunMachine::drive` is the only failure-event loop in the crate.
//! It owns the outage, horizon and completion bookkeeping, the
//! source-coverage check, the `NoProgress` convention, the failure cap
//! and the terminal [`TimelineEvent::Finished`]. A run mode is a
//! `Policy`: a set of hooks the kernel calls at a failure, at an
//! outage end (where a retune may be committed), at a period boundary
//! (where a committed retune is applied and the finished schedule's
//! work is banked) and for an extra disruption stream that preempts
//! the next failure (the predictor's alarms).
//!
//! * `Static` — zero-sized, every hook a no-op: the Monte-Carlo and
//!   sweep hot path monomorphises to the plain loop.
//! * `Adaptive` ([`crate::adapt`]) — feeds the MTBF estimator, consults
//!   the controller at outage ends, retunes at period boundaries.
//! * `Predicted<P>` ([`crate::predict`]) — alarms with their proactive
//!   checkpoint `C_p`, wrapped around `Static` or `Adaptive`.
//!
//! Under every policy the kernel takes a failure's offset into the
//! period from [`PeriodSchedule::offset`], never from `%`: glibc
//! before 2.38 implements `fmod` as a shift-subtract loop, which cost
//! about a third of a replication. `offset` returns the same bits.
//!
//! Two known approximations are kept as documented behaviour of the
//! policies that use them (quantifying them is ROADMAP item 5(c)):
//!
//! * **Predicted runs serialise** (`Policy::SERIALIZES`): an outage
//!   ends as soon as it begins, and an alarm or failure that lands
//!   inside it is handled at its end instead of restarting it. A true
//!   alarm likewise commits the run to its failure: completion is not
//!   checked between the proactive checkpoint and the hit, so work that
//!   completes inside the lead window is stamped `Finished` at the
//!   completion instant, up to `w − C_p` before the hit's outage ends.
//!   At the operating points the conformance grid probes (`M` far above
//!   every outage) the difference is far below the CI95 tolerance.
//! * **Adaptive runs keep the initial risk window** across retunes. The
//!   first-order window `D + R + (k−1)θ(φ)` does not depend on the
//!   period, so a period retune is exact; a `rescan_phi` retune changes
//!   the window by at most the `θ` shift.

use crate::config::RunConfig;
use dck_core::{ModelError, Retune};
use dck_failures::{FailureEvent, FailureSource};
use dck_protocols::{FailureResponse, PeriodSchedule};
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
#[derive(Clone, Copy)]
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
    run_to_completion_with_pending(cfg, t_base, source).map(|(out, _)| out)
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
) -> Result<(RunOutcome, Option<FailureEvent>), ModelError> {
    RunMachine::new(cfg)?.drive(Stop::Work(t_base), source, &mut Static, |_| {})
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
    let (out, _) =
        RunMachine::new(cfg)?.drive(Stop::Horizon(horizon), source, &mut Static, |_| {})?;
    Ok(out)
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
    let (out, _) =
        RunMachine::new(cfg)?.drive(Stop::Work(t_base), source, &mut Static, |e| sink.emit(&e))?;
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
        RunMachine::new(cfg)?.drive(Stop::Horizon(horizon), source, &mut Static, |e| {
            sink.emit(&e)
        })?;
    sink.flush();
    Ok(out)
}

/// Where a run stands; the part of the kernel's state that policy
/// hooks may move.
pub(crate) struct RunState {
    /// Wall clock (seconds).
    pub(crate) t: f64,
    /// Position in the current schedule (frozen during outages).
    pub(crate) v: f64,
    /// Wall-clock time spent in outages so far.
    pub(crate) outage_time: f64,
}

/// The hooks through which a run mode extends [`RunMachine::drive`].
/// Every hook defaults to the static machine's behaviour.
pub(crate) trait Policy {
    /// The policy may commit retunes: the kernel calls
    /// [`Policy::consult`] only when this is set, so the retune branch
    /// compiles out of every other run. A retuning run banks the work
    /// of each finished schedule and reports the work target itself at
    /// completion; a static run reports the work its one schedule
    /// delivered at the completion position (the two can differ in the
    /// last bit).
    const RETUNES: bool = false;

    /// Outages end as soon as they begin: events landing inside one
    /// are handled at its end instead of restarting it, and the
    /// failure cap stops the run at the outage end. See the module
    /// docs for why predicted runs keep this approximation.
    const SERIALIZES: bool = false;

    /// Draws the next failure.
    fn next_failure<S: FailureSource + ?Sized>(&mut self, source: &mut S) -> FailureEvent {
        source.next_failure()
    }

    /// Draws the run's first failure (a policy with a stream of its
    /// own starts it here, after the first failure's draw).
    fn first_failure<S: FailureSource + ?Sized>(&mut self, source: &mut S) -> FailureEvent {
        self.next_failure(source)
    }

    /// Time of the next event while the schedule runs at `t`: the
    /// failure at `fault_at`, or an earlier event of the policy's own.
    fn next_event(&mut self, fault_at: f64, _t: f64) -> f64 {
        fault_at
    }

    /// Handles the event [`Policy::next_event`] announced if it is the
    /// policy's own, moving the run state. Returns `true` when the
    /// event was consumed, `false` when the failure strikes next.
    fn disrupt(&mut self, _run: &mut RunState) -> bool {
        false
    }

    /// A failure that arrived at `at` strikes at schedule position `v`.
    /// Returns the outage to charge when the policy replaces the
    /// paper's case analysis for it.
    ///
    /// # Errors
    /// Propagates the policy's own failures.
    fn on_failure(&mut self, _at: f64, _v: f64) -> Result<Option<f64>, ModelError> {
        Ok(None)
    }

    /// An outage ended at `t` and no retune is pending: returns a
    /// committed retune, which the kernel applies at the next period
    /// boundary. One decision at a time — the kernel does not consult
    /// again until it has applied the last one.
    ///
    /// # Errors
    /// Propagates the policy's own failures.
    fn consult(&mut self, _t: f64) -> Result<Option<Retune>, ModelError> {
        Ok(None)
    }
}

/// The static machine: one schedule for the whole run, no alarms.
pub(crate) struct Static;

impl Policy for Static {}

/// Reusable simulation machinery for one run configuration: the
/// resolved schedule (possibly a period solve), its failure response
/// and an empty risk tracker, built once and driven for many runs.
/// [`RunMachine::drive`] resets the tracker on entry and is generic
/// over the failure source and the [`Policy`], so the Monte-Carlo fast
/// path is monomorphized (no per-event dyn dispatch) while the public
/// entry points keep their `&mut dyn FailureSource` signatures.
pub(crate) struct RunMachine {
    cfg: RunConfig,
    sched: PeriodSchedule,
    resp: FailureResponse,
    tracker: dck_protocols::RiskTracker,
    usable: u64,
}

impl RunMachine {
    /// Builds the machinery for `cfg`, resolving the period once.
    ///
    /// # Errors
    /// Propagates configuration errors.
    pub(crate) fn new(cfg: &RunConfig) -> Result<Self, ModelError> {
        let (sched, resp, tracker) = cfg.build()?;
        Ok(RunMachine {
            cfg: *cfg,
            sched,
            resp,
            tracker,
            usable: cfg.usable_nodes(),
        })
    }

    /// Drives one run to its stop condition under `policy`. Every stop
    /// path leaves the loop through one exit that emits the terminal
    /// [`TimelineEvent::Finished`], so traced timelines are never
    /// missing their end marker. Alongside the outcome it returns the
    /// failure drawn but not handled (it lies beyond the run's end).
    ///
    /// # Errors
    /// Fails when the failure source does not cover exactly the
    /// configuration's usable nodes, and propagates policy errors.
    pub(crate) fn drive<S, P, O>(
        &mut self,
        stop: Stop,
        source: &mut S,
        policy: &mut P,
        mut observe: O,
    ) -> Result<(RunOutcome, Option<FailureEvent>), ModelError>
    where
        S: FailureSource + ?Sized,
        P: Policy,
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
        let tracker = &mut self.tracker;
        // Retuning policies replace these at period boundaries.
        let mut sched = self.sched;
        let mut resp = self.resp;
        let (work, horizon) = match stop {
            Stop::Work(w) => (Some(w), f64::INFINITY),
            Stop::Horizon(h) => (None, h),
        };

        let mut st = RunState {
            t: 0.0,
            v: 0.0,
            outage_time: 0.0,
        };
        let mut done = 0.0_f64; // work banked by schedules retired at a retune
        let mut outage: Option<(f64, f64)> = None; // (end time, period offset)
        let mut failures = 0u64;
        let mut pending: Option<Retune> = None;

        // Every stop path breaks out with (reason, stop time, schedule
        // position, failure drawn but not handled).
        let (reason, at, pos, unhandled) = 'run: {
            if sched.work_per_period() <= 0.0 {
                break 'run (StopReason::NoProgress, st.t, st.v, None);
            }
            let mut v_end = work.map(|w| sched.time_to_reach_work(w - done));
            let mut next = policy.first_failure(source);
            loop {
                let next_at = next.at.as_secs();
                let in_outage_at_event = outage.is_some();
                match outage {
                    None => {
                        let event_at = policy.next_event(next_at, st.t);
                        let t_complete = v_end.map(|ve| st.t + (ve - st.v));
                        // A committed retune takes effect at the next
                        // period boundary, if the run gets there before
                        // it stops and before the next event.
                        if let Some(r) = pending {
                            let p = sched.period();
                            let vb = (st.v / p).ceil() * p;
                            let ts = st.t + (vb - st.v);
                            if ts < t_complete.unwrap_or(horizon) && event_at >= ts {
                                pending = None;
                                done += sched.work_at(vb);
                                sched = PeriodSchedule::new(
                                    self.cfg.protocol,
                                    &self.cfg.params,
                                    r.phi,
                                    r.new_period,
                                )?;
                                resp = FailureResponse::for_schedule(&self.cfg.params, &sched)?;
                                st.t = ts;
                                st.v = 0.0;
                                observe(TimelineEvent::Retune {
                                    at: ts,
                                    old_period: r.old_period,
                                    new_period: r.new_period,
                                    mtbf_estimate: r.mtbf_estimate,
                                });
                                if dck_obs::enabled() {
                                    dck_obs::incr("adapt.retunes_applied");
                                }
                                if sched.work_per_period() <= 0.0 {
                                    // A saturated retune target: no
                                    // further progress is possible.
                                    break 'run (StopReason::NoProgress, st.t, st.v, None);
                                }
                                v_end = work.map(|w| sched.time_to_reach_work(w - done));
                                continue;
                            }
                        }
                        if let (Some(tc), Some(ve)) = (t_complete, v_end) {
                            if event_at >= tc && tc <= horizon {
                                break 'run (StopReason::WorkComplete, tc, ve, Some(next));
                            }
                        }
                        if event_at >= horizon {
                            let pos = st.v + (horizon - st.t);
                            break 'run (StopReason::HorizonReached, horizon, pos, Some(next));
                        }
                        if policy.disrupt(&mut st) {
                            continue;
                        }
                        // The failure strikes while the schedule runs
                        // (at once, if a serialised outage overran it).
                        let at = next_at.max(st.t);
                        st.v += at - st.t;
                        st.t = at;
                    }
                    Some((end, _)) => {
                        if next_at >= end && end <= horizon {
                            // Outage completes; schedule resumes.
                            observe(TimelineEvent::OutageEnd { at: end });
                            st.t = end;
                            outage = None;
                            if P::RETUNES && pending.is_none() {
                                pending = policy.consult(end)?;
                            }
                            continue;
                        }
                        if next_at >= horizon {
                            // Horizon falls inside the outage.
                            break 'run (StopReason::HorizonReached, horizon, st.v, Some(next));
                        }
                        // A failure strikes during the outage: the
                        // platform rolls back again. The remaining
                        // planned outage is discarded (its elapsed part
                        // already counted via t) and `outage` is re-armed
                        // below with the new recovery.
                        st.outage_time -= end - next_at; // un-count the unspent tail
                        st.t = next_at;
                    }
                }

                failures += 1;
                let replaced = policy.on_failure(next_at, st.v)?;
                // Risk windows key on the failure's true arrival time,
                // even when a serialised outage delayed its handling.
                let fatal = tracker.record_failure(next.node, next_at).fatal;
                let off = sched.offset(st.v);
                let o = replaced.unwrap_or_else(|| resp.outage(off).total());
                observe(TimelineEvent::Failure {
                    at: st.t,
                    node: next.node,
                    offset: off,
                    outage: o,
                    fatal,
                    during_outage: in_outage_at_event,
                });
                if fatal {
                    break 'run (StopReason::Fatal, st.t, st.v, None);
                }
                st.outage_time += o;
                if P::SERIALIZES {
                    st.t += o;
                    observe(TimelineEvent::OutageEnd { at: st.t });
                    if P::RETUNES && pending.is_none() {
                        pending = policy.consult(st.t)?;
                    }
                } else {
                    outage = Some((st.t + o, off));
                }
                if failures >= self.cfg.max_failures {
                    break 'run (StopReason::FailureCapReached, st.t, st.v, None);
                }
                next = policy.next_failure(source);
            }
        };

        // NoProgress in work mode: the requested work is unreachable, so
        // total_time is +∞ and waste() = 1 by convention; the terminal
        // event carries the finite instant progress stopped (0.0 for a
        // schedule that never had any), because JSON cannot carry an
        // infinite timestamp. In horizon mode the platform idles out
        // the horizon, so both stamps are the horizon itself.
        let (at, total_time) = match (reason, stop) {
            (StopReason::NoProgress, Stop::Work(_)) => (at, f64::INFINITY),
            (StopReason::NoProgress, Stop::Horizon(h)) => (h, h),
            _ => (at, at),
        };
        observe(TimelineEvent::Finished { at, reason });
        let useful_work = match (reason, work) {
            (StopReason::NoProgress, _) => done,
            (StopReason::WorkComplete, Some(w)) if P::RETUNES => done + (w - done),
            _ => done + sched.work_at(pos),
        };
        let fatal_at = (reason == StopReason::Fatal).then_some(at);
        let outcome = RunOutcome {
            reason,
            total_time,
            useful_work,
            failures,
            outage_time: st.outage_time,
            fatal_at,
        };
        Ok((outcome, unhandled))
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

    /// The timeline invariants of the static machine hold for every
    /// policy the kernel runs: exactly one terminal `Finished` naming
    /// the outcome's reason, non-decreasing stamps, one `Failure` event
    /// per counted failure and one `Retune` event per applied retune.
    mod every_policy {
        use super::*;
        use crate::adapt::{Adaptive, AdaptiveRunConfig};
        use crate::predict::Predicted;
        use dck_core::{predict::proactive_cost, ControllerConfig, PredictorSpec};
        use dck_failures::{AggregatedExponential, MtbfSpec};
        use dck_simcore::RngFactory;
        use proptest::prelude::*;

        fn stamp(e: &TimelineEvent) -> f64 {
            match *e {
                TimelineEvent::Failure { at, .. }
                | TimelineEvent::OutageEnd { at }
                | TimelineEvent::Retune { at, .. }
                | TimelineEvent::Finished { at, .. } => at,
            }
        }

        /// `early` is how far the terminal `Finished` may precede the
        /// event before it: a true alarm commits a serialised run to its
        /// failure, so a completion inside the alarm window is stamped
        /// up to `w − C_p` before the hit's outage ends (see the module
        /// docs).
        fn check(
            out: &RunOutcome,
            tl: &[TimelineEvent],
            retunes: u64,
            early: f64,
        ) -> Result<(), TestCaseError> {
            let count = |f: fn(&TimelineEvent) -> bool| tl.iter().filter(|e| f(e)).count() as u64;
            prop_assert_eq!(
                count(|e| matches!(e, TimelineEvent::Finished { .. })),
                1,
                "Finished events"
            );
            match tl.last() {
                Some(TimelineEvent::Finished { reason, .. }) => {
                    prop_assert_eq!(*reason, out.reason)
                }
                other => prop_assert!(false, "terminal event not Finished: {other:?}"),
            }
            for w in tl.windows(2) {
                let slack = match w[1] {
                    TimelineEvent::Finished {
                        reason: StopReason::WorkComplete,
                        ..
                    } => early,
                    _ => 0.0,
                };
                prop_assert!(
                    stamp(&w[1]) >= stamp(&w[0]) - slack,
                    "{:?} after {:?}",
                    w[1],
                    w[0]
                );
            }
            prop_assert_eq!(
                count(|e| matches!(e, TimelineEvent::Failure { .. })),
                out.failures,
                "failures of {:?}",
                out
            );
            // `retunes` counts committed decisions: the last one may
            // still wait for its period boundary when the run stops.
            let applied = count(|e| matches!(e, TimelineEvent::Retune { .. }));
            prop_assert!(
                applied == retunes || applied + 1 == retunes,
                "{applied} Retune events, {retunes} retunes"
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn timelines_are_well_formed(
                protocol in prop::sample::select(vec![
                    Protocol::DoubleNbl,
                    Protocol::DoubleBof,
                    Protocol::Triple,
                ]),
                ratio in 0.0f64..1.0,
                mtbf in 120.0f64..3600.0,
                seed in 0u64..1000,
                cap in prop::sample::select(vec![3u64, 50_000_000]),
                policy in 0usize..5,
            ) {
                let params = base_params(24);
                let mut c = RunConfig::new(protocol, params, ratio * params.theta_min, mtbf);
                c.max_failures = cap;
                let mut src = AggregatedExponential::new(
                    MtbfSpec::Platform { mtbf: SimTime::seconds(mtbf), nodes: c.usable_nodes() },
                    RngFactory::new(seed).component_stream("failures", 0),
                );
                let mut rng = RngFactory::new(seed).component_stream("predictor", 0);
                let predictor = PredictorSpec::new(0.7, 0.8, 30.0);
                let adaptive = |predictor| AdaptiveRunConfig {
                    base: c,
                    prior_mtbf: 4.0 * mtbf,
                    controller: ControllerConfig {
                        min_failures: 2,
                        predictor,
                        ..ControllerConfig::default()
                    },
                };
                let mut machine = RunMachine::new(&c).unwrap();
                let mut tl = Vec::new();
                let work = Stop::Work(30.0 * mtbf);
                let observe = |e| tl.push(e);
                let (out, retunes) = match policy {
                    0 => (machine.drive(work, &mut src, &mut Static, observe).unwrap().0, 0),
                    1 => {
                        let horizon = Stop::Horizon(20.0 * mtbf);
                        (machine.drive(horizon, &mut src, &mut Static, observe).unwrap().0, 0)
                    }
                    2 => {
                        let mut p = Adaptive::new(&adaptive(None)).unwrap();
                        let out = machine.drive(work, &mut src, &mut p, observe).unwrap().0;
                        (out, p.outcome(out).retunes)
                    }
                    3 => {
                        let mut p = Predicted::new(Static, &predictor, &c, &mut rng).unwrap();
                        (machine.drive(work, &mut src, &mut p, observe).unwrap().0, 0)
                    }
                    _ => {
                        let cfg = adaptive(Some(predictor));
                        let inner = Adaptive::new(&cfg).unwrap();
                        let mut p = Predicted::new(inner, &predictor, &c, &mut rng).unwrap();
                        let out = machine.drive(work, &mut src, &mut p, observe).unwrap().0;
                        (out, p.inner.outcome(out).retunes)
                    }
                };
                let early = if policy >= 3 { predictor.window - proactive_cost(&params) } else { 0.0 };
                check(&out, &tl, retunes, early)?;
            }
        }
    }
}
