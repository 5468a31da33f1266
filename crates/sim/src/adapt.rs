//! Closed-loop adaptive execution and the regret harness.
//!
//! The static machine resolves one period up front and never revisits
//! it. The adaptive policy here wires [`dck_core::PeriodController`]
//! into the run kernel ([`crate::run`]): every failure feeds the
//! censored-MLE estimator, the controller is consulted at **outage
//! ends** (the instants fresh information just arrived and the
//! schedule is about to resume), and the kernel applies a committed
//! retune at the **next period boundary** — the schedule is never torn
//! mid-period, the completed fraction of the old schedule is banked as
//! done work, and the new schedule starts from a period boundary
//! exactly as a fresh run would. Each applied retune emits a
//! [`TimelineEvent::Retune`] marker into traced timelines.
//!
//! With the controller disabled the executor drives the kernel under
//! the static policy, so adaptation-off runs are bit-identical to
//! [`crate::run::run_to_completion`] by construction — the golden
//! corpus pins this. The predictor-assisted variant wraps the same
//! policy in the predicted one ([`crate::predict`]).
//!
//! Adaptive runs keep the initial risk window across retunes, one of
//! the two approximations documented in [`crate::run`].
//!
//! [`run_regret`] measures what adaptation buys: for each scenario it
//! runs three **paired** arms against the same failure stream —
//! *adaptive* (starts from the misspecified belief), *static
//! misspecified* (stuck with the bad belief forever), and *oracle
//! static* (the best fixed period a clairvoyant would pick) — and
//! reports `waste(adaptive) − waste(oracle)` plus whether the adaptive
//! arm beats the misspecified static one. Failures strike at
//! source-determined wall-clock times independent of the schedule, so
//! a fatal stream is fatal in every unpredicted arm and the pairing is
//! exact.
//!
//! The arms of a replication therefore consume one failure stream, and
//! it is drawn once: the first arm's draws are recorded into a bounded
//! buffer (reused across replications) that the other arms replay
//! before continuing from the same live source. An arm that outruns a
//! full buffer continues on a fresh copy of the stream, advanced past
//! the recorded prefix, so the cap bounds memory without changing a bit.
//!
//! Like the sweep's chunk runner, a case builds its arms once and drives
//! them for every replication: one adaptive policy, cloned per
//! replication; one run machine shared by the adaptive and static arms,
//! which start from the same configuration; and one for the oracle. The
//! case's failure source is a concrete [`Source`], so every arm's run is
//! monomorphized over it.

use crate::config::RunConfig;
use crate::montecarlo::WasteAccum;
use crate::predict::{drive_with_predictor, Predicted};
use crate::run::{Policy, RunMachine, RunOutcome, Static, Stop, TimelineEvent};
use dck_core::{
    optimal_period, predicted_optimal_period, ControllerConfig, ModelError, PeriodController,
    PlatformParams, PredictorSpec, Protocol, Retune,
};
use dck_failures::{
    AggregatedExponential, DriftingExponential, FailureEvent, FailureSource, MtbfSpec, Source,
};
use dck_simcore::{ConfidenceInterval, OnlineStats, RngFactory, SimTime};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveRunConfig {
    /// The execution physics: protocol, platform, `φ`, the *initial*
    /// period (via [`RunConfig::resolve_period`]) and the failure cap.
    /// `base.mtbf` is only consulted when `base.period` is
    /// `PeriodChoice::Optimal`; the controller's belief is
    /// `prior_mtbf`.
    pub base: RunConfig,
    /// The MTBF the controller believes at time 0 (the possibly-wrong
    /// nameplate value). Kept separate from `base.mtbf` so regret
    /// arms can share identical physics while disagreeing on beliefs.
    pub prior_mtbf: f64,
    /// Controller policy (estimator window, hysteresis, gates).
    pub controller: ControllerConfig,
}

/// Outcome of one adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The base measurements (waste, failures, outage time, …).
    pub run: RunOutcome,
    /// Retunes the controller committed. The last one may still have
    /// been waiting for its period boundary when the run ended; it then
    /// has no `Retune` marker in the timeline.
    pub retunes: u64,
    /// The period last committed (seconds): the one in force when the
    /// run ended, unless its retune was still waiting.
    pub final_period: f64,
    /// The controller's final MTBF belief (the prior if it never
    /// retuned).
    pub believed_mtbf: f64,
}

/// Runs one adaptive replication until `t_base` units of useful work
/// complete. With `controller.enabled == false` this is exactly
/// [`crate::run::run_to_completion`] (bit-identical event handling —
/// it drives the same kernel under the static policy).
///
/// # Errors
/// Propagates configuration/controller validation; the failure source
/// must cover exactly the configuration's usable nodes.
pub fn run_adaptive_to_completion(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<AdaptiveOutcome, ModelError> {
    run_adaptive(cfg, t_base, source, |_| {})
}

/// Like [`run_adaptive_to_completion`], but records the full timeline
/// including [`TimelineEvent::Retune`] markers at the instants new
/// schedules took effect.
///
/// # Errors
/// Propagates configuration/controller validation.
pub fn run_adaptive_traced(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<(AdaptiveOutcome, Vec<TimelineEvent>), ModelError> {
    let mut timeline = Vec::new();
    let out = run_adaptive(cfg, t_base, source, |e| timeline.push(e))?;
    Ok((out, timeline))
}

fn run_adaptive(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
    observe: impl FnMut(TimelineEvent),
) -> Result<AdaptiveOutcome, ModelError> {
    cfg.controller.validate()?;
    if cfg.controller.predictor.is_some() {
        return Err(ModelError::invalid(
            "predictor",
            "use run_adaptive_predicted_to_completion for predictor-assisted runs",
        ));
    }
    let mut policy = Adaptive::new(cfg)?;
    let mut machine = RunMachine::new(&cfg.base)?;
    let stop = Stop::Work(t_base);
    let run = if cfg.controller.enabled {
        machine.drive(stop, source, &mut policy, observe)?
    } else {
        machine.drive(stop, source, &mut Static, observe)?
    };
    Ok(policy.outcome(run))
}

/// Adaptive execution of the fault-prediction scenario: the predicted
/// policy of [`crate::predict`] wrapped around the adaptive one.
/// Requires `controller.predictor` (retunes optimize the *predicted*
/// waste model); `rng` drives the recall coins and the false-alarm
/// process exactly as in
/// [`crate::predict::run_predicted_to_completion`], so a run that never
/// retunes is bit-identical to it.
///
/// # Errors
/// Propagates configuration/controller/predictor validation.
pub fn run_adaptive_predicted_to_completion(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
    rng: &mut StdRng,
) -> Result<AdaptiveOutcome, ModelError> {
    cfg.controller.validate()?;
    let Some(predictor) = cfg.controller.predictor else {
        return Err(ModelError::invalid(
            "predictor",
            "run_adaptive_predicted_to_completion requires controller.predictor",
        ));
    };
    let mut policy = Predicted::new(Adaptive::new(cfg)?, &predictor, &cfg.base, rng)?;
    let run = RunMachine::new(&cfg.base)?.drive(Stop::Work(t_base), source, &mut policy, |_| {})?;
    Ok(policy.inner.outcome(run))
}

/// The adaptive policy: every failure feeds the controller's MTBF
/// estimator, and each outage end consults it for a retune.
#[derive(Clone)]
pub(crate) struct Adaptive(PeriodController);

impl Adaptive {
    /// A controller holding the prior belief, starting from the
    /// configuration's own period.
    pub(crate) fn new(cfg: &AdaptiveRunConfig) -> Result<Self, ModelError> {
        let controller = PeriodController::new(
            cfg.base.protocol,
            &cfg.base.params,
            cfg.base.phi,
            cfg.prior_mtbf,
            Some(cfg.base.resolve_period()?),
            cfg.controller,
        )?;
        Ok(Adaptive(controller))
    }

    /// The run's outcome with the controller's final state.
    pub(crate) fn outcome(&self, run: RunOutcome) -> AdaptiveOutcome {
        AdaptiveOutcome {
            run,
            retunes: self.0.retunes(),
            final_period: self.0.current_period(),
            believed_mtbf: self.0.believed_mtbf(),
        }
    }
}

impl Policy for Adaptive {
    const RETUNES: bool = true;

    fn on_failure(&mut self, at: f64, _v: f64) -> Result<Option<f64>, ModelError> {
        self.0.record_failure(at)?;
        Ok(None)
    }

    fn consult(&mut self, t: f64) -> Result<Option<Retune>, ModelError> {
        self.0.maybe_retune(t)
    }
}

// ---------------------------------------------------------------------------
// Regret harness
// ---------------------------------------------------------------------------

/// One scenario shape for the regret harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RegretScenario {
    /// Stationary platform at the true MTBF; the nameplate belief is
    /// `factor ×` the truth.
    Misspecified {
        /// Believed MTBF = `factor × true_mtbf`.
        factor: f64,
    },
    /// The platform MTBF drifts linearly from `true_mtbf` to
    /// `end_factor × true_mtbf` over the run's work horizon; the
    /// static arms hold the period picked for the *starting* MTBF,
    /// the oracle holds the period for the horizon-effective MTBF.
    Drift {
        /// Final MTBF = `end_factor × true_mtbf`.
        end_factor: f64,
    },
    /// Stationary misspecified platform running the fault-prediction
    /// protocol: all arms execute with the predictor, and periods come
    /// from the predicted waste model.
    Predicted {
        /// Believed MTBF = `factor × true_mtbf`.
        factor: f64,
        /// The (correctly known) predictor characteristics.
        predictor: PredictorSpec,
    },
}

/// A named scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretCase {
    /// Display name (stable across reports).
    pub name: String,
    /// The scenario shape.
    pub scenario: RegretScenario,
}

/// Specification of a regret measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretSpec {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Platform parameters.
    pub params: PlatformParams,
    /// Overhead `φ`.
    pub phi: f64,
    /// The platform's *actual* MTBF at time 0 (seconds).
    pub true_mtbf: f64,
    /// Useful work per replication, in multiples of `true_mtbf` — the
    /// estimator needs failures to learn from, so this should be large
    /// enough for `O(100)` failures.
    pub work_in_mtbfs: f64,
    /// Replications per arm.
    pub replications: usize,
    /// Master seed; arms share per-replication failure streams.
    pub seed: u64,
    /// Controller policy for the adaptive arm. For drift scenarios a
    /// `half_life` of `work / 8` is applied when none is configured
    /// (an unwindowed estimator averages the whole ramp and lags it).
    pub controller: ControllerConfig,
    /// The scenarios to measure.
    pub cases: Vec<RegretCase>,
}

/// Aggregated waste of one arm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmStats {
    /// Mean waste over completed replications.
    pub mean_waste: f64,
    /// Half-width of the 95% CI on the mean waste.
    pub ci95_half_width: f64,
    /// Replications that completed their work.
    pub completed: usize,
    /// Replications ended by a fatal failure.
    pub fatal: usize,
    /// Replications ended by the failure cap.
    pub truncated: usize,
}

impl ArmStats {
    fn from_accum(acc: &WasteAccum) -> ArmStats {
        let ci = if acc.waste.count() > 1 {
            ConfidenceInterval::from_stats(&acc.waste, 0.95).half_width
        } else {
            f64::INFINITY
        };
        ArmStats {
            mean_waste: acc.waste.mean(),
            ci95_half_width: ci,
            completed: acc.completed,
            fatal: acc.fatal,
            truncated: acc.truncated,
        }
    }
}

/// Regret measurement for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretResult {
    /// Scenario name.
    pub name: String,
    /// The scenario that produced this row.
    pub scenario: RegretScenario,
    /// The believed (nameplate) MTBF the static/adaptive arms start
    /// from (seconds).
    pub believed_mtbf: f64,
    /// The MTBF a clairvoyant would plan for (seconds): the true MTBF,
    /// or the horizon-effective MTBF under drift.
    pub oracle_mtbf: f64,
    /// Period of the misspecified static arm (seconds).
    pub static_period: f64,
    /// Period of the oracle arm (seconds).
    pub oracle_period: f64,
    /// The adaptive arm.
    pub adaptive: ArmStats,
    /// The static arm stuck with the misspecified period.
    pub static_arm: ArmStats,
    /// The oracle static arm.
    pub oracle: ArmStats,
    /// `adaptive.mean_waste − oracle.mean_waste` (the price of
    /// learning online).
    pub regret: f64,
    /// `regret / oracle.mean_waste`.
    pub regret_ratio: f64,
    /// Whether the adaptive arm strictly beats the misspecified
    /// static arm.
    pub beats_static: bool,
    /// Mean retunes applied per adaptive replication.
    pub retunes_mean: f64,
}

/// Per-case seed decorrelation (same discipline as the sweep grid).
fn case_seed(master: u64, index: usize) -> u64 {
    master
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// Most failure events of one replication that the arms replay from
/// memory (16 B each, so 64 KB). A typical replication draws about a
/// hundred; the failure cap allows 50 M, which an unbounded buffer would
/// hold in 800 MB.
const REPLAY_CAP: usize = 4096;

/// Runs the full regret measurement: for each case, `spec.replications`
/// paired replications of the adaptive, static and oracle arms (see the
/// module docs), single-threaded, in replication order.
///
/// Every unpredicted arm plans with one solver: the static and oracle
/// periods are [`optimal_period`]'s at the believed and the oracle
/// MTBF, and each adaptive retune commits [`optimal_period`]'s period at
/// its estimate, so an adaptive arm whose estimate reaches the oracle's
/// MTBF runs the oracle's period exactly. Predicted cases plan with
/// [`predicted_optimal_period`] throughout.
///
/// # Errors
/// Propagates configuration validation and optimizer failures.
pub fn run_regret(spec: &RegretSpec) -> Result<Vec<RegretResult>, ModelError> {
    run_regret_with_replay(spec, REPLAY_CAP)
}

/// [`run_regret`] with the replay buffer capped at `replay_cap` events.
fn run_regret_with_replay(
    spec: &RegretSpec,
    replay_cap: usize,
) -> Result<Vec<RegretResult>, ModelError> {
    spec.params.validate()?;
    spec.controller.validate()?;
    if !(spec.true_mtbf.is_finite() && spec.true_mtbf > 0.0) {
        return Err(ModelError::invalid("true_mtbf", "must be finite and > 0"));
    }
    if spec.replications == 0 {
        return Err(ModelError::invalid("replications", "must be >= 1"));
    }
    if !(spec.work_in_mtbfs.is_finite() && spec.work_in_mtbfs > 0.0) {
        return Err(ModelError::invalid(
            "work_in_mtbfs",
            "must be finite and > 0",
        ));
    }
    let t_base = spec.work_in_mtbfs * spec.true_mtbf;
    let mut replay = Vec::new();
    let mut results = Vec::with_capacity(spec.cases.len());
    for (ci, case) in spec.cases.iter().enumerate() {
        let seed = case_seed(spec.seed, ci);
        results.push(run_case(spec, case, t_base, seed, &mut replay, replay_cap)?);
    }
    Ok(results)
}

/// One replication's failure stream, shared by its arms: the live
/// source and the events it has produced so far, recorded up to the
/// cap.
struct SharedStream<'a, S, F> {
    /// Builds a fresh copy of the replication's stream.
    fresh: F,
    live: S,
    recorded: &'a mut Vec<FailureEvent>,
    cap: usize,
    /// Events the live source has produced.
    drawn: usize,
}

impl<'a, S: FailureSource, F: Fn() -> S> SharedStream<'a, S, F> {
    fn new(fresh: F, recorded: &'a mut Vec<FailureEvent>, cap: usize) -> Self {
        recorded.clear();
        SharedStream {
            live: fresh(),
            fresh,
            recorded,
            cap,
            drawn: 0,
        }
    }

    /// A view that reads the stream from its first event.
    fn view(&mut self) -> StreamView<'_, 'a, S, F> {
        StreamView {
            shared: self,
            next: 0,
            own: None,
        }
    }
}

/// One arm's cursor into a [`SharedStream`]. It reports the live
/// source's node count and MTBF.
struct StreamView<'s, 'a, S, F> {
    shared: &'s mut SharedStream<'a, S, F>,
    /// Index of the next event this arm reads.
    next: usize,
    /// The arm's own copy, once it has read past a full buffer that the
    /// live source has already moved beyond.
    own: Option<S>,
}

impl<S: FailureSource, F: Fn() -> S> FailureSource for StreamView<'_, '_, S, F> {
    fn next_failure(&mut self) -> FailureEvent {
        if let Some(own) = &mut self.own {
            return own.next_failure();
        }
        let shared = &mut *self.shared;
        let event = if let Some(&event) = shared.recorded.get(self.next) {
            event
        } else if shared.drawn == self.next {
            let event = shared.live.next_failure();
            shared.drawn += 1;
            if shared.recorded.len() < shared.cap {
                shared.recorded.push(event);
            }
            event
        } else {
            let mut own = (shared.fresh)();
            for _ in 0..self.next {
                own.next_failure();
            }
            self.own.insert(own).next_failure()
        };
        self.next += 1;
        event
    }

    fn nodes(&self) -> u64 {
        self.shared.live.nodes()
    }

    fn platform_mtbf(&self) -> SimTime {
        self.shared.live.platform_mtbf()
    }
}

fn run_case(
    spec: &RegretSpec,
    case: &RegretCase,
    t_base: f64,
    seed: u64,
    replay: &mut Vec<FailureEvent>,
    replay_cap: usize,
) -> Result<RegretResult, ModelError> {
    let m_true = spec.true_mtbf;
    let (believed, oracle_mtbf, predictor) = match case.scenario {
        RegretScenario::Misspecified { factor } => (factor * m_true, m_true, None),
        RegretScenario::Drift { end_factor } => {
            let m1 = end_factor * m_true;
            // Log-mean of the ramp endpoints = the stationary MTBF with
            // the same expected failure count over the horizon.
            let eff = if (m1 - m_true).abs() < 1e-12 {
                m_true
            } else {
                (m1 - m_true) / (m1 / m_true).ln()
            };
            (m_true, eff, None)
        }
        RegretScenario::Predicted { factor, predictor } => {
            (factor * m_true, m_true, Some(predictor))
        }
    };
    let solve = |m: f64| -> Result<f64, ModelError> {
        match &predictor {
            Some(p) => {
                Ok(predicted_optimal_period(spec.protocol, &spec.params, spec.phi, p, m)?.period)
            }
            None => Ok(optimal_period(spec.protocol, &spec.params, spec.phi, m)?.period),
        }
    };
    let static_period = solve(believed)?;
    let oracle_period = solve(oracle_mtbf)?;

    let mut controller = spec.controller;
    controller.enabled = true;
    controller.predictor = predictor;
    if matches!(case.scenario, RegretScenario::Drift { .. }) && controller.half_life.is_none() {
        controller.half_life = Some(t_base / 8.0);
    }

    // All arms share the physics config (true MTBF, explicit periods);
    // the adaptive arm starts from the static arm's, so the two drive
    // one machine.
    let arm_cfg = |period: f64| -> RunConfig {
        let mut c = RunConfig::new(spec.protocol, spec.params, spec.phi, m_true);
        c.period = crate::config::PeriodChoice::Explicit(period);
        c
    };
    let static_cfg = arm_cfg(static_period);
    let oracle_cfg = arm_cfg(oracle_period);
    let template = Adaptive::new(&AdaptiveRunConfig {
        base: static_cfg,
        prior_mtbf: believed,
        controller,
    })?;
    let mut machine = RunMachine::new(&static_cfg)?;
    let mut oracle_machine = RunMachine::new(&oracle_cfg)?;
    let usable = static_cfg.usable_nodes();
    let factory = RngFactory::new(seed);
    let stationary = MtbfSpec::Platform {
        mtbf: SimTime::seconds(m_true),
        nodes: usable,
    };
    let source = |rep: u64| {
        let stream = factory.component_stream("failures", rep);
        match case.scenario {
            RegretScenario::Drift { end_factor } => {
                let end = end_factor * m_true;
                Source::DriftingExponential(DriftingExponential::new(
                    m_true, end, t_base, usable, stream,
                ))
            }
            _ => Source::AggregatedExponential(AggregatedExponential::new(stationary, stream)),
        }
    };

    let mut arms: [WasteAccum; 3] = Default::default();
    let mut retunes = OnlineStats::default();
    for rep in 0..spec.replications as u64 {
        // Paired arms: identical failure stream, drawn once; identical
        // predictor stream where applicable.
        let mut stream = SharedStream::new(|| source(rep), replay, replay_cap);
        let predicted = || predictor.map(|p| (p, factory.component_stream("predictor", rep)));
        let (adaptive_run, policy) = drive_with_predictor(
            &mut machine,
            template.clone(),
            predicted(),
            Stop::Work(t_base),
            &mut stream.view(),
        )?;
        retunes.push(policy.0.retunes() as f64);
        let (static_run, _) = drive_with_predictor(
            &mut machine,
            Static,
            predicted(),
            Stop::Work(t_base),
            &mut stream.view(),
        )?;
        let (oracle_run, _) = drive_with_predictor(
            &mut oracle_machine,
            Static,
            predicted(),
            Stop::Work(t_base),
            &mut stream.view(),
        )?;
        for (arm, out) in arms.iter_mut().zip(&[adaptive_run, static_run, oracle_run]) {
            arm.absorb(out);
        }
    }

    let [adaptive, static_arm, oracle] = arms.each_ref().map(ArmStats::from_accum);
    let regret = adaptive.mean_waste - oracle.mean_waste;
    let regret_ratio = if oracle.mean_waste > 0.0 {
        regret / oracle.mean_waste
    } else {
        0.0
    };
    Ok(RegretResult {
        name: case.name.clone(),
        scenario: case.scenario,
        believed_mtbf: believed,
        oracle_mtbf,
        static_period,
        oracle_period,
        adaptive,
        static_arm,
        oracle,
        regret,
        regret_ratio,
        beats_static: adaptive.mean_waste < static_arm.mean_waste,
        retunes_mean: retunes.mean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use crate::run::{run_to_completion_traced, StopReason};
    use dck_failures::AggregatedExponential;

    fn base_params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn static_cfg(nodes: u64, mtbf: f64, period: f64) -> RunConfig {
        let mut c = RunConfig::new(Protocol::DoubleNbl, base_params(nodes), 1.0, mtbf);
        c.period = PeriodChoice::Explicit(period);
        c
    }

    fn platform_source(mtbf: f64, nodes: u64, seed: u64) -> AggregatedExponential {
        AggregatedExponential::new(
            MtbfSpec::Platform {
                mtbf: SimTime::seconds(mtbf),
                nodes,
            },
            RngFactory::new(seed).component_stream("failures", 0),
        )
    }

    #[test]
    fn disabled_controller_is_bit_identical_to_static() {
        let m = 7.0 * 3600.0;
        let cfg = static_cfg(8, m, 600.0);
        let t_base = 40.0 * m;
        let (base_out, base_tl) =
            run_to_completion_traced(&cfg, t_base, &mut platform_source(m, 8, 11)).unwrap();
        let adaptive = AdaptiveRunConfig {
            base: cfg,
            prior_mtbf: m / 4.0,
            controller: ControllerConfig {
                enabled: false,
                ..ControllerConfig::default()
            },
        };
        let (out, tl) =
            run_adaptive_traced(&adaptive, t_base, &mut platform_source(m, 8, 11)).unwrap();
        // Exact equality, not tolerance: the disabled machine IS the
        // static machine.
        assert_eq!(out.run, base_out);
        assert_eq!(tl, base_tl);
        assert_eq!(out.retunes, 0);
    }

    #[test]
    fn misspecified_prior_converges_and_closes_the_gap() {
        let m = 3600.0;
        let believed = m / 4.0;
        let p_static = optimal_period(Protocol::DoubleNbl, &base_params(16), 1.0, believed)
            .unwrap()
            .period;
        let p_oracle = optimal_period(Protocol::DoubleNbl, &base_params(16), 1.0, m)
            .unwrap()
            .period;
        let cfg = AdaptiveRunConfig {
            base: static_cfg(16, m, p_static),
            prior_mtbf: believed,
            controller: ControllerConfig::default(),
        };
        let t_base = 150.0 * m;
        let out =
            run_adaptive_to_completion(&cfg, t_base, &mut platform_source(m, 16, 23)).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert!(out.retunes >= 1, "controller never retuned");
        // ~150+ failures: the MLE should be well within 30% of truth,
        // and the final period far closer to the oracle's than the
        // misspecified starting point was.
        assert!(
            (out.believed_mtbf - m).abs() / m < 0.3,
            "believed {} vs true {m}",
            out.believed_mtbf
        );
        let gap_start = (p_static - p_oracle).abs();
        let gap_end = (out.final_period - p_oracle).abs();
        assert!(
            gap_end < 0.5 * gap_start,
            "final period {} did not approach oracle {p_oracle} (start {p_static})",
            out.final_period
        );
    }

    #[test]
    fn retune_events_appear_in_the_trace_and_match_the_outcome() {
        let m = 3600.0;
        let cfg = AdaptiveRunConfig {
            base: static_cfg(16, m, 200.0),
            prior_mtbf: m / 4.0,
            controller: ControllerConfig::default(),
        };
        let (out, tl) =
            run_adaptive_traced(&cfg, 120.0 * m, &mut platform_source(m, 16, 31)).unwrap();
        let retunes: Vec<_> = tl
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Retune { .. }))
            .collect();
        assert_eq!(retunes.len() as u64, out.retunes);
        assert!(!retunes.is_empty());
        // Retune markers must be causally ordered and chain old→new.
        let mut last_t = 0.0;
        let mut period = 200.0;
        for e in &retunes {
            if let TimelineEvent::Retune {
                at,
                old_period,
                new_period,
                mtbf_estimate,
            } = e
            {
                assert!(*at >= last_t);
                assert!((old_period - period).abs() < 1e-9);
                assert!(mtbf_estimate.is_finite() && *mtbf_estimate > 0.0);
                last_t = *at;
                period = *new_period;
            }
        }
        assert!((period - out.final_period).abs() < 1e-9);
    }

    #[test]
    fn adaptive_predicted_requires_a_predictor_and_completes_with_one() {
        let m = 3600.0;
        let cfg = AdaptiveRunConfig {
            base: static_cfg(12, m, 300.0),
            prior_mtbf: m / 2.0,
            controller: ControllerConfig::default(),
        };
        let mut rng = RngFactory::new(5).component_stream("predictor", 0);
        let err = run_adaptive_predicted_to_completion(
            &cfg,
            10.0 * m,
            &mut platform_source(m, 12, 41),
            &mut rng,
        )
        .unwrap_err();
        assert!(err.to_string().contains("predictor"), "{err}");

        let with = AdaptiveRunConfig {
            controller: ControllerConfig {
                predictor: Some(PredictorSpec::new(0.9, 0.7, 60.0)),
                ..ControllerConfig::default()
            },
            ..cfg
        };
        let out = run_adaptive_predicted_to_completion(
            &with,
            60.0 * m,
            &mut platform_source(m, 12, 41),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert!(out.run.failures > 0);
        assert!(out.run.waste() > 0.0 && out.run.waste() < 1.0);
    }

    /// A predicted hit that is fatal reports the work done, not the
    /// schedule position: an adaptive-predicted run that never retunes
    /// must equal the static predicted run bit for bit.
    #[test]
    fn adaptive_predicted_without_retunes_matches_predicted() {
        let mut base = RunConfig::new(Protocol::DoubleNbl, base_params(12), 0.0, 3600.0);
        base.period = PeriodChoice::Explicit(100.0);
        let predictor = PredictorSpec::new(1.0, 1.0, 10.0);
        let trace = dck_failures::FailureTrace::new(
            12,
            [(500.0, 2), (520.0, 3)]
                .map(|(at, node)| FailureEvent {
                    at: SimTime::seconds(at),
                    node,
                })
                .to_vec(),
        );
        let rng = || RngFactory::new(3).component_stream("predictor", 0);
        let fixed = crate::predict::run_predicted_to_completion(
            &base,
            &predictor,
            10_000.0,
            &mut trace.replay(),
            &mut rng(),
        )
        .unwrap();
        let cfg = AdaptiveRunConfig {
            base,
            prior_mtbf: 3600.0,
            controller: ControllerConfig {
                min_failures: 1_000_000,
                predictor: Some(predictor),
                ..ControllerConfig::default()
            },
        };
        let adaptive =
            run_adaptive_predicted_to_completion(&cfg, 10_000.0, &mut trace.replay(), &mut rng())
                .unwrap();
        assert_eq!(fixed.run.reason, StopReason::Fatal);
        assert_eq!(adaptive.retunes, 0);
        assert_eq!(adaptive.run, fixed.run);
    }

    #[test]
    fn unpredicted_runner_rejects_a_predictor() {
        let cfg = AdaptiveRunConfig {
            base: static_cfg(8, 3600.0, 300.0),
            prior_mtbf: 3600.0,
            controller: ControllerConfig {
                predictor: Some(PredictorSpec::new(0.9, 0.7, 60.0)),
                ..ControllerConfig::default()
            },
        };
        let err = run_adaptive_to_completion(&cfg, 1000.0, &mut platform_source(3600.0, 8, 1))
            .unwrap_err();
        assert!(err.to_string().contains("predicted"), "{err}");
    }

    #[test]
    fn regret_harness_stationary_misspecification() {
        let spec = RegretSpec {
            protocol: Protocol::DoubleNbl,
            params: base_params(16),
            phi: 1.0,
            true_mtbf: 3600.0,
            work_in_mtbfs: 80.0,
            replications: 12,
            seed: 97,
            controller: ControllerConfig::default(),
            cases: vec![
                RegretCase {
                    name: "over".into(),
                    scenario: RegretScenario::Misspecified { factor: 4.0 },
                },
                RegretCase {
                    name: "under".into(),
                    scenario: RegretScenario::Misspecified { factor: 0.25 },
                },
            ],
        };
        let results = run_regret(&spec).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.adaptive.completed > 0, "{}: no completions", r.name);
            // The adaptive arm must recover most of the misspecification
            // penalty: closer to the oracle than the static arm is.
            assert!(
                r.beats_static,
                "{}: adaptive {} vs static {}",
                r.name, r.adaptive.mean_waste, r.static_arm.mean_waste
            );
            assert!(
                r.regret_ratio < 0.25,
                "{}: regret ratio {}",
                r.name,
                r.regret_ratio
            );
            assert!(r.retunes_mean >= 1.0);
        }
    }

    #[test]
    fn regret_harness_drift_beats_static() {
        let spec = RegretSpec {
            protocol: Protocol::DoubleNbl,
            params: base_params(16),
            phi: 1.0,
            true_mtbf: 3600.0,
            work_in_mtbfs: 80.0,
            replications: 12,
            seed: 131,
            controller: ControllerConfig::default(),
            cases: vec![RegretCase {
                name: "degrading".into(),
                scenario: RegretScenario::Drift { end_factor: 0.25 },
            }],
        };
        let r = &run_regret(&spec).unwrap()[0];
        assert!(r.adaptive.completed > 0);
        assert!(
            r.beats_static,
            "adaptive {} vs static {}",
            r.adaptive.mean_waste, r.static_arm.mean_waste
        );
        // Oracle belief for the ramp is the log-mean of the endpoints.
        let expect = (0.25_f64 * 3600.0 - 3600.0) / 0.25_f64.ln();
        assert!((r.oracle_mtbf - expect).abs() < 1e-6);
    }

    /// Every arm reads the stream a fresh source would give it, whatever
    /// the cap, in whichever order the arms run and however far each
    /// one reads.
    #[test]
    fn stream_views_replay_the_source() {
        let fresh = || platform_source(600.0, 8, 5);
        let mut direct = fresh();
        let expect: Vec<FailureEvent> = (0..40).map(|_| direct.next_failure()).collect();
        for cap in [0, 1, 3, 7, 4096] {
            let mut recorded = vec![expect[0]; 99]; // stale: cleared per stream
            let mut stream = SharedStream::new(fresh, &mut recorded, cap);
            // Reads ending before, at and past the cap and each other.
            for reads in [5, 12, 3, 40, 20] {
                let mut view = stream.view();
                let got: Vec<FailureEvent> = (0..reads).map(|_| view.next_failure()).collect();
                assert_eq!(got, expect[..reads], "cap {cap}, {reads} reads");
                assert_eq!(view.nodes(), 8);
                assert_eq!(view.platform_mtbf(), SimTime::seconds(600.0));
            }
            assert_eq!(stream.recorded.len(), cap.min(stream.drawn), "cap {cap}");
            if cap >= 40 {
                assert_eq!(stream.drawn, 40, "one live draw per event");
            }
        }
    }

    /// The replay buffer is invisible in the results: every cap gives
    /// bit-identical results for all three scenario kinds, including
    /// caps every arm runs past.
    #[test]
    fn replay_cap_never_changes_regret_results() {
        let spec = RegretSpec {
            protocol: Protocol::DoubleNbl,
            params: base_params(16),
            phi: 1.0,
            true_mtbf: 3600.0,
            work_in_mtbfs: 20.0,
            replications: 4,
            seed: 7,
            controller: ControllerConfig::default(),
            cases: vec![
                RegretCase {
                    name: "over".into(),
                    scenario: RegretScenario::Misspecified { factor: 4.0 },
                },
                RegretCase {
                    name: "drift".into(),
                    scenario: RegretScenario::Drift { end_factor: 0.25 },
                },
                RegretCase {
                    name: "predicted".into(),
                    scenario: RegretScenario::Predicted {
                        factor: 2.0,
                        predictor: PredictorSpec::new(0.8, 0.7, 30.0),
                    },
                },
            ],
        };
        let reference = run_regret(&spec).unwrap();
        for r in &reference {
            assert!(r.adaptive.completed > 0, "{}", r.name);
            assert!(r.retunes_mean >= 1.0, "{}: arms must diverge", r.name);
        }
        let bits = |results: &[RegretResult]| format!("{results:?}");
        for cap in [0, 1, 7] {
            let capped = run_regret_with_replay(&spec, cap).unwrap();
            assert_eq!(bits(&capped), bits(&reference), "cap {cap}");
        }
    }
}
