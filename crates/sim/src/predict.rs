//! Mechanistic simulation of the fault-prediction scenario.
//!
//! Independent re-implementation of the physics behind
//! [`dck_core::predict`], as a policy on the run kernel
//! ([`crate::run`]): failures stream from the usual sources; each is
//! flagged *predicted* with probability `r` (the predictor's recall)
//! and announces itself `w` seconds early; false alarms arrive as
//! their own Poisson process at rate `r(1 − p)/(pM)`. Every alarm
//! freezes the platform for a proactive checkpoint `C_p = δ + R`; a
//! predicted failure then rolls back only to that fresh image (outage
//! `D + R` plus re-execution of the short stretch since the proactive
//! checkpoint), while an unpredicted one pays the full §III/§V
//! case-analysis outage.
//!
//! The policy keeps the base simulator's accounting convention: the
//! schedule position `v` only moves forward, and all loss — downtime,
//! blocking transfers, re-execution — is charged to the outage clock.
//! Predicted runs serialise events that land inside an outage, one of
//! the two approximations documented in [`crate::run`].

use crate::config::RunConfig;
use crate::montecarlo::{run_units, MonteCarloConfig, WasteAccum, WasteEstimate};
use crate::run::{Policy, RunMachine, RunOutcome, RunState, Static, Stop};
use dck_core::{predict::proactive_cost, ModelError, PredictorSpec, Retune};
use dck_failures::{FailureEvent, FailureSource};
use rand::rngs::StdRng;
use rand::Rng;

/// Outcome of one predicted run: the base outcome plus predictor
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedOutcome {
    /// The base measurements (waste, failures, outage time, …).
    pub run: RunOutcome,
    /// Alarms raised (true and false).
    pub alarms: u64,
    /// Failures that were successfully predicted.
    pub predicted_hits: u64,
}

/// Runs one predicted replication until `t_base` units of useful work
/// complete. `rng` drives the predictor (recall coin flips and the
/// false-alarm process) and must be independent of the failure stream.
///
/// # Errors
/// Propagates configuration/predictor validation; the failure source
/// must cover exactly the configuration's usable nodes.
pub fn run_predicted_to_completion(
    cfg: &RunConfig,
    predictor: &PredictorSpec,
    t_base: f64,
    source: &mut dyn FailureSource,
    rng: &mut StdRng,
) -> Result<PredictedOutcome, ModelError> {
    let mut policy = Predicted::new(Static, predictor, cfg, rng)?;
    let run = RunMachine::new(cfg)?.drive(Stop::Work(t_base), source, &mut policy, |_| {})?;
    Ok(PredictedOutcome {
        run,
        alarms: policy.alarms,
        predicted_hits: policy.hits,
    })
}

/// Drives one run on `machine` under `policy`, wrapped in the predicted
/// policy when `predicted` carries a predictor and the stream that
/// drives its alarms. Returns the outcome and `policy`'s final state.
///
/// # Errors
/// Propagates predictor validation and the kernel's errors.
pub(crate) fn drive_with_predictor<S: FailureSource, P: Policy>(
    machine: &mut RunMachine,
    mut policy: P,
    predicted: Option<(PredictorSpec, StdRng)>,
    stop: Stop,
    source: &mut S,
) -> Result<(RunOutcome, P), ModelError> {
    let Some((predictor, mut rng)) = predicted else {
        return machine
            .drive(stop, source, &mut policy, |_| {})
            .map(|run| (run, policy));
    };
    let mut policy = Predicted::new(policy, &predictor, &machine.cfg, &mut rng)?;
    let run = machine.drive(stop, source, &mut policy, |_| {})?;
    Ok((run, policy.inner))
}

/// The predicted policy, wrapped around the policy `P` that handles
/// everything but alarms ([`Static`], or the adaptive controller).
///
/// The recall coin of each failure is flipped as it is drawn, so the
/// predictor stream `rng` is consumed one deviate per failure plus one
/// per false-alarm gap, in event order.
pub(crate) struct Predicted<'r, P> {
    /// The wrapped policy.
    pub(crate) inner: P,
    rng: &'r mut StdRng,
    recall: f64,
    window: f64,
    /// Proactive checkpoint `C_p`.
    cp: f64,
    /// Rollback to the proactive image: `D + R`.
    rollback: f64,
    false_alarm_rate: f64,
    /// Whether the failure drawn last will be predicted.
    predicted: bool,
    next_false: f64,
    /// The alarm announcing the next failure, if it is still ahead.
    alarm_at: Option<f64>,
    event_at: f64,
    /// Schedule position at the proactive checkpoint of the next hit.
    snapshot: Option<f64>,
    /// Alarms raised (true and false).
    pub(crate) alarms: u64,
    /// Failures that were predicted.
    pub(crate) hits: u64,
}

impl<'r, P: Policy> Predicted<'r, P> {
    /// Validates `predictor` against the platform of `cfg`.
    pub(crate) fn new(
        inner: P,
        predictor: &PredictorSpec,
        cfg: &RunConfig,
        rng: &'r mut StdRng,
    ) -> Result<Self, ModelError> {
        predictor.validate()?;
        let cp = proactive_cost(&cfg.params);
        if predictor.recall > 0.0 && predictor.window < cp {
            return Err(ModelError::invalid(
                "window",
                format!(
                    "lead window {} shorter than the proactive checkpoint {cp}",
                    predictor.window
                ),
            ));
        }
        Ok(Predicted {
            inner,
            rng,
            recall: predictor.recall,
            window: predictor.window,
            cp,
            rollback: cfg.params.downtime + cfg.params.recovery(),
            // Physics: false alarms follow the machine's true failure
            // rate, which `cfg.mtbf` carries.
            false_alarm_rate: predictor.false_alarm_rate(cfg.mtbf),
            predicted: false,
            next_false: f64::INFINITY,
            alarm_at: None,
            event_at: f64::INFINITY,
            snapshot: None,
            alarms: 0,
            hits: 0,
        })
    }

    fn false_alarm_gap(&mut self) -> f64 {
        let u: f64 = self.rng.gen();
        -(1.0 - u).ln() / self.false_alarm_rate
    }

    /// An alarm at `at` (or at once, if an outage overran it): the
    /// platform advances to it and pays the proactive checkpoint.
    fn proactive_checkpoint(&mut self, run: &mut RunState, at: f64) {
        let at = at.max(run.t);
        run.v += at - run.t;
        run.t = at + self.cp;
        run.outage_time += self.cp;
        self.alarms += 1;
    }
}

impl<P: Policy> Policy for Predicted<'_, P> {
    const RETUNES: bool = P::RETUNES;
    const SERIALIZES: bool = true;

    fn next_failure<S: FailureSource + ?Sized>(&mut self, source: &mut S) -> FailureEvent {
        let ev = source.next_failure();
        let coin: f64 = self.rng.gen();
        self.predicted = coin < self.recall;
        ev
    }

    fn first_failure<S: FailureSource + ?Sized>(&mut self, source: &mut S) -> FailureEvent {
        let ev = self.next_failure(source);
        if self.false_alarm_rate > 0.0 {
            self.next_false = self.false_alarm_gap();
        }
        ev
    }

    fn next_event(&mut self, fault_at: f64, t: f64) -> f64 {
        // An alarm precedes a predicted failure by `w`; a prediction
        // that would have had to arrive in the (already simulated) past
        // is too late to act on — the failure hits unpredicted.
        let alarm_at = fault_at - self.window;
        self.alarm_at = (self.predicted && alarm_at >= t).then_some(alarm_at);
        self.event_at = self.alarm_at.unwrap_or(fault_at).min(self.next_false);
        self.event_at
    }

    fn disrupt(&mut self, run: &mut RunState) -> bool {
        if self.next_false <= self.event_at {
            // False alarm: a proactive checkpoint, and nothing strikes.
            self.proactive_checkpoint(run, self.next_false);
            self.next_false = run.t + self.false_alarm_gap();
            return true;
        }
        if let Some(at) = self.alarm_at {
            // True alarm: checkpoint now; the failure strikes next.
            self.proactive_checkpoint(run, at);
            self.snapshot = Some(run.v);
        }
        false
    }

    fn on_failure(&mut self, at: f64, v: f64) -> Result<Option<f64>, ModelError> {
        // A predicted hit rolls back to the proactive image: downtime,
        // own-image re-fetch, and re-execution of the stretch since the
        // snapshot (charged to the outage clock; `v` stays).
        let outage = self.snapshot.take().map(|snap| {
            self.hits += 1;
            self.rollback + (v - snap)
        });
        self.inner.on_failure(at, v)?;
        Ok(outage)
    }

    fn consult(&mut self, t: f64) -> Result<Option<Retune>, ModelError> {
        self.inner.consult(t)
    }
}

/// Monte-Carlo estimate of the predicted waste: `mc.replications`
/// independent runs of `t_base` work each. Replication `i` derives its
/// failure stream from `(seed, "failures", i)` and its predictor
/// stream from `(seed, "predictor", i)`, so the two never correlate.
/// The replications run in units on `mc.workers` threads, and every
/// outcome is absorbed into one accumulator in replication order, so
/// the estimate is bit-identical at every worker count.
///
/// # Errors
/// Propagates configuration/predictor validation, and rejects renewal
/// sources on platforms too large to hold their per-node state.
pub fn estimate_predicted_waste(
    cfg: &RunConfig,
    predictor: &PredictorSpec,
    t_base: f64,
    mc: &MonteCarloConfig,
) -> Result<WasteEstimate, ModelError> {
    predictor.validate()?;
    let mut acc = WasteAccum::default();
    run_units(
        cfg,
        mc,
        Some(predictor),
        |runner, reps| {
            reps.map(|i| runner.run_waste(t_base, i))
                .collect::<Vec<_>>()
        },
        |outcomes| outcomes.iter().for_each(|o| acc.absorb(o)),
    )?;
    Ok(acc.into_estimate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use crate::montecarlo::estimate_waste;
    use crate::run::StopReason;
    use dck_core::{PlatformParams, Protocol};
    use dck_failures::{FailureEvent, FailureTrace};
    use dck_simcore::{RngFactory, SimTime};

    fn base_params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn cfg(protocol: Protocol, period: f64, mtbf: f64) -> RunConfig {
        let mut c = RunConfig::new(protocol, base_params(12), 0.0, mtbf);
        c.period = PeriodChoice::Explicit(period);
        c
    }

    fn rng() -> StdRng {
        RngFactory::new(7).component_stream("predictor", 0)
    }

    #[test]
    fn failure_free_run_matches_base_simulator() {
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 1.0, 60.0);
        let trace = FailureTrace::new(12, vec![]);
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 980.0, &mut replay, &mut rng()).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert_eq!(out.alarms, 0);
        // 10 full periods of 98 work each (phi = 0), no disruptions.
        assert!((out.run.total_time - 1_000.0).abs() < 1e-9);
        assert_eq!(out.run.outage_time, 0.0);
    }

    #[test]
    fn predicted_failure_loses_only_the_window_stretch() {
        // One failure at t = 350 (compute phase of period 4), predicted
        // with a 60 s window; C_p = δ + R = 6.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 1.0, 60.0);
        let trace = FailureTrace::new(
            12,
            vec![FailureEvent {
                at: SimTime::seconds(350.0),
                node: 0,
            }],
        );
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 980.0, &mut replay, &mut rng()).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert_eq!(out.alarms, 1);
        assert_eq!(out.predicted_hits, 1);
        // Alarm at 290, checkpoint to 296, hit at 350: outage clock
        // carries C_p + (D + R + 54) = 6 + 58 = 64.
        assert!((out.run.outage_time - 64.0).abs() < 1e-9, "{out:?}");
        assert!((out.run.total_time - 1_064.0).abs() < 1e-9);
    }

    #[test]
    fn unpredicted_failure_pays_the_full_case_analysis() {
        // recall 0: identical to the base machine on the same trace.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 0.0, 60.0);
        let events = vec![FailureEvent {
            at: SimTime::seconds(350.0),
            node: 0,
        }];
        let trace = FailureTrace::new(12, events.clone());
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 970.0, &mut replay, &mut rng()).unwrap();
        let trace = FailureTrace::new(12, events);
        let mut replay = trace.replay();
        let base = crate::run::run_to_completion(&c, 970.0, &mut replay).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert_eq!(out.alarms, 0);
        assert!((out.run.total_time - base.total_time).abs() < 1e-9);
        assert!((out.run.outage_time - base.outage_time).abs() < 1e-9);
    }

    #[test]
    fn fatal_failures_still_end_the_run() {
        // Two paired nodes inside the risk window; prediction does not
        // resurrect a destroyed group.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 0.0, 60.0);
        let trace = FailureTrace::new(
            12,
            vec![
                FailureEvent {
                    at: SimTime::seconds(500.0),
                    node: 2,
                },
                FailureEvent {
                    at: SimTime::seconds(510.0),
                    node: 3,
                },
            ],
        );
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 10_000.0, &mut replay, &mut rng()).unwrap();
        assert_eq!(out.run.reason, StopReason::Fatal);
    }

    #[test]
    fn short_window_is_rejected_with_positive_recall() {
        let c = cfg(Protocol::DoubleNbl, 100.0, 3_600.0);
        let trace = FailureTrace::new(12, vec![]);
        let mut replay = trace.replay();
        let err = run_predicted_to_completion(
            &c,
            &PredictorSpec::new(1.0, 0.5, 1.0), // w = 1 < C_p = 6
            970.0,
            &mut replay,
            &mut rng(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn monte_carlo_estimate_matches_the_predicted_model() {
        // The conformance-style check in miniature: model vs sim at one
        // benign predicted operating point, judged by the sim's CI95.
        let mtbf = 3_600.0;
        let mut c = RunConfig::new(Protocol::DoubleNbl, base_params(48), 0.0, mtbf);
        // A short lead window: the predicted loss D + R + (w - C_p)
        // = 28 s undercuts the ~108 s unpredicted average.
        let predictor = PredictorSpec::new(0.8, 0.7, 30.0);
        let opt = dck_core::predicted_optimal_period(
            Protocol::DoubleNbl,
            &c.params,
            0.0,
            &predictor,
            mtbf,
        )
        .unwrap();
        c.period = PeriodChoice::Explicit(opt.period);
        let mc = MonteCarloConfig::new(48, 0xBEEF);
        let est = estimate_predicted_waste(&c, &predictor, 10.0 * mtbf, &mc).unwrap();
        let ci = est.ci95.expect("benign point: all replications complete");
        let tol = 3.0 * ci.half_width + 0.01;
        assert!(
            (opt.total - ci.mean).abs() <= tol,
            "model {} vs sim {} ± {} (tol {tol})",
            opt.total,
            ci.mean,
            ci.half_width
        );
        // Prediction must actually reduce the measured waste vs the
        // unpredicted machine at its own optimal period.
        let base_cfg = RunConfig::new(Protocol::DoubleNbl, base_params(48), 0.0, mtbf);
        let base_est = estimate_waste(&base_cfg, 10.0 * mtbf, &mc).unwrap();
        let base_ci = base_est.ci95.unwrap();
        assert!(
            ci.mean < base_ci.mean,
            "predicted waste {} not below unpredicted {}",
            ci.mean,
            base_ci.mean
        );
    }

    /// The pooled estimate folds every outcome in replication order,
    /// exactly as a sequential loop over the boxed replication sources
    /// absorbs them, across several units and at every worker count.
    #[test]
    fn pooled_estimate_matches_sequential_reference() {
        let c = cfg(Protocol::Triple, 300.0, 1_800.0);
        let predictor = PredictorSpec::new(0.6, 0.5, 30.0);
        let t_base = 5_000.0;
        let mut mc = MonteCarloConfig::new(70, 42);
        let mut reference = WasteAccum::default();
        for i in 0..mc.replications as u64 {
            let mut source = crate::replication_source(&c, &mc, i);
            let mut rng = RngFactory::new(mc.seed).component_stream("predictor", i);
            let out =
                run_predicted_to_completion(&c, &predictor, t_base, source.as_mut(), &mut rng)
                    .unwrap();
            reference.absorb(&out.run);
        }
        let reference = reference.into_estimate();
        for workers in [1, 3] {
            mc.workers = workers;
            let est = estimate_predicted_waste(&c, &predictor, t_base, &mc).unwrap();
            assert_eq!(
                format!("{est:?}"),
                format!("{reference:?}"),
                "{workers} workers"
            );
        }
    }

    /// A predictor the platform cannot act on is the same typed error on
    /// the pooled estimator, at every worker count.
    #[test]
    fn short_window_fails_the_estimator_typed() {
        let c = cfg(Protocol::DoubleNbl, 100.0, 3_600.0);
        let predictor = PredictorSpec::new(1.0, 0.5, 1.0); // w = 1 < C_p = 6
        for workers in [1, 3] {
            let mut mc = MonteCarloConfig::new(70, 1);
            mc.workers = workers;
            let err = estimate_predicted_waste(&c, &predictor, 970.0, &mc).unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid parameter `window`: lead window 1 shorter than the proactive checkpoint 6",
                "{workers} workers"
            );
        }
    }

    #[test]
    fn estimates_are_reproducible() {
        let c = cfg(Protocol::Triple, 300.0, 1_800.0);
        let predictor = PredictorSpec::new(0.6, 0.5, 30.0);
        let mc = MonteCarloConfig::new(8, 42);
        let a = estimate_predicted_waste(&c, &predictor, 5_000.0, &mc).unwrap();
        let b = estimate_predicted_waste(&c, &predictor, 5_000.0, &mc).unwrap();
        assert_eq!(a.waste.mean().to_bits(), b.waste.mean().to_bits());
        assert_eq!(a.completed, b.completed);
    }
}
