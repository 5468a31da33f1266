//! Closed-loop period controller: re-estimate the MTBF online and
//! retune the checkpoint period.
//!
//! The static pipeline picks `P*` once from a believed MTBF and never
//! looks back; when the belief is wrong by ×4 the waste overhead is
//! pure loss for the whole run. [`PeriodController`] closes the loop:
//! it feeds every observed failure into the censored-MLE estimator of
//! [`crate::estimate`] and, when consulted, re-solves the operating
//! point for the current estimate: the period alone at the configured
//! `φ`, by the paper's closed form exactly as [`crate::optimal_period`]
//! solves it (by the golden-section search of
//! [`crate::predicted_optimal_period`] under a predictor), or the full
//! [`optimal_operating_point`] `φ`-scan when `rescan_phi` is set. The
//! period solver for the configured `φ` — its validated model and every
//! period-independent term of its objective — is built once, in
//! [`PeriodController::new`]; the `φ`-scan builds its models at every
//! retune because `φ` moves.
//!
//! The controller is deliberately *mechanism-free*: it never touches a
//! schedule. It hands back a [`Retune`] decision and the executor
//! (`dck-sim`'s adaptive loop) applies it at the next period boundary,
//! so a retune never tears a period in half and a disabled controller
//! is bit-identical to the static machine by construction.
//!
//! A relative **hysteresis** band suppresses retunes for small
//! estimate moves: waste is second-order flat around `P*` (dW/dP = 0
//! at the optimum), so chasing a few percent of MTBF noise buys
//! nothing and would churn the schedule. With observability enabled,
//! decisions are counted under `adapt.retunes` and
//! `adapt.retunes_suppressed`.

use crate::error::ModelError;
use crate::estimate::{EstimatorConfig, FitKind, MtbfEstimator};
use crate::opt::optimal_operating_point;
use crate::params::PlatformParams;
use crate::period::{closed_form_optimum, search_bracket};
use crate::predict::{PredictedSearch, PredictorSpec};
use crate::protocol::Protocol;
use crate::waste::{check_mtbf, Objective, WasteModel};
use serde::{Deserialize, Serialize};

/// Configuration of the adaptive period controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Master switch. When `false`, [`PeriodController::maybe_retune`]
    /// never fires and the executor must behave exactly like the
    /// static machine.
    pub enabled: bool,
    /// Minimum observed failures before the first retune — the
    /// censored MLE's relative error is ~`1/√n`, so retuning off one
    /// or two events replaces a systematic misbelief with raw noise.
    pub min_failures: u64,
    /// Relative dead band: a retune fires only when the new estimate
    /// differs from the currently-believed MTBF by more than this
    /// fraction.
    pub hysteresis: f64,
    /// Forgetting half-life (seconds) for drift tracking; `None`
    /// weights all history equally. See [`EstimatorConfig`].
    pub half_life: Option<f64>,
    /// Re-run the full golden-section `φ`-scan at each retune instead
    /// of re-solving the period at the fixed configured `φ`.
    pub rescan_phi: bool,
    /// Fit a Weibull shape diagnostic alongside the MLE.
    pub fit: FitKind,
    /// When the platform runs the fault-prediction protocol, retunes
    /// must optimize the *predicted* waste model for the same
    /// predictor, not the base model.
    pub predictor: Option<PredictorSpec>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            enabled: true,
            min_failures: 5,
            hysteresis: 0.10,
            half_life: None,
            rescan_phi: false,
            fit: FitKind::Exponential,
            predictor: None,
        }
    }
}

impl ControllerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Rejects a hysteresis outside `[0, ∞)`, `min_failures = 0`, an
    /// invalid half-life or predictor, and `rescan_phi` combined with
    /// a predictor (the predicted model has no `φ`-scan).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.min_failures == 0 {
            return Err(ModelError::invalid(
                "min_failures",
                "must be >= 1: the censored MLE is undefined on zero events",
            ));
        }
        if !(self.hysteresis.is_finite() && self.hysteresis >= 0.0) {
            return Err(ModelError::invalid("hysteresis", "must be finite and >= 0"));
        }
        self.estimator().validate()?;
        if let Some(p) = &self.predictor {
            p.validate()?;
            if self.rescan_phi {
                return Err(ModelError::invalid(
                    "rescan_phi",
                    "the predicted waste model has no φ-scan; disable rescan_phi",
                ));
            }
        }
        Ok(())
    }

    /// The estimator configuration implied by the controller settings.
    pub fn estimator(&self) -> EstimatorConfig {
        EstimatorConfig {
            half_life: self.half_life,
            fit: self.fit,
        }
    }
}

/// One committed retune decision, to be applied by the executor at the
/// next period boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Retune {
    /// Wall-clock time at which the controller decided.
    pub at: f64,
    /// Period before the retune (seconds).
    pub old_period: f64,
    /// Period after the retune (seconds).
    pub new_period: f64,
    /// Overhead after the retune (changes only under `rescan_phi`).
    pub phi: f64,
    /// The MTBF estimate that drove the decision (seconds).
    pub mtbf_estimate: f64,
    /// Weibull shape diagnostic at decision time, if fitted.
    pub shape: Option<f64>,
}

/// How a retune solves for the new operating point.
#[derive(Debug, Clone)]
enum Solver {
    /// The period alone at the configured `φ`, over the base waste, by
    /// the closed form.
    Period(Objective),
    /// The period alone at the configured `φ`, over the predicted waste.
    Predicted(PredictedSearch),
    /// The full `φ`-scan, which builds its own models at every retune
    /// because `φ` moves.
    PhiScan,
}

/// The closed-loop controller: estimator + retuning policy.
#[derive(Debug, Clone)]
pub struct PeriodController {
    protocol: Protocol,
    params: PlatformParams,
    cfg: ControllerConfig,
    estimator: MtbfEstimator,
    /// Built once in [`Self::new`]. A model that fails validation is
    /// kept as its error and reported at the first solve, so that a
    /// retune's errors keep the precedence of the stand-alone solvers.
    solver: Result<Solver, ModelError>,
    phi: f64,
    believed_mtbf: f64,
    period: f64,
    retunes: u64,
}

impl PeriodController {
    /// Builds a controller with a prior MTBF belief. The starting
    /// period is `initial_period` when given (so the adaptive machine
    /// starts exactly where its static counterpart would), else the
    /// optimizer's period for the prior.
    ///
    /// # Errors
    /// Propagates parameter/controller validation; the prior MTBF must
    /// be finite and positive.
    pub fn new(
        protocol: Protocol,
        params: &PlatformParams,
        phi: f64,
        prior_mtbf: f64,
        initial_period: Option<f64>,
        cfg: ControllerConfig,
    ) -> Result<Self, ModelError> {
        params.validate()?;
        cfg.validate()?;
        if !(prior_mtbf.is_finite() && prior_mtbf > 0.0) {
            return Err(ModelError::invalid("prior_mtbf", "must be finite and > 0"));
        }
        let solver = if cfg.rescan_phi {
            Ok(Solver::PhiScan)
        } else if let Some(p) = &cfg.predictor {
            PredictedSearch::new(protocol, params, phi, p).map(Solver::Predicted)
        } else {
            WasteModel::new(protocol, params, phi).map(|m| Solver::Period(Objective::new(&m)))
        };
        let mut ctl = PeriodController {
            protocol,
            params: *params,
            cfg,
            estimator: MtbfEstimator::new(cfg.estimator())?,
            solver,
            phi,
            believed_mtbf: prior_mtbf,
            period: 0.0,
            retunes: 0,
        };
        ctl.period = match initial_period {
            Some(p) => p,
            None => ctl.operating_point(prior_mtbf)?.1,
        };
        Ok(ctl)
    }

    /// The currently-committed period (seconds).
    pub fn current_period(&self) -> f64 {
        self.period
    }

    /// The currently-committed overhead `φ`.
    pub fn current_phi(&self) -> f64 {
        self.phi
    }

    /// The MTBF the controller currently believes (prior until the
    /// first retune commits).
    pub fn believed_mtbf(&self) -> f64 {
        self.believed_mtbf
    }

    /// Retunes committed so far.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Failures observed so far.
    pub fn failures(&self) -> u64 {
        self.estimator.failures()
    }

    /// Feeds one observed failure into the estimator.
    ///
    /// # Errors
    /// Rejects non-monotone or non-finite times.
    pub fn record_failure(&mut self, at: f64) -> Result<(), ModelError> {
        self.estimator.record_failure(at)
    }

    /// The operating point `(φ, P)` a retune at MTBF estimate `m`
    /// commits. Without a predictor or `rescan_phi`, `P` is the period
    /// [`crate::optimal_period`] reports at `m`, bit for bit. The errors
    /// and their precedence are those of [`crate::numeric_optimal_period`]
    /// and [`crate::predicted_optimal_period`].
    ///
    /// # Errors
    /// An invalid `m`, then an invalid model, then an `m` whose period
    /// search bracket overflows.
    pub fn operating_point(&self, m: f64) -> Result<(f64, f64), ModelError> {
        let period = match &self.solver {
            Ok(Solver::Period(objective)) => {
                // The closed form needs no bracket, but a retune keeps
                // the golden-section solvers' domain and its error.
                check_mtbf(m)?;
                search_bracket(objective, m)?;
                closed_form_optimum(objective, m).0
            }
            Ok(Solver::Predicted(search)) => search.period(m)?,
            Ok(Solver::PhiScan) => {
                let op = optimal_operating_point(self.protocol, &self.params, m)?;
                return Ok((op.phi, op.period));
            }
            Err(e) => {
                // The unpredicted solver checks the MTBF before the model.
                if self.cfg.predictor.is_none() {
                    check_mtbf(m)?;
                }
                return Err(e.clone());
            }
        };
        Ok((self.phi, period))
    }

    /// Consults the controller at observation time `now` (the executor
    /// calls this at outage ends — the moments fresh information just
    /// arrived). Returns a committed [`Retune`] when the estimate has
    /// moved out of the hysteresis band, `None` otherwise.
    ///
    /// Committing here (rather than when the executor applies the
    /// retune) keeps the decision idempotent: once the belief is
    /// updated, the same estimate no longer triggers.
    ///
    /// # Errors
    /// Propagates estimator probes and optimizer failures at the new
    /// estimate.
    pub fn maybe_retune(&mut self, now: f64) -> Result<Option<Retune>, ModelError> {
        if !self.cfg.enabled {
            return Ok(None);
        }
        let Some(est) = self.estimator.estimate(now)? else {
            return Ok(None);
        };
        if est.failures < self.cfg.min_failures {
            return Ok(None);
        }
        let rel = (est.mtbf - self.believed_mtbf).abs() / self.believed_mtbf;
        if rel <= self.cfg.hysteresis {
            if dck_obs::enabled() {
                dck_obs::incr("adapt.retunes_suppressed");
            }
            return Ok(None);
        }
        let (phi, new_period) = self.operating_point(est.mtbf)?;
        let retune = Retune {
            at: now,
            old_period: self.period,
            new_period,
            phi,
            mtbf_estimate: est.mtbf,
            shape: est.shape,
        };
        self.believed_mtbf = est.mtbf;
        self.period = new_period;
        self.phi = phi;
        self.retunes += 1;
        if dck_obs::enabled() {
            dck_obs::incr("adapt.retunes");
        }
        Ok(Some(retune))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::optimal_period;
    use crate::predict::predicted_optimal_period;

    fn base() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    fn controller(prior: f64, cfg: ControllerConfig) -> PeriodController {
        PeriodController::new(Protocol::DoubleNbl, &base(), 1.0, prior, None, cfg).unwrap()
    }

    #[test]
    fn disabled_controller_never_retunes() {
        let cfg = ControllerConfig {
            enabled: false,
            ..ControllerConfig::default()
        };
        let mut ctl = controller(3_600.0, cfg);
        for i in 1..100 {
            ctl.record_failure(i as f64 * 10.0).unwrap();
        }
        assert!(ctl.maybe_retune(1_000.0).unwrap().is_none());
        assert_eq!(ctl.retunes(), 0);
    }

    #[test]
    fn min_failures_gates_the_first_retune() {
        let mut ctl = controller(3_600.0, ControllerConfig::default());
        // Believed 1 h, actual gaps 10 s: wildly off, but only 4 events.
        for i in 1..=4 {
            ctl.record_failure(i as f64 * 10.0).unwrap();
        }
        assert!(ctl.maybe_retune(40.0).unwrap().is_none());
        ctl.record_failure(50.0).unwrap();
        let r = ctl.maybe_retune(50.0).unwrap().expect("5th failure fires");
        assert!(r.mtbf_estimate < 100.0);
        assert!(
            r.new_period < r.old_period,
            "shorter MTBF must shorten the period: {r:?}"
        );
    }

    #[test]
    fn hysteresis_suppresses_noise_retunes() {
        let mut ctl = controller(100.0, ControllerConfig::default());
        // Gaps of exactly 100 s: the estimate equals the belief.
        for i in 1..=20 {
            ctl.record_failure(i as f64 * 100.0).unwrap();
        }
        assert!(ctl.maybe_retune(2_000.0).unwrap().is_none());
        assert_eq!(ctl.retunes(), 0);
        // A long quiet spell pushes the censored estimate out of the
        // ±10% band and the controller commits.
        let r = ctl
            .maybe_retune(4_000.0)
            .unwrap()
            .expect("drifted estimate");
        assert!(r.mtbf_estimate > 150.0);
        assert_eq!(ctl.retunes(), 1);
        assert!((ctl.believed_mtbf() - r.mtbf_estimate).abs() < 1e-12);
        // Idempotent: the committed belief no longer triggers.
        assert!(ctl.maybe_retune(4_000.0).unwrap().is_none());
    }

    #[test]
    fn retuned_period_matches_the_optimizer() {
        let mut ctl = controller(36_000.0, ControllerConfig::default());
        for i in 1..=50 {
            ctl.record_failure(i as f64 * 3_600.0).unwrap();
        }
        let r = ctl.maybe_retune(50.0 * 3_600.0).unwrap().unwrap();
        let expect = optimal_period(Protocol::DoubleNbl, &base(), 1.0, r.mtbf_estimate)
            .unwrap()
            .period;
        assert_eq!(r.new_period.to_bits(), expect.to_bits());
        assert_eq!(ctl.current_period().to_bits(), expect.to_bits());
    }

    #[test]
    fn rescan_phi_reoptimizes_the_overhead() {
        let cfg = ControllerConfig {
            rescan_phi: true,
            ..ControllerConfig::default()
        };
        let mut ctl =
            PeriodController::new(Protocol::DoubleNbl, &base(), 1.0, 36_000.0, None, cfg).unwrap();
        for i in 1..=50 {
            ctl.record_failure(i as f64 * 3_600.0).unwrap();
        }
        let r = ctl.maybe_retune(50.0 * 3_600.0).unwrap().unwrap();
        let op = optimal_operating_point(Protocol::DoubleNbl, &base(), r.mtbf_estimate).unwrap();
        assert!((r.phi - op.phi).abs() < 1e-9);
        assert!((r.new_period - op.period).abs() < 1e-9 * op.period);
        assert!((ctl.current_phi() - op.phi).abs() < 1e-9);
    }

    #[test]
    fn predictor_controller_uses_the_predicted_model() {
        let predictor = PredictorSpec::new(0.8, 0.7, 30.0);
        let cfg = ControllerConfig {
            predictor: Some(predictor),
            ..ControllerConfig::default()
        };
        let mut ctl =
            PeriodController::new(Protocol::DoubleNbl, &base(), 0.0, 36_000.0, None, cfg).unwrap();
        for i in 1..=50 {
            ctl.record_failure(i as f64 * 3_600.0).unwrap();
        }
        let r = ctl.maybe_retune(50.0 * 3_600.0).unwrap().unwrap();
        let expect = predicted_optimal_period(
            Protocol::DoubleNbl,
            &base(),
            0.0,
            &predictor,
            r.mtbf_estimate,
        )
        .unwrap()
        .period;
        assert!((r.new_period - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn forgotten_failures_keep_the_belief() {
        // A 10 s half-life forgets everything over a quiet spell of
        // ~1075 half-lives: no estimate, so no retune and no solve.
        let cfg = ControllerConfig {
            half_life: Some(10.0),
            min_failures: 1,
            ..ControllerConfig::default()
        };
        let mut ctl = controller(3_600.0, cfg);
        ctl.record_failure(100.0).unwrap();
        assert!(ctl.maybe_retune(100.0).unwrap().is_some());
        let (belief, period) = (ctl.believed_mtbf(), ctl.current_period());
        assert!(ctl.maybe_retune(100.0 + 2e4).unwrap().is_none());
        assert_eq!(ctl.believed_mtbf(), belief);
        assert_eq!(ctl.current_period(), period);
        assert_eq!(ctl.retunes(), 1);
    }

    #[test]
    fn model_errors_surface_at_the_first_solve() {
        // With an explicit initial period, an invalid φ is reported by
        // the first retune, after the MTBF check, as the stand-alone
        // solver reports it.
        let phi = 2.0 * base().theta_min;
        let phi_err = WasteModel::new(Protocol::DoubleNbl, &base(), phi).unwrap_err();
        let mut ctl = PeriodController::new(
            Protocol::DoubleNbl,
            &base(),
            phi,
            3_600.0,
            Some(777.0),
            ControllerConfig::default(),
        )
        .unwrap();
        assert_eq!(
            ctl.operating_point(0.0).unwrap_err(),
            check_mtbf(0.0).unwrap_err()
        );
        for i in 1..=10 {
            ctl.record_failure(i as f64 * 10.0).unwrap();
        }
        assert_eq!(ctl.maybe_retune(100.0).unwrap_err(), phi_err);
    }

    #[test]
    fn explicit_initial_period_is_honored() {
        let ctl = PeriodController::new(
            Protocol::DoubleNbl,
            &base(),
            1.0,
            3_600.0,
            Some(777.0),
            ControllerConfig::default(),
        )
        .unwrap();
        assert_eq!(ctl.current_period(), 777.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = ControllerConfig {
            min_failures: 0,
            ..ControllerConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ControllerConfig {
            hysteresis: -0.1,
            ..ControllerConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ControllerConfig {
            rescan_phi: true,
            predictor: Some(PredictorSpec::new(0.8, 0.7, 30.0)),
            ..ControllerConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(PeriodController::new(
            Protocol::DoubleNbl,
            &base(),
            1.0,
            f64::NAN,
            None,
            ControllerConfig::default()
        )
        .is_err());
    }
}
