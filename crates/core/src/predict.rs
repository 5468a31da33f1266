//! Fault-prediction scenario: proactive checkpoints on predicted hits.
//!
//! The paper's model assumes failures strike unannounced. This module
//! extends it with an imperfect fault predictor, the §VIII-style "what
//! if we saw it coming" question: a predictor with **recall** `r`
//! announces a fraction `r` of the real failures exactly `w` seconds in
//! advance, and with **precision** `p` only a fraction `p` of its
//! alarms are real — the rest are false alarms.
//!
//! On every alarm the platform takes a *proactive checkpoint*: it
//! blocks, serializes (`δ`) and pushes the image to the buddy at
//! maximum speed (`R = θmin`), cost `C_p = δ + R`. When the predicted
//! failure then strikes, the replacement restarts from that fresh
//! image: the loss shrinks from the paper's `A + P/2` to
//! `D + R + (w − C_p)` — downtime, own-checkpoint re-fetch, and the
//! re-execution of the short stretch between the proactive checkpoint
//! and the hit.
//!
//! First-order failure-induced waste (same renewal-reward argument as
//! Eq. 5, losses per mean time between failures `M`):
//!
//! ```text
//! WASTE_fail = [ (1 − r)·(A + P/2)            unpredicted failures
//!              + r·(D + R + w − C_p)          predicted failures
//!              + (r/p)·C_p                    all alarms (true + false)
//!              ] / M
//! ```
//!
//! The alarm rate per failure is `r/p` (the `r` true alarms are a
//! `p`-fraction of all alarms). At `r = 0` the formula collapses
//! exactly to the paper's unpredicted model — pinned by a test below —
//! and the fault-free term `Cff/P` is unchanged. The total composes
//! multiplicatively like [`WasteModel::waste`], through the same
//! formula: the three predictor terms are fixed per predictor, so a
//! solve computes them once and each golden-section probe evaluates
//! only the part that depends on the period.

use crate::error::ModelError;
use crate::params::PlatformParams;
use crate::period::search_period;
use crate::protocol::Protocol;
use crate::waste::{check_mtbf, Objective, Prediction, WasteModel};
use serde::{Deserialize, Serialize};

/// An imperfect fault predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorSpec {
    /// Fraction of alarms that are real failures, `p ∈ (0, 1]`.
    pub precision: f64,
    /// Fraction of failures that are predicted, `r ∈ [0, 1]`.
    pub recall: f64,
    /// Lead time: an alarm arrives `w` seconds before its failure.
    pub window: f64,
}

impl PredictorSpec {
    /// A predictor with the given precision/recall and lead window.
    pub fn new(precision: f64, recall: f64, window: f64) -> Self {
        PredictorSpec {
            precision,
            recall,
            window,
        }
    }

    /// Checks ranges: `p ∈ (0, 1]`, `r ∈ [0, 1]`, `w ≥ 0` finite.
    ///
    /// # Errors
    /// The first out-of-range field.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(self.precision > 0.0 && self.precision <= 1.0) {
            return Err(ModelError::invalid("precision", "must be in (0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.recall) {
            return Err(ModelError::invalid("recall", "must be in [0, 1]"));
        }
        if !(self.window.is_finite() && self.window >= 0.0) {
            return Err(ModelError::invalid("window", "must be finite and >= 0"));
        }
        Ok(())
    }

    /// Platform-wide false-alarm rate (alarms per second) at platform
    /// MTBF `M`: true alarms arrive at rate `r/M`, so all alarms arrive
    /// at `r/(pM)` and the false ones at `r(1 − p)/(pM)`.
    pub fn false_alarm_rate(&self, mtbf: f64) -> f64 {
        self.recall * (1.0 - self.precision) / (self.precision * mtbf)
    }
}

/// Cost of one proactive checkpoint: serialize and push to the buddy at
/// maximum (blocking) speed, `C_p = δ + R`.
pub fn proactive_cost(params: &PlatformParams) -> f64 {
    params.delta + params.recovery()
}

/// Waste decomposition of a predicted operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictedWaste {
    /// `Cff/P`, identical to the unpredicted model.
    pub fault_free: f64,
    /// The prediction-aware failure term (see module docs).
    pub failure_induced: f64,
    /// Multiplicative total, in `[0, 1]`.
    pub total: f64,
    /// The period evaluated.
    pub period: f64,
    /// `C_p = δ + R` used for proactive checkpoints.
    pub proactive_cost: f64,
}

/// Evaluates the prediction-aware waste at `(period, mtbf)`.
///
/// # Errors
/// Propagates model/predictor validation; the lead window must cover
/// the proactive checkpoint (`w ≥ C_p`), otherwise the announced
/// failure hits mid-checkpoint and the scenario is infeasible.
pub fn predicted_waste(
    protocol: Protocol,
    params: &PlatformParams,
    phi: f64,
    predictor: &PredictorSpec,
    period: f64,
    mtbf: f64,
) -> Result<PredictedWaste, ModelError> {
    PredictedSearch::new(protocol, params, phi, predictor)?.waste(period, mtbf)
}

/// Numerically waste-optimal period for the predicted scenario (the
/// closed-form Eq. 9/10/15 optimum shifts because only the unpredicted
/// `(1 − r)` failure share still pays the `P/2` re-execution term).
///
/// # Errors
/// Propagates validation from [`predicted_waste`]; `mtbf` must also be
/// small enough that the search bracket stays finite.
pub fn predicted_optimal_period(
    protocol: Protocol,
    params: &PlatformParams,
    phi: f64,
    predictor: &PredictorSpec,
    mtbf: f64,
) -> Result<PredictedWaste, ModelError> {
    let search = PredictedSearch::new(protocol, params, phi, predictor)?;
    let period = search.period(mtbf)?;
    search.waste(period, mtbf)
}

/// The period search over the predicted waste of one validated
/// `(protocol, platform, φ, predictor)`, built once per solve (or once
/// per controller).
#[derive(Debug, Clone)]
pub(crate) struct PredictedSearch {
    objective: Objective,
    window: f64,
    cp: f64,
    fires: bool,
}

impl PredictedSearch {
    /// Validates the predictor, then the model.
    ///
    /// # Errors
    /// The first invalid predictor field, then model validation.
    pub(crate) fn new(
        protocol: Protocol,
        params: &PlatformParams,
        phi: f64,
        predictor: &PredictorSpec,
    ) -> Result<Self, ModelError> {
        predictor.validate()?;
        let model = WasteModel::new(protocol, params, phi)?;
        let cp = proactive_cost(params);
        let r = predictor.recall;
        let p = predictor.precision;
        let predicted = params.downtime + params.recovery() + (predictor.window - cp);
        Ok(PredictedSearch {
            objective: Objective {
                prediction: Some(Prediction {
                    unpredicted_share: 1.0 - r,
                    predicted_loss: r * predicted,
                    alarm_loss: (r / p) * cp,
                }),
                ..Objective::new(&model)
            },
            window: predictor.window,
            cp,
            fires: r > 0.0,
        })
    }

    /// A predictor that fires must announce failures at least `C_p`
    /// ahead.
    fn check_window(&self) -> Result<(), ModelError> {
        if self.fires && self.window < self.cp {
            return Err(ModelError::invalid(
                "window",
                format!(
                    "lead window {} shorter than the proactive checkpoint {}",
                    self.window, self.cp
                ),
            ));
        }
        Ok(())
    }

    /// The waste-optimal period at MTBF `mtbf`.
    ///
    /// # Errors
    /// An invalid `mtbf`, then a short lead window, then an `mtbf` too
    /// large for the search bracket.
    pub(crate) fn period(&self, mtbf: f64) -> Result<f64, ModelError> {
        check_mtbf(mtbf)?;
        self.check_window()?;
        Ok(search_period(&self.objective, mtbf, 1e-9)?.0)
    }

    /// The predicted waste at `(period, mtbf)`.
    fn waste(&self, period: f64, mtbf: f64) -> Result<PredictedWaste, ModelError> {
        let w = self.objective.breakdown(period, mtbf)?;
        self.check_window()?;
        Ok(PredictedWaste {
            fault_free: w.fault_free,
            failure_induced: w.failure_induced,
            total: w.total,
            period,
            proactive_cost: self.cp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    #[test]
    fn zero_recall_reduces_to_the_unpredicted_model() {
        let params = base();
        let predictor = PredictorSpec::new(0.8, 0.0, 120.0);
        for protocol in Protocol::EVALUATED {
            let model = WasteModel::new(protocol, &params, 1.0).unwrap();
            let baseline = model.waste(400.0, 3_600.0).unwrap();
            let predicted =
                predicted_waste(protocol, &params, 1.0, &predictor, 400.0, 3_600.0).unwrap();
            assert_eq!(predicted.total.to_bits(), baseline.total.to_bits());
            assert_eq!(
                predicted.failure_induced.to_bits(),
                baseline.failure_induced.to_bits()
            );
        }
    }

    #[test]
    fn better_prediction_means_less_waste() {
        let params = base();
        // Long enough period that A + P/2 dominates the predicted loss.
        let worse = predicted_waste(
            Protocol::DoubleNbl,
            &params,
            0.0,
            &PredictorSpec::new(0.9, 0.3, 60.0),
            400.0,
            3_600.0,
        )
        .unwrap();
        let better = predicted_waste(
            Protocol::DoubleNbl,
            &params,
            0.0,
            &PredictorSpec::new(0.9, 0.9, 60.0),
            400.0,
            3_600.0,
        )
        .unwrap();
        assert!(better.total < worse.total);
        // Precision only changes the false-alarm tax.
        let sloppy = predicted_waste(
            Protocol::DoubleNbl,
            &params,
            0.0,
            &PredictorSpec::new(0.3, 0.9, 60.0),
            400.0,
            3_600.0,
        )
        .unwrap();
        assert!(sloppy.total > better.total);
    }

    #[test]
    fn window_shorter_than_proactive_cost_is_rejected() {
        let params = base(); // C_p = 2 + 4 = 6
        assert_eq!(proactive_cost(&params), 6.0);
        let err = predicted_waste(
            Protocol::DoubleNbl,
            &params,
            0.0,
            &PredictorSpec::new(0.9, 0.5, 3.0),
            400.0,
            3_600.0,
        );
        assert!(err.is_err());
        // ... but a zero-recall predictor never fires, so any window is
        // fine.
        assert!(predicted_waste(
            Protocol::DoubleNbl,
            &params,
            0.0,
            &PredictorSpec::new(0.9, 0.0, 3.0),
            400.0,
            3_600.0,
        )
        .is_ok());
    }

    #[test]
    fn predictor_validation_rejects_out_of_range() {
        assert!(PredictorSpec::new(0.0, 0.5, 60.0).validate().is_err());
        assert!(PredictorSpec::new(1.1, 0.5, 60.0).validate().is_err());
        assert!(PredictorSpec::new(0.9, -0.1, 60.0).validate().is_err());
        assert!(PredictorSpec::new(0.9, 1.1, 60.0).validate().is_err());
        assert!(PredictorSpec::new(0.9, 0.5, f64::NAN).validate().is_err());
        assert!(PredictorSpec::new(0.9, 0.5, 60.0).validate().is_ok());
    }

    #[test]
    fn optimal_period_beats_fixed_periods() {
        let params = base();
        let predictor = PredictorSpec::new(0.8, 0.6, 120.0);
        let opt =
            predicted_optimal_period(Protocol::Triple, &params, 0.0, &predictor, 3_600.0).unwrap();
        for period in [100.0, 500.0, 2_000.0] {
            let w = predicted_waste(Protocol::Triple, &params, 0.0, &predictor, period, 3_600.0)
                .unwrap();
            assert!(opt.total <= w.total + 1e-9, "beaten at P = {period}");
        }
    }

    #[test]
    fn optimal_period_rejects_an_mtbf_whose_bracket_overflows() {
        let predictor = PredictorSpec::new(0.8, 0.6, 120.0);
        let err = predicted_optimal_period(Protocol::DoubleNbl, &base(), 0.0, &predictor, 1e308)
            .unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidParameter { name: "mtbf", .. }),
            "{err}"
        );
        assert!(
            predicted_optimal_period(Protocol::DoubleNbl, &base(), 0.0, &predictor, 1e300).is_ok()
        );
    }

    #[test]
    fn false_alarm_rate_matches_precision() {
        let p = PredictorSpec::new(0.5, 0.8, 60.0);
        // True alarms at 0.8/M; all alarms at 1.6/M; false at 0.8/M.
        let m = 3_600.0;
        assert!((p.false_alarm_rate(m) - 0.8 / m).abs() < 1e-15);
        // A perfect-precision predictor never false-alarms.
        assert_eq!(PredictorSpec::new(1.0, 0.8, 60.0).false_alarm_rate(m), 0.0);
    }

    #[test]
    fn applies_to_buddy_k_instances() {
        let params = base();
        let predictor = PredictorSpec::new(0.9, 0.5, 60.0);
        for k in [4u64, 5] {
            let protocol = Protocol::BuddyNbl { k };
            let w = predicted_waste(protocol, &params, 0.0, &predictor, 400.0, 3_600.0).unwrap();
            let base_w = WasteModel::new(protocol, &params, 0.0)
                .unwrap()
                .waste(400.0, 3_600.0)
                .unwrap();
            assert!(w.total < base_w.total, "prediction must help k = {k}");
        }
    }
}
