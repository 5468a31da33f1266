//! Waste model (§III-A, §V-A).
//!
//! The *waste* is the fraction of platform time not spent on useful
//! application work. The paper decomposes it multiplicatively (Eq. 4):
//!
//! ```text
//! 1 − WASTE = (1 − WASTEfail)(1 − WASTEff)
//! WASTEff   = Cff / P          (fault-free checkpointing overhead)
//! WASTEfail = F / M            (failure-induced overhead)
//! ```
//!
//! where `Cff` is the fault-free time lost per period (`δ + φ` for the
//! double protocols, `2φ` for triple) and `F` the expected time lost per
//! failure (Eqs. 7, 8, 14). Equivalently (Eq. 5):
//! `WASTE = WASTEfail + WASTEff − WASTEfail·WASTEff`.
//!
//! Both factors are probabilities-of-sorts and are clamped to `[0, 1]`:
//! `F ≥ M` means failures arrive faster than the protocol can absorb
//! them and the platform makes no progress (the paper's `M = 15 s`
//! regime where "no progress happens for any protocol").

use crate::error::ModelError;
use crate::overlap::OverlapModel;
use crate::params::PlatformParams;
use crate::protocol::{Protocol, ResendPolicy};
use serde::{Deserialize, Serialize};

/// How one checkpointing period of length `P` is carved up (Figs. 1, 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodStructure {
    /// Total period length `P`.
    pub period: f64,
    /// First part: blocking local checkpoint `δ` (double) or overlapped
    /// exchange with the preferred buddy `θ` (triple).
    pub first: f64,
    /// Second part: overlapped remote exchange `θ`.
    pub exchange: f64,
    /// Third part: full-speed computation `σ`.
    pub sigma: f64,
    /// Overhead `φ` charged against each overlapped exchange.
    pub phi: f64,
    /// Useful work executed per period, `W`.
    pub work: f64,
}

/// The waste at one operating point, decomposed per Eq. 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WasteBreakdown {
    /// `WASTEff = Cff/P`, clamped to `[0, 1]`.
    pub fault_free: f64,
    /// `WASTEfail = F/M`, clamped to `[0, 1]`.
    pub failure_induced: f64,
    /// Total waste per Eq. 5, in `[0, 1]`.
    pub total: f64,
    /// The expected per-failure loss `F` used (seconds).
    pub failure_loss: f64,
    /// The period `P` evaluated (seconds).
    pub period: f64,
}

impl WasteBreakdown {
    /// Expected execution time for an application of failure-free
    /// duration `t_base`, via `(1 − WASTE)·T = Tbase` (Eq. 3).
    /// Returns `f64::INFINITY` when the waste saturates at 1.
    pub fn execution_time(&self, t_base: f64) -> f64 {
        if self.total >= 1.0 {
            f64::INFINITY
        } else {
            t_base / (1.0 - self.total)
        }
    }
}

/// Waste model for one `(protocol, platform, φ)` operating point.
///
/// The transfer stretch `θ` is derived from `φ` through the
/// [`OverlapModel`]; [`Protocol::DoubleBlocking`] pins `φ = θmin`
/// (its transfers cannot overlap anything) regardless of the requested
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WasteModel {
    protocol: Protocol,
    params: PlatformParams,
    phi: f64,
    theta: f64,
}

impl WasteModel {
    /// Builds the model, deriving `θ = θ(φ)`.
    ///
    /// # Errors
    /// Propagates parameter validation and `φ ∉ [0, θmin]`.
    pub fn new(protocol: Protocol, params: &PlatformParams, phi: f64) -> Result<Self, ModelError> {
        params.validate()?;
        protocol.validate()?;
        let overlap = OverlapModel::new(params);
        let phi = match protocol {
            Protocol::DoubleBlocking => params.theta_min,
            _ => phi,
        };
        let theta = overlap.theta_of_phi(phi)?;
        Ok(WasteModel {
            protocol,
            params: *params,
            phi,
            theta,
        })
    }

    /// The protocol being modeled.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The effective overhead `φ` (possibly pinned, see [`Self::new`]).
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// The derived transfer stretch `θ(φ)`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The platform parameters.
    pub fn params(&self) -> &PlatformParams {
        &self.params
    }

    /// Fault-free overhead per period `Cff`:
    /// `δ + φ` for the double protocols (Eq. 4's `WASTEff = (δ+φ)/P`),
    /// `(k−1)·φ` for the `k ≥ 3` groups (§V-A for `k = 3`: the blocking
    /// local checkpoint is replaced by overlapped exchanges, one `φ`
    /// charge per exchange phase).
    pub fn fault_free_overhead(&self) -> f64 {
        match self.protocol.policy().k {
            2 => self.params.delta + self.phi,
            k => (k - 1) as f64 * self.phi,
        }
    }

    /// The constant part `A` of the per-failure loss `F = A + P/2`:
    ///
    /// * NBL family (Eqs. 7, 14): `A = D + R + θ` for every `k` — the
    ///   paper notes `Fnbl = Ftri`, and the uniform-offset integration
    ///   generalizing Eq. 14 gives the same constant for all `k ≥ 2`
    ///   (the extra exchange phases shift work within the period but
    ///   not the mean loss).
    /// * BoF family (Eq. 8 and its extension): each of the `k − 1`
    ///   buddy images re-sent in blocking mode adds `R` and suppresses
    ///   `φ` of slowed re-execution, `A = D + kR + θ − (k−1)φ`.
    /// * `DoubleBlocking` keeps the historical NBL-shaped accounting of
    ///   \[1\] (`θ = φ = R` makes the value coincide with the BoF form,
    ///   but not the floating-point expression).
    pub fn failure_loss_constant(&self) -> f64 {
        let p = &self.params;
        let r = p.recovery();
        if self.protocol == Protocol::DoubleBlocking {
            return p.downtime + r + self.theta;
        }
        let pol = self.protocol.policy();
        match pol.resend {
            ResendPolicy::Nbl => p.downtime + r + self.theta,
            ResendPolicy::Bof => {
                p.downtime + pol.k as f64 * r + self.theta - (pol.k - 1) as f64 * self.phi
            }
        }
    }

    /// Expected time lost per failure, `F = A + P/2` (Eqs. 7, 8, 14).
    pub fn failure_loss(&self, period: f64) -> f64 {
        self.failure_loss_constant() + period / 2.0
    }

    /// The smallest physically meaningful period (σ ≥ 0):
    /// `δ + θ` for double, `(k−1)·θ` for the `k ≥ 3` groups.
    pub fn min_period(&self) -> f64 {
        match self.protocol.policy().k {
            2 => self.params.delta + self.theta,
            k => (k - 1) as f64 * self.theta,
        }
    }

    /// Splits a period into the three parts of Figure 1 / Figure 3.
    ///
    /// # Errors
    /// `period` must be at least [`Self::min_period`].
    pub fn structure(&self, period: f64) -> Result<PeriodStructure, ModelError> {
        check_period(period, self.min_period())?;
        // k ≥ 3: the first exchange phase, then the remaining k − 2
        // phases folded into the `exchange` slot (all run at the same
        // overlapped speed, so the 3-part structure stays exact).
        let (first, exchange) = match self.protocol.policy().k {
            2 => (self.params.delta, self.theta),
            k => (self.theta, (k - 2) as f64 * self.theta),
        };
        let sigma = (period - first - exchange).max(0.0);
        let work = period - self.fault_free_overhead();
        Ok(PeriodStructure {
            period,
            first,
            exchange,
            sigma,
            phi: self.phi,
            work,
        })
    }

    /// Evaluates the waste decomposition at `(period, platform MTBF)`.
    ///
    /// # Errors
    /// `period` must be feasible and `mtbf` positive.
    pub fn waste(&self, period: f64, mtbf: f64) -> Result<WasteBreakdown, ModelError> {
        Objective::new(self).breakdown(period, mtbf)
    }
}

/// Rejects an MTBF that is not finite and positive.
pub(crate) fn check_mtbf(mtbf: f64) -> Result<(), ModelError> {
    if mtbf.is_finite() && mtbf > 0.0 {
        Ok(())
    } else {
        Err(ModelError::invalid("mtbf", "must be finite and > 0"))
    }
}

/// Whether `period` is a finite period no shorter than `p_min` (up to
/// a 1e-9 s slack for rounding).
fn feasible(period: f64, p_min: f64) -> bool {
    period.is_finite() && period >= p_min - 1e-9
}

fn check_period(period: f64, p_min: f64) -> Result<(), ModelError> {
    if feasible(period, p_min) {
        Ok(())
    } else {
        Err(ModelError::invalid(
            "period",
            format!("must be >= min period {p_min}, got {period}"),
        ))
    }
}

/// How a fault predictor reshapes the per-failure loss (see
/// [`crate::predict`]): `F = (1 − r)·(A + P/2) + r·(D + R + w − C_p) +
/// (r/p)·C_p`, with everything but `A + P/2` fixed per predictor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prediction {
    /// `1 − r`: the share of failures that strike unannounced.
    pub(crate) unpredicted_share: f64,
    /// `r·(D + R + w − C_p)`: the loss of the predicted failures.
    pub(crate) predicted_loss: f64,
    /// `(r/p)·C_p`: the proactive checkpoints of all alarms.
    pub(crate) alarm_loss: f64,
}

/// The waste as a function of the period, with every term that
/// depends on neither the period nor the MTBF computed once: `Cff`,
/// `A`, `Pmin` and the prediction terms. This is the one copy of the
/// waste formula; [`WasteModel::waste`], the predicted waste and every
/// probe of the period solvers evaluate it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Objective {
    /// `Cff`, the fault-free overhead per period.
    pub(crate) cff: f64,
    /// `A`, the constant part of the per-failure loss.
    pub(crate) a: f64,
    /// `Pmin`, the shortest feasible period.
    pub(crate) p_min: f64,
    /// The predictor's terms, if one is deployed.
    pub(crate) prediction: Option<Prediction>,
}

impl Objective {
    /// The paper's unpredicted objective for `model`.
    pub(crate) fn new(model: &WasteModel) -> Self {
        Objective {
            cff: model.fault_free_overhead(),
            a: model.failure_loss_constant(),
            p_min: model.min_period(),
            prediction: None,
        }
    }

    /// Eq. 5 at a feasible `period` and platform MTBF `mtbf`.
    #[inline]
    pub(crate) fn terms(&self, period: f64, mtbf: f64) -> WasteBreakdown {
        let fault_free = (self.cff / period).clamp(0.0, 1.0);
        let unpredicted = self.a + period / 2.0;
        let failure_loss = match &self.prediction {
            None => unpredicted,
            Some(p) => p.unpredicted_share * unpredicted + p.predicted_loss + p.alarm_loss,
        };
        let failure_induced = (failure_loss / mtbf).clamp(0.0, 1.0);
        let total = 1.0 - (1.0 - failure_induced) * (1.0 - fault_free);
        WasteBreakdown {
            fault_free,
            failure_induced,
            total,
            failure_loss,
            period,
        }
    }

    /// The full decomposition at `(period, mtbf)`.
    ///
    /// # Errors
    /// An invalid `mtbf`, then an infeasible `period`.
    pub(crate) fn breakdown(&self, period: f64, mtbf: f64) -> Result<WasteBreakdown, ModelError> {
        check_mtbf(mtbf)?;
        check_period(period, self.p_min)?;
        Ok(self.terms(period, mtbf))
    }

    /// One solver probe: the total waste at `period`, or `+∞` where the
    /// period is infeasible.
    #[inline]
    pub(crate) fn probe(&self, period: f64, mtbf: f64) -> f64 {
        if feasible(period, self.p_min) {
            self.terms(period, mtbf).total
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_params() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    #[test]
    fn double_nbl_failure_loss_is_eq7() {
        // φ = 1 ⇒ θ = 4 + 10·(4−1) = 34.
        let m = WasteModel::new(Protocol::DoubleNbl, &base_params(), 1.0).unwrap();
        assert_eq!(m.theta(), 34.0);
        // F = D + R + θ + P/2 = 0 + 4 + 34 + 50 = 88 at P = 100.
        assert_eq!(m.failure_loss(100.0), 88.0);
    }

    #[test]
    fn double_bof_failure_loss_is_eq8() {
        let m = WasteModel::new(Protocol::DoubleBof, &base_params(), 1.0).unwrap();
        // F = D + 2R + θ − φ + P/2 = 0 + 8 + 34 − 1 + 50 = 91.
        assert_eq!(m.failure_loss(100.0), 91.0);
    }

    #[test]
    fn triple_failure_loss_equals_nbl() {
        // The paper's observation: Fnbl = Ftri for equal φ.
        for phi in [0.0, 0.5, 2.0, 4.0] {
            let nbl = WasteModel::new(Protocol::DoubleNbl, &base_params(), phi).unwrap();
            let tri = WasteModel::new(Protocol::Triple, &base_params(), phi).unwrap();
            for p in [50.0, 100.0, 500.0] {
                assert_eq!(nbl.failure_loss(p), tri.failure_loss(p));
            }
        }
    }

    #[test]
    fn bof_equals_nbl_at_full_blocking() {
        // At φ = R the second message is already blocking: Eq. 8 = Eq. 7.
        let nbl = WasteModel::new(Protocol::DoubleNbl, &base_params(), 4.0).unwrap();
        let bof = WasteModel::new(Protocol::DoubleBof, &base_params(), 4.0).unwrap();
        assert_eq!(nbl.failure_loss(200.0), bof.failure_loss(200.0));
    }

    #[test]
    fn fault_free_overheads() {
        let p = base_params();
        let nbl = WasteModel::new(Protocol::DoubleNbl, &p, 1.5).unwrap();
        assert_eq!(nbl.fault_free_overhead(), 3.5); // δ + φ
        let tri = WasteModel::new(Protocol::Triple, &p, 1.5).unwrap();
        assert_eq!(tri.fault_free_overhead(), 3.0); // 2φ
                                                    // Triple with full overlap has zero fault-free overhead.
        let tri0 = WasteModel::new(Protocol::Triple, &p, 0.0).unwrap();
        assert_eq!(tri0.fault_free_overhead(), 0.0);
    }

    #[test]
    fn blocking_double_pins_phi() {
        let m = WasteModel::new(Protocol::DoubleBlocking, &base_params(), 0.0).unwrap();
        assert_eq!(m.phi(), 4.0);
        assert_eq!(m.theta(), 4.0);
        assert_eq!(m.fault_free_overhead(), 6.0); // δ + θmin
    }

    #[test]
    fn structure_partitions_period() {
        let m = WasteModel::new(Protocol::DoubleNbl, &base_params(), 2.0).unwrap();
        // θ = 4 + 10·2 = 24; min period = 2 + 24 = 26.
        let s = m.structure(100.0).unwrap();
        assert_eq!(s.first, 2.0);
        assert_eq!(s.exchange, 24.0);
        assert_eq!(s.sigma, 74.0);
        assert_eq!(s.first + s.exchange + s.sigma, s.period);
        // W = P − δ − φ = 100 − 2 − 2 = 96 = (θ − φ) + σ = 22 + 74.
        assert_eq!(s.work, 96.0);
        assert_eq!(s.work, (s.exchange - s.phi) + s.sigma);
    }

    #[test]
    fn triple_structure_has_two_exchanges() {
        let m = WasteModel::new(Protocol::Triple, &base_params(), 2.0).unwrap();
        let s = m.structure(100.0).unwrap();
        assert_eq!(s.first, 24.0);
        assert_eq!(s.exchange, 24.0);
        assert_eq!(s.sigma, 52.0);
        // W = P − 2φ.
        assert_eq!(s.work, 96.0);
    }

    #[test]
    fn waste_decomposition_identity() {
        // Eq. 5: WASTE = WASTEfail + WASTEff − WASTEfail·WASTEff.
        let m = WasteModel::new(Protocol::DoubleNbl, &base_params(), 1.0).unwrap();
        let w = m.waste(300.0, 7.0 * 3600.0).unwrap();
        let expected = w.failure_induced + w.fault_free - w.failure_induced * w.fault_free;
        assert!((w.total - expected).abs() < 1e-15);
        assert!(w.total > 0.0 && w.total < 1.0);
    }

    #[test]
    fn waste_saturates_at_tiny_mtbf() {
        let m = WasteModel::new(Protocol::DoubleNbl, &base_params(), 1.0).unwrap();
        // With M = 15 s < F, no progress is possible.
        let w = m.waste(100.0, 15.0).unwrap();
        assert_eq!(w.failure_induced, 1.0);
        assert_eq!(w.total, 1.0);
        assert_eq!(w.execution_time(1000.0), f64::INFINITY);
    }

    #[test]
    fn waste_vanishes_at_huge_mtbf_and_period() {
        let m = WasteModel::new(Protocol::Triple, &base_params(), 0.01).unwrap();
        let w = m.waste(1e6, 1e12).unwrap();
        assert!(w.total < 1e-4, "waste {}", w.total);
    }

    #[test]
    fn infeasible_period_rejected() {
        let m = WasteModel::new(Protocol::DoubleNbl, &base_params(), 0.0).unwrap();
        // θ = 44, min period 46.
        assert!(m.structure(40.0).is_err());
        assert!(m.waste(40.0, 3600.0).is_err());
        assert!(m.waste(100.0, -5.0).is_err());
    }

    #[test]
    fn execution_time_inverts_waste() {
        let m = WasteModel::new(Protocol::DoubleBof, &base_params(), 2.0).unwrap();
        let w = m.waste(400.0, 3600.0).unwrap();
        let t = w.execution_time(1e6);
        assert!((t * (1.0 - w.total) - 1e6).abs() < 1e-6);
    }
}
