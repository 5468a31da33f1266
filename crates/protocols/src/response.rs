//! Failure response: exact per-offset outage formulas (§III-A, §V-A).
//!
//! When a failure strikes `off` seconds into the current period, the
//! platform suffers an *outage* of two parts:
//!
//! 1. **Blocked time** — downtime `D`, plus the blocking transfers: the
//!    faulty node's own checkpoint always arrives at maximum speed
//!    (`R = θmin`); the BoF variants additionally re-send the remaining
//!    buddy file(s) at maximum speed (`+R` for DOUBLEBOF, `+2R` for
//!    TRIPLE-BoF).
//! 2. **Re-execution time** — rebuilding the lost work. During the
//!    first `θ` (double) / `2θ` (triple) seconds of re-execution under
//!    the non-blocking variants, the buddy file(s) are re-sent at
//!    overlapped speed, slowing re-execution by `φ` per window. The
//!    paper's case analysis (`RE1`, `RE2`, `RE3`) reduces to:
//!
//!    | protocol | `off` in parts 1–2 | `off` in part 3 |
//!    |---|---|---|
//!    | DOUBLENBL | `θ + σ + off` | `off − δ` |
//!    | DOUBLEBOF | NBL minus `φ` | NBL minus `φ` |
//!    | TRIPLE (off < θ) | `2θ + σ + off` | `off` (for `off ≥ θ`) |
//!    | TRIPLE-BoF | TRIPLE minus `2φ` | TRIPLE minus `2φ` |
//!
//!    Averaging over a uniform offset reproduces `F = A + P/2`
//!    (Eqs. 7, 8, 14) exactly — tested below by numeric integration.

use crate::schedule::PeriodSchedule;
use dck_core::{ModelError, PlatformParams, Protocol, ResendPolicy, WasteModel};
use serde::{Deserialize, Serialize};

/// The outage caused by one failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// Time with the platform fully blocked (downtime + blocking
    /// transfers), no re-execution possible.
    pub blocked: f64,
    /// Re-execution time that follows.
    pub reexec: f64,
}

impl Outage {
    /// Total outage duration.
    pub fn total(&self) -> f64 {
        self.blocked + self.reexec
    }
}

/// Per-offset failure response of one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureResponse {
    protocol: Protocol,
    downtime: f64,
    recovery: f64,
    delta: f64,
    theta: f64,
    phi: f64,
    sigma: f64,
    period: f64,
}

impl FailureResponse {
    /// Builds the response model for `(protocol, params, φ)` at period
    /// `p` (must be feasible).
    pub fn new(
        protocol: Protocol,
        params: &PlatformParams,
        phi: f64,
        period: f64,
    ) -> Result<Self, ModelError> {
        let model = WasteModel::new(protocol, params, phi)?;
        let s = model.structure(period)?;
        Ok(FailureResponse {
            protocol,
            downtime: params.downtime,
            recovery: params.recovery(),
            delta: params.delta,
            theta: model.theta(),
            phi: model.phi(),
            sigma: s.sigma,
            period,
        })
    }

    /// Builds the response model matching a [`PeriodSchedule`] built
    /// on `params`. The schedule already holds the validated `θ`, `φ`,
    /// `σ` and `P`, so this copies them instead of rebuilding the waste
    /// model.
    pub fn for_schedule(params: &PlatformParams, schedule: &PeriodSchedule) -> Self {
        FailureResponse {
            protocol: schedule.protocol(),
            downtime: params.downtime,
            recovery: params.recovery(),
            delta: params.delta,
            theta: schedule.theta(),
            phi: schedule.phi(),
            sigma: schedule.sigma(),
            period: schedule.period(),
        }
    }

    /// Blocked time after any failure (independent of the offset).
    ///
    /// The original blocking protocol of \[1\] re-sends the buddy file
    /// in blocking mode too (its `θ = φ = R` makes that split
    /// equivalent in *total* outage to the NBL accounting, but the
    /// blocked/re-execution decomposition below matches the wire
    /// behaviour and `RecoveryPlan`).
    pub fn blocked(&self) -> f64 {
        let d = self.downtime;
        let r = self.recovery;
        let pol = self.protocol.policy();
        match pol.resend {
            ResendPolicy::Nbl => d + r,
            ResendPolicy::Bof => d + pol.k as f64 * r,
        }
    }

    /// Re-execution time for a failure `off ∈ [0, P)` into the period.
    pub fn reexec(&self, off: f64) -> f64 {
        debug_assert!(
            (0.0..self.period + 1e-9).contains(&off),
            "offset {off} outside period {}",
            self.period
        );
        let pol = self.protocol.policy();
        let k = pol.k;
        let nbl = if k == 2 {
            if off < self.delta + self.theta {
                // Failure before the remote exchange completed: the
                // whole previous period's work is lost (RE1/RE2).
                self.theta + self.sigma + off
            } else {
                // Failure in the compute part (RE3).
                off - self.delta
            }
        } else if off < self.theta {
            // k ≥ 3: the image never reached the preferred buddy —
            // roll back to the previous period's snapshot (RE1).
            (k - 1) as f64 * self.theta + self.sigma + off
        } else {
            // Current-period snapshot usable (RE2/RE3).
            off
        };
        let raw = match pol.resend {
            ResendPolicy::Nbl => nbl,
            // The buddy files were already re-sent in blocking mode:
            // suppress the (k−1)·φ slowdown of re-execution.
            ResendPolicy::Bof => nbl - (k - 1) as f64 * self.phi,
        };
        raw.max(0.0)
    }

    /// The full outage for a failure at offset `off`.
    pub fn outage(&self, off: f64) -> Outage {
        Outage {
            blocked: self.blocked(),
            reexec: self.reexec(off),
        }
    }

    /// Expected outage over a uniform offset — should equal the model's
    /// `F = A + P/2` (Eqs. 7/8/14); exposed for cross-checking.
    pub fn expected_outage_numeric(&self, samples: usize) -> f64 {
        assert!(samples > 0);
        // Midpoint rule over the period.
        let h = self.period / samples as f64;
        let sum: f64 = (0..samples)
            .map(|i| self.outage((i as f64 + 0.5) * h).total())
            .sum();
        sum / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_params() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    fn exa_params() -> PlatformParams {
        PlatformParams::new(60.0, 30.0, 60.0, 10.0, 1_000_000).unwrap()
    }

    /// The paper's F (Eqs. 7/8/14) via dck-core, for cross-checking.
    fn model_f(protocol: Protocol, params: &PlatformParams, phi: f64, p: f64) -> f64 {
        WasteModel::new(protocol, params, phi)
            .unwrap()
            .failure_loss(p)
    }

    #[test]
    fn expected_outage_reproduces_eq7() {
        let p = 400.0;
        for phi in [0.0, 1.0, 2.5, 4.0] {
            let r = FailureResponse::new(Protocol::DoubleNbl, &base_params(), phi, p).unwrap();
            let num = r.expected_outage_numeric(200_000);
            let f = model_f(Protocol::DoubleNbl, &base_params(), phi, p);
            assert!((num - f).abs() < 1e-2, "phi {phi}: numeric {num} vs F {f}");
        }
    }

    #[test]
    fn expected_outage_reproduces_eq8() {
        let p = 400.0;
        for phi in [0.0, 1.0, 2.5, 4.0] {
            let r = FailureResponse::new(Protocol::DoubleBof, &base_params(), phi, p).unwrap();
            let num = r.expected_outage_numeric(200_000);
            let f = model_f(Protocol::DoubleBof, &base_params(), phi, p);
            assert!((num - f).abs() < 1e-2, "phi {phi}: numeric {num} vs F {f}");
        }
    }

    #[test]
    fn expected_outage_reproduces_eq14() {
        let p = 400.0;
        for phi in [0.5, 1.0, 2.5, 4.0] {
            let r = FailureResponse::new(Protocol::Triple, &base_params(), phi, p).unwrap();
            let num = r.expected_outage_numeric(200_000);
            let f = model_f(Protocol::Triple, &base_params(), phi, p);
            assert!((num - f).abs() < 1e-2, "phi {phi}: numeric {num} vs F {f}");
        }
    }

    #[test]
    fn expected_outage_triple_bof_extension() {
        // The linear Eq-8-style extension is exact as long as the
        // pointwise re-execution never clamps at zero, i.e. θ ≥ 2φ
        // (φ ≤ θmin(1+α)/(2+α) = 55 s for Exa).
        let p = 2000.0;
        for phi in [1.0, 30.0, 50.0] {
            let r = FailureResponse::new(Protocol::TripleBof, &exa_params(), phi, p).unwrap();
            let num = r.expected_outage_numeric(200_000);
            let f = model_f(Protocol::TripleBof, &exa_params(), phi, p);
            assert!((num - f).abs() < 0.05, "phi {phi}: numeric {num} vs F {f}");
        }
    }

    #[test]
    fn triple_bof_clamping_makes_mechanistic_outage_conservative() {
        // Beyond θ < 2φ the mechanistic response clamps negative
        // re-execution at zero, so its expectation sits slightly above
        // the linear model's F — never below.
        let p = 2000.0;
        let r = FailureResponse::new(Protocol::TripleBof, &exa_params(), 60.0, p).unwrap();
        let num = r.expected_outage_numeric(200_000);
        let f = model_f(Protocol::TripleBof, &exa_params(), 60.0, p);
        assert!(num >= f - 1e-9, "numeric {num} below model {f}");
        assert!(num - f < 2.0, "clamping correction unexpectedly large");
    }

    #[test]
    fn blocked_times_per_protocol() {
        let p = exa_params(); // D=60, R=60
        let make = |proto| FailureResponse::new(proto, &p, 30.0, 3000.0).unwrap();
        assert_eq!(make(Protocol::DoubleNbl).blocked(), 120.0);
        assert_eq!(make(Protocol::DoubleBof).blocked(), 180.0);
        assert_eq!(make(Protocol::Triple).blocked(), 120.0);
        assert_eq!(make(Protocol::TripleBof).blocked(), 240.0);
    }

    #[test]
    fn reexec_case_analysis_double() {
        // δ=2, φ=1, θ=34, P=100, σ=64.
        let r = FailureResponse::new(Protocol::DoubleNbl, &base_params(), 1.0, 100.0).unwrap();
        // Failure during local checkpoint: whole previous period redone.
        assert_eq!(r.reexec(0.0), 34.0 + 64.0);
        assert_eq!(r.reexec(1.0), 34.0 + 64.0 + 1.0);
        // Failure during exchange: same law, larger tlost.
        assert_eq!(r.reexec(20.0), 34.0 + 64.0 + 20.0);
        // Failure in compute: only this period's work so far.
        assert_eq!(r.reexec(36.0), 34.0);
        assert_eq!(r.reexec(99.0), 97.0);
        // Discontinuity at the end of the exchange: re-execution drops
        // when the snapshot commits.
        assert!(r.reexec(35.999) > r.reexec(36.0));
    }

    #[test]
    fn reexec_case_analysis_triple() {
        // φ=1, θ=34, P=100, σ=32.
        let r = FailureResponse::new(Protocol::Triple, &base_params(), 1.0, 100.0).unwrap();
        // Failure before the first exchange completes.
        assert_eq!(r.reexec(0.0), 68.0 + 32.0);
        assert_eq!(r.reexec(33.0), 68.0 + 32.0 + 33.0);
        // From the second exchange on, rollback to this period's start.
        assert_eq!(r.reexec(34.0), 34.0);
        assert_eq!(r.reexec(99.0), 99.0);
    }

    #[test]
    fn bof_reexec_is_nbl_minus_phi() {
        let nbl = FailureResponse::new(Protocol::DoubleNbl, &base_params(), 2.0, 150.0).unwrap();
        let bof = FailureResponse::new(Protocol::DoubleBof, &base_params(), 2.0, 150.0).unwrap();
        for off in [0.0, 10.0, 30.0, 100.0, 149.0] {
            assert!((bof.reexec(off) - (nbl.reexec(off) - 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn reexec_never_negative() {
        // Extreme: TripleBof with large φ and failure right after period
        // start; subtraction must clamp at zero.
        let r = FailureResponse::new(Protocol::TripleBof, &base_params(), 4.0, 16.1).unwrap();
        for i in 0..=160 {
            let off = i as f64 * 0.1;
            assert!(r.reexec(off) >= 0.0, "off {off}");
        }
    }

    /// `for_schedule` copies what `new` derives, bit for bit, including
    /// the `φ` that `DoubleBlocking` pins and `σ` at `Pmin`.
    #[test]
    fn response_for_a_schedule_equals_a_fresh_one() {
        for params in [base_params(), exa_params()] {
            for protocol in Protocol::registry() {
                for phi in [0.0, params.theta_min / 3.0, params.theta_min] {
                    let p_min = WasteModel::new(protocol, &params, phi)
                        .unwrap()
                        .min_period();
                    for period in [p_min, p_min * 1.7 + 0.1, 3_600.0] {
                        let sched = PeriodSchedule::new(protocol, &params, phi, period).unwrap();
                        let fresh = FailureResponse::new(protocol, &params, phi, period).unwrap();
                        let copied = FailureResponse::for_schedule(&params, &sched);
                        assert_eq!(
                            format!("{copied:?}"),
                            format!("{fresh:?}"),
                            "{protocol:?} φ = {phi} P = {period}"
                        );
                    }
                }
            }
        }
    }
}
