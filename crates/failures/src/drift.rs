//! A non-stationary failure source: the platform MTBF drifts linearly
//! over a horizon.
//!
//! The paper's sources are stationary — calibrated to one platform
//! MTBF forever. Real machines age (or stabilize after burn-in), which
//! is exactly the regime an adaptive controller must win in. This
//! source models an inhomogeneous Poisson process whose platform MTBF
//! ramps linearly from `m0` at time 0 to `m1` at `horizon`, staying at
//! `m1` afterwards.
//!
//! Events are drawn by inverting the cumulative hazard
//! `Λ(t) = ∫₀ᵗ ds / m(s)` in closed form, so the source stays O(1)
//! per event like [`crate::AggregatedExponential`]: for the ramp
//! segment (`Δ = m1 − m0 ≠ 0`)
//!
//! ```text
//! Λ(t) = (h/Δ) · ln(1 + Δ·t/(m0·h)),   t⁻¹(Λ) = (m0·h/Δ)·(e^{Δ·Λ/h} − 1)
//! ```
//!
//! and linearly (`Λ = t/m0`) when `Δ = 0`. Each event's hazard step
//! and victim are one unit-mean [`exponential_event`], the stationary
//! source's draw.

use crate::process::{FailureEvent, FailureSource};
use dck_simcore::{exponential_event, SimTime};
use rand::rngs::StdRng;

/// Inhomogeneous Poisson failure source with linearly drifting MTBF.
#[derive(Debug)]
pub struct DriftingExponential {
    m0: f64,
    m1: f64,
    horizon: f64,
    nodes: u64,
    rng: StdRng,
    /// Cumulative hazard consumed so far (monotone).
    hazard: f64,
    /// `hazard_at(horizon)`: the hazard the ramp segment ends at.
    ramp_hazard: f64,
    now: SimTime,
}

impl DriftingExponential {
    /// Builds the source: platform MTBF `m0 → m1` (seconds) linearly
    /// over `horizon` seconds, constant `m1` afterwards. Victims are
    /// uniform over `nodes`.
    ///
    /// # Panics
    /// Panics when the MTBFs or horizon are non-positive/non-finite or
    /// `nodes == 0` — same contract as the stationary sources.
    pub fn new(m0: f64, m1: f64, horizon: f64, nodes: u64, rng: StdRng) -> Self {
        assert!(
            m0.is_finite() && m0 > 0.0 && m1.is_finite() && m1 > 0.0,
            "platform MTBFs must be positive"
        );
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "drift horizon must be positive"
        );
        assert!(nodes > 0, "platform must have nodes");
        let mut source = DriftingExponential {
            m0,
            m1,
            horizon,
            nodes,
            rng,
            hazard: 0.0,
            ramp_hazard: 0.0,
            now: SimTime::ZERO,
        };
        source.ramp_hazard = source.hazard_at(horizon);
        source
    }

    /// Cumulative hazard at absolute time `t`.
    fn hazard_at(&self, t: f64) -> f64 {
        let h = self.horizon;
        let d = self.m1 - self.m0;
        let ramp = |t: f64| {
            if d == 0.0 {
                t / self.m0
            } else {
                (h / d) * (1.0 + d * t / (self.m0 * h)).ln()
            }
        };
        if t <= h {
            ramp(t)
        } else {
            ramp(h) + (t - h) / self.m1
        }
    }

    /// Inverse of [`Self::hazard_at`].
    fn time_at_hazard(&self, l: f64) -> f64 {
        let h = self.horizon;
        let d = self.m1 - self.m0;
        let l_ramp = self.ramp_hazard;
        if l <= l_ramp {
            if d == 0.0 {
                self.m0 * l
            } else {
                (self.m0 * h / d) * ((d * l / h).exp() - 1.0)
            }
        } else {
            h + (l - l_ramp) * self.m1
        }
    }

    /// The time-averaged platform MTBF over the drift horizon,
    /// `h / Λ(h)` — the log-mean of `m0` and `m1`. This is the single
    /// stationary MTBF whose Poisson process produces the same
    /// expected failure count over the horizon, i.e. the best possible
    /// *static* belief for a run spanning it.
    pub fn effective_mtbf(&self) -> f64 {
        self.horizon / self.ramp_hazard
    }
}

impl FailureSource for DriftingExponential {
    fn next_failure(&mut self) -> FailureEvent {
        let (hazard, node) = exponential_event(&mut self.rng, 1.0, self.nodes);
        self.hazard += hazard;
        self.now = SimTime::seconds(self.time_at_hazard(self.hazard));
        FailureEvent { at: self.now, node }
    }

    fn nodes(&self) -> u64 {
        self.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        SimTime::seconds(self.effective_mtbf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_simcore::RngFactory;

    fn count_until(src: &mut DriftingExponential, lo: f64, hi: f64) -> u64 {
        let mut n = 0;
        loop {
            let at = src.next_failure().at.as_secs();
            if at >= hi {
                return n;
            }
            if at >= lo {
                n += 1;
            }
        }
    }

    #[test]
    fn hazard_inversion_round_trips() {
        let src = DriftingExponential::new(100.0, 400.0, 10_000.0, 8, RngFactory::new(1).stream(0));
        for t in [0.0, 1.0, 500.0, 5_000.0, 10_000.0, 20_000.0, 1e6] {
            let l = src.hazard_at(t);
            let back = src.time_at_hazard(l);
            assert!(
                (back - t).abs() < 1e-7 * t.max(1.0),
                "t {t} → Λ {l} → {back}"
            );
        }
        // Constant drift degenerates to the plain exponential hazard.
        let flat = DriftingExponential::new(100.0, 100.0, 1_000.0, 8, RngFactory::new(1).stream(0));
        assert!((flat.hazard_at(500.0) - 5.0).abs() < 1e-12);
        assert!((flat.time_at_hazard(5.0) - 500.0).abs() < 1e-9);
        assert!((flat.effective_mtbf() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn effective_mtbf_is_the_log_mean() {
        let src = DriftingExponential::new(100.0, 400.0, 10_000.0, 8, RngFactory::new(2).stream(0));
        let expect = (400.0 - 100.0) / (400.0_f64 / 100.0).ln();
        assert!((src.effective_mtbf() - expect).abs() < 1e-9);
    }

    #[test]
    fn failure_rate_tracks_the_ramp() {
        // MTBF degrades 400 → 100 over 200k s: the last quarter of the
        // ramp must see roughly 4× the failures of the first quarter.
        let mut src =
            DriftingExponential::new(400.0, 100.0, 200_000.0, 16, RngFactory::new(3).stream(0));
        let early = count_until(&mut src, 0.0, 50_000.0);
        let mut src =
            DriftingExponential::new(400.0, 100.0, 200_000.0, 16, RngFactory::new(3).stream(0));
        let late = count_until(&mut src, 150_000.0, 200_000.0);
        // E[early] ≈ 50k/⟨m⟩ on [400,325] ≈ 138; E[late] on [175,100] ≈ 373.
        assert!(
            (late as f64) > 2.0 * early as f64,
            "late {late} vs early {early}"
        );
        // Past the horizon the rate is constant at 1/m1 = 1/100.
        let mut src =
            DriftingExponential::new(400.0, 100.0, 200_000.0, 16, RngFactory::new(4).stream(0));
        let settled = count_until(&mut src, 300_000.0, 400_000.0) as f64;
        let tol = 5.0 * 1_000.0_f64.sqrt();
        assert!((settled - 1_000.0).abs() < tol, "settled {settled}");
    }

    #[test]
    fn times_nondecreasing_and_reproducible() {
        let draw = || -> Vec<FailureEvent> {
            let mut s =
                DriftingExponential::new(300.0, 60.0, 50_000.0, 32, RngFactory::new(9).stream(7));
            (0..500).map(|_| s.next_failure()).collect()
        };
        let a = draw();
        let b = draw();
        assert_eq!(a, b);
        let mut last = SimTime::ZERO;
        for ev in &a {
            assert!(ev.at >= last);
            assert!(ev.node < 32);
            last = ev.at;
        }
    }
}
