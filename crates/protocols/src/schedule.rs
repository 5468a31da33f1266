//! Deterministic periodic schedule of a protocol (Figs. 1 and 3).
//!
//! Between failures, every protocol repeats a fixed period of length
//! `P` split into three parts, each with a constant application speed:
//!
//! | | first part | second part | third part |
//! |---|---|---|---|
//! | double | local checkpoint `δ`, speed 0 | exchange `θ`, speed `(θ−φ)/θ` | compute `σ`, speed 1 |
//! | triple | exchange `θ`, speed `(θ−φ)/θ` | exchange `θ`, speed `(θ−φ)/θ` | compute `σ`, speed 1 |
//!
//! [`PeriodSchedule`] makes that structure executable: it maps schedule
//! time to accumulated useful work and back, which is all a simulator
//! needs to run the failure-free portions of a run in O(1) regardless
//! of how many periods elapse.

use dck_core::{ModelError, PlatformParams, Protocol, WasteModel};
use serde::{Deserialize, Serialize};

/// Which part of the period a schedule offset falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// First part (`δ` for double, first `θ` for triple).
    First,
    /// Second part (the `θ` exchange).
    Exchange,
    /// Third part (full-speed `σ`).
    Compute,
}

/// The executable periodic schedule of one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodSchedule {
    protocol: Protocol,
    period: f64,
    /// Length of the first part.
    first: f64,
    /// Length of the second part (`θ`).
    exchange: f64,
    /// Length of the third part (`σ`).
    sigma: f64,
    /// Work delivered by the first part.
    first_work: f64,
    /// Work delivered by the exchange part (`θ − φ`).
    exchange_work: f64,
    phi: f64,
    theta: f64,
}

impl PeriodSchedule {
    /// Builds the schedule for `(protocol, params, φ)` at period `p`.
    ///
    /// # Errors
    /// Propagates model validation (`φ` range, `p ≥ Pmin`).
    pub fn new(
        protocol: Protocol,
        params: &PlatformParams,
        phi: f64,
        period: f64,
    ) -> Result<Self, ModelError> {
        let model = WasteModel::new(protocol, params, phi)?;
        let s = model.structure(period)?;
        let k = protocol.policy().k;
        let (first_work, exchange_work) = if k == 2 {
            // Blocking local checkpoint first, then one exchange.
            (0.0, s.exchange - model.phi())
        } else {
            // k ≥ 3: the first part is itself an overlapped exchange;
            // the `exchange` slot folds the remaining k − 2 phases, each
            // delivering θ − φ of work at the same speed.
            let per_phase = s.first - model.phi();
            (per_phase, (k - 2) as f64 * per_phase)
        };
        Ok(PeriodSchedule {
            protocol,
            period: s.period,
            first: s.first,
            exchange: s.exchange,
            sigma: s.sigma,
            first_work,
            exchange_work,
            phi: model.phi(),
            theta: model.theta(),
        })
    }

    /// The protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Period length `P`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Overhead `φ` in effect.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Transfer stretch `θ` in effect.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// `σ`, the full-speed part.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Useful work delivered by one full period,
    /// `W = P − δ − φ` (double) / `P − 2φ` (triple).
    pub fn work_per_period(&self) -> f64 {
        self.first_work + self.exchange_work + self.sigma
    }

    /// Offset of schedule position `v` into its period: `v % P`, bit
    /// for bit, for every `v`.
    ///
    /// The remainder is taken as `v − n·P` with `n = trunc(v / P)`
    /// and one fused multiply-add, instead of `%`: glibc before 2.38
    /// implements `fmod` as a shift-subtract loop over the exponent
    /// difference, which the run kernel would pay at every failure.
    ///
    /// The result is exact. `fmod`'s result `rem = v − m·P`
    /// (`m = ⌊v/P⌋`) is always representable, and below 2⁵² the
    /// rounded quotient truncates to `m` or `m + 1`. For `n = m` the
    /// fused `v − n·P` is exactly `rem`. The quotient can only round up
    /// to `m + 1` when `rem ≥ P/2`, and then Sterbenz's lemma makes
    /// `rem − P` representable: the fused result is exact, negative,
    /// and adding `P` back gives `rem` exactly. Quotients at or above
    /// 2⁵², non-positive or not finite (`v` negative, zero, `+∞` or
    /// NaN) go through `%` unchanged.
    #[inline]
    pub fn offset(&self, v: f64) -> f64 {
        /// 2⁵²: below it every integer is a float and `trunc` is exact.
        const QUOTIENT_LIMIT: f64 = 4_503_599_627_370_496.0;
        let p = self.period;
        let q = v / p;
        if !(q > 0.0 && q < QUOTIENT_LIMIT) {
            return v % p;
        }
        let r = (-q.trunc()).mul_add(p, v);
        if r < 0.0 {
            r + p
        } else {
            r
        }
    }

    /// Classifies an offset `0 ≤ off < P` into its phase.
    pub fn phase_at(&self, off: f64) -> Phase {
        debug_assert!((0.0..self.period + 1e-9).contains(&off));
        if off < self.first {
            Phase::First
        } else if off < self.first + self.exchange {
            Phase::Exchange
        } else {
            Phase::Compute
        }
    }

    /// Useful work accumulated after `v ≥ 0` seconds of schedule time
    /// (piecewise-linear, continuous, non-decreasing).
    pub fn work_at(&self, v: f64) -> f64 {
        debug_assert!(v >= 0.0);
        let k = (v / self.period).floor();
        let off = v - k * self.period;
        k * self.work_per_period() + self.work_in_period(off)
    }

    /// Work accumulated `off` seconds into one period.
    fn work_in_period(&self, off: f64) -> f64 {
        let r1 = if self.first > 0.0 {
            self.first_work / self.first
        } else {
            0.0
        };
        let r2 = if self.exchange > 0.0 {
            self.exchange_work / self.exchange
        } else {
            0.0
        };
        if off < self.first {
            off * r1
        } else if off < self.first + self.exchange {
            self.first_work + (off - self.first) * r2
        } else {
            self.first_work + self.exchange_work + (off - self.first - self.exchange)
        }
    }

    /// Inverse of [`Self::work_at`]: the least schedule time `v` with
    /// `work_at(v) ≥ w`. For `w` landing inside a zero-speed stretch
    /// the entry point of the next productive stretch is returned.
    pub fn time_to_reach_work(&self, w: f64) -> f64 {
        debug_assert!(w >= 0.0);
        let wp = self.work_per_period();
        assert!(wp > 0.0, "schedule makes no progress (W = 0)");
        let k = (w / wp).floor();
        let mut rem = w - k * wp;
        let mut v = k * self.period;
        // Walk the three segments of the remaining partial period.
        let segs = [
            (self.first, self.first_work),
            (self.exchange, self.exchange_work),
            (self.sigma, self.sigma),
        ];
        for (len, seg_work) in segs {
            if rem <= 0.0 {
                break;
            }
            if seg_work <= 0.0 {
                // Zero-speed segment: must be fully traversed before the
                // next work arrives (only matters if rem > 0).
                v += len;
                continue;
            }
            if rem <= seg_work + 1e-12 {
                v += len * (rem / seg_work);
                rem = 0.0;
                break;
            }
            v += len;
            rem -= seg_work;
        }
        debug_assert!(rem <= 1e-9, "work beyond period walked: rem = {rem}");
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_params() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    fn double(phi: f64, period: f64) -> PeriodSchedule {
        PeriodSchedule::new(Protocol::DoubleNbl, &base_params(), phi, period).unwrap()
    }

    fn triple(phi: f64, period: f64) -> PeriodSchedule {
        PeriodSchedule::new(Protocol::Triple, &base_params(), phi, period).unwrap()
    }

    #[test]
    fn work_per_period_matches_model() {
        // Double: W = P − δ − φ.
        let s = double(1.0, 100.0);
        assert!((s.work_per_period() - (100.0 - 2.0 - 1.0)).abs() < 1e-12);
        // Triple: W = P − 2φ.
        let t = triple(1.0, 100.0);
        assert!((t.work_per_period() - (100.0 - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn phases_partition_the_period() {
        let s = double(1.0, 100.0); // δ=2, θ=34, σ=64
        assert_eq!(s.phase_at(0.0), Phase::First);
        assert_eq!(s.phase_at(1.9), Phase::First);
        assert_eq!(s.phase_at(2.0), Phase::Exchange);
        assert_eq!(s.phase_at(35.9), Phase::Exchange);
        assert_eq!(s.phase_at(36.0), Phase::Compute);
        assert_eq!(s.phase_at(99.9), Phase::Compute);
    }

    #[test]
    fn work_at_is_piecewise_linear() {
        let s = double(1.0, 100.0); // δ=2, θ=34 (work 33), σ=64
        assert_eq!(s.work_at(0.0), 0.0);
        assert_eq!(s.work_at(2.0), 0.0); // no work during local ckpt
                                         // Mid-exchange: half of (θ−φ) = 16.5.
        assert!((s.work_at(2.0 + 17.0) - 16.5).abs() < 1e-12);
        assert!((s.work_at(36.0) - 33.0).abs() < 1e-12);
        assert!((s.work_at(100.0) - 97.0).abs() < 1e-12);
        // Second period accumulates on top (136 s = one period + 36 s).
        assert!((s.work_at(136.0) - (97.0 + 33.0)).abs() < 1e-12);
    }

    #[test]
    fn triple_first_phase_produces_work() {
        let t = triple(1.0, 100.0); // θ=34 twice, σ=32
        assert!(t.work_at(34.0) > 0.0);
        assert!((t.work_at(34.0) - 33.0).abs() < 1e-12);
        assert!((t.work_at(68.0) - 66.0).abs() < 1e-12);
        assert!((t.work_at(100.0) - 98.0).abs() < 1e-12);
    }

    #[test]
    fn time_to_reach_work_inverts_work_at() {
        for s in [double(1.0, 100.0), double(4.0, 50.0), triple(2.0, 120.0)] {
            for w in [0.0, 5.0, 33.0, 50.0, 97.0, 130.0, 1234.5] {
                let v = s.time_to_reach_work(w);
                assert!(
                    (s.work_at(v) - w).abs() < 1e-9,
                    "w={w}: v={v}, work_at(v)={}",
                    s.work_at(v)
                );
                // Minimality: a hair earlier gives strictly less work
                // (when v > 0 and not at a zero-speed plateau boundary).
                if v > 1e-6 {
                    assert!(s.work_at(v - 1e-6) <= w + 1e-9);
                }
            }
        }
    }

    #[test]
    fn work_at_monotone_nondecreasing() {
        let s = triple(3.0, 90.0);
        let mut last = -1.0;
        for i in 0..=900 {
            let w = s.work_at(i as f64 * 0.3);
            assert!(w >= last - 1e-12);
            last = w;
        }
    }

    #[test]
    fn fully_blocking_exchange_delivers_no_work() {
        // φ = θmin = 4 ⇒ θ = 4, exchange work = 0.
        let s = double(4.0, 50.0);
        assert_eq!(s.theta(), 4.0);
        assert_eq!(s.work_at(6.0), 0.0); // δ + θ traversed, still zero
        assert!((s.work_per_period() - 44.0).abs() < 1e-12);
        // time_to_reach_work skips the zero-speed prefix entirely.
        let v = s.time_to_reach_work(1.0);
        assert!((v - 7.0).abs() < 1e-12); // δ + θ + 1
    }

    #[test]
    fn blocking_double_protocol_schedule() {
        let s = PeriodSchedule::new(Protocol::DoubleBlocking, &base_params(), 0.0, 50.0).unwrap();
        // φ pinned to θmin: period = 2 + 4 + 44.
        assert_eq!(s.phi(), 4.0);
        assert_eq!(s.theta(), 4.0);
        assert!((s.work_per_period() - 44.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_infeasible_period() {
        assert!(PeriodSchedule::new(Protocol::DoubleNbl, &base_params(), 0.0, 10.0).is_err());
    }

    /// A schedule whose period is exactly `p` (the other parts do not
    /// enter [`PeriodSchedule::offset`]).
    fn with_period(p: f64) -> PeriodSchedule {
        PeriodSchedule {
            period: p,
            ..double(0.0, 100.0)
        }
    }

    /// `x` moved by `ulps` units in the last place.
    fn ulps_away(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    fn assert_offset_is_fmod(p: f64, v: f64) {
        let (got, want) = (with_period(p).offset(v), v % p);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "offset({v:e}) = {got:e} but {v:e} % {p:e} = {want:e}"
        );
    }

    #[test]
    fn offset_is_fmod_on_adversarial_inputs() {
        let periods = [
            1e-3,
            0.1,
            0.1 + 0.2,
            6.0,
            100.0,
            std::f64::consts::PI * 3600.0,
            73_123.456_789,
            ulps_away(1e6, 1),
            1e8 / 3.0,
        ];
        let mut ks: Vec<u64> = (0..=20).collect();
        ks.extend((1..=6).map(|e| 10u64.pow(e)));
        ks.extend((1..=6).map(|e| 10u64.pow(e) - 1));
        ks.extend((0..2000u64).map(|i| i * 7919 % 1_000_000));
        for p in periods {
            // Exact and near multiples `k·P ± 1..3` ulps, k ≤ 10⁶.
            for &k in &ks {
                let kp = k as f64 * p;
                for d in -3..=3 {
                    let v = ulps_away(kp, d);
                    if v >= 0.0 {
                        assert_offset_is_fmod(p, v);
                    }
                }
            }
            // Below one period, and zero.
            for v in [0.0, -0.0, f64::MIN_POSITIVE, p * 0.5, ulps_away(p, -1), p] {
                assert_offset_is_fmod(p, v);
            }
            // Quotients at or above 2⁵² take the `%` path.
            for v in [p * 4_503_599_627_370_496.0, p * 1e18, f64::MAX] {
                assert_offset_is_fmod(p, v);
            }
            // Non-finite and negative positions pass through `%`.
            for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -p * 2.5] {
                assert_offset_is_fmod(p, v);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(50_000))]

        /// Random positions over the kernel's ranges: periods from
        /// 1 ms to 10⁸ s, positions up to 10¹² s.
        #[test]
        fn offset_is_fmod_on_random_positions(
            p_exp in -3.0f64..8.0,
            v_exp in -3.0f64..12.0,
            p_frac in 1.0f64..10.0,
            v_frac in 1.0f64..10.0,
        ) {
            let (p, v) = (p_frac * 10f64.powf(p_exp), v_frac * 10f64.powf(v_exp));
            proptest::prop_assert_eq!(with_period(p).offset(v).to_bits(), (v % p).to_bits());
        }

        /// Positions within a few ulps of a multiple of the period,
        /// where the rounded quotient can land on the next integer.
        #[test]
        fn offset_is_fmod_near_multiples(
            p_exp in -3.0f64..8.0,
            p_frac in 1.0f64..10.0,
            k in 0u64..1_000_001,
            d in -3i64..4,
        ) {
            let p = p_frac * 10f64.powf(p_exp);
            let v = ulps_away(k as f64 * p, d).max(0.0);
            proptest::prop_assert_eq!(with_period(p).offset(v).to_bits(), (v % p).to_bits());
        }
    }
}
