//! Optimal checkpointing period (§III-B, §V-B).
//!
//! The paper derives the waste-minimizing period with a computer
//! algebra system (Maple). We transcribe the closed forms:
//!
//! * DOUBLENBL (Eq. 9):  `P* = √(2(δ+φ)(M − R − D − θ))`
//! * DOUBLEBOF (Eq. 10): `P* = √(2(δ+φ)(M − 2R − D − θ + φ))`
//! * TRIPLE    (Eq. 15): `P* = 2√(φ(M − D − R − θ))`
//!
//! and *also* implement a derivative-free golden-section minimizer of
//! the exact waste function. The two agree to numerical precision on
//! the interior of the feasible domain (property-tested), which
//! independently validates the transcription — nothing in this crate
//! depends on trusting our reading of the Maple output.
//!
//! All three closed forms are instances of `P* = √(2·Cff·(M − A))`
//! where `Cff` is the fault-free overhead per period and `A` the
//! constant part of the per-failure loss `F = A + P/2`; the minimizer
//! of `WASTE(P) = 1 − (1 − (A + P/2)/M)(1 − Cff/P)` indeed satisfies
//! `P*² = 2·Cff·(M − A)` by a one-line derivative computation.
//!
//! Boundary handling (the paper instantiates its model only where the
//! interior optimum exists; we must also cover the edges to draw the
//! full figures):
//! * if `Cff = 0` (TRIPLE at full overlap) the fault-free waste is zero
//!   for any `P`, and `WASTE` is increasing in `P`, so `P* = Pmin`;
//! * the closed form is clamped from below to the physical minimum
//!   period `Pmin` (σ ≥ 0);
//! * if `M ≤ A + Pmin/2` the failure term already exceeds the MTBF at
//!   the smallest feasible period — the platform makes no progress and
//!   the optimum is reported at `Pmin` with waste 1.
//!
//! The closed-form rule (the interior optimum, clamped to `Pmin`) has
//! one copy, `closed_form_optimum`: [`optimal_period`] applies it,
//! and so does every period-only retune of the adaptive controller, so
//! a retune at an MTBF estimate commits exactly the period
//! `optimal_period` reports there.
//!
//! The golden-section search probes the waste about a hundred times per
//! solve. Everything that depends on neither the period nor the MTBF —
//! validation, `Cff`, `A`, `Pmin` — is computed once per solve, and
//! each probe evaluates the one copy of the waste formula that
//! [`WasteModel::waste`] and the predicted model use too.

use crate::error::ModelError;
use crate::params::PlatformParams;
use crate::protocol::Protocol;
use crate::waste::{check_mtbf, Objective, WasteBreakdown, WasteModel};
use serde::{Deserialize, Serialize};

/// How the reported optimal period was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeriodSource {
    /// Interior optimum from the paper's closed form.
    ClosedForm,
    /// Closed form fell below the physical minimum; clamped to `Pmin`.
    ClampedToMin,
    /// No period yields progress (waste saturates at 1); `Pmin` reported.
    Saturated,
}

/// An optimal-period result: the period, its waste, and its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimalPeriod {
    /// The waste-minimizing feasible period (seconds).
    pub period: f64,
    /// Waste decomposition at that period.
    pub waste: WasteBreakdown,
    /// Provenance of the value.
    pub source: PeriodSource,
}

/// Closed-form interior optimum at platform MTBF `m`, or `None` when
/// the argument of the square root is non-positive or `Cff = 0`.
pub fn closed_form_period_at(model: &WasteModel, m: f64) -> Option<f64> {
    interior_optimum(&Objective::new(model), m)
}

fn interior_optimum(objective: &Objective, m: f64) -> Option<f64> {
    let arg = 2.0 * objective.cff * (m - objective.a);
    if objective.cff <= 0.0 || arg <= 0.0 {
        None
    } else {
        Some(arg.sqrt())
    }
}

/// The closed-form optimum at platform MTBF `m` and where it came
/// from: the interior optimum when it is at least `Pmin`, else `Pmin`.
/// [`optimal_period`] and the adaptive controller's period retunes
/// both apply this one rule.
pub(crate) fn closed_form_optimum(objective: &Objective, m: f64) -> (f64, PeriodSource) {
    match interior_optimum(objective, m) {
        Some(p) if p >= objective.p_min => (p, PeriodSource::ClosedForm),
        _ => (objective.p_min, PeriodSource::ClampedToMin),
    }
}

/// Waste-minimizing feasible period for `(protocol, params, φ)` at
/// platform MTBF `m`, with boundary handling as documented above.
///
/// # Errors
/// Propagates parameter/φ validation; requires `m > 0`.
pub fn optimal_period(
    protocol: Protocol,
    params: &PlatformParams,
    phi: f64,
    m: f64,
) -> Result<OptimalPeriod, ModelError> {
    check_mtbf(m)?;
    let objective = Objective::new(&WasteModel::new(protocol, params, phi)?);
    let (period, mut source) = closed_form_optimum(&objective, m);
    let waste = objective.breakdown(period, m)?;
    if waste.total >= 1.0 {
        source = PeriodSource::Saturated;
    }
    Ok(OptimalPeriod {
        period,
        waste,
        source,
    })
}

/// Derivative-free golden-section minimization of the exact waste over
/// `[Pmin, p_hi]`. Used to cross-validate the closed forms and to
/// optimize extensions for which no closed form was derived.
///
/// # Errors
/// Propagates model construction errors; requires `m > 0`, and `m`
/// small enough that the search bracket stays finite.
pub fn numeric_optimal_period(
    protocol: Protocol,
    params: &PlatformParams,
    phi: f64,
    m: f64,
) -> Result<OptimalPeriod, ModelError> {
    check_mtbf(m)?;
    let objective = Objective::new(&WasteModel::new(protocol, params, phi)?);
    let (period, probes) = search_period(&objective, m, 1e-10)?;
    if dck_obs::enabled() {
        dck_obs::add("opt.period_probes", probes);
    }
    let waste = objective.breakdown(period, m)?;
    let source = if waste.total >= 1.0 {
        PeriodSource::Saturated
    } else if (period - objective.p_min).abs() < 1e-6 {
        PeriodSource::ClampedToMin
    } else {
        PeriodSource::ClosedForm
    };
    Ok(OptimalPeriod {
        period,
        waste,
        source,
    })
}

/// The golden-section bracket `[Pmin, p_hi]` at a valid MTBF `m`.
///
/// # Errors
/// An `m` so large that `p_hi` overflows to `+∞`.
pub(crate) fn search_bracket(objective: &Objective, m: f64) -> Result<(f64, f64), ModelError> {
    let lo = objective.p_min;
    // The interior optimum satisfies P*² = 2·Cff·(M − A) ≤ 2·Cff·M, so
    // √(2·Cff·M) bounds it; double it for safety and keep at least a
    // non-degenerate bracket above Pmin.
    let hi = (2.0 * objective.cff.max(1.0) * m).sqrt().max(lo * 2.0) * 2.0;
    if !hi.is_finite() {
        return Err(ModelError::invalid(
            "mtbf",
            format!("{m} is too large: the period search bracket overflows"),
        ));
    }
    Ok((lo, hi))
}

/// Golden-section minimization of `objective` at a valid MTBF `m` over
/// [`search_bracket`], to relative tolerance `rel_tol`: the period and
/// the probes it took.
///
/// # Errors
/// See [`search_bracket`].
pub(crate) fn search_period(
    objective: &Objective,
    m: f64,
    rel_tol: f64,
) -> Result<(f64, u64), ModelError> {
    let (lo, hi) = search_bracket(objective, m)?;
    let probes = std::cell::Cell::new(0u64);
    let f = |p: f64| {
        probes.set(probes.get() + 1);
        objective.probe(p, m)
    };
    let period = golden_section_min(f, lo, hi, rel_tol);
    Ok((period, probes.get()))
}

/// Golden-section search for the minimum of a unimodal `f` on `[lo, hi]`
/// to relative tolerance `rel_tol`.
pub fn golden_section_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64, rel_tol: f64) -> f64 {
    debug_assert!(lo <= hi);
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // (√5 − 1)/2
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    let mut iters = 0u64;
    // ~75 iterations shrink the bracket by φ⁻⁷⁵ ≈ 2e-16; stop earlier
    // on the relative tolerance.
    for _ in 0..200 {
        if (b - a) <= rel_tol * (a.abs() + b.abs()).max(1.0) {
            break;
        }
        iters += 1;
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    if dck_obs::enabled() {
        dck_obs::observe("opt.golden_iters", iters);
    }
    let mid = 0.5 * (a + b);
    // Return the best of the bracket ends, midpoint, and the *original*
    // endpoints. The original endpoints matter when the objective
    // plateaus (e.g. waste saturated at 1 for large P): golden section
    // can drift along the plateau and abandon a boundary minimum at
    // `lo` that its first probes never saw.
    let candidates = [lo, a, mid, b, hi];
    let mut best = candidates[0];
    let mut best_f = f(best);
    for &x in &candidates[1..] {
        let fx = f(x);
        if fx < best_f {
            best = x;
            best_f = fx;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_params() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    const M7H: f64 = 7.0 * 3600.0;

    #[test]
    fn eq9_double_nbl_closed_form() {
        // φ = 1 ⇒ θ = 34; P* = sqrt(2·(2+1)·(M − 4 − 0 − 34)).
        let model = WasteModel::new(Protocol::DoubleNbl, &base_params(), 1.0).unwrap();
        let p = closed_form_period_at(&model, M7H).unwrap();
        let expected = (2.0 * 3.0 * (M7H - 4.0 - 34.0)).sqrt();
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn eq10_double_bof_closed_form() {
        let model = WasteModel::new(Protocol::DoubleBof, &base_params(), 1.0).unwrap();
        let p = closed_form_period_at(&model, M7H).unwrap();
        let expected = (2.0 * 3.0 * (M7H - 8.0 - 34.0 + 1.0)).sqrt();
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn eq15_triple_closed_form() {
        let model = WasteModel::new(Protocol::Triple, &base_params(), 1.0).unwrap();
        let p = closed_form_period_at(&model, M7H).unwrap();
        let expected = 2.0 * (1.0 * (M7H - 4.0 - 34.0)).sqrt();
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn numeric_matches_closed_form() {
        for (protocol, phi) in [
            (Protocol::DoubleNbl, 1.0),
            (Protocol::DoubleNbl, 3.0),
            (Protocol::DoubleBof, 2.0),
            (Protocol::Triple, 0.5),
            (Protocol::Triple, 4.0),
        ] {
            let analytic = optimal_period(protocol, &base_params(), phi, M7H).unwrap();
            let numeric = numeric_optimal_period(protocol, &base_params(), phi, M7H).unwrap();
            let rel = (analytic.period - numeric.period).abs() / analytic.period;
            assert!(
                rel < 1e-3,
                "{protocol:?} φ={phi}: closed {} vs numeric {}",
                analytic.period,
                numeric.period
            );
            assert!((analytic.waste.total - numeric.waste.total).abs() < 1e-9);
        }
    }

    #[test]
    fn triple_full_overlap_clamps_to_min_period() {
        // φ = 0 ⇒ Cff = 0: waste is increasing in P, so P* = Pmin = 2θmax.
        let opt = optimal_period(Protocol::Triple, &base_params(), 0.0, M7H).unwrap();
        assert_eq!(opt.source, PeriodSource::ClampedToMin);
        assert!((opt.period - 2.0 * 44.0).abs() < 1e-12);
        // Fault-free waste is exactly zero there.
        assert_eq!(opt.waste.fault_free, 0.0);
        let numeric = numeric_optimal_period(Protocol::Triple, &base_params(), 0.0, M7H).unwrap();
        assert!((numeric.period - opt.period).abs() < 1e-3);
    }

    #[test]
    fn saturation_at_tiny_mtbf() {
        // M = 15 s: "no progress happens for any protocol".
        for protocol in Protocol::EVALUATED {
            let opt = optimal_period(protocol, &base_params(), 2.0, 15.0).unwrap();
            assert_eq!(opt.source, PeriodSource::Saturated, "{protocol:?}");
            assert_eq!(opt.waste.total, 1.0);
        }
    }

    #[test]
    fn optimal_waste_scales_like_sqrt_cff_over_m() {
        // §III-B: dominant waste term is √(2δ/M)-like; quadrupling M
        // should halve the waste, roughly.
        let w1 = optimal_period(Protocol::DoubleNbl, &base_params(), 1.0, M7H)
            .unwrap()
            .waste
            .total;
        let w4 = optimal_period(Protocol::DoubleNbl, &base_params(), 1.0, 4.0 * M7H)
            .unwrap()
            .waste
            .total;
        let ratio = w1 / w4;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn closed_form_none_when_mtbf_too_small() {
        let model = WasteModel::new(Protocol::DoubleNbl, &base_params(), 1.0).unwrap();
        // M below A = D + R + θ = 38.
        assert!(closed_form_period_at(&model, 30.0).is_none());
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let x = golden_section_min(|x| (x - 3.7).powi(2), 0.0, 10.0, 1e-12);
        assert!((x - 3.7).abs() < 1e-6);
    }

    #[test]
    fn golden_section_handles_boundary_min() {
        let x = golden_section_min(|x| x, 2.0, 5.0, 1e-12);
        assert!((x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_an_mtbf_whose_bracket_overflows() {
        // √(2·Cff·M) overflows for M ≳ 4.5e307 here: there is no
        // bracket to search, so no optimum to report.
        for m in [1e308, f64::MAX] {
            match numeric_optimal_period(Protocol::DoubleNbl, &base_params(), 0.0, m) {
                Err(ModelError::InvalidParameter { name: "mtbf", .. }) => {}
                other => panic!("m = {m}: {other:?}"),
            }
        }
        // The largest MTBFs with a finite bracket still solve.
        let opt = numeric_optimal_period(Protocol::DoubleNbl, &base_params(), 0.0, 1e300).unwrap();
        assert_eq!(opt.source, PeriodSource::ClosedForm);
    }

    #[test]
    fn rejects_nonpositive_mtbf() {
        assert!(optimal_period(Protocol::Triple, &base_params(), 1.0, 0.0).is_err());
        assert!(numeric_optimal_period(Protocol::Triple, &base_params(), 1.0, -1.0).is_err());
    }
}
