//! Optimal operating-point selection (extension beyond the paper).
//!
//! The paper treats the overhead `φ` as an exogenous property of the
//! application ("the amount of work that can be done during the
//! checkpoint phase"). But under its own overlap model the *operator*
//! chooses the transfer stretch `θ ∈ [θmin, θmax]`, and `φ(θ)` follows:
//! stretching the transfer hides more of its cost (smaller `φ`, smaller
//! fault-free waste) while lengthening the per-failure loss constant
//! `A` (which contains `θ`) and the risk window. So for each `(protocol,
//! platform, M)` there is a waste-optimal `φ*` — this module computes
//! it, with the period re-optimized at every probe.
//!
//! Shape of the trade-off: at large MTBF the fault-free term dominates
//! and full overlap (`φ* = 0`) wins; as failures become frequent the
//! `θ/M` term in `WASTEfail` grows and the optimum moves toward
//! blocking transfers. The crossover MTBF is protocol-dependent —
//! TRIPLE, whose fault-free waste vanishes at `φ = 0`, holds on to full
//! overlap much longer than the double protocols.

use crate::error::ModelError;
use crate::params::PlatformParams;
use crate::period::{golden_section_min, optimal_period};
use crate::protocol::Protocol;
use crate::waste::WasteBreakdown;
use serde::{Deserialize, Serialize};

/// A fully chosen operating point: overhead, period, and its waste.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// The chosen overhead `φ* ∈ [0, θmin]`.
    pub phi: f64,
    /// The implied transfer stretch `θ(φ*)`.
    pub theta: f64,
    /// The waste-optimal period at `φ*`.
    pub period: f64,
    /// Waste decomposition at `(φ*, P*)`.
    pub waste: WasteBreakdown,
}

/// Waste at the optimal period as a function of `φ` (helper).
///
/// # Errors
/// Propagates model errors at this probe point. Historically every
/// error was flattened into a `+∞` sentinel, which made "the model
/// rejects this operating point" indistinguishable from "this point is
/// legal but terrible" — and when *all* probes errored, the eventual
/// follow-up failure surfaced at an arbitrary refined `φ` instead of
/// the actual cause. The scan machinery now handles the distinction.
fn waste_at_phi(
    protocol: Protocol,
    params: &PlatformParams,
    phi: f64,
    mtbf: f64,
) -> Result<f64, ModelError> {
    optimal_period(protocol, params, phi, mtbf).map(|o| o.waste.total)
}

/// Minimizes a fallible `probe(φ)` over `φ ∈ [0, phi_max]`: a coarse
/// grid scan (the objective is not guaranteed unimodal across clamping
/// boundaries) brackets the minimum, then golden-section refinement
/// polishes it.
///
/// Probes may fail — the model legitimately rejects part of the range
/// (e.g. `φ > θmin`). Failed probes are excluded from bracketing, and
/// the *first* error is remembered: if no probe ever succeeds, that
/// error is returned verbatim rather than a confusing follow-up error
/// at an arbitrary refined `φ`.
///
/// # Errors
/// The first probe error, when every probe of the grid scan fails.
pub fn optimal_phi_scan(
    phi_max: f64,
    probe: impl FnMut(f64) -> Result<f64, ModelError>,
) -> Result<f64, ModelError> {
    const GRID: usize = 32;
    // golden_section_min takes Fn; thread the FnMut probe and the
    // first-error slot through a RefCell.
    let state = std::cell::RefCell::new((probe, None::<ModelError>));
    let eval = |phi: f64| -> f64 {
        let (probe, first_err) = &mut *state.borrow_mut();
        match probe(phi) {
            Ok(w) => w,
            Err(e) => {
                first_err.get_or_insert(e);
                f64::INFINITY
            }
        }
    };

    let mut best_i = 0;
    let mut best_w = f64::INFINITY;
    for i in 0..=GRID {
        let phi = phi_max * i as f64 / GRID as f64;
        let w = eval(phi);
        if w < best_w {
            best_w = w;
            best_i = i;
        }
    }
    if best_w.is_infinite() {
        // No grid probe produced a usable value. If any failed, report
        // why; otherwise the objective is genuinely +∞ everywhere and
        // the left edge is as good an answer as any.
        let (_, first_err) = state.into_inner();
        return match first_err {
            Some(e) => Err(e),
            None => Ok(0.0),
        };
    }
    // Refine inside the bracketing cells around the best grid point.
    let lo = phi_max * best_i.saturating_sub(1) as f64 / GRID as f64;
    let hi = phi_max * (best_i + 1).min(GRID) as f64 / GRID as f64;
    Ok(golden_section_min(eval, lo, hi, 1e-10))
}

/// Finds the overhead `φ* ∈ [0, θmin]` minimizing the waste at the
/// (re-optimized) period, for platform MTBF `m`.
///
/// With observability enabled (`dck_obs::enabled()`), every probe
/// bumps `opt.probes` and every rejected probe bumps
/// `opt.probe_errors`.
///
/// # Errors
/// Propagates parameter validation; requires `m > 0`. A model error
/// that rejects the whole `φ` range surfaces as the first probe's
/// error.
pub fn optimal_operating_point(
    protocol: Protocol,
    params: &PlatformParams,
    m: f64,
) -> Result<OperatingPoint, ModelError> {
    params.validate()?;
    if !(m.is_finite() && m > 0.0) {
        return Err(ModelError::invalid("mtbf", "must be finite and > 0"));
    }
    let counters = dck_obs::enabled().then(|| {
        (
            dck_obs::counter("opt.probes"),
            dck_obs::counter("opt.probe_errors"),
        )
    });
    let phi = optimal_phi_scan(params.theta_min, |phi| {
        let w = waste_at_phi(protocol, params, phi, m);
        if let Some((probes, errors)) = &counters {
            probes.incr();
            if w.is_err() {
                errors.incr();
            }
        }
        w
    })?;
    let opt = optimal_period(protocol, params, phi, m)?;
    let theta = crate::overlap::OverlapModel::new(params).theta_of_phi(phi)?;
    Ok(OperatingPoint {
        phi,
        theta,
        period: opt.period,
        waste: opt.waste,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    fn exa() -> PlatformParams {
        PlatformParams::new(60.0, 30.0, 60.0, 10.0, 1_000_000).unwrap()
    }

    #[test]
    fn large_mtbf_prefers_full_overlap() {
        // At M = 1 day on Base, fault-free waste dominates: φ* ≈ 0.
        for protocol in Protocol::EVALUATED {
            let op = optimal_operating_point(protocol, &base(), 86_400.0).unwrap();
            assert!(
                op.phi < 0.05 * base().theta_min,
                "{protocol:?}: phi* = {}",
                op.phi
            );
        }
    }

    #[test]
    fn optimum_beats_both_endpoints() {
        for protocol in Protocol::EVALUATED {
            for m in [120.0, 600.0, 3_600.0, 86_400.0] {
                let op = optimal_operating_point(protocol, &base(), m).unwrap();
                let w0 = waste_at_phi(protocol, &base(), 0.0, m).unwrap();
                let wr = waste_at_phi(protocol, &base(), base().theta_min, m).unwrap();
                assert!(
                    op.waste.total <= w0 + 1e-9 && op.waste.total <= wr + 1e-9,
                    "{protocol:?} M={m}: opt {} vs endpoints {w0}, {wr}",
                    op.waste.total
                );
            }
        }
    }

    #[test]
    fn optimum_beats_dense_grid() {
        // φ* should be within numerical noise of the best of a dense scan.
        let m = 900.0;
        for protocol in Protocol::EVALUATED {
            let op = optimal_operating_point(protocol, &exa(), m).unwrap();
            let mut best = f64::INFINITY;
            for i in 0..=1000 {
                let phi = exa().theta_min * i as f64 / 1000.0;
                best = best.min(waste_at_phi(protocol, &exa(), phi, m).unwrap());
            }
            assert!(
                op.waste.total <= best + 1e-6,
                "{protocol:?}: {} vs dense grid {best}",
                op.waste.total
            );
        }
    }

    #[test]
    fn low_mtbf_moves_double_away_from_full_overlap() {
        // On Exa at very low MTBF, stretching θ to 660 s costs too much
        // per failure; the optimal φ for the double protocols is
        // strictly positive.
        let op = optimal_operating_point(Protocol::DoubleNbl, &exa(), 900.0).unwrap();
        assert!(op.phi > 1.0, "phi* = {}", op.phi);
        // While at M = 1 day it returns to (near) full overlap.
        let op_day = optimal_operating_point(Protocol::DoubleNbl, &exa(), 86_400.0).unwrap();
        assert!(op_day.phi < op.phi);
    }

    #[test]
    fn triple_keeps_overlap_longer_than_double() {
        // TRIPLE's fault-free waste vanishes at φ = 0, so its optimal φ
        // stays at/near zero deeper into the low-MTBF regime.
        let m = 900.0;
        let tri = optimal_operating_point(Protocol::Triple, &exa(), m).unwrap();
        let dbl = optimal_operating_point(Protocol::DoubleNbl, &exa(), m).unwrap();
        assert!(
            tri.phi <= dbl.phi + 1e-9,
            "tri {} vs dbl {}",
            tri.phi,
            dbl.phi
        );
    }

    #[test]
    fn operating_point_is_consistent() {
        let op = optimal_operating_point(Protocol::DoubleBof, &base(), 3_600.0).unwrap();
        assert!((0.0..=base().theta_min).contains(&op.phi));
        assert!(op.theta >= base().theta_min);
        assert_eq!(op.waste.period, op.period);
    }

    #[test]
    fn rejects_bad_mtbf() {
        assert!(optimal_operating_point(Protocol::Triple, &base(), 0.0).is_err());
    }

    #[test]
    fn scan_tolerates_probes_that_fail_for_some_phi() {
        // Regression for the +∞-sentinel bug: scan a range twice as
        // wide as the valid one. Probes at φ > θmin fail the model's
        // φ-validation (a genuine `ModelError`, raised only for part
        // of the range); the scan must skip them, keep the error out
        // of the result, and still land on the optimum inside the
        // valid half.
        let p = exa();
        let m = 900.0;
        let probe = |phi: f64| waste_at_phi(Protocol::DoubleNbl, &p, phi, m);
        let reference = optimal_phi_scan(p.theta_min, probe).unwrap();
        let wide = optimal_phi_scan(2.0 * p.theta_min, probe).unwrap();
        assert!(
            wide <= p.theta_min + 1e-9,
            "optimum escaped the valid range: {wide}"
        );
        let w_ref = probe(reference).unwrap();
        let w_wide = probe(wide).unwrap();
        assert!(
            (w_ref - w_wide).abs() < 1e-3,
            "wide-scan waste {w_wide} vs reference {w_ref}"
        );
    }

    #[test]
    fn scan_returns_first_real_error_when_every_probe_fails() {
        // All probes reject (bad MTBF reaches the model through the
        // probe): the scan must surface that error — named after its
        // true cause — instead of manufacturing a follow-up failure at
        // an arbitrary refined φ.
        let p = base();
        let err = optimal_phi_scan(p.theta_min, |phi| {
            waste_at_phi(Protocol::Triple, &p, phi, f64::NAN)
        })
        .unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidParameter { name: "mtbf", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn scan_with_infinite_but_valid_objective_returns_left_edge() {
        // Probes that *succeed* with +∞ (bad-but-valid points) are not
        // errors: the scan falls back to φ = 0.
        let phi = optimal_phi_scan(4.0, |_| Ok(f64::INFINITY)).unwrap();
        assert_eq!(phi, 0.0);
    }
}
