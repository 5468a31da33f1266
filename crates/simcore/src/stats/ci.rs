//! Student-t confidence intervals on the mean.

use super::welford::OnlineStats;
use serde::{Deserialize, Serialize};

/// Two-sided confidence interval for a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level used (e.g. 0.95).
    pub level: f64,
    /// Number of observations behind the estimate.
    pub n: u64,
}

impl ConfidenceInterval {
    /// Builds a two-sided interval at `level` (e.g. `0.95`) from online
    /// statistics. With fewer than 2 observations the half-width is 0.
    pub fn from_stats(stats: &OnlineStats, level: f64) -> Self {
        assert!((0.0..1.0).contains(&level), "level must be in (0,1)");
        let n = stats.count();
        let half_width = if n < 2 {
            0.0
        } else {
            let t = student_t_quantile(1.0 - (1.0 - level) / 2.0, (n - 1) as f64);
            t * stats.std_error()
        };
        ConfidenceInterval {
            mean: stats.mean(),
            half_width,
            level,
            n,
        }
    }
}

/// The one rule by which a model value is judged against a simulated
/// interval: `|model − centre| ≤ ci_slack · half_width + bias_allowance`.
/// The slack scales the estimator's own uncertainty; the allowance
/// absorbs a first-order model's bias. For a mean the interval is its
/// [`ConfidenceInterval`]; for a proportion it is its
/// [`wilson_interval`], centre and half-width taken from the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerance {
    /// Multiple of the interval's half-width admitted.
    pub ci_slack: f64,
    /// Absolute allowance added on top.
    pub bias_allowance: f64,
}

impl Tolerance {
    /// A tolerance of `ci_slack` half-widths plus `bias_allowance`.
    pub const fn new(ci_slack: f64, bias_allowance: f64) -> Self {
        Tolerance {
            ci_slack,
            bias_allowance,
        }
    }

    /// The largest `|model − centre|` admitted around an interval of
    /// this half-width.
    pub fn bound(&self, half_width: f64) -> f64 {
        self.ci_slack * half_width + self.bias_allowance
    }

    /// True if `model` lies within the bound of `centre`.
    pub fn admits(&self, model: f64, centre: f64, half_width: f64) -> bool {
        (model - centre).abs() <= self.bound(half_width)
    }
}

/// Wilson score interval `(lo, hi)` for a binomial proportion at normal
/// quantile `z` (1.96 for 95%); `(0, 1)` when there are no trials.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Quantile of the Student-t distribution with `df` degrees of freedom.
///
/// Uses the Cornish–Fisher-style expansion of the inverse t in terms of
/// the normal quantile (Abramowitz & Stegun 26.7.5), which is accurate
/// to ~1e-3 for `df ≥ 3` — plenty for Monte-Carlo interval reporting.
/// For `df ≥ 1e6` it returns the normal quantile directly.
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!((0.0..1.0).contains(&p), "probability must be in (0,1)");
    assert!(df >= 1.0, "degrees of freedom must be >= 1");
    let z = normal_quantile(p);
    if df >= 1e6 {
        return z;
    }
    let z2 = z * z;
    let g1 = (z2 + 1.0) * z / 4.0;
    let g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0;
    let g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0;
    let g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0;
    z + g1 / df + g2 / (df * df) + g3 / df.powi(3) + g4 / df.powi(4)
}

/// Standard normal quantile via the Acklam/Moro rational approximation
/// (relative error < 1.15e-9 over the full open unit interval).
fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p));
    // Coefficients from Peter Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_reference_points() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(1e-6) + 4.753424).abs() < 1e-4);
    }

    #[test]
    fn t_quantile_reference_points() {
        // Table values: t_{0.975, df}.
        for (df, expected, tol) in [
            (5.0, 2.5706, 0.02),
            (10.0, 2.2281, 0.01),
            (30.0, 2.0423, 0.005),
            (100.0, 1.9840, 0.002),
        ] {
            let got = student_t_quantile(0.975, df);
            assert!(
                (got - expected).abs() < tol,
                "df={df}: got {got}, want {expected}"
            );
        }
    }

    #[test]
    fn t_converges_to_normal() {
        let t = student_t_quantile(0.975, 2e6);
        assert!((t - 1.959964).abs() < 1e-4);
    }

    #[test]
    fn interval_covers_true_mean_of_exact_sample() {
        let mut s = OnlineStats::new();
        s.extend([9.8, 10.1, 10.0, 9.9, 10.2, 10.0]);
        let ci = ConfidenceInterval::from_stats(&s, 0.95);
        assert!(Tolerance::new(1.0, 0.0).admits(10.0, ci.mean, ci.half_width));
        assert!(ci.half_width > 0.0);
    }

    #[test]
    fn tiny_samples_have_zero_width() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        let ci = ConfidenceInterval::from_stats(&s, 0.95);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 1.0);
    }

    #[test]
    fn tolerance_scales_the_half_width_and_adds_the_allowance() {
        let mut s = OnlineStats::new();
        s.extend([0.0, 1.0, 0.0, 1.0, 0.5]);
        let ci = ConfidenceInterval::from_stats(&s, 0.95);
        let just_outside = ci.mean + 2.0 * ci.half_width;
        assert!(!Tolerance::new(1.0, 0.0).admits(just_outside, ci.mean, ci.half_width));
        assert!(Tolerance::new(2.5, 0.0).admits(just_outside, ci.mean, ci.half_width));
        assert!(Tolerance::new(1.0, ci.half_width).admits(just_outside, ci.mean, ci.half_width));
        assert_eq!(Tolerance::new(3.0, 0.01).bound(0.5), 1.51);
    }

    #[test]
    fn wilson_interval_reference() {
        let (lo, hi) = wilson_interval(8, 10, 1.96);
        // Known value: 8/10 → approx (0.49, 0.94).
        assert!((lo - 0.49).abs() < 0.01, "lo {lo}");
        assert!((hi - 0.943).abs() < 0.01, "hi {hi}");
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 50, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi < 0.1);
        let (lo, hi) = wilson_interval(50, 50, 1.96);
        assert!(lo > 0.9);
        assert_eq!(hi, 1.0);
    }
}
