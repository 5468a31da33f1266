//! Online MTBF estimation from an observed failure stream.
//!
//! The closed-form period (Eqs. 9/10/15) is only as good as the MTBF
//! `M` fed into it. In practice `M` is a nameplate guess that can be
//! off by an order of magnitude and can *drift* as the machine ages.
//! This module provides the statistical half of the adaptive
//! controller ([`crate::control`]): a streaming maximum-likelihood
//! estimator of the platform MTBF that
//!
//! * treats the **open interval** since the last failure as
//!   right-censored — the classic `T/n` estimator over the *elapsed*
//!   observation time, not the mean of closed gaps (which is biased
//!   low: it silently drops the information that no failure has
//!   occurred for a while, exactly the signal that matters when the
//!   believed MTBF is too short);
//! * optionally applies **exponentially-weighted windowing** so the
//!   estimate tracks a drifting failure rate: each closed interval's
//!   contribution to the likelihood decays with `exp(-ln2 · age / h)`
//!   for a half-life `h`;
//! * optionally fits a **Weibull shape diagnostic** by moment matching
//!   (the E1 robustness check): a shape far from 1 warns that the
//!   exponential MLE — and with it the closed-form period — is being
//!   applied outside the paper's Poisson assumption.
//!
//! The streaming recurrence keeps two decayed sums referenced at the
//! last failure time, so `record_failure` and `estimate` are O(1) and
//! the estimate at any truncation point is *exactly* the estimate a
//! batch fit over the truncated stream would produce (see
//! [`batch_mtbf`] and the truncation-invariance tests).

use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// Which law the estimator fits beyond the exponential MLE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitKind {
    /// Exponential inter-arrivals (the paper's assumption): censored
    /// MLE only.
    Exponential,
    /// Additionally fit a Weibull shape by moment matching on the
    /// closed intervals, as a model-misfit diagnostic. The MTBF fed to
    /// the controller remains the exponential MLE.
    WeibullMoments,
}

/// Configuration of the online MTBF estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Half-life (seconds) of the exponential forgetting window.
    /// `None` weights all history equally (the pure censored MLE).
    pub half_life: Option<f64>,
    /// Distribution fit mode.
    pub fit: FitKind,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            half_life: None,
            fit: FitKind::Exponential,
        }
    }
}

impl EstimatorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Rejects a non-finite or non-positive half-life.
    pub fn validate(&self) -> Result<(), ModelError> {
        if let Some(h) = self.half_life {
            if !(h.is_finite() && h > 0.0) {
                return Err(ModelError::invalid(
                    "half_life",
                    "must be finite and > 0 when set",
                ));
            }
        }
        Ok(())
    }

    fn decay_rate(&self) -> f64 {
        match self.half_life {
            Some(h) => std::f64::consts::LN_2 / h,
            None => 0.0,
        }
    }
}

/// A point-in-time MTBF estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MtbfEstimate {
    /// The (possibly windowed) censored maximum-likelihood platform
    /// MTBF (seconds).
    pub mtbf: f64,
    /// Raw failures observed so far (unweighted).
    pub failures: u64,
    /// Exponentially-weighted event mass behind the estimate — equals
    /// `failures` when no window is configured.
    pub effective_failures: f64,
    /// Total unweighted observation time, including the open censored
    /// interval (seconds).
    pub observed: f64,
    /// Moment-matched Weibull shape of the closed intervals, when
    /// [`FitKind::WeibullMoments`] is configured and at least three
    /// closed intervals exist. A value far from 1 flags a
    /// non-exponential failure law.
    pub shape: Option<f64>,
}

/// Streaming censored-MLE estimator of the platform MTBF.
///
/// Feed it every failure time with [`record_failure`] and query it at
/// any (non-decreasing) time with [`estimate`]; both are O(1).
///
/// [`record_failure`]: MtbfEstimator::record_failure
/// [`estimate`]: MtbfEstimator::estimate
#[derive(Debug, Clone)]
pub struct MtbfEstimator {
    cfg: EstimatorConfig,
    decay: f64,
    /// Time of the last recorded failure (or the stream origin 0).
    last: f64,
    /// Raw failure count.
    n: u64,
    /// Decayed event count, referenced at `last`.
    w_events: f64,
    /// Decayed exposure (closed-interval lengths), referenced at `last`.
    w_exposure: f64,
    /// Unweighted closed-interval moments for the shape diagnostic.
    sum_x: f64,
    sum_x2: f64,
}

impl MtbfEstimator {
    /// Builds an estimator observing from time 0.
    ///
    /// # Errors
    /// Propagates configuration validation.
    pub fn new(cfg: EstimatorConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        Ok(MtbfEstimator {
            cfg,
            decay: cfg.decay_rate(),
            last: 0.0,
            n: 0,
            w_events: 0.0,
            w_exposure: 0.0,
            sum_x: 0.0,
            sum_x2: 0.0,
        })
    }

    /// Raw failures recorded so far.
    pub fn failures(&self) -> u64 {
        self.n
    }

    /// Records a failure at absolute time `at`.
    ///
    /// # Errors
    /// Rejects a non-finite time or one earlier than the last recorded
    /// failure (the stream must be non-decreasing).
    pub fn record_failure(&mut self, at: f64) -> Result<(), ModelError> {
        if !at.is_finite() {
            return Err(ModelError::invalid("at", "failure time must be finite"));
        }
        if at < self.last {
            return Err(ModelError::invalid(
                "at",
                format!(
                    "failure time {at} precedes the last recorded failure {}",
                    self.last
                ),
            ));
        }
        let x = at - self.last;
        // Age both sums from `last` to `at`, then absorb the interval
        // that just closed at weight 1.
        let f = (-self.decay * x).exp();
        self.w_events = self.w_events * f + 1.0;
        self.w_exposure = self.w_exposure * f + x;
        self.sum_x += x;
        self.sum_x2 += x * x;
        self.last = at;
        self.n += 1;
        Ok(())
    }

    /// The estimate at observation time `now`, or `None` before the
    /// first failure (the censored MLE is unbounded on an empty event
    /// set — a platform that has not failed yet carries no finite MTBF
    /// information, only a lower bound). A windowed estimator also
    /// returns `None` once a quiet spell has decayed the event mass so
    /// far (to 0.0 after ~1075 half-lives) that the MLE is no longer
    /// finite: the events are forgotten, and an empty event set is what
    /// remains. Every `Some` estimate carries a finite MTBF.
    ///
    /// # Errors
    /// Rejects a non-finite `now` or one earlier than the last recorded
    /// failure.
    pub fn estimate(&self, now: f64) -> Result<Option<MtbfEstimate>, ModelError> {
        if !now.is_finite() {
            return Err(ModelError::invalid("now", "must be finite"));
        }
        if now < self.last {
            return Err(ModelError::invalid(
                "now",
                format!(
                    "observation time {now} precedes the last recorded failure {}",
                    self.last
                ),
            ));
        }
        if self.n == 0 {
            return Ok(None);
        }
        // Age the sums to `now`; the open interval [last, now) enters
        // the likelihood as censored exposure at weight 1 (it ends at
        // the observation instant, so it is the *freshest* evidence).
        let tail = now - self.last;
        let f = (-self.decay * tail).exp();
        let exposure = self.w_exposure * f + tail;
        let events = self.w_events * f;
        let mtbf = exposure / events;
        if !mtbf.is_finite() {
            return Ok(None);
        }
        Ok(Some(MtbfEstimate {
            mtbf,
            failures: self.n,
            effective_failures: events,
            observed: now,
            shape: self.weibull_shape(),
        }))
    }

    /// Moment-matched Weibull shape of the closed intervals (unweighted;
    /// the diagnostic asks "what law generated the gaps", not "what is
    /// the current rate").
    fn weibull_shape(&self) -> Option<f64> {
        if self.cfg.fit != FitKind::WeibullMoments || self.n < 3 {
            return None;
        }
        let n = self.n as f64;
        let mean = self.sum_x / n;
        let var = (self.sum_x2 / n - mean * mean).max(0.0);
        if !(mean > 0.0 && var > 0.0) {
            return None;
        }
        weibull_shape_from_cv2(var / (mean * mean))
    }
}

/// Reference batch implementation of the same estimator: the windowed
/// censored MLE computed directly from the full list of failure times.
/// Exists to pin the streaming recurrence — for any prefix of a stream,
/// [`MtbfEstimator`] and `batch_mtbf` agree to floating-point noise
/// (truncation invariance).
///
/// Returns `None` on an empty event set, and where the decayed event
/// mass is too small for a finite estimate, like the streaming API.
///
/// # Errors
/// Rejects non-finite or decreasing times, or `now` before the last
/// event — the same contract as the streaming API.
pub fn batch_mtbf(
    failure_times: &[f64],
    now: f64,
    cfg: &EstimatorConfig,
) -> Result<Option<f64>, ModelError> {
    cfg.validate()?;
    if !now.is_finite() {
        return Err(ModelError::invalid("now", "must be finite"));
    }
    let lambda = cfg.decay_rate();
    let mut last = 0.0_f64;
    let mut events = 0.0_f64;
    let mut exposure = 0.0_f64;
    for &at in failure_times {
        if !at.is_finite() || at < last {
            return Err(ModelError::invalid(
                "failure_times",
                "must be finite and non-decreasing",
            ));
        }
        // Weight each closed interval by the age of its endpoint.
        let w = (-lambda * (now - at)).exp();
        events += w;
        exposure += w * (at - last);
        last = at;
    }
    if now < last {
        return Err(ModelError::invalid("now", "precedes the last failure"));
    }
    exposure += now - last; // censored tail, weight 1
    let mtbf = exposure / events;
    Ok(mtbf.is_finite().then_some(mtbf))
}

/// Solves `Γ(1 + 2/k) / Γ(1 + 1/k)² − 1 = cv2` for the Weibull shape
/// `k` by bisection. The left side is strictly decreasing in `k`
/// (heavier tails ⇔ smaller shape), so the root is unique; `cv2 = 1`
/// returns exactly `k = 1` (exponential).
fn weibull_shape_from_cv2(cv2: f64) -> Option<f64> {
    if !(cv2.is_finite() && cv2 > 0.0) {
        return None;
    }
    let f = |k: f64| {
        let a = ln_gamma(1.0 + 2.0 / k);
        let b = ln_gamma(1.0 + 1.0 / k);
        (a - 2.0 * b).exp() - 1.0 - cv2
    };
    let (mut lo, mut hi) = (0.05_f64, 50.0_f64);
    // Outside the bracket the data is more extreme than any shape we
    // can distinguish numerically; clamp to the edge.
    if f(lo) <= 0.0 {
        return Some(lo);
    }
    if f(hi) >= 0.0 {
        return Some(hi);
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi {
            break;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Lanczos log-Gamma (g = 7, n = 9) for positive arguments — enough
/// for the shape diagnostic, which only evaluates `Γ(1 + a)` with
/// `a > 0`.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    debug_assert!(x > 0.0);
    let z = x - 1.0;
    let mut a = COEF[0];
    let t = z + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (z + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(times: &[f64], cfg: EstimatorConfig) -> MtbfEstimator {
        let mut est = MtbfEstimator::new(cfg).unwrap();
        for &t in times {
            est.record_failure(t).unwrap();
        }
        est
    }

    #[test]
    fn unwindowed_estimate_is_elapsed_time_over_count() {
        // The textbook censored MLE: M̂ = T / n, including the open
        // interval. NOT the mean of closed gaps (which would be 100).
        let est = feed(&[100.0, 200.0, 300.0], EstimatorConfig::default());
        let e = est.estimate(500.0).unwrap().unwrap();
        assert!((e.mtbf - 500.0 / 3.0).abs() < 1e-12, "{}", e.mtbf);
        assert_eq!(e.failures, 3);
        assert!((e.effective_failures - 3.0).abs() < 1e-12);
    }

    #[test]
    fn censoring_pulls_the_estimate_up_as_quiet_time_accrues() {
        let est = feed(&[10.0, 20.0, 30.0], EstimatorConfig::default());
        let early = est.estimate(30.0).unwrap().unwrap().mtbf;
        let late = est.estimate(1_000.0).unwrap().unwrap().mtbf;
        assert!((early - 10.0).abs() < 1e-12);
        assert!(
            late > early * 10.0,
            "a long quiet spell must raise the MTBF estimate: {early} → {late}"
        );
    }

    #[test]
    fn no_failures_yields_no_estimate() {
        let est = MtbfEstimator::new(EstimatorConfig::default()).unwrap();
        assert!(est.estimate(1e6).unwrap().is_none());
    }

    #[test]
    fn fully_decayed_event_mass_yields_no_estimate() {
        let cfg = EstimatorConfig {
            half_life: Some(10.0),
            ..EstimatorConfig::default()
        };
        let est = feed(&[5.0, 20.0, 30.0], cfg);
        // 1e4 s = 1000 half-lives: tiny but finite.
        let near = est.estimate(30.0 + 1e4).unwrap().expect("mass left");
        assert!(near.mtbf.is_finite() && near.mtbf > 1e200, "{near:?}");
        // 2e4 s: the mass underflows to 0.0 and the MLE would be +∞.
        for now in [30.0 + 2e4, 30.0 + 1e9] {
            assert!(est.estimate(now).unwrap().is_none(), "now = {now}");
            assert_eq!(batch_mtbf(&[5.0, 20.0, 30.0], now, &cfg).unwrap(), None);
        }
        // A fresh failure restores a finite estimate.
        let mut est = est;
        est.record_failure(30.0 + 2e4).unwrap();
        let fresh = est.estimate(30.0 + 2e4).unwrap().expect("one live event");
        assert!(fresh.mtbf.is_finite());
    }

    #[test]
    fn windowed_estimate_tracks_a_rate_change() {
        // 10 gaps of 100 s followed by 10 gaps of 1000 s. The
        // unwindowed MLE averages the regimes; a 2000 s half-life
        // forgets the early fast regime and lands near 1000 s.
        let mut times = Vec::new();
        let mut t = 0.0;
        for _ in 0..10 {
            t += 100.0;
            times.push(t);
        }
        for _ in 0..10 {
            t += 1000.0;
            times.push(t);
        }
        let flat = feed(&times, EstimatorConfig::default());
        let windowed = feed(
            &times,
            EstimatorConfig {
                half_life: Some(2_000.0),
                fit: FitKind::Exponential,
            },
        );
        let flat_m = flat.estimate(t).unwrap().unwrap().mtbf;
        let win_m = windowed.estimate(t).unwrap().unwrap().mtbf;
        assert!((flat_m - 11_000.0 / 20.0).abs() < 1e-9);
        assert!(
            win_m > 700.0 && win_m < 1_100.0,
            "windowed estimate {win_m} should track the recent 1000 s regime"
        );
    }

    #[test]
    fn streaming_matches_batch_at_every_truncation_point() {
        // Truncation invariance: at any prefix, the O(1) recurrence
        // equals the direct batch fit — windowed and unwindowed.
        let times: Vec<f64> = {
            // A deterministic but irregular stream.
            let mut t = 0.0;
            (0..200)
                .map(|i| {
                    t += 50.0 + 37.0 * ((i * 7919 % 101) as f64);
                    t
                })
                .collect()
        };
        for cfg in [
            EstimatorConfig::default(),
            EstimatorConfig {
                half_life: Some(5_000.0),
                fit: FitKind::Exponential,
            },
        ] {
            let mut est = MtbfEstimator::new(cfg).unwrap();
            for (i, &at) in times.iter().enumerate() {
                est.record_failure(at).unwrap();
                // Probe mid-interval as well as at the event.
                for now in [at, at + 13.0] {
                    let streaming = est.estimate(now).unwrap().unwrap().mtbf;
                    let batch = batch_mtbf(&times[..=i], now, &cfg).unwrap().unwrap();
                    assert!(
                        (streaming - batch).abs() <= 1e-9 * batch,
                        "truncation {i} at {now}: streaming {streaming} vs batch {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_decreasing_times_and_bad_probes() {
        let mut est = MtbfEstimator::new(EstimatorConfig::default()).unwrap();
        est.record_failure(100.0).unwrap();
        assert!(est.record_failure(50.0).is_err());
        assert!(est.record_failure(f64::NAN).is_err());
        assert!(est.estimate(50.0).is_err());
        assert!(est.estimate(f64::INFINITY).is_err());
        let bad = EstimatorConfig {
            half_life: Some(0.0),
            fit: FitKind::Exponential,
        };
        assert!(MtbfEstimator::new(bad).is_err());
    }

    #[test]
    fn weibull_shape_recovers_exponential_gaps() {
        // CV² of the fed gaps ≈ 1 ⇒ shape ≈ 1. Use a deterministic
        // sample of the exponential quantile function.
        let cfg = EstimatorConfig {
            half_life: None,
            fit: FitKind::WeibullMoments,
        };
        let mut est = MtbfEstimator::new(cfg).unwrap();
        let n = 2_000;
        let mut t = 0.0;
        for i in 0..n {
            // Stratified inverse-CDF sample of Exp(100).
            let u = (i as f64 + 0.5) / n as f64;
            t += -100.0 * (1.0 - u).ln();
            est.record_failure(t).unwrap();
        }
        let e = est.estimate(t).unwrap().unwrap();
        let shape = e.shape.expect("shape diagnostic requested");
        assert!(
            (shape - 1.0).abs() < 0.05,
            "exponential gaps must fit shape ≈ 1, got {shape}"
        );
    }

    #[test]
    fn weibull_shape_flags_regular_gaps() {
        // Near-deterministic gaps: CV² ≪ 1 ⇒ shape ≫ 1.
        let cfg = EstimatorConfig {
            half_life: None,
            fit: FitKind::WeibullMoments,
        };
        let mut est = MtbfEstimator::new(cfg).unwrap();
        let mut t = 0.0;
        for i in 0..100 {
            t += 100.0 + if i % 2 == 0 { 1.0 } else { -1.0 };
            est.record_failure(t).unwrap();
        }
        let shape = est.estimate(t).unwrap().unwrap().shape.unwrap();
        assert!(
            shape > 10.0,
            "regular gaps must fit a large shape, got {shape}"
        );
        // Exponential-only mode reports no shape.
        let plain = feed(&[100.0, 200.0, 300.0], EstimatorConfig::default());
        assert!(plain.estimate(300.0).unwrap().unwrap().shape.is_none());
    }

    #[test]
    fn shape_solver_reference_points() {
        // CV² = 1 ⇔ k = 1; k = 2 ⇒ CV² = 4/π − 1.
        let k = weibull_shape_from_cv2(1.0).unwrap();
        assert!((k - 1.0).abs() < 1e-6, "{k}");
        let cv2_k2 = 4.0 / std::f64::consts::PI - 1.0;
        let k = weibull_shape_from_cv2(cv2_k2).unwrap();
        assert!((k - 2.0).abs() < 1e-6, "{k}");
        assert!(weibull_shape_from_cv2(f64::NAN).is_none());
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }
}
