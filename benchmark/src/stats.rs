//! Order statistics owned by the benchmark.
//!
//! Latencies are kept as raw nanosecond samples and ranked exactly:
//! no histogram buckets and no integer-microsecond rounding, whose
//! steps are about 5 % of a 22 µs median. Run-to-run summaries use
//! the quartile rule of Python's `statistics.quantiles(values, n=4)`,
//! so the spreads printed here are the ones an outside check computes.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Why a percentile cannot be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// The requested level is not in `(0, 1_000_000]` parts per million.
    BadLevel(u64),
    /// Fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the rank.
    TooFewBeyond {
        /// Samples available.
        samples: usize,
        /// Samples beyond the nearest rank.
        beyond: usize,
    },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::BadLevel(ppm) => write!(f, "percentile level {ppm} ppm is not in (0, 1e6]"),
            PercentileError::TooFewBeyond { samples, beyond } => write!(
                f,
                "only {beyond} of {samples} samples lie beyond the rank; at least {MIN_SAMPLES_BEYOND} are needed"
            ),
        }
    }
}

/// 1-based nearest rank of level `ppm` (parts per million) among `n`
/// samples: the smallest rank `r` with `r / n >= ppm / 1e6`, computed
/// in integers so no float rounding can move it.
pub fn nearest_rank(n: usize, ppm: u64) -> usize {
    let r = (ppm as u128 * n as u128).div_ceil(1_000_000) as usize;
    r.clamp(1, n.max(1))
}

/// The exact nearest-rank percentile of ascending `sorted` samples, or
/// an error when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond
/// it (the value would then be a few individual outliers).
pub fn percentile(sorted: &[u64], ppm: u64) -> Result<u64, PercentileError> {
    if ppm == 0 || ppm > 1_000_000 {
        return Err(PercentileError::BadLevel(ppm));
    }
    let r = nearest_rank(sorted.len(), ppm);
    let beyond = sorted.len().saturating_sub(r);
    if sorted.is_empty() || beyond < MIN_SAMPLES_BEYOND {
        return Err(PercentileError::TooFewBeyond {
            samples: sorted.len(),
            beyond,
        });
    }
    Ok(sorted[r - 1])
}

/// Latencies below this many ns are counted per nanosecond.
const DENSE_NS: usize = 1 << 18;

/// Exact latency samples at nanosecond resolution in fixed memory: one
/// count per nanosecond below 262 µs and the raw values above. Memory
/// does not grow with the number of requests, so a faster server does
/// not raise the benchmark's own peak RSS.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    dense: Vec<u32>,
    tail: Vec<u64>,
    n: usize,
}

impl Default for NsHistogram {
    fn default() -> Self {
        let mut dense = vec![0; DENSE_NS];
        // Touch every page up front: otherwise the pages in use, and so
        // the benchmark's own peak RSS, follow how widely the latencies
        // spread.
        for count in dense.iter_mut().step_by(1024) {
            *count = std::hint::black_box(0);
        }
        NsHistogram {
            dense,
            tail: Vec::new(),
            n: 0,
        }
    }
}

impl NsHistogram {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.tail.push(ns),
        }
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The exact nearest-rank percentile, under the same refusal rule as
    /// [`percentile`].
    pub fn percentile(&self, ppm: u64) -> Result<u64, PercentileError> {
        if ppm == 0 || ppm > 1_000_000 {
            return Err(PercentileError::BadLevel(ppm));
        }
        let r = nearest_rank(self.n, ppm);
        let beyond = self.n.saturating_sub(r);
        if self.n == 0 || beyond < MIN_SAMPLES_BEYOND {
            return Err(PercentileError::TooFewBeyond {
                samples: self.n,
                beyond,
            });
        }
        let mut seen = 0usize;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += c as usize;
            if seen >= r {
                return Ok(ns as u64);
            }
        }
        let mut tail = self.tail.clone();
        tail.sort_unstable();
        Ok(tail[r - seen - 1])
    }
}

/// Median of a set of measurements (mean of the middle pair when the
/// count is even); `NaN` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted_f64(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" rule of
/// Python's `statistics.quantiles(values, n=4)`. A single value is its
/// own quartiles; an empty set gives `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted_f64(values);
    let ld = v.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn sorted_f64(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_awkward_counts() {
        // p50 of 7: rank 4; p99 of 1000: rank 990; p999 of 1001: rank
        // 1000 (999.999 rounds up, never down).
        assert_eq!(nearest_rank(7, 500_000), 4);
        assert_eq!(nearest_rank(1000, 990_000), 990);
        assert_eq!(nearest_rank(1001, 999_000), 1000);
        assert_eq!(nearest_rank(1, 1), 1);
    }

    #[test]
    fn percentile_reads_the_ranked_sample() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 500_000), Ok(500));
        assert_eq!(percentile(&xs, 990_000), Ok(990));
        // Nanosecond resolution survives: no rounding to microseconds.
        let ns: Vec<u64> = (0..100).map(|i| 21_950 + i).collect();
        assert_eq!(percentile(&ns, 500_000), Ok(21_999));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<u64> = (1..=1000).collect();
        // p999 of 1000 samples leaves one sample beyond it.
        assert_eq!(
            percentile(&xs, 999_000),
            Err(PercentileError::TooFewBeyond {
                samples: 1000,
                beyond: 1
            })
        );
        // p99 needs 1000 samples: 999 leave nine beyond.
        assert!(percentile(&xs[..999], 990_000).is_err());
        assert!(percentile(&[], 500_000).is_err());
        assert_eq!(percentile(&xs, 0), Err(PercentileError::BadLevel(0)));
    }

    #[test]
    fn histogram_percentiles_equal_the_sorted_samples() {
        // Dense and tail values mixed, recorded out of order.
        let xs: Vec<u64> = (0..5000u64)
            .map(|i| (i * 7919) % 300_000 + 10_000)
            .collect();
        let mut h = NsHistogram::default();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for ppm in [500_000, 900_000, 990_000, 998_000] {
            assert_eq!(h.percentile(ppm), percentile(&sorted, ppm), "{ppm}");
        }
        assert!(h.percentile(999_000).is_err(), "5 beyond p999 of 5000");
        assert_eq!(h.len(), 5000);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(median(&[]).is_nan());
    }
}
