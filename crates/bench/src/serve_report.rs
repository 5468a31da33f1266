//! `BENCH_serve.json` report schema for the `dck loadgen` harness.
//!
//! `dck serve` turns the model into a service; `dck loadgen` measures
//! that service under load and writes one of these artifacts so
//! serving throughput and tail latency join the perf trajectory that
//! CI tracks. `dck validate --bench` sniffs the `schema` field to tell
//! this report apart from the harness [`crate::report`] artifacts.
//!
//! Percentiles are computed from the *raw* latency samples (nearest-
//! rank on the sorted set), not from the `dck-obs` histogram — its
//! power-of-two buckets are too coarse for a meaningful p999. The
//! histogram still receives every sample, so an obs snapshot and this
//! report can be cross-checked.

use crate::{positive_finite, Report};
use serde::{Deserialize, Serialize};

/// Schema tag carried by every serve report.
pub const SERVE_SCHEMA: &str = "dck-bench/serve-v1";

/// The permille ranks of the report's latency ladder, ascending:
/// p50, p90, p99, p999.
pub const LATENCY_LADDER_PERMILLE: [u32; 4] = [500, 900, 990, 999];

/// Nearest-rank percentile at `permille`/1000 on an ascending-sorted
/// sample set, in exact integer arithmetic.
///
/// The rank is `ceil(n·q)` per the nearest-rank definition. Computing
/// it as `(q * n as f64).ceil()` is wrong at small and awkward sample
/// counts: `0.999 × 3000 = 2997.0000000000005` in binary floating
/// point, which ceils to 2998 — one rank past the true p999 — and the
/// same overshoot can select ranks past the end of the sample set.
/// `(n·permille).div_ceil(1000)` is exact; the result is clamped to
/// `[1, n]` so any permille in `[0, 1000]` lands on a real sample (the
/// clamp to `n` keeps out-of-range requests on the max sample).
pub fn nearest_rank(sorted: &[u64], permille: u32) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = ((n as u128 * permille as u128).div_ceil(1000) as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The full [`ServeLatency`] ladder of an ascending-sorted sample set
/// via [`nearest_rank`], so every producer shares one rank formula.
///
/// Returns `None` on an empty sample set (a vacuous measurement has no
/// latency distribution — [`ServeBenchReport::validate`] rejects it
/// anyway).
pub fn latency_ladder(sorted: &[u64]) -> Option<ServeLatency> {
    let last = *sorted.last()?;
    let mean_us = sorted.iter().map(|&x| x as f64).sum::<f64>() / sorted.len() as f64;
    let [p50, p90, p99, p999] = LATENCY_LADDER_PERMILLE.map(|pm| nearest_rank(sorted, pm));
    Some(ServeLatency {
        p50_us: p50,
        p90_us: p90,
        p99_us: p99,
        p999_us: p999,
        max_us: last,
        mean_us,
    })
}

/// The load shape a serve report was measured under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchConfig {
    /// Server address targeted.
    pub addr: String,
    /// Client threads.
    pub threads: usize,
    /// Connections per thread (total connections = threads × this).
    pub concurrency: usize,
    /// Requested run duration, seconds.
    pub duration_s: f64,
    /// Seed of the deterministic request mix.
    pub seed: u64,
    /// Methods exercised by the mix, in rotation order.
    pub methods: Vec<String>,
}

/// Latency percentiles over all successful requests, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeLatency {
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Slowest observed request.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

/// A complete `BENCH_serve.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Schema tag; always [`SERVE_SCHEMA`].
    pub schema: String,
    /// Load shape.
    pub config: ServeBenchConfig,
    /// Wall-clock actually spent driving load, seconds.
    pub elapsed_s: f64,
    /// Requests that received an `ok` response.
    pub ok_requests: u64,
    /// Requests that received an `err` response or no parseable
    /// response at all (protocol errors — the smoke test requires 0).
    pub errors: u64,
    /// Successful requests per second of elapsed time.
    pub req_per_sec: f64,
    /// Latency distribution of successful requests.
    pub latency: ServeLatency,
}

impl Report for ServeBenchReport {
    const SCHEMA: &'static str = SERVE_SCHEMA;
    const NAME: &'static str = "ServeBenchReport";

    fn schema(&self) -> &str {
        &self.schema
    }

    fn summary(&self) -> String {
        format!(
            "serve load, {} ok requests at {:.0} req/s ({} errors), p99 {}us",
            self.ok_requests, self.req_per_sec, self.errors, self.latency.p99_us
        )
    }

    /// A non-empty load shape, at least one successful request,
    /// positive finite timings/throughput, and monotone percentiles.
    fn check(&self) -> Result<(), String> {
        if self.config.threads == 0 || self.config.concurrency == 0 {
            return Err("load shape has zero client connections".to_string());
        }
        if self.config.methods.is_empty() {
            return Err("request mix exercises no methods".to_string());
        }
        positive_finite("duration", self.config.duration_s)?;
        if self.ok_requests == 0 {
            return Err("no request succeeded — the measurement is vacuous".to_string());
        }
        positive_finite("elapsed", self.elapsed_s)?;
        positive_finite("throughput", self.req_per_sec)?;
        let l = &self.latency;
        let ladder = [
            ("p50", l.p50_us),
            ("p90", l.p90_us),
            ("p99", l.p99_us),
            ("p999", l.p999_us),
            ("max", l.max_us),
        ];
        for pair in ladder.windows(2) {
            let (lo_name, lo) = pair[0];
            let (hi_name, hi) = pair[1];
            if lo > hi {
                return Err(format!(
                    "latency {lo_name} ({lo}us) exceeds {hi_name} ({hi}us) — percentiles must be monotone"
                ));
            }
        }
        // Every rung must be a real sample: measured latencies are
        // clamped to >= 1us at the source, so a 0 means the rank
        // formula walked off the sample set (the float-ceil bug) or the
        // ladder was fabricated.
        for (name, v) in ladder {
            if v == 0 {
                return Err(format!(
                    "latency {name} is 0us — below the 1us measurement floor, not a real sample"
                ));
            }
        }
        positive_finite("mean latency", l.mean_us)?;
        if l.mean_us > l.max_us as f64 {
            return Err(format!(
                "mean latency {}us exceeds max {}us",
                l.mean_us, l.max_us
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeBenchReport {
        ServeBenchReport {
            schema: SERVE_SCHEMA.to_string(),
            config: ServeBenchConfig {
                addr: "127.0.0.1:4717".to_string(),
                threads: 2,
                concurrency: 2,
                duration_s: 2.0,
                seed: 0x10ad,
                methods: vec![
                    "waste".to_string(),
                    "risk".to_string(),
                    "pstar".to_string(),
                    "sweep_cell".to_string(),
                ],
            },
            elapsed_s: 2.01,
            ok_requests: 12_345,
            errors: 0,
            req_per_sec: 6_141.8,
            latency: ServeLatency {
                p50_us: 110,
                p90_us: 240,
                p99_us: 900,
                p999_us: 2_400,
                max_us: 5_100,
                mean_us: 151.2,
            },
        }
    }

    #[test]
    fn sample_round_trips_and_validates() {
        let r = sample();
        r.validate().unwrap();
        let json = r.to_json().unwrap();
        let back = ServeBenchReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        back.validate().unwrap();
    }

    #[test]
    fn validation_catches_schema_and_monotonicity_violations() {
        let mut r = sample();
        r.schema = "dck-bench/v1".to_string();
        assert!(r.validate().unwrap_err().contains("schema"));

        let mut r = sample();
        r.latency.p99_us = r.latency.p90_us - 1;
        assert!(r.validate().unwrap_err().contains("monotone"));

        let mut r = sample();
        r.ok_requests = 0;
        assert!(r.validate().unwrap_err().contains("vacuous"));

        let mut r = sample();
        r.req_per_sec = -1.0;
        assert!(r.validate().unwrap_err().contains("throughput"));

        let mut r = sample();
        r.config.methods.clear();
        assert!(r.validate().unwrap_err().contains("methods"));

        let mut r = sample();
        r.latency.p50_us = 0;
        r.latency.p90_us = 0;
        r.latency.p99_us = 0;
        r.latency.p999_us = 0;
        r.latency.max_us = 0;
        r.latency.mean_us = 0.5;
        assert!(r.validate().unwrap_err().contains("measurement floor"));
    }

    // --- nearest-rank golden cases -----------------------------------
    //
    // These pin the exact-integer rank formula at the sample counts
    // where the old `(q * n as f64).ceil()` implementation went wrong.

    #[test]
    fn nearest_rank_small_n_goldens() {
        // n = 1: every percentile is the single sample.
        for pm in [0, 1, 500, 900, 990, 999, 1000] {
            assert_eq!(nearest_rank(&[7], pm), 7, "n=1 permille={pm}");
        }
        // n = 2: rank ceil(2q) — p50 is the first sample, p90+ the
        // second.
        let two = [10, 20];
        assert_eq!(nearest_rank(&two, 500), 10);
        assert_eq!(nearest_rank(&two, 900), 20);
        assert_eq!(nearest_rank(&two, 999), 20);
        // n = 5.
        let five = [1, 2, 3, 4, 5];
        assert_eq!(nearest_rank(&five, 500), 3); // ceil(2.5) = 3
        assert_eq!(nearest_rank(&five, 900), 5); // ceil(4.5) = 5
        assert_eq!(nearest_rank(&five, 990), 5);
        assert_eq!(nearest_rank(&five, 999), 5);
        // p999 with fewer than 1000 samples is always the max sample,
        // never out of range.
        for n in [1usize, 3, 10, 99, 999] {
            let xs: Vec<u64> = (1..=n as u64).collect();
            assert_eq!(nearest_rank(&xs, 999), n as u64, "n={n}");
        }
        // Degenerate permilles stay on real samples.
        assert_eq!(nearest_rank(&five, 0), 1, "rank clamps up to 1");
        assert_eq!(nearest_rank(&five, 1000), 5);
        assert_eq!(nearest_rank(&[], 500), 0, "empty set sentinel");
    }

    #[test]
    fn nearest_rank_is_exact_where_float_ceil_overshoots() {
        // 0.035 × 200 = 7.000000000000001 in f64: a float-ceil rank
        // formula ceils that to rank 8. The true nearest rank is
        // exactly 7 — integer arithmetic cannot overshoot.
        let overshot = ((0.035f64 * 200.0).ceil()) as usize;
        assert_eq!(overshot, 8, "the float formula really is off by one");
        let xs: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&xs, 35), 7);
        // Exhaustive agreement with the definition rank = ceil(n·q)
        // over every permille at a few awkward sample counts.
        for n in [1usize, 2, 3, 7, 200, 1000, 3000] {
            let xs: Vec<u64> = (1..=n as u64).collect();
            for pm in 1..=1000u32 {
                let exact = (n as u128 * pm as u128).div_ceil(1000) as u64;
                assert_eq!(nearest_rank(&xs, pm), exact, "n={n} pm={pm}");
            }
        }
    }

    #[test]
    fn latency_ladder_is_monotone_and_validates() {
        let xs: Vec<u64> = (1..=3000).collect();
        let l = latency_ladder(&xs).unwrap();
        assert_eq!(
            (l.p50_us, l.p90_us, l.p99_us, l.p999_us, l.max_us),
            (1500, 2700, 2970, 2997, 3000)
        );
        let mut r = sample();
        r.latency = l;
        r.validate().unwrap();
        assert!(latency_ladder(&[]).is_none());
    }
}
