//! `BENCH_*.json` report schema for the `dck-bench` harness.
//!
//! Every harness run writes two artifacts — `BENCH_reps.json`
//! (replications/sec of the Monte-Carlo estimator across worker
//! counts) and `BENCH_sweep.json` (sweep wall-clock and throughput
//! across worker counts) — so the perf trajectory of the hot path is
//! tracked by CI rather than anecdote. `dck validate --bench` checks files against this schema.

use serde::{Deserialize, Serialize};

/// Schema tag carried by every report (`BenchReport::SCHEMA`).
pub const SCHEMA: &str = "dck-bench/v1";

/// Which workload a report measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchKind {
    /// Monte-Carlo replication throughput of one operating point.
    Replications,
    /// Wall-clock of a full parameter sweep.
    Sweep,
}

/// The workload configuration a report was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchConfig {
    /// Protocol name (display form).
    pub protocol: String,
    /// Platform node count.
    pub nodes: u64,
    /// Node MTBF in seconds (reps) / MTBF grid (sweep uses the list).
    pub mtbf_s: Vec<f64>,
    /// Checkpoint-cost ratio grid `phi / theta_min`.
    pub phi_ratio: Vec<f64>,
    /// Work per run, in multiples of the MTBF.
    pub work_in_mtbfs: f64,
    /// Replications per measurement (per cell for sweeps).
    pub replications: usize,
    /// Master seed.
    pub seed: u64,
    /// True when the harness ran with `--fast` (CI smoke grid).
    pub quick: bool,
    /// `std::thread::available_parallelism()` of the measuring host;
    /// `None` in reports written before it was recorded, or when the
    /// host could not tell.
    #[serde(default)]
    pub available_parallelism: Option<usize>,
}

/// One measured series: a labelled implementation at one worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSeries {
    /// Series label (`"fast"` for replications, `"sweep"`).
    pub label: String,
    /// Worker threads used.
    pub workers: usize,
    /// Replications executed.
    pub replications: usize,
    /// Best (minimum) wall-clock of the measured repeats, seconds.
    pub elapsed_s: f64,
    /// Throughput, replications per second.
    pub reps_per_sec: f64,
    /// `workers > config.available_parallelism`: the workers share
    /// cores, so the series measures fan-out overhead, not scaling.
    /// `None` exactly when the parallelism is unknown.
    #[serde(default)]
    pub oversubscribed: Option<bool>,
}

/// Headline numbers derived from the series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Largest worker count measured.
    pub max_workers: usize,
    /// `fast` (or sweep) throughput at `max_workers` over one worker.
    pub scaling_max_vs_one_worker: Option<f64>,
}

/// A complete `BENCH_*.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema tag; always [`SCHEMA`].
    pub schema: String,
    /// Workload kind.
    pub kind: BenchKind,
    /// Workload configuration.
    pub config: BenchConfig,
    /// Measured series, one per (label, workers) pair.
    pub series: Vec<BenchSeries>,
    /// Derived headline numbers.
    pub summary: BenchSummary,
}

impl BenchReport {
    /// Serializes the report as pretty JSON with a trailing newline.
    ///
    /// # Errors
    /// Propagates serializer errors (unbounded floats would be the only
    /// realistic cause; [`BenchReport::validate`] rejects them first).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self).map(|mut s| {
            s.push('\n');
            s
        })
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    /// Propagates parse errors.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Checks the report for internal consistency: schema tag, at
    /// least one series, positive finite timings and throughputs,
    /// oversubscription marks agreeing with the recorded parallelism,
    /// and a summary agreeing with the series.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!(
                "schema {:?} is not the expected {SCHEMA:?}",
                self.schema
            ));
        }
        if self.series.is_empty() {
            return Err("report contains no series".to_string());
        }
        if self.config.available_parallelism == Some(0) {
            return Err("config.available_parallelism is zero".to_string());
        }
        for s in &self.series {
            let oversubscribed = self.config.available_parallelism.map(|n| s.workers > n);
            if s.oversubscribed != oversubscribed {
                return Err(format!(
                    "series {:?} @ {} workers: oversubscribed {:?} disagrees with \
                     available_parallelism {:?}",
                    s.label, s.workers, s.oversubscribed, self.config.available_parallelism
                ));
            }
            if s.workers == 0 {
                return Err(format!("series {:?}: zero workers", s.label));
            }
            if s.replications == 0 {
                return Err(format!("series {:?}: zero replications", s.label));
            }
            if !(s.elapsed_s.is_finite() && s.elapsed_s > 0.0) {
                return Err(format!(
                    "series {:?} @ {} workers: elapsed {} not a positive finite time",
                    s.label, s.workers, s.elapsed_s
                ));
            }
            if !(s.reps_per_sec.is_finite() && s.reps_per_sec > 0.0) {
                return Err(format!(
                    "series {:?} @ {} workers: throughput {} not positive finite",
                    s.label, s.workers, s.reps_per_sec
                ));
            }
        }
        let max_workers = self.series.iter().map(|s| s.workers).max().unwrap_or(0);
        if self.summary.max_workers != max_workers {
            return Err(format!(
                "summary.max_workers {} disagrees with series maximum {max_workers}",
                self.summary.max_workers
            ));
        }
        if let Some(x) = self.summary.scaling_max_vs_one_worker {
            if !(x.is_finite() && x > 0.0) {
                return Err(format!(
                    "summary.scaling_max_vs_one_worker {x} not positive finite"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            kind: BenchKind::Replications,
            config: BenchConfig {
                protocol: "double-nbl".to_string(),
                nodes: 64,
                mtbf_s: vec![1800.0],
                phi_ratio: vec![0.5],
                work_in_mtbfs: 4.0,
                replications: 1024,
                seed: 7,
                quick: true,
                available_parallelism: Some(2),
            },
            series: vec![
                BenchSeries {
                    label: "fast".to_string(),
                    workers: 1,
                    replications: 1024,
                    elapsed_s: 0.5,
                    reps_per_sec: 2048.0,
                    oversubscribed: Some(false),
                },
                BenchSeries {
                    label: "fast".to_string(),
                    workers: 8,
                    replications: 1024,
                    elapsed_s: 1.0,
                    reps_per_sec: 1024.0,
                    oversubscribed: Some(true),
                },
            ],
            summary: BenchSummary {
                max_workers: 8,
                scaling_max_vs_one_worker: Some(0.5),
            },
        }
    }

    #[test]
    fn valid_report_round_trips() {
        let r = sample();
        r.validate().unwrap();
        let json = r.to_json().unwrap();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        back.validate().unwrap();
    }

    #[test]
    fn reports_without_parallelism_still_validate() {
        // A file written before the parallelism was recorded: both
        // fields decode as unknown and the report stays valid.
        let old = r#"{
          "schema": "dck-bench/v1",
          "kind": "Sweep",
          "config": {
            "protocol": "DOUBLENBL", "nodes": 64, "mtbf_s": [900.0],
            "phi_ratio": [0.5], "work_in_mtbfs": 4.0, "replications": 256,
            "seed": 48796, "quick": false
          },
          "series": [
            {"label": "sweep", "workers": 8, "replications": 2304,
             "elapsed_s": 0.001049262, "reps_per_sec": 2195829.068430954}
          ],
          "summary": {"max_workers": 8, "scaling_max_vs_one_worker": null}
        }"#;
        let r = BenchReport::from_json(old).unwrap();
        assert_eq!(r.config.available_parallelism, None);
        assert_eq!(r.series[0].oversubscribed, None);
        r.validate().unwrap();
    }

    #[test]
    fn validation_rejects_defects() {
        let mut r = sample();
        r.schema = "dck-bench/v0".to_string();
        assert!(r.validate().is_err());

        let mut r = sample();
        r.series.clear();
        assert!(r.validate().is_err());

        let mut r = sample();
        r.series[0].elapsed_s = 0.0;
        assert!(r.validate().is_err());

        let mut r = sample();
        r.series[0].reps_per_sec = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample();
        r.summary.max_workers = 4;
        assert!(r.validate().is_err());

        let mut r = sample();
        r.summary.scaling_max_vs_one_worker = Some(f64::INFINITY);
        assert!(r.validate().is_err());

        // Oversubscription marks must follow the recorded parallelism.
        let mut r = sample();
        r.series[1].oversubscribed = Some(false);
        assert!(r.validate().unwrap_err().contains("oversubscribed"));

        let mut r = sample();
        r.config.available_parallelism = Some(0);
        assert!(r.validate().is_err());

        // The scaling entry is optional.
        let mut r = sample();
        r.summary.scaling_max_vs_one_worker = None;
        r.validate().unwrap();
    }
}
