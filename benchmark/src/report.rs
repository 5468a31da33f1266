//! What one workload run reports, and the result sets `run` writes.
//!
//! A workload prints its [`Outcome`] as the last line of standard
//! output: exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`, every value as measured. `run` collects one outcome per
//! workload into a [`ResultSet`] file, which `compare` and `baseline`
//! read back.

use crate::catalog::{END_TO_END, LAYERS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result of one workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations checked: cells (sweeps), cases (adapt), requests
    /// (serve).
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Outcome {
    /// Builds an outcome from a check tally and named values, attaching
    /// units from the catalog. Refuses a metric set that differs from
    /// the catalog's end-to-end (`trace == false`) or per-layer
    /// (`trace == true`) list, or a value that is not finite.
    ///
    /// # Errors
    /// Names the first missing, undeclared or non-finite metric.
    pub fn new(
        attempted: u64,
        failed: u64,
        values: &BTreeMap<String, f64>,
        trace: bool,
    ) -> Result<Outcome, String> {
        let declared: Vec<(&str, &str)> = if trace {
            LAYERS.iter().map(|l| (l.name, l.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = BTreeMap::new();
        for (name, unit) in &declared {
            let value = *values
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.insert(
                name.to_string(),
                MetricValue {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        if let Some(extra) = values.keys().find(|k| !metrics.contains_key(*k)) {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(Outcome {
            correct: failed == 0 && attempted > 0,
            attempted: attempted.max(1),
            failed,
            metrics,
        })
    }

    /// What a result set records for a run that printed no outcome (it
    /// crashed): one operation attempted, one failed, no metrics.
    pub fn missing() -> Outcome {
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: BTreeMap::new(),
        }
    }

    /// The one-line JSON form printed last on standard output.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses the last line a workload printed.
    ///
    /// # Errors
    /// Fails on malformed JSON or a missing key.
    pub fn from_line(line: &str) -> Result<Outcome, String> {
        serde_json::from_str(line.trim()).map_err(|e| format!("unreadable outcome line: {e}"))
    }

    /// A metric's value, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }
}

/// One workload's entry in a result set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Digest of the workload's simulated output, when it has one: the
    /// same seed must give the same digest on every run.
    pub digest: Option<String>,
    /// The workload's outcome.
    pub outcome: Outcome,
}

/// Schema tag of result-set files.
pub const RESULT_SCHEMA: &str = "dck-benchmark/run-v1";

/// What `dck-benchmark run` writes: one outcome per workload plus the
/// host facts the numbers depend on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Always [`RESULT_SCHEMA`].
    pub schema: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Whether these are traced (per-layer) results.
    pub trace: bool,
    /// Available parallelism of the host.
    pub nproc: u64,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Commit measured, when the source is a git checkout.
    pub commit: String,
    /// Per-workload results, in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    /// Reads and checks a result-set file.
    ///
    /// # Errors
    /// Fails on I/O, parse errors or a foreign schema.
    pub fn load(path: &str) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let set: ResultSet =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a result set: {e}"))?;
        if set.schema != RESULT_SCHEMA {
            return Err(format!(
                "{path}: schema {:?}, expected {RESULT_SCHEMA:?}",
                set.schema
            ));
        }
        Ok(set)
    }

    /// A workload's result, if present.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// Renders outcomes as an aligned table: every metric by name, with its
/// value and unit, one row per (workload, metric).
pub fn render_table(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for r in results {
        let o = &r.outcome;
        out.push_str(&format!(
            "{}: correct={} attempted={} failed={}{}\n",
            r.name,
            o.correct,
            o.attempted,
            o.failed,
            r.digest
                .as_deref()
                .map(|d| format!(" digest={d}"))
                .unwrap_or_default()
        ));
        for (name, m) in &o.metrics {
            out.push_str(&format!(
                "  {name:<40} {:>16} {}\n",
                format_value(m.value),
                m.unit
            ));
        }
    }
    out
}

/// Formats a value with enough significant digits to compare runs.
fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e_values() -> BTreeMap<String, f64> {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.to_string(), 1.5 + i as f64))
            .collect()
    }

    #[test]
    fn outcome_line_has_exactly_the_contract_keys() {
        let o = Outcome::new(99, 0, &e2e_values(), false).unwrap();
        let line = o.to_line();
        assert!(!line.contains('\n'));
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(Outcome::from_line(&line).unwrap(), o);
        assert_eq!(o.metrics["setup_s"].unit, "s");
    }

    #[test]
    fn outcome_refuses_a_metric_set_that_differs_from_the_catalog() {
        let mut values = e2e_values();
        values.remove("setup_s");
        assert!(Outcome::new(1, 0, &values, false)
            .unwrap_err()
            .contains("setup_s"));
        let mut values = e2e_values();
        values.insert("bogus".into(), 1.0);
        assert!(Outcome::new(1, 0, &values, false)
            .unwrap_err()
            .contains("bogus"));
        let mut values = e2e_values();
        values.insert("throughput".into(), f64::NAN);
        assert!(Outcome::new(1, 0, &values, false).is_err());
        // The end-to-end set is not a per-layer set.
        assert!(Outcome::new(1, 0, &e2e_values(), true).is_err());
    }

    #[test]
    fn failures_make_the_outcome_incorrect() {
        let o = Outcome::new(99, 1, &e2e_values(), false).unwrap();
        assert!(!o.correct);
        assert_eq!(o.failed, 1);
    }
}
