//! `BENCH_adapt.json` — the adaptive-controller regret artifact.
//!
//! The regret harness ([`dck_sim::run_regret`]) measures how much
//! waste the online controller gives up against a clairvoyant static
//! tuning, and how much it recovers against a misspecified one. This
//! module freezes those numbers into a schema-tagged artifact with the
//! acceptance gates *inside* `validate()`:
//!
//! - every **stationary** scenario's regret ratio must sit within the
//!   configured tolerance of the oracle (the ISSUE gate is 10%), and
//! - every **drift** scenario must strictly beat the static arm that
//!   trusts the nameplate MTBF forever.
//!
//! `dck validate --bench BENCH_adapt.json` re-checks all of this from
//! the file alone, so CI needs no knowledge of the harness.

use dck_sim::{RegretResult, RegretScenario};
use serde::{Deserialize, Serialize};

/// Schema tag carried by every adapt report.
pub const ADAPT_SCHEMA: &str = "dck-adapt/v1";

/// The harness configuration the report was produced under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptBenchConfig {
    /// Protocol name (display form).
    pub protocol: String,
    /// Platform nodes.
    pub nodes: u64,
    /// True platform MTBF at time 0 (seconds).
    pub true_mtbf_s: f64,
    /// Overhead ratio `φ/θmin`.
    pub phi_ratio: f64,
    /// Useful work per replication in multiples of the true MTBF.
    pub work_in_mtbfs: f64,
    /// Replications per arm per scenario.
    pub replications: usize,
    /// Master seed.
    pub seed: u64,
    /// Controller hysteresis dead band (relative MTBF change).
    pub hysteresis: f64,
    /// Minimum observed failures before the first retune.
    pub min_failures: u64,
    /// Estimator window half-life (seconds), if windowed.
    pub half_life_s: Option<f64>,
}

/// One scenario row: the three arms and the derived regret numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario family: `"misspecified"`, `"drift"` or `"predicted"`.
    pub kind: String,
    /// Misspecification factor (believed = factor × true), or the
    /// drift end factor.
    pub factor: f64,
    /// The nameplate MTBF the static/adaptive arms start from (s).
    pub believed_mtbf_s: f64,
    /// The clairvoyant planning MTBF (s).
    pub oracle_mtbf_s: f64,
    /// Period of the misspecified static arm (s).
    pub static_period_s: f64,
    /// Period of the oracle arm (s).
    pub oracle_period_s: f64,
    /// Mean waste of the adaptive arm over completed replications.
    pub adaptive_waste: f64,
    /// Mean waste of the misspecified static arm.
    pub static_waste: f64,
    /// Mean waste of the oracle arm.
    pub oracle_waste: f64,
    /// 95% CI half-width on the adaptive mean waste; `None` (`null`)
    /// when the adaptive arm completed fewer than two replications, so
    /// no interval exists.
    pub adaptive_ci95: Option<f64>,
    /// Completed replications (adaptive arm).
    pub completed: usize,
    /// Fatal replications (adaptive arm).
    pub fatal: usize,
    /// Cap-truncated replications (adaptive arm).
    pub truncated: usize,
    /// `adaptive_waste − oracle_waste`.
    pub regret: f64,
    /// `regret / oracle_waste`.
    pub regret_ratio: f64,
    /// Whether the adaptive arm strictly beats the static arm.
    pub beats_static: bool,
    /// Mean retunes applied per adaptive replication.
    pub retunes_mean: f64,
}

/// Headline verdicts, recomputable from the scenario rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptSummary {
    /// The acceptance tolerance on stationary regret ratios.
    pub stationary_tolerance: f64,
    /// Worst regret ratio over the stationary (non-drift) scenarios.
    pub max_stationary_regret_ratio: f64,
    /// `max_stationary_regret_ratio <= stationary_tolerance`.
    pub stationary_within_tolerance: bool,
    /// Every drift scenario's adaptive arm beat its static arm.
    pub drift_beats_static: bool,
}

/// The full artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Schema tag; always [`ADAPT_SCHEMA`].
    pub schema: String,
    /// Harness configuration.
    pub config: AdaptBenchConfig,
    /// One row per scenario.
    pub scenarios: Vec<AdaptScenarioReport>,
    /// Headline verdicts.
    pub summary: AdaptSummary,
}

/// The default acceptance tolerance on stationary regret (the ISSUE
/// gate: adaptive within 10% of the oracle's waste).
pub const DEFAULT_STATIONARY_TOLERANCE: f64 = 0.10;

fn scenario_row(r: &RegretResult) -> AdaptScenarioReport {
    let (kind, factor) = match r.scenario {
        RegretScenario::Misspecified { factor } => ("misspecified", factor),
        RegretScenario::Drift { end_factor } => ("drift", end_factor),
        RegretScenario::Predicted { factor, .. } => ("predicted", factor),
    };
    AdaptScenarioReport {
        name: r.name.clone(),
        kind: kind.to_string(),
        factor,
        believed_mtbf_s: r.believed_mtbf,
        oracle_mtbf_s: r.oracle_mtbf,
        static_period_s: r.static_period,
        oracle_period_s: r.oracle_period,
        adaptive_waste: r.adaptive.mean_waste,
        static_waste: r.static_arm.mean_waste,
        oracle_waste: r.oracle.mean_waste,
        adaptive_ci95: Some(r.adaptive.ci95_half_width).filter(|ci| ci.is_finite()),
        completed: r.adaptive.completed,
        fatal: r.adaptive.fatal,
        truncated: r.adaptive.truncated,
        regret: r.regret,
        regret_ratio: r.regret_ratio,
        beats_static: r.beats_static,
        retunes_mean: r.retunes_mean,
    }
}

fn summarize(scenarios: &[AdaptScenarioReport], tolerance: f64) -> AdaptSummary {
    let max_stationary = scenarios
        .iter()
        .filter(|s| s.kind != "drift")
        .map(|s| s.regret_ratio)
        .fold(f64::NEG_INFINITY, f64::max);
    let max_stationary = if max_stationary.is_finite() {
        max_stationary
    } else {
        0.0
    };
    AdaptSummary {
        stationary_tolerance: tolerance,
        max_stationary_regret_ratio: max_stationary,
        stationary_within_tolerance: max_stationary <= tolerance,
        drift_beats_static: scenarios
            .iter()
            .filter(|s| s.kind == "drift")
            .all(|s| s.beats_static),
    }
}

impl AdaptReport {
    /// Builds a report from harness results.
    pub fn from_results(
        config: AdaptBenchConfig,
        results: &[RegretResult],
        tolerance: f64,
    ) -> AdaptReport {
        let scenarios: Vec<AdaptScenarioReport> = results.iter().map(scenario_row).collect();
        let summary = summarize(&scenarios, tolerance);
        AdaptReport {
            schema: ADAPT_SCHEMA.to_string(),
            config,
            scenarios,
            summary,
        }
    }

    /// Serializes as pretty JSON with a trailing newline.
    ///
    /// # Errors
    /// Propagates serializer errors.
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

    /// Checks internal consistency and the acceptance gates: schema
    /// tag, well-formed rows (wastes are fractions, oracle never above
    /// the arms it bounds by more than noise allows, completions
    /// present), a summary that matches its rows, stationary regret
    /// within tolerance, and drift beating static.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != ADAPT_SCHEMA {
            return Err(format!(
                "schema {:?} is not the expected {ADAPT_SCHEMA:?}",
                self.schema
            ));
        }
        if self.scenarios.is_empty() {
            return Err("report contains no scenarios".to_string());
        }
        if !(self.summary.stationary_tolerance.is_finite()
            && self.summary.stationary_tolerance > 0.0)
        {
            return Err(format!(
                "stationary tolerance {} not positive finite",
                self.summary.stationary_tolerance
            ));
        }
        for s in &self.scenarios {
            if !matches!(s.kind.as_str(), "misspecified" | "drift" | "predicted") {
                return Err(format!("scenario {:?}: unknown kind {:?}", s.name, s.kind));
            }
            if s.completed == 0 {
                return Err(format!("scenario {:?}: no completed replications", s.name));
            }
            for (field, v) in [
                ("adaptive_waste", s.adaptive_waste),
                ("static_waste", s.static_waste),
                ("oracle_waste", s.oracle_waste),
            ] {
                if !(v.is_finite() && (0.0..1.0).contains(&v)) {
                    return Err(format!(
                        "scenario {:?}: {field} {v} is not a waste fraction in [0, 1)",
                        s.name
                    ));
                }
            }
            let regret = s.adaptive_waste - s.oracle_waste;
            if (s.regret - regret).abs() > 1e-9 {
                return Err(format!(
                    "scenario {:?}: regret {} disagrees with arms ({regret})",
                    s.name, s.regret
                ));
            }
        }
        let expect = summarize(&self.scenarios, self.summary.stationary_tolerance);
        if (expect.max_stationary_regret_ratio - self.summary.max_stationary_regret_ratio).abs()
            > 1e-9
            || expect.stationary_within_tolerance != self.summary.stationary_within_tolerance
            || expect.drift_beats_static != self.summary.drift_beats_static
        {
            return Err("summary disagrees with the scenario rows".to_string());
        }
        if !self.summary.stationary_within_tolerance {
            return Err(format!(
                "stationary regret ratio {:.4} exceeds the {:.2} tolerance",
                self.summary.max_stationary_regret_ratio, self.summary.stationary_tolerance
            ));
        }
        if !self.summary.drift_beats_static {
            return Err("a drift scenario's adaptive arm lost to the static arm".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AdaptBenchConfig {
        AdaptBenchConfig {
            protocol: "double-nbl".into(),
            nodes: 16,
            true_mtbf_s: 3600.0,
            phi_ratio: 1.0,
            work_in_mtbfs: 80.0,
            replications: 24,
            seed: 7,
            hysteresis: 0.10,
            min_failures: 5,
            half_life_s: None,
        }
    }

    fn row(name: &str, kind: &str, adaptive: f64, stat: f64, oracle: f64) -> AdaptScenarioReport {
        AdaptScenarioReport {
            name: name.into(),
            kind: kind.into(),
            factor: 4.0,
            believed_mtbf_s: 14_400.0,
            oracle_mtbf_s: 3600.0,
            static_period_s: 600.0,
            oracle_period_s: 300.0,
            adaptive_waste: adaptive,
            static_waste: stat,
            oracle_waste: oracle,
            adaptive_ci95: Some(0.002),
            completed: 24,
            fatal: 0,
            truncated: 0,
            regret: adaptive - oracle,
            regret_ratio: (adaptive - oracle) / oracle,
            beats_static: adaptive < stat,
            retunes_mean: 2.5,
        }
    }

    fn report() -> AdaptReport {
        let scenarios = vec![
            row("over", "misspecified", 0.105, 0.13, 0.10),
            row("drifting", "drift", 0.14, 0.18, 0.13),
        ];
        let summary = summarize(&scenarios, DEFAULT_STATIONARY_TOLERANCE);
        AdaptReport {
            schema: ADAPT_SCHEMA.to_string(),
            config: config(),
            scenarios,
            summary,
        }
    }

    #[test]
    fn valid_report_round_trips() {
        let r = report();
        r.validate().unwrap();
        let json = r.to_json().unwrap();
        assert!(json.ends_with('\n'));
        let back = AdaptReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        back.validate().unwrap();
    }

    #[test]
    fn schema_and_shape_violations_are_named() {
        let mut r = report();
        r.schema = "dck-adapt/v0".into();
        assert!(r.validate().unwrap_err().contains("schema"));

        let mut r = report();
        r.scenarios.clear();
        assert!(r.validate().unwrap_err().contains("no scenarios"));

        let mut r = report();
        r.scenarios[0].kind = "mystery".into();
        assert!(r.validate().unwrap_err().contains("unknown kind"));

        let mut r = report();
        r.scenarios[0].completed = 0;
        assert!(r.validate().unwrap_err().contains("completed"));

        let mut r = report();
        r.scenarios[0].adaptive_waste = 1.5;
        assert!(r.validate().unwrap_err().contains("waste fraction"));

        let mut r = report();
        r.scenarios[0].regret = 0.5;
        assert!(r.validate().unwrap_err().contains("disagrees with arms"));

        let mut r = report();
        r.summary.max_stationary_regret_ratio = 0.0;
        assert!(r.validate().unwrap_err().contains("summary disagrees"));
    }

    #[test]
    fn arm_without_an_interval_reads_back_and_names_its_gate() {
        // An arm that completed no replication has no CI: the report
        // must still decode, so `validate` can name the failed gate.
        let mut r = report();
        r.scenarios[0].completed = 0;
        r.scenarios[0].adaptive_ci95 = None;
        let json = r.to_json().unwrap();
        assert!(json.contains("\"adaptive_ci95\": null"), "{json}");
        let back = AdaptReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        let err = back.validate().unwrap_err();
        assert!(err.contains("no completed replications"), "{err}");
    }

    #[test]
    fn acceptance_gates_fail_closed() {
        // Stationary regret above tolerance.
        let mut r = report();
        r.scenarios[0].adaptive_waste = 0.12;
        r.scenarios[0].regret = 0.12 - 0.10;
        r.scenarios[0].regret_ratio = 0.2;
        r.summary = summarize(&r.scenarios, DEFAULT_STATIONARY_TOLERANCE);
        let err = r.validate().unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // Drift losing to static.
        let mut r = report();
        r.scenarios[1].adaptive_waste = 0.19;
        r.scenarios[1].beats_static = false;
        r.scenarios[1].regret = 0.19 - 0.13;
        r.scenarios[1].regret_ratio = r.scenarios[1].regret / 0.13;
        r.summary = summarize(&r.scenarios, DEFAULT_STATIONARY_TOLERANCE);
        let err = r.validate().unwrap_err();
        assert!(err.contains("drift"), "{err}");
    }

    #[test]
    fn summary_ignores_drift_for_the_stationary_gate() {
        // A drift row with terrible regret ratio must not trip the
        // stationary tolerance — it is judged by beats_static instead.
        let scenarios = vec![
            row("over", "misspecified", 0.105, 0.13, 0.10),
            row("drifting", "drift", 0.16, 0.18, 0.10),
        ];
        let summary = summarize(&scenarios, DEFAULT_STATIONARY_TOLERANCE);
        assert!(summary.stationary_within_tolerance);
        assert!(summary.drift_beats_static);
    }
}
