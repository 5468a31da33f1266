//! # dck-bench — perf-trajectory harness and report schemas
//!
//! [`run_bench`], behind `dck bench`, measures Monte-Carlo replication
//! throughput (`BENCH_reps.json`) and sweep throughput
//! (`BENCH_sweep.json`) across worker counts, writing artifacts that
//! conform to the schema in [`report`], validated by
//! `dck validate --bench` and uploaded by the `bench-smoke` CI job. The crate also defines the report schemas
//! of `dck adapt` ([`adapt_report`]) and `dck loadgen`
//! ([`serve_report`]). All three are [`Report`]s: one encode, one
//! decode and one schema-tag check serve them.

#![forbid(unsafe_code)]

pub mod adapt_report;
mod harness;
pub mod report;
pub mod serve_report;

pub use adapt_report::{
    AdaptBenchConfig, AdaptReport, AdaptScenarioReport, AdaptSummary, ADAPT_SCHEMA,
    DEFAULT_STATIONARY_TOLERANCE,
};
pub use harness::run_bench;
pub use report::{BenchConfig, BenchKind, BenchReport, BenchSeries, BenchSummary, SCHEMA};
pub use serve_report::{
    latency_ladder, nearest_rank, ServeBenchConfig, ServeBenchReport, ServeLatency,
    LATENCY_LADDER_PERMILLE, SERVE_SCHEMA,
};

use serde::{Deserialize, Serialize};
use std::fmt::Display;

/// A schema-tagged report, written as pretty JSON.
pub trait Report: Serialize + Deserialize {
    /// The tag every file of this kind carries in its `schema` field.
    const SCHEMA: &'static str;
    /// The type name a decode error quotes (`invalid AdaptReport: …`).
    const NAME: &'static str;

    /// The report's `schema` field.
    fn schema(&self) -> &str;

    /// Checks everything but the schema tag; the error names the first
    /// violation.
    fn check(&self) -> Result<(), String>;

    /// What the report holds, in one line (`dck validate --bench`).
    fn summary(&self) -> String;

    /// The report as pretty JSON with a trailing newline. Only a
    /// non-finite float fails, and `validate` rejects those first.
    fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self).map(|s| s + "\n")
    }

    /// Parses a report from JSON.
    fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Checks the schema tag, then [`Report::check`].
    fn validate(&self) -> Result<(), String> {
        if self.schema() != Self::SCHEMA {
            return Err(format!(
                "schema {:?} is not the expected {:?}",
                self.schema(),
                Self::SCHEMA
            ));
        }
        self.check()
    }
}

/// `Ok` when `value` is positive and finite; else an error naming `what`.
fn positive_finite(what: impl Display, value: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} {value} is not positive finite"))
    }
}
