//! # dck-bench — perf-trajectory harness and report schemas
//!
//! [`run_bench`], behind `dck bench`, measures Monte-Carlo replication
//! throughput (`BENCH_reps.json`) and sweep throughput
//! (`BENCH_sweep.json`) across worker counts, writing artifacts that
//! conform to the schema in [`report`], validated by
//! `dck validate --bench` and uploaded by the `bench-smoke` CI job. The crate also defines the report schemas
//! of `dck adapt` ([`adapt_report`]) and `dck loadgen`
//! ([`serve_report`]).

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
