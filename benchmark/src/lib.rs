//! # dck-benchmark — the repository's end-to-end and per-layer benchmark
//!
//! Four workloads exercise the system the way its users do: Monte-Carlo
//! sweeps of the paper's Base and Exa platforms, the adaptive
//! controller's regret measurement, and a closed-loop mix of queries
//! against the server. A measured run reports the end-to-end metrics
//! with tracing off; a traced run reports one value for every layer,
//! timed from outside by spanning and replaying calls into each layer's
//! public functions. No code under `crates/` is instrumented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod digest;
pub mod report;
pub mod simlayers;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
