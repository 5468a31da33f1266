//! # dck-failures — failure modeling substrate
//!
//! The paper assumes node failures strike with "uniform distribution
//! over time" (i.e. a Poisson process: Exponential inter-arrivals) with
//! per-processor rate `λ = 1/(nM)` where `M` is the *platform* MTBF and
//! `n` the node count. This crate provides:
//!
//! * [`mtbf`] — the MTBF algebra relating individual-node and platform
//!   MTBFs and failure rates.
//! * [`distribution`] — inter-arrival distributions: Exponential (the
//!   paper's assumption), Weibull and LogNormal (the related-work
//!   distributions of refs [8–10], used for robustness studies), and
//!   Deterministic spacing for tests.
//! * [`process`] — infinite streams of `(time, node)` failure events
//!   over an `n`-node platform: an O(1)-per-event aggregated process for
//!   the memoryless Exponential case, and a heap-based per-node renewal
//!   process valid for any distribution.
//! * [`trace`] — record/replay of failure traces (serde-serializable)
//!   so experiments can be rerun bit-for-bit and traces can be shared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod drift;
pub mod mtbf;
pub mod process;
pub mod trace;

pub use distribution::{DistributionSpec, InterArrival};
pub use drift::DriftingExponential;
pub use mtbf::MtbfSpec;
pub use process::{
    AggregatedExponential, FailureEvent, FailureSource, NodeId, PerNodeRenewal, Source,
};
pub use trace::{FailureTrace, OwnedTraceReplay, TraceReplay};
