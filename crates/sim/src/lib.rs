//! # dck-sim — platform simulator and Monte-Carlo harness
//!
//! Executes the buddy-checkpointing protocols of `dck-protocols`
//! against stochastic failure streams from `dck-failures`, producing
//! the two empirical quantities the paper's model predicts:
//!
//! * **waste** — run the application to completion of a fixed amount of
//!   useful work and compare wall-clock time against the failure-free
//!   time ([`run::run_to_completion`]);
//! * **success probability** — run the platform for a fixed
//!   exploitation time and record whether a fatal failure (total loss
//!   of a group's checkpoint data) ever occurs ([`run::run_until`]).
//!
//! [`montecarlo`] replicates runs across parallel workers with
//! independent, reproducible RNG streams, and aggregates results into
//! confidence intervals that the validation experiments compare against
//! Eqs. 5/7/8/14 (waste) and 11/16 (risk).
//!
//! ## Simulation semantics
//!
//! Every run mode is a policy on the one event loop of [`run`], whose
//! module docs state the failure, outage and risk-window semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod checkpoint;
pub mod config;
pub mod hierarchical;
pub mod montecarlo;
pub mod predict;
pub mod run;
pub mod sweep;

pub use adapt::{
    run_adaptive_predicted_to_completion, run_adaptive_to_completion, run_adaptive_traced,
    run_regret, AdaptiveOutcome, AdaptiveRunConfig, ArmStats, RegretCase, RegretResult,
    RegretScenario, RegretSpec,
};
pub use checkpoint::{
    sweep_spec_fingerprint, validate_snapshot, RetentionPolicy, SnapshotInfo,
    DEFAULT_SNAPSHOT_KEEP, MAX_SNAPSHOT_KEEP,
};
pub use config::{PeriodChoice, RunConfig};
pub use hierarchical::{run_hierarchical, HierarchicalOutcome, HierarchicalRunConfig};
pub use montecarlo::{
    estimate_success, estimate_waste, replication_source, MonteCarloConfig, SuccessEstimate,
    WasteEstimate,
};
pub use predict::{estimate_predicted_waste, run_predicted_to_completion, PredictedOutcome};
pub use run::{
    run_to_completion, run_to_completion_sinked, run_to_completion_traced, run_until,
    run_until_sinked, run_until_traced, RunOutcome, StopReason, TimelineEvent,
};
pub use sweep::{
    run_sweep, run_sweep_cell, run_sweep_with_checkpoint, EarlyStop, SweepCell, SweepCheckpoint,
    SweepResult, SweepSpec,
};
