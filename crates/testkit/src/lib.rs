//! # dck-testkit — deterministic fault injection
//!
//! Testing as a subsystem, in three layers:
//!
//! * [`script`] — the `FaultScript` DSL: a serde-loadable JSON document
//!   that replaces the stochastic failure stream with exact failure
//!   times per node (or per `(group, member)`), so any paper scenario —
//!   double failure inside the risk window, buddy failure mid-re-send,
//!   triple failure in one triple — is a ~10-line script executed
//!   through the same `sim::run` machinery as a Monte-Carlo sample.
//!   [`cell_repro_script`] turns a cell of the model↔simulator
//!   conformance harness (`dck_experiments::conformance`) into one.
//! * [`diff`] + [`golden`] — the golden-trace corpus harness: replay a
//!   script, compare the resulting event timeline *structurally*
//!   (variant by variant, floats within tolerance) against a stored
//!   JSONL trace, and name the first diverging event on regression.
//!   `DCK_UPDATE_GOLDEN=1` regenerates the corpus.
//! * [`killresume`] — the crash harness: SIGKILL a checkpointing
//!   command at seeded pseudo-random points and re-invoke it until one
//!   attempt completes, for kill-and-resume end-to-end tests.
//!
//! The crate is a *library of harness parts*: its own integration tests
//! (and the root tier-1 suite, the protocols property tests and the
//! `dck inject` CLI) are the consumers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod golden;
pub mod killresume;
pub mod script;

pub use diff::{diff_timelines, Divergence};
pub use golden::{load_cases, replay_case, GoldenCase, ReplayReport};
pub use killresume::{run_with_random_kills, CrashLoopOutcome, KillSchedule};
pub use script::{
    cell_repro_script, CompiledScript, Expectation, Fault, FaultScript, ScriptOutcome, WorkSpec,
};
