//! # dck-analyze — workspace determinism & panic-safety linter
//!
//! The repo's headline guarantees — bit-identical Monte-Carlo sweeps
//! across engines and worker counts, byte-stable golden traces — are
//! enforced dynamically by tests. This crate enforces them *at the
//! source level*, the same shift the paper makes when it bounds the
//! risk window analytically instead of observing it empirically: a
//! guarantee is only trustworthy if violations are rejected before
//! they ship.
//!
//! The pipeline is deliberately self-contained (no `syn`, no registry
//! access):
//!
//! * [`lexer`] — a hand-rolled Rust lexer (comments, raw strings,
//!   lifetimes vs chars, float vs int literals, multi-char operators).
//! * [`walker`] — workspace discovery by convention plus a `mod`
//!   walker that reaches every file the compiler would, classifying
//!   each as library/test/bench/example and computing `#[cfg(test)]`
//!   exempt regions.
//! * [`lints`] — the registry of seven per-file token-pattern lints
//!   (`nondeterminism`, `panic-safety`, `slice-index`, `float-eq`,
//!   `sentinel-value`, `forbid-unsafe`, `todo-markers`) plus three
//!   workspace-level lints built on the call graph
//!   (`determinism-taint`, `panic-reachability`, `lock-discipline`).
//! * [`symbols`] / [`callgraph`] — the workspace symbol index (every
//!   `fn`, its `impl` type, its body span) and the conservative call
//!   graph resolved by convention, with `catch_unwind` guard edges,
//!   spawn/pool closure roots, and the one search every workspace lint
//!   walks it with.
//! * [`taint`] / [`reachability`] — the inter-procedural lints:
//!   nondeterministic sources reaching fingerprinted sinks (full call
//!   path in the diagnostic), panic sites reachable from work units
//!   and spawned threads (contained vs escaping), and MutexGuards held
//!   across calls into compute.
//! * [`config`] — `analyze.toml`: per-lint severity overrides and a
//!   *justified* baseline (`[[allow]]` entries must say why; stale
//!   entries fail the scan so the baseline can only shrink honestly),
//!   keyed by (path, lint, content hash) with a fuzzy line anchor.
//! * [`diagnostics`] / [`engine`] / [`sarif`] — findings with
//!   `file:line:col` spans, rendered human, JSON, or SARIF 2.1.0,
//!   driven by [`engine::scan`].
//!
//! The `dck lint` CLI subcommand and the CI `analyze` job are the two
//! consumers; `crates/analyze/tests/` holds fixture-driven golden
//! tests and the baseline-exactness test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod reachability;
pub mod sarif;
pub mod symbols;
pub mod taint;
pub mod walker;

pub use config::{snippet_hash, AllowEntry, AnalyzeConfig, LINE_FUZZ};
pub use diagnostics::{Finding, Report, Severity};
pub use engine::{dump_call_graph, scan, scan_with_config_file};
pub use lints::{catalog, Explanation, LintInfo};
pub use walker::{walk_workspace, Context, SourceFile, Workspace};
