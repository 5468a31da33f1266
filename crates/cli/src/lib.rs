//! # dck-cli — what-if analysis for in-memory buddy checkpointing
//!
//! Library backing `dck`, the workspace's one binary. Every command is
//! a function from parsed arguments to a rendered report string, so
//! the whole surface is unit-testable without spawning processes:
//!
//! ```text
//! dck waste --scenario base --protocol triple --phi-ratio 0.25 --mtbf 7h
//! dck run   --protocol double-nbl --phi-ratio 0.5 --mtbf 1h --reps 100 --seed 7
//! dck experiments all --fast --out results
//! dck bench --fast --out .
//! ```
//!
//! `dck help` lists every command and option. Durations accept `s`,
//! `min`, `h`, `d`, `w` suffixes (`90s`, `7h`, `30min`, `1d`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod parse;

pub use app::run;
