//! # dck-simcore — discrete-event simulation kernel
//!
//! Deterministic substrate for the buddy-checkpointing simulators in the
//! `dck` workspace. Nothing in this crate knows about checkpointing; it
//! provides the generic machinery every discrete-event simulation needs:
//!
//! * [`time`] — virtual time as a strongly-typed, totally-ordered `f64`
//!   newtype with unit-aware constructors (`SimTime::hours(7.0)`).
//! * [`event`] — a stable priority queue of timestamped events: ties are
//!   broken by insertion order so simulations are reproducible regardless
//!   of the underlying heap's internal layout.
//! * [`rng`] — SplitMix64-based seed derivation producing independent,
//!   reproducible random streams per replication/component.
//! * [`stats`] — online statistics: Welford mean/variance, fixed and
//!   logarithmic histograms, time-weighted accumulators, Student-t
//!   confidence intervals.
//! * [`par`] — one scoped-thread work pool (built on
//!   `std::thread::scope`) that runs Monte-Carlo units in parallel and
//!   hands their results to a sink in ascending unit order, so merges
//!   are bit-identical across worker counts. Worker panics are
//!   contained per unit, retried once in place, and surfaced as a
//!   typed [`par::PoolError`].
//! * [`fsio`] — crash-safe artifact writes (write-temp → fsync →
//!   rename) so a kill mid-write never leaves a truncated file.
//!
//! The kernel is deliberately allocation-light: event queues reserve
//! capacity up front, statistics are O(1) per observation, and the
//! pool splits indices rather than cloning inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fsio;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::{derive_seed, exponential_event, fill_exponential_events, RngFactory, SplitMix64};
pub use stats::{ConfidenceInterval, Histogram, OnlineStats, TimeWeighted};
pub use time::SimTime;
