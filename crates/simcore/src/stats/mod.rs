//! Online statistics for simulation outputs.
//!
//! Everything here is O(1) memory per estimator and numerically stable,
//! so estimators can be embedded in hot simulation loops:
//!
//! * [`OnlineStats`] — Welford mean/variance/min/max, mergeable across
//!   parallel workers.
//! * [`Histogram`] — fixed-width and logarithmic binning.
//! * [`TimeWeighted`] — integral-based time-weighted averages for
//!   piecewise-constant signals (e.g. "fraction of time at risk").
//! * [`ConfidenceInterval`] — Student-t intervals on the mean, and
//!   [`wilson_interval`] for proportions; [`Tolerance`] judges a model
//!   value against either.

mod ci;
mod histogram;
mod timeweighted;
mod welford;

pub use ci::{student_t_quantile, wilson_interval, ConfidenceInterval, Tolerance};
pub use histogram::{Histogram, HistogramKind};
pub use timeweighted::TimeWeighted;
pub use welford::OnlineStats;
