//! Risk-window bookkeeping and fatal-failure detection (§III-C, §V-C).
//!
//! After node `v` fails at time `t`, its group is *at risk* until
//! `t + Risk`: the replacement has not yet re-collected the group's
//! checkpoint images, so its data survives only in the other members'
//! memories. A failure of *every* member of the group while their
//! windows overlap means the data is gone: a **fatal failure** — the
//! application cannot be recovered.
//!
//! For pairs that means the buddy failing inside the victim's window;
//! for triples, all three members simultaneously inside open windows.
//! (A repeat failure of the *same* node merely restarts its window:
//! its image still lives with its buddies.)
//!
//! Windows have the fixed length `Risk` of the first-order model
//! (`RiskModel::risk_window` in `dck-core`); the model neglects the
//! lengthening of windows by overlapping recoveries, and so do we —
//! that is precisely the approximation Eqs. 11/16 make, and matching it
//! is what lets the simulator validate those formulas.

use crate::groups::{GroupLayout, NodeId};
use dck_core::ModelError;

/// Outcome of recording one failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureOutcome {
    /// True if this failure made the group unrecoverable.
    pub fatal: bool,
    /// Number of group members (including this one) inside open risk
    /// windows right after this failure.
    pub members_at_risk: u32,
}

/// One risk window that may still be open: `node` failed, and its
/// group is at risk until `until`.
#[derive(Debug, Clone, Copy)]
struct OpenWindow {
    node: NodeId,
    until: f64,
}

/// Tracks open risk windows per group and detects fatal failures.
///
/// Storage is the short list of windows that may still be open, at
/// most one per node. Each failure makes one pass over it, dropping
/// the windows that closed and counting the victim's group mates among
/// the rest, so memory and construction do not depend on the platform
/// size. At the paper's operating points fewer than one window is open
/// at any instant; the worst case is about `λ·n·Risk` entries.
///
/// **Precondition:** failure times must not decrease between
/// [`RiskTracker::reset`]s. A window dropped as closed at `t` stays
/// closed at every later time, which is what makes pruning exact.
#[derive(Debug, Clone)]
pub struct RiskTracker {
    layout: GroupLayout,
    risk_window: f64,
    windows: Vec<OpenWindow>,
    /// Time of the last recorded failure (feed-order check only).
    last_failure: f64,
    fatal_seen: u64,
    failures_seen: u64,
}

impl RiskTracker {
    /// Creates a tracker with the given fixed window length.
    ///
    /// # Errors
    /// `risk_window` must be finite and ≥ 0. (A first-order `RiskModel`
    /// evaluated outside its domain produces a negative or NaN window;
    /// callers get a `ModelError` naming the parameter instead of a
    /// panic deep inside a sweep worker.)
    pub fn new(layout: GroupLayout, risk_window: f64) -> Result<Self, ModelError> {
        if !(risk_window >= 0.0 && risk_window.is_finite()) {
            return Err(ModelError::invalid(
                "risk_window",
                format!("must be finite and >= 0, got {risk_window}"),
            ));
        }
        Ok(RiskTracker {
            layout,
            risk_window,
            windows: Vec::new(),
            last_failure: f64::NEG_INFINITY,
            fatal_seen: 0,
            failures_seen: 0,
        })
    }

    /// The window length in use.
    pub fn risk_window(&self) -> f64 {
        self.risk_window
    }

    /// Total failures recorded.
    pub fn failures_seen(&self) -> u64 {
        self.failures_seen
    }

    /// Total fatal failures detected.
    pub fn fatal_seen(&self) -> u64 {
        self.fatal_seen
    }

    /// Records a failure of `node` at time `t` and reports whether it
    /// is fatal. `t` must be no earlier than the previous failure
    /// recorded since the last [`RiskTracker::reset`].
    pub fn record_failure(&mut self, node: NodeId, t: f64) -> FailureOutcome {
        debug_assert!(
            t >= self.last_failure,
            "risk tracker fed out of order: failure at {t} after {}",
            self.last_failure
        );
        self.last_failure = t;
        self.failures_seen += 1;
        let layout = self.layout;
        let group = layout.group_of(node);
        let mut others_at_risk = 0u32;
        // Drop closed windows and the victim's own earlier window (a
        // repeat failure restarts it); count group mates still open.
        self.windows.retain(|w| {
            let keep = w.until > t && w.node != node;
            if keep && layout.group_of(w.node) == group {
                others_at_risk += 1;
            }
            keep
        });
        self.windows.push(OpenWindow {
            node,
            until: t + self.risk_window,
        });
        let fatal = u64::from(others_at_risk) + 1 >= layout.group_size();
        if fatal {
            self.fatal_seen += 1;
        }
        FailureOutcome {
            fatal,
            members_at_risk: others_at_risk + 1,
        }
    }

    /// Drops all open windows (e.g. after an application restart).
    pub fn reset(&mut self) {
        self.windows.clear();
        self.last_failure = f64::NEG_INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_core::Protocol;

    fn pair_tracker(window: f64) -> RiskTracker {
        RiskTracker::new(GroupLayout::new(Protocol::DoubleNbl, 8).unwrap(), window).unwrap()
    }

    fn triple_tracker(window: f64) -> RiskTracker {
        RiskTracker::new(GroupLayout::new(Protocol::Triple, 9).unwrap(), window).unwrap()
    }

    #[test]
    fn rejects_negative_or_nan_window() {
        let layout = GroupLayout::new(Protocol::DoubleNbl, 8).unwrap();
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = RiskTracker::new(layout, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelError::InvalidParameter {
                        name: "risk_window",
                        ..
                    }
                ),
                "window {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn single_failure_is_never_fatal() {
        let mut t = pair_tracker(10.0);
        let o = t.record_failure(0, 100.0);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 1);
    }

    #[test]
    fn buddy_failure_inside_window_is_fatal() {
        let mut t = pair_tracker(10.0);
        assert!(!t.record_failure(0, 100.0).fatal);
        let o = t.record_failure(1, 105.0);
        assert!(o.fatal);
        assert_eq!(o.members_at_risk, 2);
        assert_eq!(t.fatal_seen(), 1);
    }

    #[test]
    fn buddy_failure_after_window_is_safe() {
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        // Window closed exactly at 110: a failure at 110 is safe.
        assert!(!t.record_failure(1, 110.0).fatal);
        // …and at 110.1 too.
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        assert!(!t.record_failure(1, 110.1).fatal);
    }

    #[test]
    fn same_node_refailing_is_not_fatal_but_restarts_window() {
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        // Replacement of node 0 dies again: not fatal (buddy holds data)…
        assert!(!t.record_failure(0, 105.0).fatal);
        // …but the window now extends to 115: buddy failing at 112 kills.
        assert!(t.record_failure(1, 112.0).fatal);
    }

    #[test]
    fn unrelated_groups_do_not_interact() {
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        assert!(!t.record_failure(2, 101.0).fatal);
        assert!(!t.record_failure(4, 102.0).fatal);
        // At 103 the three touched pairs are at risk, the fourth is not.
        for (buddy, at_risk) in [(1, true), (3, true), (5, true), (7, false)] {
            assert_eq!(t.clone().record_failure(buddy, 103.0).fatal, at_risk);
        }
        // By 200 every window has closed.
        for buddy in [1, 3, 5] {
            assert!(!t.clone().record_failure(buddy, 200.0).fatal);
        }
    }

    #[test]
    fn triple_needs_three_members() {
        let mut t = triple_tracker(10.0);
        assert!(!t.record_failure(0, 100.0).fatal);
        let o = t.record_failure(1, 102.0);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 2);
        // Third member inside both windows: fatal.
        let o = t.record_failure(2, 104.0);
        assert!(o.fatal);
        assert_eq!(o.members_at_risk, 3);
    }

    #[test]
    fn triple_survives_if_first_window_expired() {
        let mut t = triple_tracker(10.0);
        t.record_failure(0, 100.0);
        t.record_failure(1, 109.0);
        // Node 0's window closed at 110; at 112 only node 1 is at risk.
        let o = t.record_failure(2, 112.0);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 2);
    }

    #[test]
    fn triple_two_failures_never_fatal() {
        let mut t = triple_tracker(1e9);
        t.record_failure(3, 0.0);
        for i in 0..100 {
            assert!(!t.record_failure(4, i as f64).fatal);
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut t = pair_tracker(5.0);
        for i in 0..10 {
            t.record_failure(0, i as f64 * 100.0);
        }
        assert_eq!(t.failures_seen(), 10);
        assert_eq!(t.fatal_seen(), 0);
    }

    #[test]
    fn reset_clears_windows() {
        let mut t = pair_tracker(1e6);
        t.record_failure(0, 0.0);
        t.reset();
        assert!(!t.record_failure(1, 1.0).fatal);
    }

    #[test]
    fn zero_window_never_fatal() {
        let mut t = pair_tracker(0.0);
        t.record_failure(0, 100.0);
        assert!(!t.record_failure(1, 100.0).fatal);
    }
}
