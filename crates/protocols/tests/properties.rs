//! Property-based tests for the protocol machinery.

use dck_core::{PlatformParams, Protocol, WasteModel};
use dck_protocols::{FailureResponse, GroupLayout, PeriodSchedule, RiskTracker};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = PlatformParams> {
    (
        0.0f64..60.0,  // downtime
        0.1f64..50.0,  // delta
        0.5f64..100.0, // theta_min
        0.0f64..15.0,  // alpha
    )
        .prop_map(|(d, delta, theta_min, alpha)| {
            PlatformParams::new(d, delta, theta_min, alpha, 96).expect("valid ranges")
        })
}

fn protocol_strategy() -> impl Strategy<Value = Protocol> {
    prop::sample::select(vec![
        Protocol::DoubleBlocking,
        Protocol::DoubleNbl,
        Protocol::DoubleBof,
        Protocol::Triple,
        Protocol::TripleBof,
    ])
}

proptest! {
    /// `work_at` and `time_to_reach_work` are mutually inverse on every
    /// schedule, and `work_at` is monotone and 1-Lipschitz (the app
    /// never runs faster than unit speed).
    #[test]
    fn schedule_inverse_and_lipschitz(
        params in params_strategy(),
        protocol in protocol_strategy(),
        ratio in 0.0f64..1.0,
        period_mult in 1.01f64..20.0,
        w_target in 0.0f64..5000.0,
        v_probe in 0.0f64..5000.0,
    ) {
        let phi = ratio * params.theta_min;
        let model = WasteModel::new(protocol, &params, phi).unwrap();
        let period = model.min_period() * period_mult;
        let sched = PeriodSchedule::new(protocol, &params, phi, period).unwrap();
        prop_assume!(sched.work_per_period() > 1e-9);

        // Inverse property.
        let v = sched.time_to_reach_work(w_target);
        prop_assert!((sched.work_at(v) - w_target).abs() < 1e-6);

        // Monotone, 1-Lipschitz.
        let w1 = sched.work_at(v_probe);
        let w2 = sched.work_at(v_probe + 1.0);
        prop_assert!(w2 >= w1 - 1e-12);
        prop_assert!(w2 - w1 <= 1.0 + 1e-9);
    }

    /// The uniform-offset expectation of the mechanistic outage equals
    /// the paper's per-failure loss `F = A + P/2` (Eqs. 7/8/14) for the
    /// paper's three protocols (the BoF subtraction never clamps for
    /// DOUBLEBOF since RE ≥ θ ≥ φ there; TRIPLE has no subtraction).
    #[test]
    fn expected_outage_equals_f(
        params in params_strategy(),
        protocol in prop::sample::select(vec![
            Protocol::DoubleNbl,
            Protocol::DoubleBof,
            Protocol::Triple,
        ]),
        ratio in 0.0f64..1.0,
        period_mult in 1.01f64..20.0,
    ) {
        let phi = ratio * params.theta_min;
        let model = WasteModel::new(protocol, &params, phi).unwrap();
        let period = model.min_period() * period_mult;
        let resp = FailureResponse::new(protocol, &params, phi, period).unwrap();
        let numeric = resp.expected_outage_numeric(20_000);
        let f = model.failure_loss(period);
        prop_assert!(
            (numeric - f).abs() < 1e-3 * (1.0 + f),
            "numeric {numeric} vs F {f}"
        );
    }

    /// Buddy maps are fixed-point-free involutions (pairs) or 3-cycles
    /// (triples) that stay within the group.
    #[test]
    fn buddy_maps_are_group_permutations(groups in 1u64..200, triple in any::<bool>()) {
        let protocol = if triple { Protocol::Triple } else { Protocol::DoubleNbl };
        let n = groups * protocol.group_size();
        let layout = GroupLayout::new(protocol, n).unwrap();
        for node in 0..n {
            let p = layout.preferred_buddy(node);
            let s = layout.secondary_buddy(node);
            prop_assert_ne!(p, node);
            prop_assert_ne!(s, node);
            prop_assert_eq!(layout.group_of(p), layout.group_of(node));
            prop_assert_eq!(layout.group_of(s), layout.group_of(node));
            if triple {
                prop_assert_ne!(p, s);
                // preferred is a 3-cycle: p³ = id.
                let ppp = layout.preferred_buddy(layout.preferred_buddy(p));
                prop_assert_eq!(ppp, node);
            } else {
                // pairs: involution.
                prop_assert_eq!(layout.preferred_buddy(p), node);
                prop_assert_eq!(p, s);
            }
        }
    }

    /// Fatal detection matches a brute-force reference: replay a random
    /// failure sequence and check each outcome against an O(n²) oracle
    /// over the full history, for every registered protocol (group
    /// sizes 2–5). The feed is cut into segments with a `reset` between
    /// them; each segment is time-ordered (the tracker requires ordered
    /// feeds) but may start earlier than the previous one ended.
    #[test]
    fn risk_tracker_matches_bruteforce(
        segments in prop::collection::vec(
            prop::collection::vec((any::<u64>(), 0.0f64..1000.0), 0..40),
            1..4,
        ),
        window in 0.5f64..300.0,
        protocol in prop::sample::select(Protocol::registry()),
    ) {
        let n = 60; // every group size 2..=5 divides it
        let layout = GroupLayout::new(protocol, n).unwrap();
        let k = layout.group_size();
        let mut tracker = RiskTracker::new(layout, window).unwrap();

        for (si, segment) in segments.into_iter().enumerate() {
            if si > 0 {
                tracker.reset();
            }
            // Crowd failures into two groups so overlaps are common.
            let mut events: Vec<(u64, f64)> =
                segment.into_iter().map(|(raw, t)| (raw % (2 * k), t)).collect();
            events.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

            let mut history: Vec<(u64, f64)> = Vec::new();
            for &(node, t) in &events {
                // Oracle: after this failure, how many members of the
                // node's group are inside an open window? A member's
                // window is open if its most recent failure time t'
                // since the reset satisfies t < t' + window.
                let group = layout.group_of(node);
                let mut members_at_risk = 1u32; // the current victim
                for m in layout.members(group) {
                    if m == node {
                        continue;
                    }
                    let last = history
                        .iter()
                        .rev()
                        .find(|&&(hn, _)| hn == m)
                        .map(|&(_, ht)| ht);
                    if let Some(ht) = last {
                        if t < ht + window {
                            members_at_risk += 1;
                        }
                    }
                }
                let oracle_fatal = u64::from(members_at_risk) >= k;
                let outcome = tracker.record_failure(node, t);
                prop_assert_eq!(
                    (outcome.fatal, outcome.members_at_risk),
                    (oracle_fatal, members_at_risk),
                    "{:?} node {} at t {}", protocol, node, t
                );
                history.push((node, t));
            }
        }
    }

    /// A fault script whose failures are all spaced further apart than
    /// the protocol's risk window can never produce a fatal outcome:
    /// at every failure instant, every other window is already closed,
    /// so at most one group member is ever at risk. Exercises the full
    /// script → trace → simulator pipeline for **every registered
    /// protocol** — group sizes 2 through 5 under both resend policies
    /// (60 nodes: every group size divides evenly).
    #[test]
    fn spaced_fault_scripts_never_fatal(
        params in (
            0.0f64..20.0, // downtime
            0.1f64..20.0, // delta
            0.5f64..40.0, // theta_min
            0.0f64..15.0, // alpha
        )
            .prop_map(|(d, delta, theta_min, alpha)| {
                PlatformParams::new(d, delta, theta_min, alpha, 60).expect("valid ranges")
            }),
        protocol in prop::sample::select(Protocol::registry()),
        ratio in 0.0f64..1.0,
        victims in prop::collection::vec(0u64..12, 1..8),
        gaps in prop::collection::vec(0.0f64..50.0, 8),
        start in 0.0f64..500.0,
    ) {
        use dck_sim::{PeriodChoice, StopReason};
        use dck_testkit::{Expectation, Fault, FaultScript, WorkSpec};

        let mut script = FaultScript {
            name: "spaced".into(),
            description: "failures spaced wider than the risk window".into(),
            protocol,
            platform: params,
            phi_ratio: ratio,
            mtbf: 3_600.0,
            period: PeriodChoice::Optimal,
            work: WorkSpec::Periods(20.0),
            faults: Vec::new(),
            expect: Expectation { reason: None, failures: None, survives: Some(true) },
        };
        let window = script.compile().expect("fault-free compile").risk_window;

        let mut t = start;
        for (i, &node) in victims.iter().enumerate() {
            script.faults.push(Fault::on_node(t, node));
            t += window + 1e-6 + gaps[i];
        }

        let out = script.run().expect("spaced script runs");
        prop_assert!(
            out.outcome.reason != StopReason::Fatal,
            "{protocol:?} (window {window}): fatal at {:?} with faults {:?}",
            out.outcome.fatal_at,
            script.faults
        );
        prop_assert!(out.outcome.fatal_at.is_none());
    }

    /// The `GroupPolicy`-parameterized formulas at `k = 2` and `k = 3`
    /// are **bit-for-bit identical** to the paper's hand-written
    /// legacy closed forms (Eqs. 4/7/8/14 and the §III-C/§V-C risk
    /// windows), written out explicitly here as the oracle with the
    /// original operation order. A refactor of the generalized paths
    /// that changes even the floating-point expression shape at the
    /// legacy group sizes fails this test — which is exactly what
    /// keeps the golden corpus byte-stable.
    #[test]
    fn k2_k3_formulas_match_legacy_bit_for_bit(
        params in params_strategy(),
        ratio in 0.0f64..1.0,
        period_mult in 1.01f64..20.0,
        off_frac in 0.0f64..1.0,
    ) {
        use dck_core::RiskModel;
        let d = params.downtime;
        let r = params.recovery();
        let delta = params.delta;
        let phi = ratio * params.theta_min;
        let theta = params.theta_min + params.alpha * (params.theta_min - phi);
        // (protocol, legacy Cff, legacy A, legacy min period, legacy
        // risk window), exactly as the pre-generalization code spelled
        // them.
        let legacy = [
            (Protocol::DoubleNbl, delta + phi, d + r + theta, delta + theta, d + r + theta),
            (Protocol::DoubleBof, delta + phi, d + 2.0 * r + theta - phi, delta + theta, d + 2.0 * r),
            (Protocol::Triple, 2.0 * phi, d + r + theta, 2.0 * theta, d + r + 2.0 * theta),
            (Protocol::TripleBof, 2.0 * phi, d + 3.0 * r + theta - 2.0 * phi, 2.0 * theta, d + 3.0 * r),
        ];
        for (protocol, cff, a, min_p, risk) in legacy {
            let model = WasteModel::new(protocol, &params, phi).unwrap();
            prop_assert_eq!(model.theta().to_bits(), theta.to_bits());
            prop_assert_eq!(model.fault_free_overhead().to_bits(), cff.to_bits());
            prop_assert_eq!(model.failure_loss_constant().to_bits(), a.to_bits());
            prop_assert_eq!(model.min_period().to_bits(), min_p.to_bits());
            let rm = RiskModel::with_theta(protocol, &params, theta).unwrap();
            prop_assert_eq!(rm.risk_window().to_bits(), risk.to_bits());

            // Schedule: the legacy three-part composition, in the
            // legacy accumulation order.
            let period = model.min_period() * period_mult;
            let sched = PeriodSchedule::new(protocol, &params, phi, period).unwrap();
            let pair = protocol.group_size() == 2;
            let sigma = if pair {
                (period - delta - theta).max(0.0)
            } else {
                (period - theta - theta).max(0.0)
            };
            let work = if pair {
                (theta - phi) + sigma
            } else {
                ((theta - phi) + (theta - phi)) + sigma
            };
            prop_assert_eq!(sched.sigma().to_bits(), sigma.to_bits());
            prop_assert_eq!(sched.work_per_period().to_bits(), work.to_bits());

            // Response: legacy blocked time and the legacy RE1/RE2/RE3
            // case analysis at a sampled offset.
            let resp = FailureResponse::new(protocol, &params, phi, period).unwrap();
            let bof = matches!(
                protocol,
                Protocol::DoubleBof | Protocol::TripleBof
            );
            let blocked = match (pair, bof) {
                (_, false) => d + r,
                (true, true) => d + 2.0 * r,
                (false, true) => d + 3.0 * r,
            };
            prop_assert_eq!(resp.blocked().to_bits(), blocked.to_bits());
            let off = off_frac * period * 0.999;
            let nbl_re = if pair {
                if off < delta + theta { theta + sigma + off } else { off - delta }
            } else if off < theta {
                2.0 * theta + sigma + off
            } else {
                off
            };
            let re = if bof {
                let sub = if pair { phi } else { 2.0 * phi };
                (nbl_re - sub).max(0.0)
            } else {
                nbl_re
            };
            prop_assert_eq!(resp.reexec(off).to_bits(), re.to_bits());
        }
    }

    /// The *true* monotonicities in `k` under NBL (the issue's literal
    /// "waste is monotone non-increasing in k at any fixed φ" is false
    /// — see `waste_is_not_monotone_in_k_at_positive_phi` below and
    /// CHANGES.md): at `φ = 0` the fault-free overhead is `δ` for
    /// pairs and 0 for every `k ≥ 3` while the failure loss is
    /// `k`-independent, so the waste is non-increasing in `k`; and in
    /// the model's validity regime (`λ·Risk ≪ 1`, guaranteed by the
    /// MTBF floor below) the per-group fatal rate `k!·λᵏ·T·Risk^(k−1)`
    /// is non-increasing in `k`.
    #[test]
    fn k_monotonicities_where_true(
        params in params_strategy(),
        period_mult in 1.01f64..20.0,
        mtbf in 50_000.0f64..1e8,
        horizon in 1.0f64..1e6,
    ) {
        use dck_core::{ResendPolicy, RiskModel};
        let model5 = WasteModel::new(Protocol::BuddyNbl { k: 5 }, &params, 0.0).unwrap();
        let theta = model5.theta();
        // Feasible for every k in 2..=5: P ≥ max(δ + θ, 4θ).
        let period = (params.delta + theta).max(4.0 * theta) * period_mult;
        let mut last_waste = f64::INFINITY;
        let mut last_rate = f64::INFINITY;
        for k in 2..=5u64 {
            let protocol = Protocol::buddy(k, ResendPolicy::Nbl).unwrap();
            let w = WasteModel::new(protocol, &params, 0.0)
                .unwrap()
                .waste(period, mtbf)
                .unwrap();
            prop_assert!(
                w.total <= last_waste * (1.0 + 1e-12) + 1e-15,
                "waste increased 'k-1' -> {k}: {last_waste} -> {}",
                w.total
            );
            last_waste = w.total;
            let rate = RiskModel::with_theta(protocol, &params, theta)
                .unwrap()
                .fatal_rate_per_group(mtbf, horizon);
            prop_assert!(
                rate <= last_rate * (1.0 + 1e-12),
                "fatal rate increased at k = {k}: {last_rate} -> {rate}"
            );
            last_rate = rate;
        }
    }

    /// Re-execution is always non-negative and no larger than the
    /// worst case `2θ + σ + P` (previous period + current offset +
    /// slowdown windows).
    #[test]
    fn reexec_bounded(
        params in params_strategy(),
        protocol in protocol_strategy(),
        ratio in 0.0f64..1.0,
        period_mult in 1.01f64..20.0,
        off_frac in 0.0f64..1.0,
    ) {
        let phi = ratio * params.theta_min;
        let model = WasteModel::new(protocol, &params, phi).unwrap();
        let period = model.min_period() * period_mult;
        let resp = FailureResponse::new(protocol, &params, phi, period).unwrap();
        let off = off_frac * period * 0.999;
        let re = resp.reexec(off);
        prop_assert!(re >= 0.0);
        prop_assert!(re <= 2.0 * model.theta() + period + period, "re {re} too large");
    }
}

/// The issue's literal claim — waste non-increasing in `k` at *any*
/// fixed `φ` — is false: under NBL the failure loss is `k`-independent
/// but `Cff = (k−1)·φ` grows with `k` for `k ≥ 3`, so at `φ > 0` and a
/// benign MTBF the ordering reverses between `k = 3` and `k = 4`.
/// Pinned as a concrete counterexample so the amended property above
/// (`k_monotonicities_where_true`) is not "fixed" back to the false
/// claim.
#[test]
fn waste_is_not_monotone_in_k_at_positive_phi() {
    let params = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 60).unwrap();
    let phi = 4.0; // blocking: θ = θmin = 4
    let period = 400.0;
    let mtbf = 1e9; // failure term negligible; Cff dominates
    let w3 = WasteModel::new(Protocol::Triple, &params, phi)
        .unwrap()
        .waste(period, mtbf)
        .unwrap();
    let w4 = WasteModel::new(Protocol::BuddyNbl { k: 4 }, &params, phi)
        .unwrap()
        .waste(period, mtbf)
        .unwrap();
    assert!(
        w4.total > w3.total,
        "expected Cff growth to dominate: k=4 {} vs k=3 {}",
        w4.total,
        w3.total
    );
}

#[test]
fn window_longer_than_the_feed_keeps_every_window_open() {
    // 60 nodes in pairs, window longer than the whole feed: every
    // window opened stays open, so the first failure of each pair
    // is safe and the second, however late, is fatal.
    let layout = GroupLayout::new(Protocol::DoubleNbl, 60).unwrap();
    let mut t = RiskTracker::new(layout, 1e9).unwrap();
    for node in (0..60).step_by(2) {
        let o = t.record_failure(node, node as f64);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 1);
    }
    for node in (1..60).step_by(2) {
        let o = t.record_failure(node, 100.0 + node as f64);
        assert!(o.fatal, "node {node}");
        assert_eq!(o.members_at_risk, 2);
    }
    assert_eq!(t.fatal_seen(), 30);
    assert_eq!(t.failures_seen(), 60);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "out of order")]
fn out_of_order_feed_panics_in_debug_builds() {
    let mut t = RiskTracker::new(GroupLayout::new(Protocol::DoubleNbl, 8).unwrap(), 10.0).unwrap();
    t.record_failure(0, 100.0);
    t.record_failure(1, 99.0);
}
