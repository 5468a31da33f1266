//! Sweep specs, results and cells are written straight to JSON by their
//! derived `write_json`. Those bytes must equal the `to_value` tree
//! printer's, and the spec fingerprint must stay the hash of the tree
//! of the spec with `workers` set to 0, so every snapshot written
//! before keeps its fingerprint.

use dck_core::{PlatformParams, Protocol};
use dck_failures::DistributionSpec;
use dck_sim::montecarlo::SourceKind;
use dck_sim::TimelineEvent;
use dck_sim::{sweep_spec_fingerprint, EarlyStop, SweepCell, SweepResult, SweepSpec};
use dck_simcore::SimTime;
use mutate::{both_ways, variants};
use proptest::prelude::*;
use serde::Serialize;

#[allow(dead_code)]
#[path = "../../../vendor/serde/tests/support/mutate.rs"]
mod mutate;

fn direct(x: &impl Serialize) -> String {
    serde_json::to_string(x).unwrap()
}

fn tree(x: &impl Serialize) -> String {
    serde_json::to_string(&x.to_value()).unwrap()
}

/// The fingerprint as first defined: FNV-1a of the tree printer's bytes
/// for a copy of the spec with `workers` set to 0.
fn tree_fingerprint(spec: &SweepSpec) -> u64 {
    let mut normalized = spec.clone();
    normalized.workers = 0;
    tree(&normalized)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// `SimTime` rejects NaN; every other float class stays.
fn time(x: f64) -> SimTime {
    SimTime::seconds(if x.is_nan() { f64::INFINITY } else { x })
}

/// Every failure source: each `SourceKind`, with each `DistributionSpec`
/// for the renewal kinds.
fn sources(mean: f64, shape: f64) -> Vec<SourceKind> {
    let laws = [
        DistributionSpec::Exponential { mean: time(mean) },
        DistributionSpec::Weibull {
            mean: time(mean),
            shape,
        },
        DistributionSpec::LogNormal {
            mean: time(mean),
            sigma: shape,
        },
        DistributionSpec::Deterministic { period: time(mean) },
    ];
    let mut all = vec![SourceKind::Exponential];
    for law in laws {
        all.extend([SourceKind::Renewal(law), SourceKind::RenewalWarmed(law)]);
    }
    all
}

fn protocol() -> impl Strategy<Value = Protocol> {
    prop::sample::select(vec![
        Protocol::DoubleBlocking,
        Protocol::DoubleNbl,
        Protocol::DoubleBof,
        Protocol::Triple,
        Protocol::TripleBof,
        Protocol::BuddyNbl { k: 4 },
        Protocol::BuddyBof { k: 7 },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn specs_write_the_tree_bytes_and_keep_their_fingerprint(
        protocol in protocol(),
        xs in prop::collection::vec(prop::num::f64::ANY, 12),
        grid in (
            prop::collection::vec(prop::num::f64::ANY, 0..4),
            prop::collection::vec(prop::num::f64::ANY, 0..4),
        ),
        counts in (any::<u64>(), any::<usize>(), any::<usize>(), any::<u64>()),
        stop in (any::<usize>(), any::<usize>()),
    ) {
        let (seed, replications, workers, nodes) = counts;
        let params = PlatformParams {
            downtime: xs[0],
            delta: xs[1],
            theta_min: xs[2],
            alpha: xs[3],
            nodes,
        };
        let mut spec = SweepSpec::new(protocol, params, grid.0, grid.1);
        (spec.work_in_mtbfs, spec.replications, spec.seed, spec.workers) =
            (xs[4], replications, seed, workers % 64);
        for source in sources(xs[5], xs[6]) {
            for early_stop in [
                None,
                Some(EarlyStop {
                    target_half_width: xs[7],
                    min_replications: stop.0,
                    batch: stop.1,
                }),
            ] {
                spec.source = source;
                spec.early_stop = early_stop;
                prop_assert_eq!(direct(&spec), tree(&spec));
                prop_assert_eq!(sweep_spec_fingerprint(&spec), tree_fingerprint(&spec));
                let text = direct(&spec);
                let seed = seed ^ workers as u64;
                for doc in std::iter::once(text.clone()).chain(variants(&text, seed, 6)) {
                    let (read, oracle) = both_ways::<SweepSpec>(&doc);
                    prop_assert_eq!(read, oracle, "{}", doc);
                }
            }
        }
    }

    #[test]
    fn timeline_events_read_as_their_tree_does(
        xs in prop::collection::vec(prop::num::f64::ANY, 4),
        node in any::<u64>(),
        flags in (any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        let events = [
            TimelineEvent::Failure {
                at: xs[0],
                node,
                offset: xs[1],
                outage: xs[2],
                fatal: flags.0,
                during_outage: flags.1,
            },
            TimelineEvent::OutageEnd { at: xs[3] },
        ];
        for event in events {
            let text = direct(&event);
            for doc in std::iter::once(text.clone()).chain(variants(&text, seed, 12)) {
                let (read, oracle) = both_ways::<TimelineEvent>(&doc);
                prop_assert_eq!(read, oracle, "{}", doc);
            }
        }
    }

    #[test]
    fn cells_write_the_tree_bytes(
        xs in prop::collection::vec(prop::num::f64::ANY, 6),
        counts in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        estimated in any::<bool>(),
    ) {
        let cell = SweepCell {
            phi_ratio: xs[0],
            mtbf: xs[1],
            period: xs[2],
            model_waste: xs[3],
            sim_waste: estimated.then_some(xs[4]),
            half_width: estimated.then_some(xs[5]),
            completed: counts.0,
            fatal: counts.1,
            truncated: counts.2,
            replications_run: counts.3,
        };
        prop_assert_eq!(direct(&cell), tree(&cell));
        let spec = SweepSpec::new(Protocol::Triple, PlatformParams {
            downtime: xs[0],
            delta: xs[1],
            theta_min: xs[2],
            alpha: xs[3],
            nodes: 48,
        }, vec![xs[4]], vec![xs[5]]);
        let result = SweepResult { spec, cells: vec![cell; 3] };
        prop_assert_eq!(direct(&result), tree(&result));
    }
}

/// The pinned serve spec: its fingerprint must never move.
#[test]
fn fingerprint_of_a_pinned_spec_is_unchanged() {
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap(),
        vec![0.0, 1.0],
        vec![1800.0, 3600.0],
    );
    (spec.work_in_mtbfs, spec.replications, spec.seed) = (10.0, 16, 32343);
    for workers in [0, 1, 8, 10, 123_456] {
        spec.workers = workers;
        assert_eq!(sweep_spec_fingerprint(&spec), 0x6136_49a9_6201_7982);
    }
}
