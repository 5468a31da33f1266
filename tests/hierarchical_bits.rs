//! Bit pins of the two-level (hierarchical) run.
//!
//! `run_hierarchical` chains buddy segments, global writes and
//! rollbacks to the last global checkpoint over one failure stream.
//! This digest records the exact `to_bits` of every
//! `HierarchicalOutcome` field over the three evaluated protocols, two
//! harsh regimes and a mild one, a partial last segment, and runs
//! stopped by the rollback cap and by the failure cap, so any change to
//! the order of events or to the arithmetic of a run shows up here.

use dck::failures::{AggregatedExponential, MtbfSpec};
use dck::model::{GlobalStore, PlatformParams, Protocol};
use dck::sim::hierarchical::{run_hierarchical, HierarchicalOutcome, HierarchicalRunConfig};
use dck::sim::{PeriodChoice, RunConfig};
use dck::simcore::{RngFactory, SimTime};

/// FNV-1a over the exact bit patterns of the outcomes.
struct Bits(u64);

impl Bits {
    fn new() -> Self {
        Bits(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn outcome(&mut self, o: &HierarchicalOutcome) -> &mut Self {
        self.word(o.total_time.to_bits())
            .word(o.useful_work.to_bits())
            .word(o.failures)
            .word(o.fatal_rollbacks)
            .word(o.global_writes)
            .word(u64::from(o.completed))
    }
}

const PROTOCOLS: [Protocol; 3] = [Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple];

/// `(M, K)`: two harsh regimes and a mild one.
const REGIMES: [(f64, u32); 3] = [(45.0, 200), (60.0, 50), (300.0, 100)];

fn cfg(protocol: Protocol, downtime: f64, mtbf: f64, k: u32) -> HierarchicalRunConfig {
    let params = PlatformParams::new(downtime, 2.0, 4.0, 10.0, 96).unwrap();
    HierarchicalRunConfig {
        inner: RunConfig::new(protocol, params, 4.0, mtbf),
        store: GlobalStore::new(300.0, 300.0).unwrap(),
        periods_per_global: k,
        max_rollbacks: 1_000_000,
    }
}

fn run(c: &HierarchicalRunConfig, work: f64, seed: u64) -> HierarchicalOutcome {
    let spec = MtbfSpec::Individual {
        mtbf: SimTime::seconds(c.inner.mtbf * c.inner.params.nodes as f64),
        nodes: c.inner.usable_nodes(),
    };
    let mut src = AggregatedExponential::new(spec, RngFactory::new(seed).stream(0));
    run_hierarchical(c, work, &mut src).unwrap()
}

#[test]
fn run_hierarchical_keeps_its_bits() {
    let mut h = Bits::new();
    let mut completed = 0;
    let mut rollbacks = 0;
    let mut runs = 0;
    for downtime in [0.0, 1.0] {
        for protocol in PROTOCOLS {
            for (m, k) in REGIMES {
                let c = cfg(protocol, downtime, m, k);
                for seed in 0..4 {
                    // 3 h of work is not a whole number of segments:
                    // every completed run ends on a partial segment.
                    let out = run(&c, 3.0 * 3_600.0, 100 * seed + k as u64);
                    h.outcome(&out);
                    completed += usize::from(out.completed);
                    rollbacks += out.fatal_rollbacks;
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 2 * 3 * 3 * 4);
    assert_eq!(completed, runs, "every uncapped run completes");
    assert!(rollbacks > 0, "the harsh regimes must roll back");

    // An explicit period: 10 periods of 97 s of work per segment, and
    // 2.5 segments of work, so the last segment is half a segment.
    let mut c = cfg(Protocol::DoubleNbl, 0.0, 300.0, 10);
    c.inner.period = PeriodChoice::Explicit(100.0);
    for seed in 0..4 {
        let out = run(&c, 2.5 * 970.0, seed);
        assert!(out.completed);
        assert_eq!(out.global_writes, 3);
        h.outcome(&out);
    }

    // Stopped by the rollback cap.
    let mut c = cfg(Protocol::DoubleNbl, 0.0, 45.0, 200);
    c.max_rollbacks = 2;
    for seed in 0..4 {
        let out = run(&c, 1e7, seed);
        assert!(!out.completed);
        assert_eq!(out.fatal_rollbacks, 2);
        h.outcome(&out);
    }

    // Stopped by the failure cap, after segments that stayed below it.
    let mut c = cfg(Protocol::Triple, 0.0, 45.0, 20);
    c.inner.max_failures = 30;
    for seed in 0..4 {
        let out = run(&c, 1e7, seed);
        assert!(!out.completed);
        assert!(out.global_writes > 0 && out.failures > 30, "{out:?}");
        h.outcome(&out);
    }

    assert_eq!(h.0, 0x2301_050b_68ef_419f, "run_hierarchical digest moved");
}
