//! Pins the Monte-Carlo bits of every entry point on the sweep pool.
//!
//! Each case hashes every `f64::to_bits` and count its estimate reports
//! with FNV-1a and runs at 1, 2 and 3 workers; all must agree with one
//! hard-coded digest. The cases cover what the pool's unit geometry
//! could disturb: a multi-round early-stopped sweep whose cells retire
//! in different rounds (with a round that is not a multiple of the pool
//! unit), a fixed-budget Exa-size sweep, a waste estimate whose budget
//! is not a chunk multiple, a success estimate and a single sweep cell.
//! A change to the pool's units, fold or merge order that moves any bit
//! fails here with the new digest.

use dck_core::{PlatformParams, Protocol, Scenario};
use dck_sim::{
    estimate_success, estimate_waste, run_sweep, run_sweep_cell, EarlyStop, MonteCarloConfig,
    PeriodChoice, RunConfig, SuccessEstimate, SweepCell, SweepSpec, WasteEstimate,
};
use dck_simcore::OnlineStats;

const WORKERS: [usize; 3] = [1, 2, 3];

/// FNV-1a over the little-endian bytes of each word fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    fn opt(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            Some(x) => self.word(1).f64(x),
            None => self.word(0),
        }
    }

    fn stats(&mut self, s: &OnlineStats) -> &mut Self {
        let (n, mean, m2, min, max) = s.to_parts();
        self.word(n).f64(mean).f64(m2).f64(min).f64(max)
    }

    fn cell(&mut self, c: &SweepCell) -> &mut Self {
        self.f64(c.phi_ratio)
            .f64(c.mtbf)
            .f64(c.period)
            .f64(c.model_waste)
            .opt(c.sim_waste)
            .opt(c.half_width)
            .word(c.completed as u64)
            .word(c.fatal as u64)
            .word(c.truncated as u64)
            .word(c.replications_run as u64)
    }

    fn waste(&mut self, e: &WasteEstimate) -> &mut Self {
        self.stats(&e.waste)
            .stats(&e.failures)
            .opt(e.ci95.map(|ci| ci.mean))
            .opt(e.ci95.map(|ci| ci.half_width))
            .word(e.completed as u64)
            .word(e.fatal as u64)
            .word(e.truncated as u64)
    }

    fn success(&mut self, e: &SuccessEstimate) -> &mut Self {
        self.word(e.runs as u64)
            .word(e.survived as u64)
            .f64(e.p_hat)
            .f64(e.wilson95.0)
            .f64(e.wilson95.1)
    }
}

/// Runs `case` at every worker count, checks they agree bit for bit
/// and returns the common digest.
fn at_every_worker_count(case: impl Fn(usize) -> u64) -> u64 {
    let digests: Vec<u64> = WORKERS.iter().map(|&w| case(w)).collect();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "digests differ across workers {WORKERS:?}: {digests:016x?}"
    );
    digests[0]
}

fn small_platform() -> PlatformParams {
    PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap()
}

/// Nine cells with a half-width target that the short-MTBF cells reach
/// later than the long-MTBF ones, in rounds of 40 replications (five
/// chunks of 8, not a multiple of any pool unit of 16 or more), over a
/// budget of 200 that is not a round multiple either.
fn early_stopped_spec(workers: usize) -> SweepSpec {
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        small_platform(),
        vec![0.0, 0.5, 1.0],
        vec![900.0, 3_600.0, 14_400.0],
    );
    spec.replications = 200;
    spec.work_in_mtbfs = 4.0;
    spec.seed = 0xB175;
    spec.workers = workers;
    spec.early_stop = Some(EarlyStop {
        target_half_width: 4e-3,
        min_replications: 40,
        batch: 40,
    });
    spec
}

fn early_stopped_sweep(workers: usize) -> u64 {
    let result = run_sweep(&early_stopped_spec(workers)).unwrap();
    let mut h = Fnv::new();
    for c in &result.cells {
        h.cell(c);
    }
    h.0
}

/// The benchmark's Exa platform (n = 10⁶) at a fixed budget of 72
/// replications per cell: two full 32-replication runs and a short
/// tail.
fn exa_fixed_sweep(workers: usize) -> u64 {
    let mut spec = SweepSpec::new(
        Protocol::Triple,
        Scenario::exa().params,
        vec![0.0, 1.0],
        vec![3_600.0, 25_200.0],
    );
    spec.replications = 72;
    spec.seed = 0xE7A;
    spec.workers = workers;
    let result = run_sweep(&spec).unwrap();
    let mut h = Fnv::new();
    for c in &result.cells {
        h.cell(c);
    }
    h.0
}

/// 75 replications: nine full chunks and a 3-replication tail.
fn waste_estimate(workers: usize) -> u64 {
    let run_cfg = RunConfig::new(Protocol::DoubleBof, small_platform(), 0.5, 1_800.0);
    let mut mc = MonteCarloConfig::new(75, 0x3A57E);
    mc.workers = workers;
    let est = estimate_waste(&run_cfg, 10.0 * 1_800.0, &mc).unwrap();
    Fnv::new().waste(&est).0
}

/// A regime where about one run in five dies, over 100 replications.
fn success_estimate(workers: usize) -> u64 {
    let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, small_platform(), 0.0, 300.0);
    run_cfg.period = PeriodChoice::Explicit(200.0);
    let mut mc = MonteCarloConfig::new(100, 0x5ACE);
    mc.workers = workers;
    let est = estimate_success(&run_cfg, 6.0 * 3_600.0, &mc).unwrap();
    assert!(0 < est.survived && est.survived < est.runs, "{est:?}");
    Fnv::new().success(&est).0
}

/// One cell of an early-stopped grid, answered on its own.
fn sweep_cell(workers: usize) -> u64 {
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        small_platform(),
        vec![0.0, 0.5],
        vec![1_800.0, 7_200.0],
    );
    spec.replications = 120;
    spec.work_in_mtbfs = 6.0;
    spec.seed = 0xCE11;
    spec.workers = workers;
    spec.early_stop = Some(EarlyStop {
        target_half_width: 0.0,
        min_replications: 16,
        batch: 24,
    });
    let cell = run_sweep_cell(&spec, 1, 0).unwrap();
    Fnv::new().cell(&cell).0
}

/// The early-stopped case only covers staggered retirement if its
/// cells really stop after different numbers of rounds.
#[test]
fn early_stopped_cells_retire_in_different_rounds() {
    let mut runs: Vec<usize> = run_sweep(&early_stopped_spec(1))
        .unwrap()
        .cells
        .iter()
        .map(|c| c.replications_run)
        .collect();
    runs.sort_unstable();
    runs.dedup();
    assert!(
        runs.len() >= 3,
        "cells stop after too few distinct rounds: {runs:?}"
    );
}

/// A pinned case: its name, the run at a worker count, and its digest.
type Case = (&'static str, fn(usize) -> u64, u64);

#[test]
fn pool_estimates_keep_their_bits() {
    let cases: [Case; 5] = [
        (
            "early-stopped sweep",
            early_stopped_sweep,
            0xf206_d0b1_e10a_b7c2,
        ),
        (
            "Exa fixed-budget sweep",
            exa_fixed_sweep,
            0xb872_a4e3_0d69_e9fd,
        ),
        ("estimate_waste", waste_estimate, 0x7197_cad0_f244_1cbc),
        ("estimate_success", success_estimate, 0x5902_2744_3ca1_f0d0),
        ("run_sweep_cell", sweep_cell, 0x760c_a440_4201_462e),
    ];
    let mut moved = Vec::new();
    for (name, case, pinned) in cases {
        let got = at_every_worker_count(case);
        if got != pinned {
            moved.push(format!("{name}: {got:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(moved.is_empty(), "pinned bits moved:\n{}", moved.join("\n"));
}
