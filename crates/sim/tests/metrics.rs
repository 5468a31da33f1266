//! Tests that enable the process-global metrics registry and assert on
//! its counters. The registry is shared by every test in a binary, and
//! a test that does not hold [`dck_obs::exclusive_session`] would
//! record into it while another has it enabled. So these tests live in
//! their own binary, and every test here takes the session.

use std::path::PathBuf;

use dck_core::{PlatformParams, Protocol};
use dck_sim::{
    estimate_waste, run_sweep, run_sweep_cell, run_sweep_with_checkpoint, EarlyStop,
    MonteCarloConfig, RunConfig, SweepCheckpoint, SweepResult, SweepSpec,
};

fn params() -> PlatformParams {
    PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap()
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dck-sweep-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_cells_bit_identical(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.sim_waste.map(f64::to_bits), y.sim_waste.map(f64::to_bits));
        assert_eq!(
            x.half_width.map(f64::to_bits),
            y.half_width.map(f64::to_bits)
        );
        assert_eq!(x.completed, y.completed);
        assert_eq!(x.fatal, y.fatal);
        assert_eq!(x.truncated, y.truncated);
        assert_eq!(x.replications_run, y.replications_run);
    }
}

/// Multi-round spec: a never-satisfied early-stop target forces
/// `replications / batch` rounds (48 / 16 = 3).
fn multi_round_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        params(),
        vec![0.0, 0.6],
        vec![1_800.0, 3_600.0],
    );
    spec.replications = 48;
    spec.work_in_mtbfs = 6.0;
    spec.early_stop = Some(EarlyStop {
        target_half_width: 0.0,
        min_replications: 16,
        batch: 16,
    });
    spec
}

#[test]
fn metrics_count_work_without_perturbing_results() {
    let _guard = dck_obs::exclusive_session();
    let mut spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![0.0, 0.5], vec![1_800.0]);
    spec.replications = 16;
    spec.work_in_mtbfs = 8.0;
    let off = run_sweep(&spec).unwrap();
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let on = run_sweep(&spec).unwrap();
    dck_obs::set_enabled(was);
    let snap = dck_obs::snapshot();
    // Bit-identical with observability on or off: counters never
    // touch RNG streams or float order.
    for (a, b) in off.cells.iter().zip(&on.cells) {
        assert_eq!(a.sim_waste, b.sim_waste);
        assert_eq!(a.half_width, b.half_width);
        assert_eq!(a.completed, b.completed);
    }
    // Without early stopping: one round, 2 cells ×
    // 16 replications in chunks of 8 = 4 units.
    assert_eq!(snap.counter("sweep.cells"), 2);
    assert_eq!(snap.counter("sweep.rounds"), 1);
    assert_eq!(snap.counter("sweep.units"), 4);
    assert_eq!(snap.counter("sweep.replications"), 32);
    assert_eq!(snap.counter("sweep.cells_early_stopped"), 0);
}

#[test]
fn resume_with_defaulted_cadence_honors_the_snapshot() {
    let _guard = dck_obs::exclusive_session();
    let spec = multi_round_spec();
    let baseline = run_sweep(&spec).unwrap();
    let dir = ckpt_dir("cadence-honor");
    // First leg pauses after round 1 on an explicit every-2
    // cadence; the pause snapshot records cadence 2.
    let mut ck = SweepCheckpoint::new(&dir);
    ck.every_rounds = 2;
    ck.every_explicit = true;
    ck.max_rounds = Some(1);
    let _ = run_sweep_with_checkpoint(&spec, Some(&ck)).unwrap_err();
    // Second leg passes no cadence (defaulted every_rounds = 1):
    // it must pick up the recorded 2, not silently rebase to 1 —
    // observable as round 2 writing no snapshot while round 3
    // (cadence hit + terminal) writes one.
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let mut resume = SweepCheckpoint::new(&dir);
    resume.resume = true;
    let resumed = run_sweep_with_checkpoint(&spec, Some(&resume)).unwrap();
    dck_obs::set_enabled(was);
    let snap = dck_obs::snapshot();
    assert_cells_bit_identical(&baseline, &resumed);
    // Rounds 2 and 3 under recorded cadence 2: round 2 hits the
    // cadence (2 % 2 == 0), round 3 does not but gets the terminal
    // write — 2 checkpoints. A rebased cadence of 1 would write 3.
    assert_eq!(snap.counter("sweep.checkpoints_written"), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_counters_track_writes_and_resumes() {
    let _guard = dck_obs::exclusive_session();
    let spec = multi_round_spec();
    let dir = ckpt_dir("counters");
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let mut ck = SweepCheckpoint::new(&dir);
    ck.max_rounds = Some(1);
    let _ = run_sweep_with_checkpoint(&spec, Some(&ck));
    let mut resume = SweepCheckpoint::new(&dir);
    resume.resume = true;
    let _ = run_sweep_with_checkpoint(&spec, Some(&resume)).unwrap();
    dck_obs::set_enabled(was);
    let snap = dck_obs::snapshot();
    assert_eq!(snap.counter("sweep.resumes"), 1);
    assert_eq!(snap.counter("sweep.rounds_restored"), 1);
    // Paused run: round 1's cadence write plus the pause write.
    // Resumed run: rounds 2 and 3 each write once; the terminal
    // round's cadence write doubles as the final snapshot.
    assert_eq!(snap.counter("sweep.checkpoints_written"), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A serving worker computes a cell inline: `run_sweep_cell` must not
/// start a pool per request, even on a spec asking for auto workers.
#[test]
fn single_cell_query_spawns_no_pool() {
    let _guard = dck_obs::exclusive_session();
    let mut spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![0.0, 0.5], vec![1_800.0]);
    spec.replications = 64;
    spec.work_in_mtbfs = 8.0;
    spec.workers = 0;
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let cell = run_sweep_cell(&spec, 0, 1);
    dck_obs::set_enabled(was);
    assert_eq!(cell.unwrap().replications_run, 64);
    assert_eq!(dck_obs::snapshot().counter("par.pool_spawns"), 0);
}

/// `estimate_waste` is not a sweep: it records none of the `sweep.*`
/// progress counters, while its pool still shows up under `par.*`.
#[test]
fn estimator_records_no_sweep_counters() {
    let _guard = dck_obs::exclusive_session();
    let run_cfg = RunConfig::new(Protocol::DoubleNbl, params(), 1.0, 1_800.0);
    let mut mc = MonteCarloConfig::new(64, 7);
    mc.workers = 2;
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let est = estimate_waste(&run_cfg, 8.0 * 1_800.0, &mc);
    dck_obs::set_enabled(was);
    let est = est.unwrap();
    assert_eq!(est.completed + est.fatal + est.truncated, 64);
    let snap = dck_obs::snapshot();
    let sweep: Vec<_> = snap
        .counters
        .iter()
        .filter(|(name, &v)| name.starts_with("sweep.") && v > 0)
        .collect();
    assert!(sweep.is_empty(), "estimate_waste recorded {sweep:?}");
    assert_eq!(snap.counter("par.pool_spawns"), 1);
}
