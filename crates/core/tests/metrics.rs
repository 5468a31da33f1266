//! Tests that enable the process-global metrics registry and assert on
//! its counters. The registry is shared by every test in a binary, and
//! a test that does not hold [`dck_obs::exclusive_session`] would
//! record into it while another has it enabled. So these tests live in
//! their own binary, and every test here takes the session.

use dck_core::{
    optimal_operating_point, ControllerConfig, PeriodController, PlatformParams, Protocol,
};

fn base() -> PlatformParams {
    PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
}

#[test]
fn retune_counters_are_recorded() {
    let _guard = dck_obs::exclusive_session();
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let mut ctl = PeriodController::new(
        Protocol::DoubleNbl,
        &base(),
        1.0,
        100.0,
        None,
        ControllerConfig::default(),
    )
    .unwrap();
    for i in 1..=20 {
        ctl.record_failure(i as f64 * 100.0).unwrap();
    }
    let _ = ctl.maybe_retune(2_000.0).unwrap(); // in-band: suppressed
    let _ = ctl.maybe_retune(4_000.0).unwrap(); // out-of-band: commits
    let snap = dck_obs::snapshot();
    dck_obs::set_enabled(was);
    assert_eq!(snap.counter("adapt.retunes_suppressed"), 1);
    assert_eq!(snap.counter("adapt.retunes"), 1);
}

#[test]
fn operating_point_counts_probes_when_enabled() {
    let _guard = dck_obs::exclusive_session();
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let op = optimal_operating_point(Protocol::DoubleNbl, &base(), 3_600.0);
    dck_obs::set_enabled(was);
    op.unwrap();
    let snap = dck_obs::snapshot();
    // 33 grid probes plus golden-section refinement probes.
    assert!(
        snap.counter("opt.probes") >= 33,
        "probes {}",
        snap.counter("opt.probes")
    );
    assert_eq!(snap.counter("opt.probe_errors"), 0);
}
