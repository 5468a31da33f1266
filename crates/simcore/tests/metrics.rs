//! Tests that enable the process-global metrics registry and assert on
//! its counters. The registry is shared by every test in a binary, and
//! a test that does not hold [`dck_obs::exclusive_session`] would
//! record into it while another has it enabled. So these tests live in
//! their own binary, and every test here takes the session.

use std::sync::atomic::{AtomicU64, Ordering};

use dck_simcore::par::{parallel_for_ordered, parallel_map_fold};

#[test]
fn contained_panics_are_counted() {
    let _guard = dck_obs::exclusive_session();
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let fired = AtomicU64::new(0);
    parallel_for_ordered(
        32,
        4,
        |i| {
            if i == 7 && fired.swap(1, Ordering::Relaxed) == 0 {
                panic!("once");
            }
            i
        },
        |_, _| {},
    )
    .unwrap();
    dck_obs::set_enabled(was);
    let snap = dck_obs::snapshot();
    assert_eq!(snap.counter("par.panics_contained"), 1);
    assert_eq!(snap.counter("par.units_requeued"), 1);
}

#[test]
fn pool_occupancy_recorded_only_when_enabled() {
    let _guard = dck_obs::exclusive_session();
    dck_obs::reset();
    parallel_for_ordered(64, 4, |i| i, |_, _| {}).unwrap();
    assert_eq!(dck_obs::snapshot().counter("par.pool_spawns"), 0);

    let was = dck_obs::set_enabled(true);
    parallel_for_ordered(64, 4, |i| i, |_, _| {}).unwrap();
    // The inline path spawns no pool and records no occupancy.
    parallel_for_ordered(64, 1, |i| i, |_, _| {}).unwrap();
    parallel_map_fold(64, 4, 8, || 0u64, |a, i| *a += i as u64, |a, b| a + b).unwrap();
    dck_obs::set_enabled(was);
    let snap = dck_obs::snapshot();
    assert_eq!(snap.counter("par.pool_spawns"), 2);
    let items = &snap.histograms["par.items_per_worker"];
    assert_eq!(items.count, 4, "one observation per worker");
    assert_eq!(items.sum, 64, "workers claimed every item");
    let chunks = &snap.histograms["par.chunks_per_worker"];
    assert_eq!(chunks.count, 4);
    assert_eq!(chunks.sum, 8, "64 items / chunk 8");
}
