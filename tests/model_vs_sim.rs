//! Cross-crate integration: the mechanistic simulator agrees with the
//! analytical model.

use std::sync::OnceLock;

use dck::experiments::conformance::{
    run_conformance, CellStatus, Closer, ConformanceReport, ConformanceSpec, Measure, Region,
};
use dck::failures::{FailureEvent, FailureTrace};
use dck::model::{PlatformParams, Protocol, WasteModel};
use dck::sim::{
    estimate_waste, run_to_completion, MonteCarloConfig, PeriodChoice, RunConfig, StopReason,
};
use dck::simcore::stats::Tolerance;
use dck::simcore::SimTime;

fn base_params(nodes: u64) -> PlatformParams {
    PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
}

/// Single deterministic failure: the outage matches the model's case
/// analysis for every phase of the period, for every protocol.
#[test]
fn deterministic_outage_matches_case_analysis() {
    let params = base_params(12);
    let period = 100.0;
    for protocol in [Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple] {
        let phi = 1.0;
        let model = WasteModel::new(protocol, &params, phi).unwrap();
        let resp = dck::protocols::FailureResponse::new(protocol, &params, phi, period).unwrap();
        // Failure offsets probing each phase (θ = 34).
        for off in [1.0, 10.0, 40.0, 70.0, 99.0] {
            let fail_at = 3.0 * period + off; // schedule position == time
            let trace = FailureTrace::new(
                12,
                vec![FailureEvent {
                    at: SimTime::seconds(fail_at),
                    node: 0,
                }],
            );
            let mut cfg = RunConfig::new(protocol, params, phi, 1e9);
            cfg.period = PeriodChoice::Explicit(period);
            let sched =
                dck::protocols::PeriodSchedule::new(protocol, &params, phi, period).unwrap();
            let work = sched.work_at(10.0 * period); // exactly 10 periods
            let out = run_to_completion(&cfg, work, &mut trace.replay()).unwrap();
            assert_eq!(out.reason, StopReason::WorkComplete);
            let expected_outage = resp.outage(off).total();
            assert!(
                (out.outage_time - expected_outage).abs() < 1e-9,
                "{protocol:?} off {off}: outage {} vs expected {expected_outage}",
                out.outage_time
            );
            assert!(
                (out.total_time - (10.0 * period + expected_outage)).abs() < 1e-9,
                "{protocol:?} off {off}"
            );
        }
        // The uniform average of those outages is F (checked exactly in
        // the protocols crate; spot-check consistency here).
        let f = model.failure_loss(period);
        assert!(f > 0.0);
    }
}

/// One trimmed conformance report behind the three statistical checks
/// below: its `benign` region and sections, a success region over every
/// registered protocol, and a recorded harsh-MTBF region.
fn report() -> &'static ConformanceReport {
    static REPORT: OnceLock<ConformanceReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut spec = ConformanceSpec::coarse();
        spec.regions.truncate(1);
        spec.seed = 0xFEED;
        let benign = &mut spec.regions[0];
        benign.mtbfs = vec![1_800.0, 3_600.0];
        benign.alphas = vec![0.0, 10.0];
        benign.phi_ratios = vec![0.0, 0.5];
        benign.replications = 16;
        let risk = Region {
            name: "registry-risk".into(),
            measure: Measure::Success,
            protocols: Protocol::registry(),
            alphas: vec![10.0],
            phi_ratios: vec![0.0],
            mtbfs: vec![60.0],
            base: base_params(10_368),
            replications: 150,
            work_in_mtbfs: 1_440.0, // one day
            tolerance: Tolerance::new(2.0, 0.0),
            ..benign.clone()
        };
        let harsh = Region {
            name: "harsh-refined".into(),
            protocols: vec![Protocol::DoubleNbl],
            alphas: vec![10.0],
            phi_ratios: vec![1.0], // blocking point: the φ-choice optimum down here
            mtbfs: vec![60.0, 120.0],
            base: base_params(96),
            replications: 200,
            work_in_mtbfs: 40.0,
            tolerance: Tolerance::new(3.0, 0.0),
            gate: false,
            ..benign.clone()
        };
        spec.regions.extend([risk, harsh]);
        run_conformance(&spec).unwrap()
    })
}

/// Monte-Carlo waste matches Eqs. 5/7/8/14 across a (MTBF, α, φ) grid
/// for the three evaluated protocols plus the `k = 4` / `k = 5` buddy
/// instances, each cell judged against its own simulator-reported CI95
/// half-width (not a hard-coded epsilon). The coarse spec's
/// fault-prediction and adaptation cells ride along. A failure names
/// the offending cell.
#[test]
fn monte_carlo_waste_matches_model() {
    let report = report();
    assert!(
        !report.prediction_cells.is_empty(),
        "coarse spec must carry fault-prediction cells"
    );
    assert_eq!(
        report.degenerate, 0,
        "degenerate cells (too few completed replications) in a benign regime"
    );
    assert!(
        report.all_pass(),
        "{} cell(s) out of CI95 tolerance:\n{}",
        report.failed,
        report.failures().join("\n")
    );
}

/// Monte-Carlo success probability matches Eq. 11 for pairs and Eq. 16
/// for triples — and their `k`-generalization — in a regime where fatal
/// failures are observable, for **every registered protocol** (a newly
/// instantiated `k` cannot skip this check). The tolerance is one
/// Wilson-interval half-width beyond the interval (the simulator's own
/// uncertainty), not a hard-coded epsilon.
#[test]
fn monte_carlo_risk_matches_model() {
    let (_, risk) = report().regions_named("registry-risk").next().unwrap();
    assert_eq!(risk.cells.len(), Protocol::registry().len());
    let outside: Vec<_> = risk
        .cells
        .iter()
        .filter(|c| c.status != CellStatus::Pass)
        .collect();
    assert!(
        outside.is_empty(),
        "model outside the widened Wilson interval: {outside:?}"
    );
}

/// At harsh MTBFs the refined (higher-order) model tracks the
/// simulator much more closely than the paper's first-order Eq. 5:
/// the region's tolerance admits the refined prediction, and it is the
/// closer of the two, at M ∈ {60 s, 120 s}.
#[test]
fn refined_model_beats_first_order_at_harsh_mtbf() {
    let (region, harsh) = report().regions_named("harsh-refined").next().unwrap();
    assert_eq!(harsh.cells.len(), 2);
    for c in &harsh.cells {
        let (sim, hw) = (c.sim.unwrap(), c.half_width.unwrap());
        assert!(
            region.tolerance.admits(c.refined.unwrap(), sim, hw),
            "M={}: refined {:?} outside sim {sim} ± {hw}",
            c.mtbf,
            c.refined
        );
        assert_eq!(c.closer, Some(Closer::Refined), "{c:?}");
    }
}

/// The waste does not depend on platform size in the model; the
/// simulator reproduces that within noise (same platform rate, more
/// nodes just spreads the victims).
#[test]
fn waste_node_count_invariance() {
    let mtbf = 1_800.0;
    let mut estimates = Vec::new();
    for nodes in [24u64, 96] {
        let cfg = RunConfig::new(Protocol::DoubleNbl, base_params(nodes), 1.0, mtbf);
        let mc = MonteCarloConfig::new(60, 0xAB);
        let est = estimate_waste(&cfg, 20.0 * mtbf, &mc).unwrap();
        estimates.push(est.ci95.expect("moderate-MTBF runs complete"));
    }
    let diff = (estimates[0].mean - estimates[1].mean).abs();
    let tol = 3.0 * (estimates[0].half_width + estimates[1].half_width);
    assert!(
        diff < tol,
        "waste differs across node counts: {estimates:?}"
    );
}

/// Fatal-failure detection in the full simulator agrees with a direct
/// trace computation: feed a crafted trace whose fatality is known.
#[test]
fn fatal_detection_end_to_end() {
    let params = base_params(12);
    let mk = |events: &[(f64, u64)]| {
        FailureTrace::new(
            12,
            events
                .iter()
                .map(|&(t, n)| FailureEvent {
                    at: SimTime::seconds(t),
                    node: n,
                })
                .collect(),
        )
    };
    // DOUBLENBL risk window at φ=0: D + R + θmax = 48.
    let cfg = RunConfig::new(Protocol::DoubleNbl, params, 0.0, 1e9);
    let fatal = mk(&[(500.0, 2), (540.0, 3)]);
    let out = run_to_completion(&cfg, 10_000.0, &mut fatal.replay()).unwrap();
    assert_eq!(out.reason, StopReason::Fatal);

    let safe = mk(&[(500.0, 2), (549.0, 3)]);
    let out = run_to_completion(&cfg, 10_000.0, &mut safe.replay()).unwrap();
    assert_eq!(out.reason, StopReason::WorkComplete);

    // Triple tolerates the same double-failure pattern.
    let cfg = RunConfig::new(Protocol::Triple, params, 0.0, 1e9);
    let two = mk(&[(500.0, 0), (501.0, 1)]);
    let out = run_to_completion(&cfg, 10_000.0, &mut two.replay()).unwrap();
    assert_eq!(out.reason, StopReason::WorkComplete);
}
