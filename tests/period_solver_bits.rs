//! Bit pins of the period solvers.
//!
//! `optimal_period` (the paper's closed forms, Eqs. 9/10/15),
//! `numeric_optimal_period` (the same optimum re-derived by
//! golden-section search) and `predicted_optimal_period` (the
//! first-order predictor model). These digests record the exact
//! `to_bits` of their results over every registered protocol, three
//! overheads, MTBFs from the saturated regime to 1e7 s and three
//! predictor shapes, so any change to the probe arithmetic, the bracket
//! or the search order shows up here. The exact errors of the invalid
//! inputs are pinned too, including which one wins when two apply.

use dck::model::{
    numeric_optimal_period, optimal_period, predicted_optimal_period, proactive_cost,
    ControllerConfig, ModelError, OptimalPeriod, PeriodController, PeriodSource, PlatformParams,
    PredictedWaste, PredictorSpec, Protocol, Scenario,
};

/// FNV-1a over the exact bit patterns of the solvers' numbers.
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

    fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    fn text(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    fn error(&mut self, e: &ModelError) -> &mut Self {
        self.word(u64::MAX).text(&e.to_string())
    }
}

/// Saturated (M below the per-failure loss), clamped (interior optimum
/// below `Pmin`) and interior regimes, up to 1e7 s.
const MTBFS: [f64; 14] = [
    5.0, 15.0, 30.0, 40.0, 60.0, 100.0, 250.0, 600.0, 1_800.0, 3_600.0, 25_200.0, 1e5, 1e6, 1e7,
];

fn platforms() -> [PlatformParams; 2] {
    [
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap(),
        Scenario::exa().params,
    ]
}

fn phis(params: &PlatformParams) -> [f64; 3] {
    [0.0, params.theta_min / 2.0, params.theta_min]
}

/// Recall 0 (with a window shorter than `C_p`, legal because it never
/// fires), a window of exactly `C_p`, and precision 1.
fn predictors(params: &PlatformParams) -> [PredictorSpec; 3] {
    let cp = proactive_cost(params);
    [
        PredictorSpec::new(0.8, 0.0, cp / 2.0),
        PredictorSpec::new(0.9, 0.7, cp),
        PredictorSpec::new(1.0, 0.5, 2.0 * cp),
    ]
}

fn source_word(s: PeriodSource) -> u64 {
    match s {
        PeriodSource::ClosedForm => 1,
        PeriodSource::ClampedToMin => 2,
        PeriodSource::Saturated => 3,
    }
}

fn optimal_bits(h: &mut Bits, opt: &OptimalPeriod) {
    h.f64(opt.period)
        .f64(opt.waste.fault_free)
        .f64(opt.waste.failure_induced)
        .f64(opt.waste.total)
        .f64(opt.waste.failure_loss)
        .f64(opt.waste.period)
        .word(source_word(opt.source));
}

fn predicted_bits(h: &mut Bits, w: &PredictedWaste) {
    h.f64(w.fault_free)
        .f64(w.failure_induced)
        .f64(w.total)
        .f64(w.period)
        .f64(w.proactive_cost);
}

#[test]
fn numeric_optimal_period_keeps_its_bits() {
    let mut h = Bits::new();
    let mut solves = 0;
    let mut sources = [0usize; 4];
    for params in platforms() {
        for protocol in Protocol::registry() {
            for phi in phis(&params) {
                for m in MTBFS {
                    match numeric_optimal_period(protocol, &params, phi, m) {
                        Ok(opt) => {
                            optimal_bits(&mut h, &opt);
                            sources[source_word(opt.source) as usize] += 1;
                            solves += 1;
                        }
                        Err(e) => {
                            h.error(&e);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(solves, 2 * 9 * 3 * MTBFS.len());
    assert!(
        sources[1..].iter().all(|&n| n > 0),
        "every regime must be covered: {sources:?}"
    );
    assert_eq!(
        h.0, 0x849d_514f_1d6f_14d5,
        "numeric_optimal_period digest moved"
    );
}

/// The closed form (Eqs. 9/10/15, clamped to `Pmin`) on the same grid:
/// `dck period`, serve `pstar`, `RunConfig::resolve_period`, the regret
/// harness's static and oracle arms and the adaptive controller's
/// retunes all report this period.
#[test]
fn optimal_period_keeps_its_bits() {
    let mut h = Bits::new();
    let mut solves = 0;
    let mut sources = [0usize; 4];
    for params in platforms() {
        for protocol in Protocol::registry() {
            for phi in phis(&params) {
                for m in MTBFS {
                    match optimal_period(protocol, &params, phi, m) {
                        Ok(opt) => {
                            optimal_bits(&mut h, &opt);
                            sources[source_word(opt.source) as usize] += 1;
                            solves += 1;
                        }
                        Err(e) => {
                            h.error(&e);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(solves, 2 * 9 * 3 * MTBFS.len());
    assert!(
        sources[1..].iter().all(|&n| n > 0),
        "every regime must be covered: {sources:?}"
    );
    assert_eq!(
        h.0, 0x7094_0cc7_e6f9_5da6,
        "optimal_period digest moved: {:#018x}",
        h.0
    );
}

/// A period-only retune of the adaptive controller commits exactly
/// `optimal_period`'s period on the grid above, bit for bit, and fails
/// where the golden-section solver fails, with its error.
#[test]
fn controller_retunes_match_optimal_period() {
    let cfg = ControllerConfig::default();
    let mut retunes = 0;
    for params in platforms() {
        for protocol in Protocol::registry() {
            for phi in phis(&params) {
                let controller = |prior: f64| {
                    PeriodController::new(protocol, &params, phi, prior, Some(3_600.0), cfg)
                        .unwrap()
                };
                let expect = |m: f64| optimal_period(protocol, &params, phi, m).unwrap().period;
                let at =
                    |m: f64| format!("{protocol:?} on {} nodes, φ = {phi}, M = {m}", params.nodes);
                for m in MTBFS {
                    let (_, period) = controller(m).operating_point(m).unwrap();
                    assert_eq!(period.to_bits(), expect(m).to_bits(), "{}", at(m));
                    // A real retune: failures every `m` seconds against a
                    // belief four times too high.
                    let mut ctl = controller(4.0 * m);
                    for i in 1..=8 {
                        ctl.record_failure(f64::from(i) * m).unwrap();
                    }
                    let r = ctl
                        .maybe_retune(8.0 * m)
                        .unwrap()
                        .expect("the estimate moved");
                    let e = r.mtbf_estimate;
                    assert_eq!(r.new_period.to_bits(), expect(e).to_bits(), "{}", at(e));
                    retunes += 1;
                }
                for m in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e308, f64::MAX] {
                    assert_eq!(
                        controller(3_600.0).operating_point(m).unwrap_err(),
                        numeric_optimal_period(protocol, &params, phi, m).unwrap_err(),
                        "{}",
                        at(m)
                    );
                }
            }
        }
    }
    assert_eq!(retunes, 2 * 9 * 3 * MTBFS.len());

    // An invalid φ is reported at the first solve, after the MTBF check,
    // as the golden-section solver reports it.
    let params = platforms()[0];
    let phi = 2.0 * params.theta_min;
    let mut ctl =
        PeriodController::new(Protocol::DoubleNbl, &params, phi, 3_600.0, Some(777.0), cfg)
            .unwrap();
    let solver = |m| numeric_optimal_period(Protocol::DoubleNbl, &params, phi, m).unwrap_err();
    assert_eq!(ctl.operating_point(0.0).unwrap_err(), solver(0.0));
    assert_eq!(ctl.operating_point(3_600.0).unwrap_err(), solver(3_600.0));
    for i in 1..=10 {
        ctl.record_failure(f64::from(i) * 10.0).unwrap();
    }
    assert_eq!(ctl.maybe_retune(100.0).unwrap_err(), solver(10.0));
}

#[test]
fn predicted_optimal_period_keeps_its_bits() {
    let mut h = Bits::new();
    let mut solves = 0;
    for params in platforms() {
        for protocol in Protocol::registry() {
            for phi in phis(&params) {
                for predictor in predictors(&params) {
                    for m in MTBFS {
                        match predicted_optimal_period(protocol, &params, phi, &predictor, m) {
                            Ok(w) => {
                                predicted_bits(&mut h, &w);
                                solves += 1;
                            }
                            Err(e) => {
                                h.error(&e);
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(solves, 2 * 9 * 3 * 3 * MTBFS.len());
    assert_eq!(
        h.0, 0x09b4_28a5_f084_c495,
        "predicted_optimal_period digest moved"
    );
}

#[test]
fn solver_errors_are_pinned() {
    let params = platforms()[0];
    let cp = proactive_cost(&params);
    let mtbf = ModelError::invalid("mtbf", "must be finite and > 0");
    for m in [0.0, -1.0, f64::NAN] {
        assert_eq!(
            numeric_optimal_period(Protocol::DoubleNbl, &params, 1.0, m).unwrap_err(),
            mtbf,
            "numeric at m = {m}"
        );
        assert_eq!(
            predicted_optimal_period(
                Protocol::DoubleNbl,
                &params,
                1.0,
                &PredictorSpec::new(0.9, 0.7, cp),
                m
            )
            .unwrap_err(),
            mtbf,
            "predicted at m = {m}"
        );
    }
    // A lead window shorter than the proactive checkpoint, with recall.
    let short = PredictorSpec::new(0.9, 0.7, cp / 2.0);
    let window = ModelError::invalid(
        "window",
        format!(
            "lead window {} shorter than the proactive checkpoint {cp}",
            cp / 2.0
        ),
    );
    assert_eq!(
        predicted_optimal_period(Protocol::DoubleNbl, &params, 1.0, &short, 3_600.0).unwrap_err(),
        window
    );
    // Both invalid: the MTBF error wins.
    for m in [0.0, f64::NAN] {
        assert_eq!(
            predicted_optimal_period(Protocol::DoubleNbl, &params, 1.0, &short, m).unwrap_err(),
            mtbf,
            "m = {m}"
        );
    }
    // Predictor validation comes before everything else, then φ.
    assert_eq!(
        predicted_optimal_period(
            Protocol::DoubleNbl,
            &params,
            1.0,
            &PredictorSpec::new(0.0, 0.7, cp),
            f64::NAN
        )
        .unwrap_err(),
        ModelError::invalid("precision", "must be in (0, 1]")
    );
    let phi_err = predicted_optimal_period(
        Protocol::DoubleNbl,
        &params,
        2.0 * params.theta_min,
        &short,
        f64::NAN,
    )
    .unwrap_err();
    assert_eq!(
        numeric_optimal_period(
            Protocol::DoubleNbl,
            &params,
            2.0 * params.theta_min,
            3_600.0
        )
        .unwrap_err(),
        phi_err
    );
    // The numeric solver checks the MTBF before φ.
    assert_eq!(
        numeric_optimal_period(Protocol::DoubleNbl, &params, 2.0 * params.theta_min, 0.0)
            .unwrap_err(),
        mtbf
    );
}
