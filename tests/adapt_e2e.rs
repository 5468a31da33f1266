//! Adaptive-controller end-to-end guarantees.
//!
//! Pins that keep the adaptive executor, and the estimator and sweep
//! beneath it, honest:
//!
//! 1. **Adaptation off is the static machine, bit for bit.** Every
//!    script in the golden corpus replays identically — same outcome,
//!    same timeline, exact float equality, no tolerance — through
//!    `run_adaptive_traced` with the controller disabled.
//! 2. **The censored MLE converges** at the `1/√n` rate its CI claims:
//!    across independent exponential failure streams the estimate
//!    lands within a z-scaled standard error of the true MTBF.
//! 3. **Adaptive and predicted results keep their bits.** Digests of a
//!    regret run (one case per scenario kind) and of a predicted-waste
//!    estimate are recorded as exact `to_bits` hashes.
//! 4. **Estimator and sweep results keep their bits.** Digests of
//!    `estimate_waste` under every failure source, and of `run_sweep`
//!    with a fixed budget and with early stopping at 1 and 8 workers.

use dck::model::{ControllerConfig, EstimatorConfig, MtbfEstimator};
use dck::sim::{run_adaptive_traced, run_to_completion_traced, AdaptiveRunConfig};
use dck::simcore::RngFactory;
use dck_testkit::load_cases;
use rand::Rng;

#[test]
fn adaptation_off_is_bit_identical_across_the_golden_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let cases = load_cases(&dir).expect("load golden corpus");
    assert!(
        cases.len() >= 10,
        "corpus unexpectedly small: {} scripts",
        cases.len()
    );
    for case in &cases {
        let compiled = case.script.compile().expect(&case.name);
        let (expected, expected_tl) = run_to_completion_traced(
            &compiled.config,
            compiled.work,
            &mut compiled.trace.replay(),
        )
        .expect(&case.name);
        let adaptive = AdaptiveRunConfig {
            base: compiled.config,
            // A wildly wrong prior must not matter when adaptation is
            // off.
            prior_mtbf: compiled.config.mtbf * 100.0,
            controller: ControllerConfig {
                enabled: false,
                ..ControllerConfig::default()
            },
        };
        let (out, tl) = run_adaptive_traced(&adaptive, compiled.work, &mut compiled.trace.replay())
            .expect(&case.name);
        // Exact equality — the disabled adaptive path delegates to the
        // static machine, so even the last bit must agree.
        assert_eq!(out.run, expected, "outcome diverged on {}", case.name);
        assert_eq!(tl, expected_tl, "timeline diverged on {}", case.name);
        assert_eq!(out.retunes, 0, "{}", case.name);
    }
}

#[test]
fn censored_mle_converges_at_the_ci_rate() {
    let mtbf = 1800.0;
    let n = 400usize;
    // Relative standard error of the exponential-MTBF MLE is 1/√n;
    // judge each stream against 4 standard errors (P(miss) ~ 6e-5 per
    // stream) and the ensemble mean against 2 (independent streams
    // shrink it by √streams).
    let se = mtbf / (n as f64).sqrt();
    let streams = 8u64;
    let mut errors = Vec::new();
    for s in 0..streams {
        let mut rng = RngFactory::new(0xE57).component_stream("mle", s);
        let mut est = MtbfEstimator::new(EstimatorConfig::default()).unwrap();
        let mut t = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() * mtbf;
            est.record_failure(t).unwrap();
        }
        let fit = est.estimate(t).unwrap().expect("n > 0");
        assert_eq!(fit.failures, n as u64);
        assert!(
            (fit.mtbf - mtbf).abs() < 4.0 * se,
            "stream {s}: estimate {} vs true {mtbf} (4se = {})",
            fit.mtbf,
            4.0 * se
        );
        errors.push(fit.mtbf - mtbf);
    }
    let mean_err = errors.iter().sum::<f64>() / streams as f64;
    assert!(
        mean_err.abs() < 2.0 * se / (streams as f64).sqrt(),
        "ensemble bias {mean_err} exceeds 2 pooled standard errors"
    );
}

/// FNV-1a over the exact bit patterns of a result's numbers.
#[derive(Default)]
struct Bits(u64);

impl Bits {
    fn word(&mut self, w: u64) -> &mut Self {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    fn stats(&mut self, s: &dck::simcore::OnlineStats) -> &mut Self {
        let (n, mean, m2, min, max) = s.to_parts();
        self.word(n).f64(mean).f64(m2).f64(min).f64(max)
    }

    fn estimate(&mut self, est: &dck::sim::WasteEstimate) -> &mut Self {
        self.stats(&est.waste)
            .stats(&est.failures)
            .word(est.completed as u64)
            .word(est.fatal as u64)
            .word(est.truncated as u64)
    }

    fn opt(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            Some(v) => self.word(1).f64(v),
            None => self.word(0),
        }
    }

    fn sweep(&mut self, result: &dck::sim::SweepResult) -> &mut Self {
        for c in &result.cells {
            self.f64(c.phi_ratio)
                .f64(c.mtbf)
                .f64(c.period)
                .f64(c.model_waste)
                .opt(c.sim_waste)
                .opt(c.half_width)
                .word(c.completed as u64)
                .word(c.fatal as u64)
                .word(c.truncated as u64)
                .word(c.replications_run as u64);
        }
        self
    }
}

/// Bits of the adaptive, predicted and adaptive-predicted executors,
/// recorded before they were folded into one run kernel: one regret
/// case of each scenario kind, and a predicted-waste estimate. Any
/// change to event order, float accumulation or RNG consumption in
/// those modes moves these digests.
#[test]
fn adaptive_and_predicted_results_keep_their_bits() {
    use dck::model::{PlatformParams, PredictorSpec, Protocol};
    use dck::sim::{
        estimate_predicted_waste, run_regret, MonteCarloConfig, PeriodChoice, RegretCase,
        RegretScenario, RegretSpec, RunConfig,
    };

    let params = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 16).unwrap();
    let predictor = PredictorSpec::new(0.8, 0.7, 30.0);
    let spec = RegretSpec {
        protocol: Protocol::DoubleNbl,
        params,
        phi: 1.0,
        true_mtbf: 3600.0,
        work_in_mtbfs: 40.0,
        replications: 6,
        seed: 2024,
        controller: ControllerConfig::default(),
        cases: vec![
            RegretCase {
                name: "misspecified".into(),
                scenario: RegretScenario::Misspecified { factor: 4.0 },
            },
            RegretCase {
                name: "drift".into(),
                scenario: RegretScenario::Drift { end_factor: 0.25 },
            },
            RegretCase {
                name: "predicted".into(),
                scenario: RegretScenario::Predicted {
                    factor: 2.0,
                    predictor,
                },
            },
        ],
    };
    let mut regret = Bits::default();
    for r in run_regret(&spec).unwrap() {
        regret
            .f64(r.believed_mtbf)
            .f64(r.oracle_mtbf)
            .f64(r.static_period)
            .f64(r.oracle_period);
        for arm in [&r.adaptive, &r.static_arm, &r.oracle] {
            regret
                .f64(arm.mean_waste)
                .f64(arm.ci95_half_width)
                .word(arm.completed as u64)
                .word(arm.fatal as u64)
                .word(arm.truncated as u64);
        }
        regret
            .f64(r.regret)
            .f64(r.regret_ratio)
            .word(u64::from(r.beats_static))
            .f64(r.retunes_mean);
    }

    let mut cfg = RunConfig::new(Protocol::Triple, params, 0.5, 1800.0);
    cfg.period = PeriodChoice::Explicit(300.0);
    let est = estimate_predicted_waste(
        &cfg,
        &predictor,
        20.0 * 1800.0,
        &MonteCarloConfig::new(24, 7),
    )
    .unwrap();
    let mut predicted = Bits::default();
    predicted
        .stats(&est.waste)
        .stats(&est.failures)
        .word(est.completed as u64)
        .word(est.fatal as u64)
        .word(est.truncated as u64);

    assert_eq!(
        (
            format!("{:016x}", regret.0),
            format!("{:016x}", predicted.0)
        ),
        (
            "a3b2707ad7fc50e7".to_string(),
            "59766aa830089028".to_string()
        )
    );
}

/// Bits of the waste estimator (one digest per failure source) and of
/// the sweep (fixed budget and early stopping), recorded while a
/// second estimator and a second sweep engine still existed to check
/// them against. Both sweep digests must hold at 1 and 8 workers.
#[test]
fn estimator_and_sweep_results_keep_their_bits() {
    use dck::failures::DistributionSpec;
    use dck::model::{PlatformParams, Protocol};
    use dck::sim::montecarlo::SourceKind;
    use dck::sim::{estimate_waste, run_sweep, EarlyStop, MonteCarloConfig, RunConfig, SweepSpec};
    use dck::simcore::SimTime;

    let params = |nodes| PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap();
    let weibull = DistributionSpec::Weibull {
        mean: SimTime::seconds(1.0), // retargeted internally
        shape: 0.7,
    };
    let mut estimates = Vec::new();
    for source in [
        SourceKind::Exponential,
        SourceKind::Renewal(weibull),
        SourceKind::RenewalWarmed(weibull),
    ] {
        let cfg = RunConfig::new(Protocol::DoubleNbl, params(16), 1.0, 1800.0);
        let mut mc = MonteCarloConfig::new(20, 0xB175);
        mc.source = source;
        mc.workers = 2;
        let est = estimate_waste(&cfg, 15.0 * 1800.0, &mc).unwrap();
        estimates.push(format!("{:016x}", Bits::default().estimate(&est).0));
    }

    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        params(48),
        vec![0.0, 0.5, 1.0],
        vec![1_800.0, 3_600.0],
    );
    spec.replications = 40;
    spec.work_in_mtbfs = 10.0;
    spec.seed = 0x5EED;
    let mut sweeps = Vec::new();
    for early_stop in [
        None,
        Some(EarlyStop {
            target_half_width: 0.005,
            min_replications: 16,
            batch: 16,
        }),
    ] {
        spec.early_stop = early_stop;
        let digests: Vec<String> = [1, 8]
            .into_iter()
            .map(|workers| {
                spec.workers = workers;
                format!(
                    "{:016x}",
                    Bits::default().sweep(&run_sweep(&spec).unwrap()).0
                )
            })
            .collect();
        assert_eq!(digests[0], digests[1], "early_stop={early_stop:?}");
        sweeps.push(digests[0].clone());
    }

    assert_eq!(
        (estimates, sweeps),
        (
            vec![
                "e6415f513a001862".to_string(),
                "d6d1e26d3e89b435".to_string(),
                "973ece0111f5a7c3".to_string()
            ],
            vec![
                "dbc935f1f6a56e72".to_string(),
                "510fe4bb5ce8a0dd".to_string()
            ]
        )
    );
}
