//! `adapt-regret`: `run_regret` with `dck adapt`'s specification.
//!
//! DOUBLENBL on Base at a true MTBF of 7 h, 60 MTBFs of work per
//! replication, four cases: the MTBF believed ×4 and ×0.25 too high,
//! a drift down to ×0.25, and ×4 with fault prediction. Each
//! replication runs three arms (adaptive, misspecified static, oracle)
//! on one failure stream, single-threaded as the program runs it; a
//! measured pass runs one such copy per worker at once. It is
//! the only workload that goes through the adaptive and predicted
//! loops, the drifting source, the MTBF estimator, the controller and
//! the per-retune period solves.

use super::{observed, repeated_setup, self_time_notes, Opts, Run, MIN_PASSES, WORKERS};
use crate::digest::Fnv;
use crate::simlayers::{self, CellRecord, RepRecord, Touch};
use crate::stats::median;
use crate::trace::{self, ns_per_call, timed, Recording, Tracer};
use dck_bench::{AdaptBenchConfig, AdaptReport, DEFAULT_STATIONARY_TOLERANCE};
use dck_core::{
    optimal_period, predicted_optimal_period, proactive_cost, ControllerConfig, MtbfEstimator,
    PeriodController, PredictorSpec, Protocol, Scenario,
};
use dck_failures::{
    AggregatedExponential, DriftingExponential, FailureEvent, FailureSource, MtbfSpec,
};
use dck_sim::{
    run_adaptive_predicted_to_completion, run_adaptive_to_completion, run_predicted_to_completion,
    run_regret, run_to_completion, AdaptiveRunConfig, ArmStats, PeriodChoice, RegretCase,
    RegretResult, RegretScenario, RegretSpec, RunConfig,
};
use dck_simcore::{derive_seed, RngFactory, SimTime};
use std::hint::black_box;
use std::time::Instant;

const TRUE_MTBF: f64 = 7.0 * 3600.0;
const WORK_IN_MTBFS: f64 = 60.0;
const ARMS: u64 = 3;

/// Replications per case in one measured pass.
fn measured_reps(quick: bool) -> usize {
    if quick {
        64
    } else {
        4096
    }
}

/// `dck adapt`'s regret specification (DOUBLENBL, Base, φ = 0, 7 h) with
/// `replications` per case.
pub fn spec(seed: u64, replications: usize) -> RegretSpec {
    let params = Scenario::base().params;
    let predictor = PredictorSpec::new(0.9, 0.7, 2.0 * proactive_cost(&params));
    let case = |name: &str, scenario| RegretCase {
        name: name.to_string(),
        scenario,
    };
    RegretSpec {
        protocol: Protocol::DoubleNbl,
        params,
        phi: 0.0,
        true_mtbf: TRUE_MTBF,
        work_in_mtbfs: WORK_IN_MTBFS,
        replications,
        seed,
        controller: ControllerConfig::default(),
        cases: vec![
            case("mtbf-over-x4", RegretScenario::Misspecified { factor: 4.0 }),
            case(
                "mtbf-under-x0.25",
                RegretScenario::Misspecified { factor: 0.25 },
            ),
            case(
                "drift-degrading-x0.25",
                RegretScenario::Drift { end_factor: 0.25 },
            ),
            case(
                "predicted-over-x4",
                RegretScenario::Predicted {
                    factor: 4.0,
                    predictor,
                },
            ),
        ],
    }
}

fn regret(spec: &RegretSpec) -> Result<Vec<RegretResult>, String> {
    run_regret(spec).map_err(|e| e.to_string())
}

/// One measured pass: a whole single-threaded `run_regret` of `spec` on
/// each of [`WORKERS`] threads at once. A lone thread stays on one
/// vCPU for most of a run, and on a shared 2-vCPU host one vCPU can be
/// a third slower than the other for minutes: ten single-threaded runs
/// fell into two groups, 27–31 k and 40–46 k arm-runs/s. One copy per
/// core takes both into every pass, as the two-worker sweeps do.
fn regret_on_every_worker(spec: &RegretSpec) -> Result<Vec<Vec<RegretResult>>, String> {
    std::thread::scope(|s| {
        let copies: Vec<_> = (0..WORKERS).map(|_| s.spawn(|| regret(spec))).collect();
        copies
            .into_iter()
            .map(|c| c.join().map_err(|_| "a regret copy panicked".to_string())?)
            .collect()
    })
}

fn arm_digest(h: &mut Fnv, a: &ArmStats) {
    h.f64(a.mean_waste)
        .f64(a.ci95_half_width)
        .word(a.completed as u64)
        .word(a.fatal as u64)
        .word(a.truncated as u64);
}

/// Digest of every number in one case's result.
pub fn case_digest(r: &RegretResult) -> u64 {
    let mut h = Fnv::default();
    h.f64(r.believed_mtbf)
        .f64(r.oracle_mtbf)
        .f64(r.static_period)
        .f64(r.oracle_period);
    for arm in [&r.adaptive, &r.static_arm, &r.oracle] {
        arm_digest(&mut h, arm);
    }
    h.f64(r.regret)
        .f64(r.regret_ratio)
        .word(u64::from(r.beats_static))
        .f64(r.retunes_mean);
    h.finish()
}

/// The `dck-adapt/v1` acceptance gate for one case: stationary regret
/// within the tolerance, drift beating the static arm.
fn passes_gate(r: &RegretResult) -> bool {
    match r.scenario {
        RegretScenario::Drift { .. } => r.beats_static,
        _ => r.regret_ratio <= DEFAULT_STATIONARY_TOLERANCE,
    }
}

/// Whether every later pass reproduces case `ci` of the first bit for
/// bit.
fn stable(passes: &[Vec<RegretResult>], ci: usize) -> bool {
    let d = passes[0].get(ci).map(case_digest);
    passes[1..].iter().all(|p| p.get(ci).map(case_digest) == d)
}

/// Checks every case of the first pass: identical in every later pass
/// and within its gate; the whole report must also pass `dck-adapt/v1`
/// validation. Returns `(cases, failed cases)`.
pub fn verify(spec: &RegretSpec, passes: &[Vec<RegretResult>]) -> (u64, u64) {
    let Some(first) = passes.first() else {
        return (0, 0);
    };
    let mut failed = 0u64;
    for (ci, case) in first.iter().enumerate() {
        if !stable(passes, ci) || !passes_gate(case) {
            failed += 1;
        }
    }
    let report = AdaptReport::from_results(
        AdaptBenchConfig {
            protocol: spec.protocol.to_string(),
            nodes: spec.params.nodes,
            true_mtbf_s: spec.true_mtbf,
            phi_ratio: spec.phi / spec.params.theta_min,
            work_in_mtbfs: spec.work_in_mtbfs,
            replications: spec.replications,
            seed: spec.seed,
            hysteresis: spec.controller.hysteresis,
            min_failures: spec.controller.min_failures,
            half_life_s: spec.controller.half_life,
        },
        first,
        DEFAULT_STATIONARY_TOLERANCE,
    );
    if report.validate().is_err() && failed == 0 {
        failed = 1;
    }
    (first.len() as u64, failed)
}

/// Runs the measured regret workload.
///
/// # Errors
/// A regret run that returns an error.
pub fn measure(opts: &Opts) -> Result<Run, String> {
    let reps = measured_reps(opts.quick);
    let (setup_s, spec) = repeated_setup(|| {
        let s = spec(opts.seed, reps);
        regret(&self::spec(opts.seed, if opts.quick { 8 } else { 1024 }))?;
        Ok(s)
    })?;
    let arm_runs = (reps * spec.cases.len()) as f64 * ARMS as f64;

    let start = Instant::now();
    let mut passes = Vec::new();
    let mut secs = Vec::new();
    while secs.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let (s, copies) = timed(|| regret_on_every_worker(&spec));
        passes.extend(copies?);
        secs.push(s);
    }
    let (attempted, failed) = verify(&spec, &passes);
    let rates: Vec<f64> = secs.iter().map(|s| WORKERS as f64 * arm_runs / s).collect();

    let mut digest = Fnv::default();
    for case in &passes[0] {
        digest.word(case_digest(case));
    }
    let mut run = Run {
        attempted,
        failed,
        digest: Some(digest.finish()),
        ..Run::default()
    };
    run.set("throughput", median(&rates));
    run.set("latency_ms", median(&secs) * 1e3);
    run.set("setup_s", setup_s);
    run.notes.push(format!(
        "{} passes of {WORKERS} single-threaded copies at once, each {arm_runs} arm-runs \
         ({reps} replications x {} cases x {ARMS} arms)",
        secs.len(),
        spec.cases.len()
    ));
    run.notes.push(format!(
        "  pass rates /s: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    for case in &passes[0] {
        run.notes.push(format!(
            "  {:<22} regret {:+.4} beats_static={} retunes/rep {:.2}",
            case.name, case.regret_ratio, case.beats_static, case.retunes_mean
        ));
    }
    Ok(run)
}

/// What the traced loop kept of one case.
struct CaseTrace {
    believed: f64,
    oracle_mtbf: f64,
    static_period: f64,
    predictor: Option<PredictorSpec>,
    controller: ControllerConfig,
    /// Static-arm replications of a stationary, unpredicted case.
    static_cell: Option<CellRecord>,
    /// Adaptive-arm replications of an unpredicted case.
    adaptive: Vec<RepRecord>,
    /// Static-arm replications on the drifting source.
    drift: Vec<RepRecord>,
    master: u64,
}

fn err(e: dck_core::ModelError) -> String {
    e.to_string()
}

/// One case of `run_regret`, re-run from outside through the public
/// single-run functions, with optional spans and recorded sources. The
/// arms are built as `run_regret` builds them; the failure streams are
/// seeded by the benchmark, so they are comparable to the program's but
/// not the same.
fn traced_case(
    spec: &RegretSpec,
    ci: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<CaseTrace, String> {
    let case = &spec.cases[ci];
    let seed = derive_seed(spec.seed, ci as u64);
    let m_true = spec.true_mtbf;
    let t_base = spec.work_in_mtbfs * m_true;
    let (believed, oracle_mtbf, predictor) = match case.scenario {
        RegretScenario::Misspecified { factor } => (factor * m_true, m_true, None),
        RegretScenario::Drift { end_factor } => {
            let m1 = end_factor * m_true;
            let eff = if (m1 - m_true).abs() < 1e-12 {
                m_true
            } else {
                (m1 - m_true) / (m1 / m_true).ln()
            };
            (m_true, eff, None)
        }
        RegretScenario::Predicted { factor, predictor } => {
            (factor * m_true, m_true, Some(predictor))
        }
    };
    let solve = |m: f64| -> Result<f64, String> {
        match &predictor {
            Some(p) => Ok(
                predicted_optimal_period(spec.protocol, &spec.params, spec.phi, p, m)
                    .map_err(err)?
                    .period,
            ),
            None => Ok(optimal_period(spec.protocol, &spec.params, spec.phi, m)
                .map_err(err)?
                .period),
        }
    };
    let static_period = solve(believed)?;
    let oracle_period = solve(oracle_mtbf)?;
    let drift = match case.scenario {
        RegretScenario::Drift { end_factor } => Some(end_factor),
        _ => None,
    };
    let mut controller = spec.controller;
    controller.enabled = true;
    controller.predictor = predictor;
    if drift.is_some() && controller.half_life.is_none() {
        controller.half_life = Some(t_base / 8.0);
    }
    let arm_cfg = |period: f64| {
        let mut c = RunConfig::new(spec.protocol, spec.params, spec.phi, m_true);
        c.period = PeriodChoice::Explicit(period);
        c
    };
    let static_cfg = arm_cfg(static_period);
    let oracle_cfg = arm_cfg(oracle_period);
    let adaptive_cfg = AdaptiveRunConfig {
        base: static_cfg,
        prior_mtbf: believed,
        controller,
    };
    let usable = static_cfg.usable_nodes();
    let factory = RngFactory::new(seed);
    let stationary = MtbfSpec::Platform {
        mtbf: SimTime::seconds(m_true),
        nodes: usable,
    };
    let source = |rep: u64| -> Box<dyn FailureSource> {
        let stream = factory.component_stream("failures", rep);
        match drift {
            Some(end) => Box::new(DriftingExponential::new(
                m_true,
                end * m_true,
                t_base,
                usable,
                stream,
            )),
            None => Box::new(AggregatedExponential::new(stationary, stream)),
        }
    };

    let recording = tracer.is_some();
    let mut out = CaseTrace {
        believed,
        oracle_mtbf,
        static_period,
        predictor,
        controller,
        static_cell: (recording && drift.is_none() && predictor.is_none()).then(|| CellRecord {
            cfg: static_cfg,
            mtbf: stationary,
            master: seed,
            t_base,
            reps: Vec::new(),
        }),
        adaptive: Vec::new(),
        drift: Vec::new(),
        master: seed,
    };
    let case_span = tracer
        .as_deref_mut()
        .map(|t| t.begin("case", Some(ci as u64)));
    for rep in 0..spec.replications as u64 {
        let rep_span = tracer
            .as_deref_mut()
            .map(|t| t.begin("replication", Some(rep)));
        let span = tracer.as_deref_mut().map(|t| {
            t.begin(
                if predictor.is_some() {
                    "adapt_predicted"
                } else {
                    "adapt"
                },
                None,
            )
        });
        let (adaptive, events) = with_source(recording, source(rep), |src| match &predictor {
            Some(_) => {
                let mut rng = factory.component_stream("predictor", rep);
                run_adaptive_predicted_to_completion(&adaptive_cfg, t_base, src, &mut rng)
            }
            None => run_adaptive_to_completion(&adaptive_cfg, t_base, src),
        });
        let adaptive = adaptive.map_err(err)?;
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.end(s);
        }
        if recording && predictor.is_none() {
            out.adaptive.push(RepRecord {
                rep,
                events,
                outcome: adaptive.run,
            });
        }
        for (arm, cfg) in [(1, &static_cfg), (2, &oracle_cfg)] {
            let span = tracer.as_deref_mut().map(|t| {
                t.begin(
                    if predictor.is_some() {
                        "predict"
                    } else {
                        "run"
                    },
                    None,
                )
            });
            let (outcome, events) = with_source(recording, source(rep), |src| match &predictor {
                Some(p) => {
                    let mut rng = factory.component_stream("predictor", rep);
                    run_predicted_to_completion(cfg, p, t_base, src, &mut rng).map(|o| o.run)
                }
                None => run_to_completion(cfg, t_base, src),
            });
            let outcome = outcome.map_err(err)?;
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end(s);
            }
            if recording && arm == 1 {
                let record = RepRecord {
                    rep,
                    events,
                    outcome,
                };
                match (&mut out.static_cell, drift) {
                    (Some(cell), _) => cell.reps.push(record),
                    (None, Some(_)) => out.drift.push(record),
                    (None, None) => {}
                }
            }
        }
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), rep_span) {
            t.end(s);
        }
    }
    if let (Some(t), Some(s)) = (tracer, case_span) {
        t.end(s);
    }
    Ok(out)
}

/// Runs `f` on `source`, wrapped in a [`Recording`] when `record` is
/// set, and returns its result with the events drawn (none when not
/// recording).
fn with_source<R>(
    record: bool,
    source: Box<dyn FailureSource>,
    f: impl FnOnce(&mut dyn FailureSource) -> R,
) -> (R, Vec<FailureEvent>) {
    if record {
        let mut rec = Recording::new(source);
        let out = f(&mut rec);
        (out, rec.events)
    } else {
        let mut src = source;
        (f(src.as_mut()), Vec::new())
    }
}

fn traced_regret(
    spec: &RegretSpec,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<CaseTrace>, String> {
    (0..spec.cases.len())
        .map(|ci| traced_case(spec, ci, tracer.as_deref_mut()))
        .collect()
}

/// The traced copy of `adapt-regret`: the same specification with fewer
/// replications. It times `run_regret` with tracing off (its passes must
/// agree bit for bit; at this size the regret gates are too noisy to
/// apply), re-runs every arm through the public single-run functions,
/// and replays the recorded inputs through the solver, estimator,
/// controller and failure-source layers.
///
/// # Errors
/// A run that returns an error.
pub fn trace(opts: &Opts) -> Result<Run, String> {
    let reps = if opts.quick { 16 } else { 128 };
    let spec = spec(opts.seed, reps);
    let mut run = Run::default();

    let mut e2e = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..3 {
        let (s, r) = timed(|| regret(&spec));
        e2e.push(s);
        passes.push(r?);
    }
    let t_e2e = median(&e2e);
    run.attempted = spec.cases.len() as u64;
    run.failed = (0..spec.cases.len())
        .filter(|&ci| !stable(&passes, ci))
        .count() as u64;
    let (_, snap) = observed(|| regret(&spec))?;
    let adaptive_reps = (reps * spec.cases.len()) as f64;
    run.set(
        "adapt.retunes_per_rep",
        snap.counter("adapt.retunes_applied") as f64 / adaptive_reps,
    );
    run.set(
        "adapt.consults_per_rep",
        (snap.counter("adapt.retunes") + snap.counter("adapt.retunes_suppressed")) as f64
            / adaptive_reps,
    );
    run.set(
        "opt.period_probes_per_rep",
        snap.counter("opt.period_probes") as f64 / adaptive_reps,
    );

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut recorded = None;
    for _ in 0..2 {
        let (s, r) = timed(|| traced_regret(&spec, None));
        r?;
        plain.push(s);
        let mut tracer = Tracer::new(Instant::now());
        let (s, r) = timed(|| traced_regret(&spec, Some(&mut tracer)));
        traced.push(s);
        if recorded.is_none() {
            recorded = Some((r?, tracer.into_spans()));
        }
    }
    let (cases, spans) = recorded.ok_or("traced regret never ran")?;

    // Period solves: the unpredicted cases' two `optimal_period` calls,
    // the predicted case's two `predicted_optimal_period` calls.
    let base_ms: Vec<f64> = cases
        .iter()
        .filter(|c| c.predictor.is_none())
        .flat_map(|c| [c.believed, c.oracle_mtbf])
        .collect();
    let predicted: Vec<(PredictorSpec, f64)> = cases
        .iter()
        .filter_map(|c| c.predictor.map(|p| (p, c)))
        .flat_map(|(p, c)| [(p, c.believed), (p, c.oracle_mtbf)])
        .collect();
    let solve_us = ns_per_call(base_ms.len(), || {
        for &m in &base_ms {
            black_box(optimal_period(spec.protocol, &spec.params, spec.phi, black_box(m)).ok());
        }
    })
    .ok_or("no period solve to replay")?
        / 1e3;
    let predict_us = ns_per_call(predicted.len(), || {
        for (p, m) in &predicted {
            black_box(
                predicted_optimal_period(spec.protocol, &spec.params, spec.phi, p, black_box(*m))
                    .ok(),
            );
        }
    })
    .ok_or("no predicted period solve to replay")?
        / 1e3;
    run.set("core.optimal_period_us", solve_us);
    run.set("core.predict.period_us", predict_us);

    let (record_ns, retune_us) = controller_costs(&spec, &cases)?;
    run.set("core.estimate.record_ns", record_ns);
    run.set("core.control.retune_us", retune_us);
    run.set("failures.drift.next_failure_ns", drift_ns(&spec, &cases)?);

    let cells: Vec<CellRecord> = cases.iter().filter_map(|c| c.static_cell.clone()).collect();
    let costs = simlayers::replay(&cells, Touch::Warm)?;
    let counts = simlayers::counts(&cells);
    let span_us = |name: &str| trace::mean_us(&spans, name).ok_or(format!("no {name} spans"));
    let run_us = span_us("run")?;
    run.set("simcore.rng.stream_ns", costs.stream_ns);
    run.set("simcore.rng.fill_ns_per_gap", costs.fill_ns);
    run.set("failures.next_failure_ns", costs.next_failure_ns);
    run.set("protocols.schedule_ns", costs.schedule_ns);
    run.set("protocols.outage_ns", costs.outage_ns);
    run.set("simcore.stats.push_ns", costs.push_ns);
    run.set("sim.run_us_per_rep", run_us);
    run.set("sim.adapt.run_us_per_rep", span_us("adapt")?);
    run.set("sim.predict.run_us_per_rep", span_us("predict")?);
    run.set(
        "sim.adapt_predicted.run_us_per_rep",
        span_us("adapt_predicted")?,
    );
    let recorded_runs: Vec<&RepRecord> = cases
        .iter()
        .flat_map(|c| {
            c.static_cell
                .iter()
                .flat_map(|s| &s.reps)
                .chain(&c.adaptive)
                .chain(&c.drift)
        })
        .collect();
    run.set(
        "failures.events_per_rep",
        recorded_runs.iter().map(|r| r.events.len()).sum::<usize>() as f64
            / recorded_runs.len().max(1) as f64,
    );
    run.set(
        "attr.replication_covered_share",
        simlayers::covered_share(&costs, &counts, run_us),
    );
    run.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );

    // Single-threaded attribution of run_regret's time: every arm-run
    // kind's unit cost times its count, plus the period solves.
    let arm_ns: f64 = ["run", "adapt", "predict", "adapt_predicted"]
        .iter()
        .map(|name| {
            spans
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| s.duration_ns() as f64)
                .sum::<f64>()
        })
        .sum();
    let explained_ns =
        arm_ns + (base_ms.len() as f64 * solve_us + predicted.len() as f64 * predict_us) * 1e3;
    run.set("attr.unexplained_share", 1.0 - explained_ns / (t_e2e * 1e9));

    run.notes.push(format!(
        "traced copy: {} cases x {reps} replications x {ARMS} arms; run_regret {:.1} ms; \
         traced path: run_to_completion, run_adaptive_to_completion, \
         run_predicted_to_completion and run_adaptive_predicted_to_completion over boxed sources",
        cases.len(),
        t_e2e * 1e3
    ));
    run.notes.extend(self_time_notes(&spans));
    run.spans = spans;
    Ok(run)
}

/// Unit costs of `MtbfEstimator::record_failure` (ns) and of one
/// `PeriodController::maybe_retune` consult (µs), replayed over the
/// adaptive arms' recorded failures. The controller is consulted once
/// per recorded failure, at the failure's time.
fn controller_costs(spec: &RegretSpec, cases: &[CaseTrace]) -> Result<(f64, f64), String> {
    let with_reps: Vec<&CaseTrace> = cases.iter().filter(|c| !c.adaptive.is_empty()).collect();
    let failures: usize = with_reps
        .iter()
        .flat_map(|c| &c.adaptive)
        .map(|r| r.handled().len())
        .sum();
    let record_ns = ns_per_call(failures, || {
        for c in &with_reps {
            for r in &c.adaptive {
                if let Ok(mut est) = MtbfEstimator::new(c.controller.estimator()) {
                    for e in r.handled() {
                        black_box(est.record_failure(e.at.as_secs()).ok());
                    }
                }
            }
        }
    })
    .ok_or("no adaptive failures to replay")?;
    let templates: Vec<PeriodController> = with_reps
        .iter()
        .map(|c| {
            PeriodController::new(
                spec.protocol,
                &spec.params,
                spec.phi,
                c.believed,
                Some(c.static_period),
                c.controller,
            )
            .map_err(err)
        })
        .collect::<Result<_, _>>()?;
    let mut failure = None;
    let pair_ns = ns_per_call(failures, || {
        for (c, template) in with_reps.iter().zip(&templates) {
            for r in &c.adaptive {
                let mut ctl = template.clone();
                for e in r.handled() {
                    let t = e.at.as_secs();
                    if let Err(e) = ctl.record_failure(t).and_then(|()| ctl.maybe_retune(t)) {
                        failure = Some(e.to_string());
                    }
                }
                black_box(ctl.retunes());
            }
        }
    })
    .ok_or("no adaptive failures to replay")?;
    if let Some(e) = failure {
        return Err(format!("controller replay failed: {e}"));
    }
    Ok((record_ns, ((pair_ns - record_ns) / 1e3).max(0.0)))
}

/// Unit cost (ns) of `DriftingExponential::next_failure` over the drift
/// case's recorded draws.
fn drift_ns(spec: &RegretSpec, cases: &[CaseTrace]) -> Result<f64, String> {
    let t_base = spec.work_in_mtbfs * spec.true_mtbf;
    let end = spec
        .cases
        .iter()
        .find_map(|c| match c.scenario {
            RegretScenario::Drift { end_factor } => Some(end_factor),
            _ => None,
        })
        .ok_or("the specification has no drift case")?;
    let nodes = RunConfig::new(spec.protocol, spec.params, spec.phi, spec.true_mtbf).usable_nodes();
    let draws: Vec<(u64, &RepRecord)> = cases
        .iter()
        .flat_map(|c| c.drift.iter().map(move |r| (c.master, r)))
        .collect();
    ns_per_call(draws.iter().map(|(_, r)| r.events.len()).sum(), || {
        for (master, r) in &draws {
            let stream = RngFactory::new(*master).component_stream("failures", r.rep);
            let mut src = DriftingExponential::new(
                spec.true_mtbf,
                end * spec.true_mtbf,
                t_base,
                nodes,
                stream,
            );
            for _ in 0..r.events.len() {
                black_box(src.next_failure());
            }
        }
    })
    .ok_or_else(|| "no drift draws to replay".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_copy_records_the_arms_each_replay_needs() {
        let spec = spec(11, 12);
        let mut tracer = Tracer::new(Instant::now());
        let cases = traced_regret(&spec, Some(&mut tracer)).unwrap();
        assert!(!cases[0].adaptive.is_empty() && !cases[2].drift.is_empty());
        assert!(cases[0].static_cell.is_some() && cases[3].static_cell.is_none());
    }

    #[test]
    fn a_changed_case_is_caught() {
        let spec = spec(5, 16);
        let pass = regret(&spec).unwrap();
        assert_eq!(verify(&spec, &[pass.clone(), pass.clone()]), (4, 0));
        let mut bad = pass.clone();
        bad[1].adaptive.mean_waste = f64::from_bits(bad[1].adaptive.mean_waste.to_bits() ^ 1);
        assert_eq!(verify(&spec, &[pass, bad]).1, 1);
    }
}
