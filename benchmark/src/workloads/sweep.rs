//! `sweep-base` and `sweep-exa`: `run_sweep` over the paper's grids.
//!
//! Both sweep DOUBLEBOF, DOUBLENBL and TRIPLE with 20 MTBFs of work per
//! replication on 2 workers. Base (n = 10 368) covers the Fig. 4 grid
//! with per-cell early stopping; its 166 KB risk tracker stays in cache,
//! so time goes to per-failure work and pool rounds. Exa (n = 10⁶) runs
//! a fixed budget on a coarser grid; every 8-replication work unit
//! rebuilds a 16 MB tracker, so per-unit set-up dominates and a
//! per-event gain should stay flat there.

use super::{observed, repeated_setup, self_time_notes, Opts, Run, MIN_PASSES, WORKERS};
use crate::digest::Fnv;
use crate::simlayers::{self, CellRecord, RepRecord, Touch};
use crate::stats::median;
use crate::trace::{self, timed, Recording, Tracer};
use dck_core::{optimal_period, Protocol, Scenario};
use dck_failures::MtbfSpec;
use dck_sim::montecarlo::SourceKind;
use dck_sim::{
    replication_source, run_sweep, run_sweep_cell, run_to_completion, EarlyStop, MonteCarloConfig,
    PeriodChoice, RunConfig, RunOutcome, StopReason, SweepCell, SweepResult, SweepSpec,
};
use dck_simcore::{derive_seed, OnlineStats, SimTime};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Which Table I platform a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Base: n = 10 368.
    Base,
    /// Exa: n = 10⁶.
    Exa,
}

const MTBFS_BASE: [f64; 3] = [3_600.0, 7_200.0, 25_200.0];
const PHI_RATIOS_EXA: [f64; 3] = [0.0, 0.5, 1.0];
const MTBFS_EXA: [f64; 2] = [3_600.0, 25_200.0];
const WORK_IN_MTBFS: f64 = 20.0;

/// Replication budget and stopping rule of one sweep.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    replications: usize,
    early_stop: Option<EarlyStop>,
}

impl Shape {
    fn fixed(replications: usize) -> Shape {
        Shape {
            replications,
            early_stop: None,
        }
    }
}

/// The measured pass. Base stops each cell at a CI95 half-width of
/// 1e-4 (about 1.2 M replications per pass); Exa runs 2 048 per cell.
pub fn measured_shape(platform: Platform, quick: bool) -> Shape {
    match (platform, quick) {
        (Platform::Base, false) => Shape {
            replications: 262_144,
            early_stop: Some(EarlyStop {
                target_half_width: 1e-4,
                min_replications: 1024,
                batch: 4096,
            }),
        },
        (Platform::Base, true) => Shape {
            replications: 4096,
            early_stop: Some(EarlyStop {
                target_half_width: 2e-3,
                min_replications: 256,
                batch: 512,
            }),
        },
        (Platform::Exa, false) => Shape::fixed(2048),
        (Platform::Exa, true) => Shape::fixed(16),
    }
}

fn warmup_shape(platform: Platform, quick: bool) -> Shape {
    match (platform, quick) {
        (Platform::Base, false) => Shape::fixed(2048),
        (Platform::Exa, false) => Shape::fixed(128),
        (_, true) => Shape::fixed(8),
    }
}

fn traced_shape(platform: Platform, quick: bool) -> Shape {
    match (platform, quick) {
        (Platform::Base, false) => Shape::fixed(256),
        (Platform::Exa, false) => Shape::fixed(16),
        (_, true) => Shape::fixed(8),
    }
}

/// One spec per protocol, each with its own seed stream.
pub fn specs(platform: Platform, seed: u64, shape: Shape) -> Vec<SweepSpec> {
    let (params, phi_ratios, mtbfs) = match platform {
        Platform::Base => (
            Scenario::base().params,
            (0..=10).map(|i| f64::from(i) / 10.0).collect::<Vec<_>>(),
            MTBFS_BASE.to_vec(),
        ),
        Platform::Exa => (
            Scenario::exa().params,
            PHI_RATIOS_EXA.to_vec(),
            MTBFS_EXA.to_vec(),
        ),
    };
    Protocol::EVALUATED
        .iter()
        .enumerate()
        .map(|(i, &protocol)| {
            let mut spec = SweepSpec::new(protocol, params, phi_ratios.clone(), mtbfs.clone());
            spec.work_in_mtbfs = WORK_IN_MTBFS;
            spec.replications = shape.replications;
            spec.early_stop = shape.early_stop;
            spec.workers = WORKERS;
            spec.seed = derive_seed(seed, i as u64);
            spec
        })
        .collect()
}

fn run_all(specs: &[SweepSpec]) -> Result<Vec<SweepResult>, String> {
    specs
        .iter()
        .map(|s| run_sweep(s).map_err(|e| e.to_string()))
        .collect()
}

/// Digest of every field of a cell, bit for bit.
pub fn cell_digest(c: &SweepCell) -> u64 {
    Fnv::default()
        .f64(c.phi_ratio)
        .f64(c.mtbf)
        .f64(c.period)
        .f64(c.model_waste)
        .opt_f64(c.sim_waste)
        .opt_f64(c.half_width)
        .word(c.completed as u64)
        .word(c.fatal as u64)
        .word(c.truncated as u64)
        .word(c.replications_run as u64)
        .finish()
}

/// Digest of a whole pass.
pub fn pass_digest(pass: &[SweepResult]) -> u64 {
    let mut h = Fnv::default();
    for cell in pass.iter().flat_map(|r| &r.cells) {
        h.word(cell_digest(cell));
    }
    h.finish()
}

/// The conformance rule: the simulated mean lies within three
/// half-widths plus 0.01 of the model's waste.
fn conforms(c: &SweepCell) -> bool {
    match (c.sim_waste, c.half_width) {
        (Some(sim), Some(hw)) => (c.model_waste - sim).abs() <= 3.0 * hw + 0.01,
        _ => false,
    }
}

/// Checks every cell of the first pass and returns `(cells, failed
/// cells)`. A cell fails when any later pass disagrees with it in one
/// bit, when its outcome counts do not add up to its replications, when
/// (on Base) it breaks the conformance rule, or when it is its row's
/// cheapest cell and `run_sweep_cell` does not reproduce it exactly.
pub fn verify(platform: Platform, specs: &[SweepSpec], passes: &[Vec<SweepResult>]) -> (u64, u64) {
    let Some(first) = passes.first() else {
        return (0, 0);
    };
    let mut bad: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut cells = 0u64;
    for (s, (spec, result)) in specs.iter().zip(first).enumerate() {
        cells += result.cells.len() as u64;
        for (ci, cell) in result.cells.iter().enumerate() {
            let d = cell_digest(cell);
            let stable = passes[1..]
                .iter()
                .all(|p| p.get(s).and_then(|r| r.cells.get(ci)).map(cell_digest) == Some(d));
            let accounted = cell.completed + cell.fatal + cell.truncated == cell.replications_run;
            if !stable || !accounted || (platform == Platform::Base && !conforms(cell)) {
                bad.insert((s, ci));
            }
        }
        let nphi = spec.phi_ratios.len();
        for mi in 0..spec.mtbfs.len() {
            let row = &result.cells
                [(mi * nphi).min(result.cells.len())..((mi + 1) * nphi).min(result.cells.len())];
            let Some(pi) = (0..row.len()).min_by_key(|&pi| row[pi].replications_run) else {
                continue;
            };
            let same = run_sweep_cell(spec, mi, pi)
                .is_ok_and(|solo| cell_digest(&solo) == cell_digest(&row[pi]));
            if !same {
                bad.insert((s, mi * nphi + pi));
            }
        }
    }
    (cells, bad.len() as u64)
}

/// Runs the measured sweep workload.
///
/// # Errors
/// A sweep that returns an error.
pub fn measure(platform: Platform, opts: &Opts) -> Result<Run, String> {
    let shape = measured_shape(platform, opts.quick);
    let (setup_s, specs) = repeated_setup(|| {
        let specs = specs(platform, opts.seed, shape);
        run_all(&self::specs(
            platform,
            opts.seed,
            warmup_shape(platform, opts.quick),
        ))?;
        Ok(specs)
    })?;

    let start = Instant::now();
    let mut passes: Vec<Vec<SweepResult>> = Vec::new();
    let mut secs = Vec::new();
    let mut rates = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let (s, results) = timed(|| run_all(&specs));
        let results = results?;
        let reps: usize = results
            .iter()
            .map(SweepResult::total_replications_run)
            .sum();
        secs.push(s);
        rates.push(reps as f64 / s);
        passes.push(results);
    }
    let (attempted, failed) = verify(platform, &specs, &passes);

    let mut run = Run {
        attempted,
        failed,
        digest: passes.first().map(|p| pass_digest(p)),
        ..Run::default()
    };
    run.set("throughput", median(&rates));
    run.set("latency_ms", median(&secs) * 1e3);
    run.set("setup_s", setup_s);
    let reps: usize = passes[0]
        .iter()
        .map(SweepResult::total_replications_run)
        .sum();
    run.notes.push(format!(
        "{} passes of {reps} replications over {attempted} cells on {WORKERS} workers; \
         pass rates /s: {:?}",
        passes.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    ));
    Ok(run)
}

/// One grid cell's run configuration, failure seed and work, rebuilt
/// from public pieces. The seed is the benchmark's own: the traced copy
/// runs the engine's operating points, not its exact failure streams.
fn plan(
    spec: &SweepSpec,
    mi: usize,
    pi: usize,
) -> Result<(RunConfig, MonteCarloConfig, f64), String> {
    let mtbf = spec.mtbfs[mi];
    let phi = spec.phi_ratios[pi] * spec.params.theta_min;
    let opt = optimal_period(spec.protocol, &spec.params, phi, mtbf).map_err(|e| e.to_string())?;
    let mut cfg = RunConfig::new(spec.protocol, spec.params, phi, mtbf);
    cfg.period = PeriodChoice::Explicit(opt.period);
    let mc = MonteCarloConfig {
        replications: spec.replications,
        seed: derive_seed(spec.seed, (mi * spec.phi_ratios.len() + pi) as u64),
        workers: 1,
        source: SourceKind::Exponential,
    };
    Ok((cfg, mc, spec.work_in_mtbfs * mtbf))
}

/// Runs every replication of `specs` serially through the public boxed
/// path (`run_to_completion` over `replication_source`), in chunks of 8
/// with their outcomes folded into statistics, as the engine works.
/// With a tracer it records a span per pass, cell, chunk, build,
/// replication and fold, and every event each replication drew.
fn boxed_pass(
    specs: &[SweepSpec],
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<CellRecord>, String> {
    let mut out = Vec::new();
    let pass = tracer.as_deref_mut().map(|t| t.begin("pass", None));
    for spec in specs {
        let nphi = spec.phi_ratios.len();
        for mi in 0..spec.mtbfs.len() {
            for pi in 0..nphi {
                let cell_span = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("cell", Some((mi * nphi + pi) as u64)));
                let (cfg, mc, t_base) = plan(spec, mi, pi)?;
                let mut waste = OnlineStats::new();
                let mut reps = Vec::new();
                for start in (0..spec.replications).step_by(8) {
                    let end = (start + 8).min(spec.replications);
                    let chunk = tracer
                        .as_deref_mut()
                        .map(|t| t.begin("chunk", Some(start as u64)));
                    let build = tracer.as_deref_mut().map(|t| t.begin("build", None));
                    black_box(cfg.build().map_err(|e| e.to_string())?);
                    if let (Some(t), Some(b)) = (tracer.as_deref_mut(), build) {
                        t.end(b);
                    }
                    let mut staged: Vec<RunOutcome> = Vec::with_capacity(end - start);
                    for rep in start as u64..end as u64 {
                        let outcome = match tracer.as_deref_mut() {
                            Some(t) => {
                                let span = t.begin("replication", Some(rep));
                                let mut src = Recording::new(replication_source(&cfg, &mc, rep));
                                let outcome = run_to_completion(&cfg, t_base, &mut src)
                                    .map_err(|e| e.to_string())?;
                                t.end(span);
                                reps.push(RepRecord {
                                    rep,
                                    events: src.events,
                                    outcome,
                                });
                                outcome
                            }
                            None => {
                                let mut src = replication_source(&cfg, &mc, rep);
                                run_to_completion(&cfg, t_base, src.as_mut())
                                    .map_err(|e| e.to_string())?
                            }
                        };
                        staged.push(outcome);
                    }
                    let fold_span = tracer.as_deref_mut().map(|t| t.begin("fold", None));
                    let mut chunk_waste = OnlineStats::new();
                    let mut chunk_failures = OnlineStats::new();
                    for o in &staged {
                        if o.reason == StopReason::WorkComplete {
                            chunk_waste.push(o.waste());
                            chunk_failures.push(o.failures as f64);
                        }
                    }
                    waste.merge(&chunk_waste);
                    black_box(chunk_failures);
                    if let Some(t) = tracer.as_deref_mut() {
                        if let Some(f) = fold_span {
                            t.end(f);
                        }
                        if let Some(c) = chunk {
                            t.end(c);
                        }
                    }
                }
                black_box(waste);
                if let (Some(t), Some(c)) = (tracer.as_deref_mut(), cell_span) {
                    t.end(c);
                }
                out.push(CellRecord {
                    cfg,
                    mtbf: MtbfSpec::Individual {
                        mtbf: SimTime::seconds(cfg.mtbf * cfg.params.nodes as f64),
                        nodes: cfg.usable_nodes(),
                    },
                    master: mc.seed,
                    t_base,
                    reps,
                });
            }
        }
    }
    if let (Some(t), Some(p)) = (tracer, pass) {
        t.end(p);
    }
    Ok(out)
}

/// The traced copy of a sweep workload: the same grid at a fixed,
/// reduced budget. It times the engine with tracing off (checking its
/// passes as a measured run does), re-runs the grid through the traced
/// boxed path, replays the recorded inputs through each per-failure
/// layer, and attributes the engine's time to the layers. `first` adds
/// the counts of one measured-shape pass.
///
/// # Errors
/// A sweep or replication that returns an error.
pub fn trace(platform: Platform, opts: &Opts, first: bool) -> Result<Run, String> {
    let specs = specs(platform, opts.seed, traced_shape(platform, opts.quick));
    let mut run = Run::default();

    if first {
        // Pool and build counts belong to the real workload, so they are
        // read from one measured-shape pass with the counters on.
        let full = self::specs(platform, opts.seed, measured_shape(platform, opts.quick));
        let (_, snap) = observed(|| run_all(&full))?;
        let units = snap.counter("sweep.units");
        run.set("sweep.rounds", snap.counter("sweep.rounds") as f64);
        run.set("sweep.units", units as f64);
        run.set("par.pool_spawns", snap.counter("par.pool_spawns") as f64);
        run.set(
            "sim.builds_per_rep",
            units as f64 / snap.counter("sweep.replications").max(1) as f64,
        );
    }

    let mut e2e = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..3 {
        let (s, r) = timed(|| run_all(&specs));
        e2e.push(s);
        passes.push(r?);
    }
    let t_e2e = median(&e2e);
    (run.attempted, run.failed) = verify(platform, &specs, &passes);
    let (_, snap) = observed(|| run_all(&specs))?;
    let units = snap.counter("sweep.units") as f64;
    let spawns = snap.counter("par.pool_spawns") as f64;

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut recorded = None;
    for _ in 0..2 {
        let (s, r) = timed(|| boxed_pass(&specs, None));
        r?;
        plain.push(s);
        let mut tracer = Tracer::new(Instant::now());
        let (s, r) = timed(|| boxed_pass(&specs, Some(&mut tracer)));
        traced.push(s);
        if recorded.is_none() {
            recorded = Some((r?, tracer.into_spans()));
        }
    }
    let (records, spans) = recorded.ok_or("traced pass never ran")?;

    let touch = match platform {
        Platform::Base => Touch::Warm,
        Platform::Exa => Touch::FreshEvery(8),
    };
    let costs = simlayers::replay(&records, touch)?;
    let counts = simlayers::counts(&records);
    let (unit_us, spawn_us) = simlayers::par_costs(WORKERS)?;
    let run_us = trace::mean_us(&spans, "replication").ok_or("no replication spans")?;

    run.set("simcore.rng.stream_ns", costs.stream_ns);
    run.set("simcore.rng.fill_ns_per_gap", costs.fill_ns);
    run.set("failures.next_failure_ns", costs.next_failure_ns);
    run.set("protocols.schedule_ns", costs.schedule_ns);
    run.set("protocols.outage_ns", costs.outage_ns);
    run.set("simcore.stats.push_ns", costs.push_ns);
    run.set("sim.run_us_per_rep", run_us);
    run.set("simcore.par.unit_overhead_us", unit_us);
    run.set("simcore.par.spawn_us", spawn_us);
    match platform {
        Platform::Base => {
            run.set("protocols.risk_record_ns.base", costs.risk_ns);
            run.set("sim.build_us.base", costs.build_us);
        }
        Platform::Exa => {
            run.set("protocols.risk_record_ns.exa_cold", costs.risk_ns);
            run.set("sim.build_us.exa", costs.build_us);
        }
    }
    run.set(
        "failures.events_per_rep",
        counts.events as f64 / counts.reps.max(1) as f64,
    );
    run.set(
        "attr.replication_covered_share",
        simlayers::covered_share(&costs, &counts, run_us),
    );
    run.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );

    // Thread-time attribution of the engine's run: every layer's unit
    // cost times its count, against wall time × workers. Whatever the
    // layers miss (the drive loop's own arithmetic, idle pool tails, the
    // monomorphised path being faster than the boxed one) is left over.
    let explained_ns = units * (costs.build_us + unit_us) * 1e3
        + counts.events as f64 * costs.next_failure_ns
        + counts.failures as f64 * (costs.outage_ns + costs.risk_ns)
        + counts.reps as f64 * (costs.stream_ns + 2.0 * costs.schedule_ns)
        + counts.completed as f64 * 2.0 * costs.push_ns
        + spawns * spawn_us * 1e3 * WORKERS as f64;
    let e2e_ns = t_e2e * 1e9 * WORKERS as f64;
    run.set("attr.unexplained_share", 1.0 - explained_ns / e2e_ns);

    if first {
        run.notes.push(format!(
            "traced copy: {} cells x {} replications; engine {:.1} ms on {WORKERS} workers; \
             traced path is the public boxed run_to_completion over replication_source \
             (one RunConfig build per replication), not the engine's monomorphised ChunkRunner",
            records.len(),
            specs[0].replications,
            t_e2e * 1e3,
        ));
        run.notes.extend(self_time_notes(&spans));
        run.spans = spans;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pass(platform: Platform) -> (Vec<SweepSpec>, Vec<SweepResult>) {
        let specs = specs(platform, 7, measured_shape(platform, true));
        let results = run_all(&specs).unwrap();
        (specs, results)
    }

    #[test]
    fn identical_passes_verify_clean() {
        let (specs, pass) = quick_pass(Platform::Base);
        let (cells, failed) = verify(Platform::Base, &specs, &[pass.clone(), pass]);
        assert_eq!((cells, failed), (99, 0));
    }

    #[test]
    fn one_flipped_cell_bit_is_caught() {
        let (specs, pass) = quick_pass(Platform::Exa);
        let mut flipped = pass.clone();
        let cell = &mut flipped[1].cells[2];
        let w = cell.sim_waste.expect("exa cells complete");
        cell.sim_waste = Some(f64::from_bits(w.to_bits() ^ 1));
        let (cells, failed) = verify(Platform::Exa, &specs, &[pass, flipped]);
        assert_eq!((cells, failed), (18, 1));
    }

    #[test]
    fn a_cell_run_sweep_cell_disagrees_with_is_caught() {
        let (specs, mut pass) = quick_pass(Platform::Exa);
        // Corrupt the cheapest cell (ties go to the first) of the first
        // row of the first spec in the only pass: run_sweep_cell cannot
        // reproduce it, and no other check looks at this field.
        let w = pass[0].cells[0].model_waste;
        pass[0].cells[0].model_waste = f64::from_bits(w.to_bits() ^ 1);
        let (_, failed) = verify(Platform::Exa, &specs, &[pass]);
        assert_eq!(failed, 1);
    }

    #[test]
    fn traced_copy_checks_the_engine_and_measures_the_layers() {
        let opts = Opts {
            seed: 3,
            seconds: 0.0,
            quick: true,
        };
        let run = trace(Platform::Base, &opts, false).unwrap();
        assert_eq!((run.attempted, run.failed), (99, 0));
        assert!(run.values["sim.run_us_per_rep"] > 0.0);
        assert!(run.values["failures.events_per_rep"] > 1.0);
    }
}
