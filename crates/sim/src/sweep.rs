//! Parameter sweeps: simulated waste over a `(φ/R, MTBF)` grid.
//!
//! The experiments crate draws the paper's figures from the analytical
//! model; this module is the simulation-side counterpart: take a grid
//! of operating points, estimate the waste at every cell by Monte
//! Carlo, and return a typed table of confidence intervals ready for
//! CSV/plotting — the raw material for a *simulated* Figure 4/7.
//!
//! # Execution
//!
//! `run_pool` is the crate's one Monte-Carlo waste engine: the grid,
//! [`run_sweep_cell`] and [`estimate_waste`](crate::estimate_waste) all
//! hand it per-cell plans and a round budget. Each round numbers every
//! `(cell, replication-unit)` pair in one index space for a single
//! work-stealing pool, so a round starts its workers once and a slow
//! cell's tail overlaps other cells' work. The caller's thread is one
//! of the workers, so `w` workers spawn `w − 1` threads per round and
//! one worker spawns none. A unit is a run of up to
//! `UNIT_CHUNKS` chunks sharing one runner build. Each unit's chunks
//! merge into its cell as it lands, so a round holds only the
//! out-of-order tail of units.
//!
//! # Reproducibility
//!
//! Replication `i` of a cell derives its RNG stream from `(cell seed,
//! i)` only. Outcomes fold into per-chunk accumulators of
//! [`REP_CHUNK`](crate::montecarlo) consecutive replications, and
//! chunk accumulators merge one by one in ascending chunk order, never
//! pre-merged within a unit — so every worker count and every unit size
//! yields the same bits, and [`run_sweep_cell`] reproduces any one cell
//! in isolation.
//!
//! # Early stopping
//!
//! With [`SweepSpec::early_stop`] set, replications run in rounds of
//! [`EarlyStop::batch`]; after each round a cell whose 95% CI
//! half-width has dropped to the target stops consuming budget. The
//! schedule is deterministic: stop decisions depend only on the
//! (worker-independent) accumulated statistics at fixed round
//! boundaries, never on thread timing.
//!
//! # Checkpoint/resume
//!
//! The pool's entire between-rounds state is the per-cell accumulators
//! plus the `next[]`/`active[]` vectors, so [`run_sweep_with_checkpoint`]
//! can snapshot it at round boundaries (see [`crate::checkpoint`]) and
//! a killed sweep resumes bit-identically from the newest valid
//! snapshot. Worker panics are contained per unit by `simcore::par`;
//! one that persists past its retry checkpoints the last consistent
//! state and surfaces as [`ModelError::Execution`] instead of aborting
//! the process.

use crate::checkpoint::{self, PoolState};
use crate::config::{PeriodChoice, RunConfig};
use crate::montecarlo::{
    ChunkOutcomes, ChunkRunner, MonteCarloConfig, SourceKind, WasteAccum, REP_CHUNK, UNIT_CHUNKS,
    UNIT_REPS,
};
use dck_core::{optimal_period, ModelError, PlatformParams, Protocol};
use dck_obs::Counter;
use dck_simcore::par::{default_workers, parallel_for_ordered};
use dck_simcore::ConfidenceInterval;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Per-cell adaptive early stopping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStop {
    /// Stop refining a cell once its 95% CI half-width on the mean
    /// waste is at or below this.
    pub target_half_width: f64,
    /// Replications every cell must run before stopping is considered
    /// (the deterministic minimum batch).
    pub min_replications: usize,
    /// Round granularity: convergence is re-checked every `batch`
    /// replications (rounded up to a multiple of the chunk size).
    pub batch: usize,
}

impl EarlyStop {
    /// Early stopping at the given half-width target with default
    /// minimum (16) and batch (32).
    pub fn at_half_width(target_half_width: f64) -> Self {
        EarlyStop {
            target_half_width,
            min_replications: 16,
            batch: 32,
        }
    }
}

/// Specification of a waste sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Protocol to sweep.
    pub protocol: Protocol,
    /// Platform parameters.
    pub params: PlatformParams,
    /// Overhead ratios `φ/R` to sample; each must lie in `[0, 1]`.
    pub phi_ratios: Vec<f64>,
    /// Platform MTBFs (seconds) to sample.
    pub mtbfs: Vec<f64>,
    /// Useful work per run, in multiples of the cell's MTBF.
    pub work_in_mtbfs: f64,
    /// Replication budget per cell (early stopping may use less).
    pub replications: usize,
    /// Master seed (each cell derives an independent stream space).
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// Failure process.
    pub source: SourceKind,
    /// Optional per-cell adaptive early stopping.
    pub early_stop: Option<EarlyStop>,
}

impl SweepSpec {
    /// A sweep with sensible defaults over the given grid.
    pub fn new(
        protocol: Protocol,
        params: PlatformParams,
        phi_ratios: Vec<f64>,
        mtbfs: Vec<f64>,
    ) -> Self {
        SweepSpec {
            protocol,
            params,
            phi_ratios,
            mtbfs,
            work_in_mtbfs: 20.0,
            replications: 60,
            seed: 0x5EE9,
            workers: 0,
            source: SourceKind::Exponential,
            early_stop: None,
        }
    }

    /// The pool's rounds: the whole budget in one round without early
    /// stopping, else the batch rounded up to a chunk multiple so chunk
    /// boundaries stay aligned across configurations.
    fn rounds(&self) -> RoundBudget {
        RoundBudget {
            budget: self.replications,
            round: match self.early_stop {
                None => self.replications.max(1),
                Some(es) => es.batch.max(1).div_ceil(REP_CHUNK) * REP_CHUNK,
            },
            early_stop: self.early_stop,
            workers: self.workers,
        }
    }
}

/// One evaluated sweep cell.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepCell {
    /// Overhead ratio `φ/R`.
    pub phi_ratio: f64,
    /// Platform MTBF (seconds).
    pub mtbf: f64,
    /// The (model-optimal) period used.
    pub period: f64,
    /// Model waste at that period (for overlay).
    pub model_waste: f64,
    /// Simulated mean waste over completed replications, or `None`
    /// when no replication completed (degenerate cell).
    pub sim_waste: Option<f64>,
    /// 95% half-width of the simulated mean (`None` when degenerate).
    pub half_width: Option<f64>,
    /// Replications that completed their work.
    pub completed: usize,
    /// Replications ended by fatal failure.
    pub fatal: usize,
    /// Replications stopped by the failure cap or no-progress guard.
    pub truncated: usize,
    /// Replications actually executed (< budget under early stopping).
    pub replications_run: usize,
}

/// The sweep result: cells in row-major order (MTBF outer, φ inner).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// The spec that produced it.
    pub spec: SweepSpec,
    /// Evaluated cells.
    pub cells: Vec<SweepCell>,
}

impl SweepResult {
    /// Largest |model − sim| over cells with a meaningful estimate
    /// (≥ 80 % of executed replications completed).
    pub fn max_model_deviation(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.completed * 5 >= c.replications_run * 4)
            .filter_map(|c| c.sim_waste.map(|s| (c.model_waste - s).abs()))
            .fold(0.0, f64::max)
    }

    /// Total replications executed across the grid (shows the budget
    /// early stopping saved).
    pub fn total_replications_run(&self) -> usize {
        self.cells.iter().map(|c| c.replications_run).sum()
    }
}

/// What a finished cell reports besides its Monte-Carlo estimate.
struct CellPlan {
    phi_ratio: f64,
    mtbf: f64,
    period: f64,
    model_waste: f64,
}

/// Validates the grid-level invariants shared by every entry point:
/// platform parameters, the work size and the φ/R ratio range.
fn validate_grid(spec: &SweepSpec) -> Result<(), ModelError> {
    spec.params.validate()?;
    // NaN fails the comparison, so it is rejected too.
    if !(spec.work_in_mtbfs.is_finite() && spec.work_in_mtbfs > 0.0) {
        return Err(ModelError::invalid(
            "work_in_mtbfs",
            format!(
                "work per run must be a positive finite number of MTBFs, got {}",
                spec.work_in_mtbfs
            ),
        ));
    }
    for &ratio in &spec.phi_ratios {
        // NaN fails the containment test, so it is rejected too.
        if !(0.0..=1.0).contains(&ratio) {
            return Err(ModelError::InvalidParameter {
                name: "phi_ratio",
                reason: format!("overhead ratio φ/R must lie in [0, 1], got {ratio}"),
            });
        }
    }
    Ok(())
}

/// Resolves one `(mtbf_idx, phi_idx)` grid coordinate into a runnable
/// plan. The cell seed depends only on the master seed and the
/// coordinates, never on the rest of the grid — the property that lets
/// a single cell be recomputed in isolation bit-identically.
fn build_plan(spec: &SweepSpec, mi: usize, pi: usize) -> Result<(CellPlan, WastePlan), ModelError> {
    let mtbf = spec.mtbfs[mi];
    let ratio = spec.phi_ratios[pi];
    let phi = ratio * spec.params.theta_min;
    let opt = optimal_period(spec.protocol, &spec.params, phi, mtbf)?;
    let mut run_cfg = RunConfig::new(spec.protocol, spec.params, phi, mtbf);
    run_cfg.period = PeriodChoice::Explicit(opt.period);
    let mc = MonteCarloConfig {
        replications: spec.replications,
        // Independent stream space per cell.
        seed: spec
            .seed
            .wrapping_add((mi as u64) << 32)
            .wrapping_add(pi as u64),
        workers: spec.workers,
        source: spec.source,
    };
    ChunkRunner::new(&run_cfg, &mc, None)?;
    let cell = CellPlan {
        phi_ratio: ratio,
        mtbf,
        period: opt.period,
        model_waste: opt.waste.total,
    };
    let work = WastePlan {
        run_cfg,
        mc,
        t_base: spec.work_in_mtbfs * mtbf,
    };
    Ok((cell, work))
}

fn build_plans(spec: &SweepSpec) -> Result<(Vec<CellPlan>, Vec<WastePlan>), ModelError> {
    validate_grid(spec)?;
    let mut plans = Vec::with_capacity(spec.mtbfs.len() * spec.phi_ratios.len());
    for mi in 0..spec.mtbfs.len() {
        for pi in 0..spec.phi_ratios.len() {
            plans.push(build_plan(spec, mi, pi)?);
        }
    }
    Ok(plans.into_iter().unzip())
}

/// Fault injection: the matching `(cell, replication)` panics inside
/// the worker pool, exercising the containment/retry/checkpoint-on-
/// error path end to end. With `once` it panics only on the first
/// execution, so the retry in place succeeds. Unit tests pass one to
/// [`run_sweep_injected`] directly; the kill-and-resume e2e drives the
/// binary with `DCK_SWEEP_PANIC_UNIT="ci:rep[:once]"` in the
/// environment, parsed once per sweep (absent, the normal case, it
/// costs one env lookup per sweep).
pub(crate) struct PanicInjection {
    cell: usize,
    rep: usize,
    once: bool,
    fired: AtomicBool,
}

impl PanicInjection {
    fn from_env() -> Option<PanicInjection> {
        let v = std::env::var("DCK_SWEEP_PANIC_UNIT").ok()?;
        let mut parts = v.split(':');
        let cell = parts.next()?.parse().ok()?;
        let rep = parts.next()?.parse().ok()?;
        let once = parts.next() == Some("once");
        Some(PanicInjection {
            cell,
            rep,
            once,
            fired: AtomicBool::new(false),
        })
    }

    fn trip(&self, ci: usize, rep: usize) {
        if ci != self.cell || rep != self.rep {
            return;
        }
        if self.once && self.fired.swap(true, Ordering::Relaxed) {
            return;
        }
        panic!("injected sweep panic at cell {ci} replication {rep} (DCK_SWEEP_PANIC_UNIT)");
    }
}

/// One pool unit's chunk accumulators, in ascending chunk order; only
/// the first `len` are filled.
#[derive(Default)]
struct UnitAccums {
    chunks: [WasteAccum; UNIT_CHUNKS],
    len: usize,
}

/// Runs replications `[start, end)` of plan `ci` — the pool's work
/// unit. Builds one [`ChunkRunner`] for the whole range (amortizing the
/// config build) and folds each `REP_CHUNK`-aligned chunk into its own
/// accumulator. A chunk's outcomes are staged in structure-of-arrays
/// form and folded in replication order, so each accumulator is
/// bit-identical to the old per-replication absorb loop.
fn unit_accums(
    plan: &WastePlan,
    ci: usize,
    start: usize,
    end: usize,
    injection: Option<&PanicInjection>,
) -> UnitAccums {
    let mut runner = ChunkRunner::new(&plan.run_cfg, &plan.mc, None)
        .expect("validated configuration cannot fail");
    let mut unit = UnitAccums::default();
    for (acc, s) in unit.chunks.iter_mut().zip((start..end).step_by(REP_CHUNK)) {
        let mut staged = ChunkOutcomes::default();
        for i in s..(s + REP_CHUNK).min(end) {
            if let Some(inj) = injection {
                inj.trip(ci, i);
            }
            staged.record(&runner.run_waste(plan.t_base, i as u64));
        }
        staged.fold_into(acc);
        unit.len += 1;
    }
    unit
}

/// Deterministic convergence test for early stopping: depends only on
/// the accumulated statistics, which are worker-independent.
fn cell_converged(acc: &WasteAccum, es: &EarlyStop, executed: usize) -> bool {
    if executed < es.min_replications || acc.completed < 2 {
        return false;
    }
    ConfidenceInterval::from_stats(&acc.waste, 0.95).half_width <= es.target_half_width
}

fn finish_cell(plan: &CellPlan, acc: WasteAccum, executed: usize) -> SweepCell {
    let est = acc.into_estimate();
    SweepCell {
        phi_ratio: plan.phi_ratio,
        mtbf: plan.mtbf,
        period: plan.period,
        model_waste: plan.model_waste,
        sim_waste: est.ci95.map(|ci| ci.mean),
        half_width: est.ci95.map(|ci| ci.half_width),
        completed: est.completed,
        fatal: est.fatal,
        truncated: est.truncated,
        replications_run: executed,
    }
}

/// One active plan's share of a round: replications `[start, end)` of
/// plan `ci`, cut into `UNIT_REPS`-aligned units numbered from
/// `first_unit` in the round's unit space.
struct Span {
    ci: usize,
    start: usize,
    end: usize,
    first_unit: usize,
}

/// Sweep-progress counter handles, looked up once per sweep when
/// observability is on so the round loop bumps `Arc<Counter>`s instead
/// of re-resolving names. `None` when disabled — the pool then does no
/// metric work at all. Counters never influence scheduling or float
/// order, so results stay bit-identical either way.
pub(crate) struct SweepCounters {
    rounds: Arc<Counter>,
    units: Arc<Counter>,
    replications: Arc<Counter>,
    early_stopped: Arc<Counter>,
    checkpoints: Arc<Counter>,
    resumes: Arc<Counter>,
    rounds_restored: Arc<Counter>,
}

impl SweepCounters {
    fn capture() -> Option<Self> {
        dck_obs::enabled().then(|| SweepCounters {
            rounds: dck_obs::counter("sweep.rounds"),
            units: dck_obs::counter("sweep.units"),
            replications: dck_obs::counter("sweep.replications"),
            early_stopped: dck_obs::counter("sweep.cells_early_stopped"),
            checkpoints: dck_obs::counter("sweep.checkpoints_written"),
            resumes: dck_obs::counter("sweep.resumes"),
            rounds_restored: dck_obs::counter("sweep.rounds_restored"),
        })
    }
}

/// One cell's Monte-Carlo work: everything a pool worker needs to run
/// one of its replications, resolved before any thread spawns.
#[derive(Debug)]
pub(crate) struct WastePlan {
    pub(crate) run_cfg: RunConfig,
    pub(crate) mc: MonteCarloConfig,
    /// Useful work per replication (seconds).
    pub(crate) t_base: f64,
}

/// How [`run_pool`] spends every plan's replication budget.
#[derive(Debug)]
pub(crate) struct RoundBudget {
    /// Replications per plan.
    pub(crate) budget: usize,
    /// Replications per plan per round; a [`REP_CHUNK`] multiple
    /// whenever another round can follow, so chunks stay aligned.
    pub(crate) round: usize,
    /// Retires a plan at a round boundary once its estimate converged.
    pub(crate) early_stop: Option<EarlyStop>,
    /// Worker threads (0 = auto); 1 runs every round inline on the
    /// caller's thread.
    pub(crate) workers: usize,
}

/// The crate's one Monte-Carlo waste engine: returns each plan's
/// accumulator and the replications it ran. Each round numbers every
/// active plan's next `round` replications as `UNIT_REPS`-aligned
/// units, runs them on one work-stealing pool, and merges each unit's
/// chunk accumulators, one by one in ascending chunk order, into a
/// working copy of its plan's accumulator, committed when the round
/// completes. Chunk boundaries fall every `REP_CHUNK` replications from
/// the round's start whatever the unit size, so the merge sequence, and
/// with it every bit, does not depend on `UNIT_CHUNKS`. A plan's bits
/// depend neither on the worker count nor on the other plans. `ckpt` (a policy and the
/// spec fingerprint its snapshots carry) and `counters` are the grid's:
/// only [`run_sweep`] passes them.
pub(crate) fn run_pool(
    plans: &[WastePlan],
    rounds: RoundBudget,
    ckpt: Option<(&SweepCheckpoint, u64)>,
    counters: Option<&SweepCounters>,
    injection: Option<&PanicInjection>,
) -> Result<Vec<(WasteAccum, usize)>, ModelError> {
    let RoundBudget {
        budget,
        round,
        early_stop,
        workers,
    } = rounds;
    let workers = if workers == 0 {
        default_workers(0)
    } else {
        workers
    };
    let (ckpt, fingerprint) = ckpt.map_or((None, 0), |(ck, fp)| (Some(ck), fp));
    let retention = match ckpt {
        Some(ck) => checkpoint::RetentionPolicy::keep(ck.keep_snapshots)?,
        None => checkpoint::RetentionPolicy::default(),
    };
    // The snapshot cadence actually in force: starts from the request
    // and, on resume, defers to the cadence the snapshot records
    // unless the caller explicitly asked for a different one (a typed
    // error — silently rebasing the schedule mid-run was a bug).
    let mut every_rounds = ckpt.map_or(1, |ck| ck.every_rounds.max(1));
    let mut state = PoolState::fresh(plans.len(), budget);
    if let Some(ck) = ckpt.filter(|ck| ck.resume) {
        if let Some(restored) = checkpoint::load_latest(&ck.dir, fingerprint)? {
            if restored.state.accs.len() != plans.len() {
                return Err(ModelError::execution(format!(
                    "snapshot tracks {} cells but this spec builds {}",
                    restored.state.accs.len(),
                    plans.len()
                )));
            }
            let recorded = restored.checkpoint_every.max(1);
            if recorded != every_rounds {
                if ck.every_explicit {
                    return Err(ModelError::invalid(
                        "checkpoint_every",
                        format!(
                            "snapshot records a cadence of {recorded} round(s) per snapshot \
                             but --checkpoint-every {} was requested; drop the flag to honor \
                             the recorded cadence, or start a fresh sweep to change it",
                            ck.every_rounds
                        ),
                    ));
                }
                every_rounds = recorded;
            }
            if let Some(c) = counters {
                c.resumes.incr();
                c.rounds_restored.add(restored.state.rounds_done);
            }
            state = restored.state;
        }
    }
    let mut last_written: Option<u64> = None;

    loop {
        // This round's active plans, cell-major: unit order is cell-major
        // and chunk-ascending, so merging units as they land reproduces
        // each cell's fixed fold order. Built purely from (next, active,
        // budget, round) — the state a snapshot captures — so a resumed
        // run schedules exactly the rounds an uninterrupted run would.
        let mut spans: Vec<Span> = Vec::new();
        let mut units = 0;
        for ci in (0..plans.len()).filter(|&ci| state.active[ci] && state.next[ci] < budget) {
            let (start, end) = (state.next[ci], (state.next[ci] + round).min(budget));
            spans.push(Span {
                ci,
                start,
                end,
                first_unit: units,
            });
            units += (end - start).div_ceil(UNIT_REPS);
        }
        if units == 0 {
            break;
        }
        if let Some(ck) = ckpt {
            if ck.max_rounds.is_some_and(|max| state.rounds_done >= max) {
                // Deterministic pause: snapshot and surface a typed
                // error while work remains. Used by the resume tests
                // to interrupt at exact round boundaries.
                let path = checkpoint::write_snapshot(
                    &ck.dir,
                    &state,
                    fingerprint,
                    every_rounds,
                    &retention,
                )
                .map_err(|e| ModelError::execution(format!("cannot write pause snapshot: {e}")))?;
                if let Some(c) = counters {
                    c.checkpoints.incr();
                }
                return Err(ModelError::execution(format!(
                    "sweep paused after {} rounds with work remaining; snapshot {} — rerun with --resume to continue",
                    state.rounds_done,
                    path.display()
                )));
            }
        }
        if let Some(c) = counters {
            c.rounds.incr();
            c.units.add(units as u64);
            c.replications
                .add(spans.iter().map(|sp| (sp.end - sp.start) as u64).sum());
        }
        // One pool over every unit of every cell: the round starts its
        // workers once (the caller's thread plus `workers - 1` spawned
        // ones), and work-stealing overlaps slow cells with fast ones.
        let mut merged: Vec<WasteAccum> =
            spans.iter().map(|sp| state.accs[sp.ci].clone()).collect();
        let pool_result = parallel_for_ordered(
            units,
            workers,
            |u| {
                // Unit to (plan, replication range) by arithmetic.
                let k = spans.partition_point(|sp| sp.first_unit <= u) - 1;
                let sp = &spans[k];
                let s = sp.start + (u - sp.first_unit) * UNIT_REPS;
                let e = (s + UNIT_REPS).min(sp.end);
                (k, unit_accums(&plans[sp.ci], sp.ci, s, e, injection))
            },
            |_, (k, unit)| {
                for acc in unit.chunks.iter().take(unit.len) {
                    merged[k].merge_in_place(acc);
                }
            },
        );
        if let Err(pool_err) = pool_result {
            // Checkpoint the last consistent (pre-round) state before
            // surfacing the failure: the budget already spent survives,
            // and a later --resume re-runs only the failed round.
            let mut reason = format!("sweep round {} failed: {pool_err}", state.rounds_done + 1);
            match ckpt.map(|ck| {
                checkpoint::write_snapshot(&ck.dir, &state, fingerprint, every_rounds, &retention)
            }) {
                Some(Ok(path)) => {
                    if let Some(c) = counters {
                        c.checkpoints.incr();
                    }
                    reason.push_str(&format!("; state checkpointed to {}", path.display()));
                }
                Some(Err(e)) => {
                    reason.push_str(&format!(
                        "; checkpointing the partial state also failed: {e}"
                    ));
                }
                None => {}
            }
            return Err(ModelError::execution(reason));
        }
        for (sp, acc) in spans.iter().zip(merged) {
            state.accs[sp.ci] = acc;
            state.next[sp.ci] = sp.end;
        }
        for ci in 0..plans.len() {
            if !state.active[ci] {
                continue;
            }
            if state.next[ci] >= budget {
                state.active[ci] = false;
            } else if let Some(es) = early_stop {
                if cell_converged(&state.accs[ci], &es, state.next[ci]) {
                    state.active[ci] = false;
                    if let Some(c) = counters {
                        c.early_stopped.incr();
                    }
                }
            }
        }
        state.rounds_done += 1;
        if let Some(ck) = ckpt {
            if state.rounds_done.is_multiple_of(every_rounds) {
                checkpoint::write_snapshot(&ck.dir, &state, fingerprint, every_rounds, &retention)
                    .map_err(|e| {
                        ModelError::execution(format!("cannot write sweep snapshot: {e}"))
                    })?;
                last_written = Some(state.rounds_done);
                if let Some(c) = counters {
                    c.checkpoints.incr();
                }
            }
        }
    }

    // Terminal snapshot (unless the cadence just wrote one): resuming
    // a finished sweep then reloads the complete state and exits the
    // round loop immediately.
    if let Some(ck) = ckpt {
        if last_written != Some(state.rounds_done) {
            checkpoint::write_snapshot(&ck.dir, &state, fingerprint, every_rounds, &retention)
                .map_err(|e| {
                    ModelError::execution(format!("cannot write final sweep snapshot: {e}"))
                })?;
            if let Some(c) = counters {
                c.checkpoints.incr();
            }
        }
    }

    Ok(state.accs.into_iter().zip(state.next).collect())
}

/// Checkpoint/resume policy for a sweep. The pool's complete
/// between-rounds state (per-cell accumulators, cursors, active flags)
/// is snapshotted into `dir`, and a resumed run continues from the
/// newest valid snapshot with results **bit-identical** to an
/// uninterrupted run — see [`crate::checkpoint`] for the format and
/// the determinism argument.
#[derive(Debug, Clone)]
pub struct SweepCheckpoint {
    /// Directory holding snapshot generations (created on first write;
    /// the newest `keep_snapshots` valid generations are kept,
    /// buddy-style — see [`crate::checkpoint::RetentionPolicy`]).
    pub dir: PathBuf,
    /// Snapshot cadence in rounds; 0 behaves as 1 (every round).
    pub every_rounds: u64,
    /// Whether `every_rounds` was set explicitly by the caller. On
    /// resume, a snapshot records the cadence the interrupted run was
    /// on: an *explicit* mismatching request is a typed error naming
    /// both values, while a defaulted `every_rounds` silently honors
    /// the recorded cadence instead of rebasing it mid-run.
    pub every_explicit: bool,
    /// Snapshot generations to retain (`2..=MAX_SNAPSHOT_KEEP`); the
    /// slots past the newest pair keep a well-spaced rewind history.
    pub keep_snapshots: usize,
    /// Load the newest valid snapshot in `dir` before running (fresh
    /// start when none exists; hard error when a valid snapshot
    /// belongs to a different spec).
    pub resume: bool,
    /// Pause — snapshot plus a typed [`ModelError::Execution`] — once
    /// this many rounds are done while work remains. Deterministic
    /// mid-sweep interruption for tests and budgeted execution.
    pub max_rounds: Option<u64>,
}

impl SweepCheckpoint {
    /// Checkpoints into `dir` after every round; no resume, no pause,
    /// double-checkpoint retention.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SweepCheckpoint {
            dir: dir.into(),
            every_rounds: 1,
            every_explicit: false,
            keep_snapshots: checkpoint::DEFAULT_SNAPSHOT_KEEP,
            resume: false,
            max_rounds: None,
        }
    }
}

/// Runs the sweep. Cells where no replication completes are reported
/// with `sim_waste: None`.
///
/// # Errors
/// Rejects invalid platform parameters, a `work_in_mtbfs` that is not
/// positive and finite, and out-of-range `phi_ratios` (each must lie
/// in `[0, 1]`); propagates infeasible operating
/// points. A worker panic that survives containment and its in-place
/// retry surfaces as [`ModelError::Execution`] instead of aborting the
/// process.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResult, ModelError> {
    run_sweep_with_checkpoint(spec, None)
}

/// [`run_sweep`] with an optional checkpoint/resume policy.
///
/// # Errors
/// Everything [`run_sweep`] rejects, plus: snapshot I/O failures,
/// resuming a snapshot from a different spec, and the deliberate pause when
/// [`SweepCheckpoint::max_rounds`] is hit with work remaining.
pub fn run_sweep_with_checkpoint(
    spec: &SweepSpec,
    ckpt: Option<&SweepCheckpoint>,
) -> Result<SweepResult, ModelError> {
    run_sweep_injected(spec, ckpt, PanicInjection::from_env().as_ref())
}

/// [`run_sweep_with_checkpoint`] with an explicit fault injection.
fn run_sweep_injected(
    spec: &SweepSpec,
    ckpt: Option<&SweepCheckpoint>,
    injection: Option<&PanicInjection>,
) -> Result<SweepResult, ModelError> {
    let (cells, plans) = build_plans(spec)?;
    if dck_obs::enabled() {
        dck_obs::add("sweep.cells", plans.len() as u64);
    }
    let ckpt = ckpt.map(|ck| (ck, checkpoint::spec_fingerprint(spec)));
    let counters = SweepCounters::capture();
    let runs = run_pool(&plans, spec.rounds(), ckpt, counters.as_ref(), injection)?;
    Ok(SweepResult {
        spec: spec.clone(),
        cells: cells
            .iter()
            .zip(runs)
            .map(|(cell, (acc, executed))| finish_cell(cell, acc, executed))
            .collect(),
    })
}

/// Computes a single grid cell of `spec` — **bit-identical** to the
/// same cell of [`run_sweep`] over the full grid — without touching
/// any other cell.
///
/// The cell runs on the grid's own pool with one worker, inline on the
/// caller's thread, so a serving worker answers it without spawning
/// threads per request. Two properties make the isolation exact:
///
/// * the cell's RNG seed derives only from the master seed and the
///   `(mtbf_idx, phi_idx)` coordinates, never from the grid shape;
/// * the pool's merge order and early-stop decisions for a plan depend
///   only on that plan's own replications and round boundaries.
///
/// # Errors
/// Out-of-range coordinates, plus everything [`run_sweep`] rejects for
/// this cell's operating point (invalid parameters, infeasible period).
pub fn run_sweep_cell(
    spec: &SweepSpec,
    mtbf_idx: usize,
    phi_idx: usize,
) -> Result<SweepCell, ModelError> {
    validate_grid(spec)?;
    if mtbf_idx >= spec.mtbfs.len() {
        return Err(ModelError::InvalidParameter {
            name: "mtbf_idx",
            reason: format!("index {mtbf_idx} out of range ({} MTBFs)", spec.mtbfs.len()),
        });
    }
    if phi_idx >= spec.phi_ratios.len() {
        return Err(ModelError::InvalidParameter {
            name: "phi_idx",
            reason: format!(
                "index {phi_idx} out of range ({} phi ratios)",
                spec.phi_ratios.len()
            ),
        });
    }
    let (cell, plan) = build_plan(spec, mtbf_idx, phi_idx)?;
    let inline = RoundBudget {
        workers: 1,
        ..spec.rounds()
    };
    let (acc, executed) = run_pool(&[plan], inline, None, None, None)?
        .pop()
        .unwrap_or_default();
    Ok(finish_cell(&cell, acc, executed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap()
    }

    #[test]
    fn sweep_covers_grid_and_tracks_model() {
        let mut spec = SweepSpec::new(
            Protocol::DoubleNbl,
            params(),
            vec![0.0, 0.5, 1.0],
            vec![1_800.0, 7.0 * 3_600.0],
        );
        spec.replications = 30;
        spec.work_in_mtbfs = 15.0;
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.cells.len(), 6);
        for c in &result.cells {
            assert!(c.completed > 0, "cell {c:?}");
            assert_eq!(c.replications_run, 30);
            let sim = c.sim_waste.expect("completed cells have an estimate");
            assert!((0.0..=1.0).contains(&sim));
            // CI-aware model check: the simulated surface must track
            // the first-order model within its own statistical
            // resolution plus a small model-bias allowance. With the
            // fixed seed this is fully deterministic — the bound is
            // CI-scaled so reasonable engine changes stay green.
            if c.completed * 5 >= c.replications_run * 4 {
                let hw = c.half_width.expect("completed cells have a half-width");
                let tol = 3.0 * hw + 0.01;
                assert!(
                    (c.model_waste - sim).abs() <= tol,
                    "cell {c:?}: |model - sim| > {tol}"
                );
            }
        }
    }

    #[test]
    fn cells_use_independent_seeds() {
        let mut spec = SweepSpec::new(Protocol::Triple, params(), vec![0.25, 0.75], vec![3_600.0]);
        spec.replications = 10;
        spec.work_in_mtbfs = 10.0;
        let result = run_sweep(&spec).unwrap();
        // Different φ cells must not produce byte-identical estimates
        // (they would if seeds collided and waste were φ-independent —
        // a seed collision is the only way these could coincide).
        assert_ne!(result.cells[0].sim_waste, result.cells[1].sim_waste);
    }

    #[test]
    fn sweep_is_reproducible() {
        let mut spec = SweepSpec::new(Protocol::DoubleBof, params(), vec![0.5], vec![1_800.0]);
        spec.replications = 12;
        let a = run_sweep(&spec).unwrap();
        let b = run_sweep(&spec).unwrap();
        assert_eq!(a.cells[0].sim_waste, b.cells[0].sim_waste);
    }

    #[test]
    fn rejects_out_of_range_phi_ratio() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![0.5, bad], vec![3_600.0]);
            let err = run_sweep(&spec).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelError::InvalidParameter {
                        name: "phi_ratio",
                        ..
                    }
                ),
                "{bad} gave {err:?}"
            );
        }
    }

    /// Runs `entry` on specs whose work size is not a positive finite
    /// number of MTBFs; each must be a typed error naming the field,
    /// not a grid of 0 ± 0 cells or of all-fatal runs.
    fn assert_rejects_bad_work<T: std::fmt::Debug>(
        entry: impl Fn(&SweepSpec) -> Result<T, ModelError>,
    ) {
        for bad in [-5.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![0.5], vec![3_600.0]);
            spec.work_in_mtbfs = bad;
            let err = entry(&spec).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelError::InvalidParameter {
                        name: "work_in_mtbfs",
                        ..
                    }
                ),
                "{bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn sweep_rejects_non_positive_or_non_finite_work() {
        assert_rejects_bad_work(run_sweep);
    }

    #[test]
    fn single_cell_query_rejects_non_positive_or_non_finite_work() {
        assert_rejects_bad_work(|spec| run_sweep_cell(spec, 0, 0));
    }

    #[test]
    fn early_stopping_saves_budget_and_stays_deterministic() {
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![0.5], vec![3_600.0]);
        spec.replications = 200;
        spec.work_in_mtbfs = 10.0;
        // Loose target: a handful of rounds should converge.
        spec.early_stop = Some(EarlyStop {
            target_half_width: 0.05,
            min_replications: 16,
            batch: 16,
        });
        let a = run_sweep(&spec).unwrap();
        let cell = &a.cells[0];
        assert!(
            cell.replications_run >= 16 && cell.replications_run < 200,
            "expected early stop, ran {}",
            cell.replications_run
        );
        let hw = cell.half_width.expect("converged cell has an interval");
        assert!(hw <= 0.05, "half-width {hw}");
        // Deterministic across repeat runs.
        let b = run_sweep(&spec).unwrap();
        assert_eq!(cell.sim_waste, b.cells[0].sim_waste);
        assert_eq!(cell.replications_run, b.cells[0].replications_run);
    }

    fn ckpt_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dck-sweep-{name}-{}", std::process::id()));
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
    /// `replications / batch` rounds, giving the pause/resume tests
    /// real mid-sweep boundaries to interrupt at.
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
    fn resume_is_bit_identical_at_every_pause_point() {
        let spec = multi_round_spec();
        let baseline = run_sweep(&spec).unwrap();
        // 48 replications in rounds of 16 → 3 rounds; interrupt after
        // each boundary in turn and resume to completion.
        for pause_after in 1..=2u64 {
            let dir = ckpt_dir(&format!("pause{pause_after}"));
            let mut ck = SweepCheckpoint::new(&dir);
            ck.max_rounds = Some(pause_after);
            let err = run_sweep_with_checkpoint(&spec, Some(&ck)).unwrap_err();
            assert!(
                matches!(err, ModelError::Execution { .. }),
                "pause must be typed, got {err:?}"
            );
            assert!(err.to_string().contains("paused"), "{err}");
            let mut resume = SweepCheckpoint::new(&dir);
            resume.resume = true;
            let resumed = run_sweep_with_checkpoint(&spec, Some(&resume)).unwrap();
            assert_cells_bit_identical(&baseline, &resumed);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn resume_after_completion_reloads_terminal_snapshot() {
        let spec = multi_round_spec();
        let dir = ckpt_dir("terminal");
        let ck = SweepCheckpoint::new(&dir);
        let first = run_sweep_with_checkpoint(&spec, Some(&ck)).unwrap();
        let mut resume = SweepCheckpoint::new(&dir);
        resume.resume = true;
        let again = run_sweep_with_checkpoint(&spec, Some(&resume)).unwrap();
        assert_cells_bit_identical(&first, &again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_empty_dir_is_a_fresh_run() {
        let spec = multi_round_spec();
        let baseline = run_sweep(&spec).unwrap();
        let dir = ckpt_dir("fresh");
        let mut ck = SweepCheckpoint::new(&dir);
        ck.resume = true;
        let fresh = run_sweep_with_checkpoint(&spec, Some(&ck)).unwrap();
        assert_cells_bit_identical(&baseline, &fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resuming_a_different_spec_is_rejected() {
        let spec = multi_round_spec();
        let dir = ckpt_dir("wrongspec");
        let mut ck = SweepCheckpoint::new(&dir);
        ck.max_rounds = Some(1);
        let _ = run_sweep_with_checkpoint(&spec, Some(&ck)).unwrap_err();
        let mut other = spec.clone();
        other.seed ^= 0xBAD;
        let mut resume = SweepCheckpoint::new(&dir);
        resume.resume = true;
        let err = run_sweep_with_checkpoint(&other, Some(&resume)).unwrap_err();
        assert!(err.to_string().contains("different sweep spec"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_explicitly_changed_cadence_is_a_typed_error() {
        let spec = multi_round_spec();
        let dir = ckpt_dir("cadence-reject");
        let mut ck = SweepCheckpoint::new(&dir);
        ck.every_rounds = 1;
        ck.every_explicit = true;
        ck.max_rounds = Some(1);
        let _ = run_sweep_with_checkpoint(&spec, Some(&ck)).unwrap_err();
        let mut resume = SweepCheckpoint::new(&dir);
        resume.resume = true;
        resume.every_rounds = 2;
        resume.every_explicit = true;
        let err = run_sweep_with_checkpoint(&spec, Some(&resume)).unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::InvalidParameter {
                    name: "checkpoint_every",
                    ..
                }
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("cadence of 1") && msg.contains("--checkpoint-every 2"),
            "error must name both values: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn inject(cell: usize, rep: usize, once: bool) -> PanicInjection {
        PanicInjection {
            cell,
            rep,
            once,
            fired: AtomicBool::new(false),
        }
    }

    /// End-to-end containment: replication (3, 7) panics once inside
    /// the pool; the retry in place recovers it and the result is
    /// bit-identical to an injection-free run.
    #[test]
    fn contained_panic_preserves_bit_identical_results() {
        let spec = multi_round_spec();
        let baseline = run_sweep(&spec).unwrap();
        let injected = run_sweep_injected(&spec, None, Some(&inject(3, 7, true))).unwrap();
        assert_cells_bit_identical(&baseline, &injected);
    }

    /// A panic that persists past the retry in place must checkpoint
    /// the pre-round state and surface as a typed error — the
    /// contract worker-panic containment must keep.
    #[test]
    fn persistent_panic_checkpoints_then_errors() {
        let spec = multi_round_spec();
        let dir = ckpt_dir("panic");
        let ck = SweepCheckpoint::new(&dir);
        let outcome = run_sweep_injected(&spec, Some(&ck), Some(&inject(3, 32, false)));
        let err = outcome.unwrap_err();
        assert!(matches!(err, ModelError::Execution { .. }), "{err:?}");
        assert!(err.to_string().contains("injected sweep panic"), "{err}");
        assert!(err.to_string().contains("checkpointed"), "{err}");
        // Replication 32 lives in round 3 (reps 32..48), so the
        // snapshot holds rounds 1–2; resuming without the fault
        // completes bit-identically to an undisturbed run.
        let baseline = run_sweep(&spec).unwrap();
        let mut resume = SweepCheckpoint::new(&dir);
        resume.resume = true;
        let resumed = run_sweep_with_checkpoint(&spec, Some(&resume)).unwrap();
        assert_cells_bit_identical(&baseline, &resumed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_cells_are_marked() {
        // MTBF far below any feasible period: nothing completes.
        let p = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap();
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, p, vec![0.0], vec![40.0]);
        spec.replications = 4;
        spec.work_in_mtbfs = 500.0;
        match run_sweep(&spec) {
            Ok(result) => {
                let c = &result.cells[0];
                if c.completed == 0 {
                    assert!(c.sim_waste.is_none());
                    assert!(c.half_width.is_none());
                    assert_eq!(c.fatal + c.truncated, 4);
                }
            }
            // The operating point may already be infeasible for the
            // model — also an acceptable, explicit outcome.
            Err(ModelError::Infeasible { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    /// The serving contract: a cell computed in isolation is
    /// bit-identical to the same cell of the full grid, with and
    /// without early stopping.
    #[test]
    fn single_cell_query_matches_full_sweep_bit_exactly() {
        let mut spec = SweepSpec::new(
            Protocol::DoubleNbl,
            params(),
            vec![0.0, 0.5, 1.0],
            vec![1_800.0, 3_600.0],
        );
        spec.replications = 48;
        spec.work_in_mtbfs = 10.0;
        for early_stop in [
            None,
            Some(EarlyStop {
                target_half_width: 0.02,
                min_replications: 16,
                batch: 16,
            }),
        ] {
            spec.early_stop = early_stop;
            let full = run_sweep(&spec).unwrap();
            for (mi, _) in spec.mtbfs.iter().enumerate() {
                for (pi, _) in spec.phi_ratios.iter().enumerate() {
                    let ci = mi * spec.phi_ratios.len() + pi;
                    let grid = &full.cells[ci];
                    let solo = run_sweep_cell(&spec, mi, pi).unwrap();
                    assert_eq!(
                        solo.sim_waste.map(f64::to_bits),
                        grid.sim_waste.map(f64::to_bits),
                        "cell ({mi},{pi}) es={early_stop:?}"
                    );
                    assert_eq!(
                        solo.half_width.map(f64::to_bits),
                        grid.half_width.map(f64::to_bits),
                        "cell ({mi},{pi})"
                    );
                    assert_eq!(solo.period.to_bits(), grid.period.to_bits());
                    assert_eq!(solo.model_waste.to_bits(), grid.model_waste.to_bits());
                    assert_eq!(solo.completed, grid.completed);
                    assert_eq!(solo.fatal, grid.fatal);
                    assert_eq!(solo.truncated, grid.truncated);
                    assert_eq!(solo.replications_run, grid.replications_run);
                }
            }
        }
    }

    #[test]
    fn single_cell_query_rejects_bad_coordinates() {
        let spec = SweepSpec::new(Protocol::Triple, params(), vec![0.5], vec![3_600.0]);
        assert!(matches!(
            run_sweep_cell(&spec, 1, 0),
            Err(ModelError::InvalidParameter {
                name: "mtbf_idx",
                ..
            })
        ));
        assert!(matches!(
            run_sweep_cell(&spec, 0, 1),
            Err(ModelError::InvalidParameter {
                name: "phi_idx",
                ..
            })
        ));
    }

    /// Degenerate cells (no completed replication) must serialize with
    /// explicit `null`s — never `NaN` tokens or missing keys — and
    /// round-trip back to `None`.
    #[test]
    fn degenerate_cell_json_is_explicit_null_and_round_trips() {
        let spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![0.0], vec![40.0]);
        let result = SweepResult {
            spec,
            cells: vec![SweepCell {
                phi_ratio: 0.0,
                mtbf: 40.0,
                period: 50.0,
                model_waste: 0.9,
                sim_waste: None,
                half_width: None,
                completed: 0,
                fatal: 4,
                truncated: 0,
                replications_run: 4,
            }],
        };
        for json in [
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string_pretty(&result).unwrap(),
        ] {
            // Explicit nulls, present keys, no NaN/Infinity leakage.
            let normalized = json.replace(": ", ":");
            assert!(normalized.contains("\"sim_waste\":null"), "{json}");
            assert!(normalized.contains("\"half_width\":null"), "{json}");
            assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
            let back: SweepResult = serde_json::from_str(&json).unwrap();
            assert!(back.cells[0].sim_waste.is_none());
            assert!(back.cells[0].half_width.is_none());
            assert_eq!(back.cells[0].fatal, 4);
        }
    }
}
