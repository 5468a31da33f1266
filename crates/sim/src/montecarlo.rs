//! Parallel Monte-Carlo replication of protocol simulations.
//!
//! Replications are embarrassingly parallel and fully reproducible:
//! replication `i` derives its RNG stream from `(seed, i)` regardless
//! of which worker thread executes it, so results are bit-identical
//! across worker counts.

use crate::config::RunConfig;
use crate::run::{RunMachine, RunOutcome, Static, Stop, StopReason};
use crate::sweep::{run_pool, RoundBudget, WastePlan};
use dck_core::ModelError;
use dck_failures::{AggregatedExponential, DistributionSpec, MtbfSpec, PerNodeRenewal};
use dck_simcore::par::{default_workers, parallel_for_ordered};
use dck_simcore::stats::wilson_interval;
use dck_simcore::{ConfidenceInterval, OnlineStats, RngFactory, SimTime};
use serde::{Deserialize, Serialize};

/// Replications per work unit of the sweep pool in [`crate::sweep`],
/// the one engine every waste estimate runs on: it cuts a cell's
/// replication range into `REP_CHUNK`-sized chunks and merges their
/// accumulators in ascending order, so results are bit-identical across
/// entry points and worker counts. [`estimate_success`] counts
/// survivors over the same chunks.
pub(crate) const REP_CHUNK: usize = 8;

/// Which failure process drives the replications.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SourceKind {
    /// The paper's assumption: Exponential failures, simulated by the
    /// O(1)-per-event aggregated Poisson process.
    Exponential,
    /// Per-node renewal process with the given inter-arrival shape; the
    /// distribution's mean is re-targeted to the individual-node MTBF.
    /// Starts fresh at t = 0 (all nodes brand-new: infant-mortality
    /// shapes front-load failures).
    Renewal(DistributionSpec),
    /// Like [`SourceKind::Renewal`] but warmed up for ten individual
    /// MTBFs before t = 0, approximating the stationary regime.
    RenewalWarmed(DistributionSpec),
}

/// Largest platform a per-node renewal source may simulate.
/// [`PerNodeRenewal`] keeps one 24-byte queue entry per node for a
/// whole replication, so this bound (about 4× Exa's 10⁶ nodes) caps one
/// live source near 100 MB. Beyond it a spec could ask for more memory
/// than the host has, and a failed allocation aborts the process where
/// no worker can contain it.
pub(crate) const MAX_RENEWAL_NODES: u64 = 1 << 22;

/// Monte-Carlo harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of independent replications.
    pub replications: usize,
    /// Master seed; replication `i` uses stream `(seed, i)`.
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub workers: usize,
    /// Failure process.
    pub source: SourceKind,
}

impl MonteCarloConfig {
    /// A sensible default: `replications` runs, all cores, Exponential.
    pub fn new(replications: usize, seed: u64) -> Self {
        MonteCarloConfig {
            replications,
            seed,
            workers: 0,
            source: SourceKind::Exponential,
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            default_workers(0)
        } else {
            self.workers
        }
    }
}

/// Builds the failure source for one replication. The platform MTBF is
/// calibrated so the *per-node* rate matches `run_cfg.params` even when
/// the node count is rounded down to a group multiple.
///
/// Public so single-run tooling (e.g. `dck run --trace`) can replay
/// exactly the stream that replication `i` of a Monte-Carlo estimate
/// would see.
pub fn replication_source(
    run_cfg: &RunConfig,
    mc: &MonteCarloConfig,
    replication: u64,
) -> Box<dyn dck_failures::FailureSource> {
    let usable = run_cfg.usable_nodes();
    let n_cfg = run_cfg.params.nodes as f64;
    // Per-node MTBF is n·M; keep it fixed under rounding.
    let individual = SimTime::seconds(run_cfg.mtbf * n_cfg);
    let mtbf = MtbfSpec::Individual {
        mtbf: individual,
        nodes: usable,
    };
    let rng = RngFactory::new(mc.seed).component_stream("failures", replication);
    match mc.source {
        SourceKind::Exponential => Box::new(AggregatedExponential::new(mtbf, rng)),
        SourceKind::Renewal(spec) => {
            Box::new(PerNodeRenewal::new(spec.with_mean(individual), usable, rng))
        }
        SourceKind::RenewalWarmed(spec) => Box::new(PerNodeRenewal::with_warmup(
            spec.with_mean(individual),
            usable,
            rng,
            individual * 10.0,
        )),
    }
}

/// Aggregated waste estimate across replications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WasteEstimate {
    /// Per-run waste statistics (completed runs only).
    pub waste: OnlineStats,
    /// 95% Student-t interval on the mean waste, or `None` when **no**
    /// replication completed — the estimate is degenerate and there is
    /// no mean to put an interval around (previously this surfaced as
    /// a meaningless 0-width interval at 0).
    pub ci95: Option<ConfidenceInterval>,
    /// Per-run failure-count statistics.
    pub failures: OnlineStats,
    /// Replications that completed their work.
    pub completed: usize,
    /// Replications ended by a fatal failure.
    pub fatal: usize,
    /// Replications stopped by the failure cap or no-progress guard.
    pub truncated: usize,
}

impl WasteEstimate {
    /// True when no replication completed, so [`WasteEstimate::ci95`]
    /// is `None` and the waste statistics are empty.
    pub fn is_degenerate(&self) -> bool {
        self.completed == 0
    }
}

/// Streaming per-chunk accumulator for waste estimation: Welford
/// statistics plus outcome counters, mergeable in fixed chunk order.
#[derive(Debug, Clone, Default)]
pub(crate) struct WasteAccum {
    pub waste: OnlineStats,
    pub failures: OnlineStats,
    pub completed: usize,
    pub fatal: usize,
    pub truncated: usize,
}

impl WasteAccum {
    /// Folds one run outcome into the accumulator.
    pub fn absorb(&mut self, outcome: &RunOutcome) {
        match outcome.reason {
            StopReason::WorkComplete => {
                self.completed += 1;
                self.waste.push(outcome.waste());
                self.failures.push(outcome.failures as f64);
            }
            StopReason::Fatal => self.fatal += 1,
            // HorizonReached cannot occur in completion mode; count it
            // as truncated rather than panicking a sweep worker.
            StopReason::FailureCapReached | StopReason::NoProgress | StopReason::HorizonReached => {
                self.truncated += 1
            }
        }
    }

    /// Merges `other` into `self` (chunk order is the caller's
    /// responsibility; merging in a fixed order keeps floats
    /// reproducible).
    pub fn merge_in_place(&mut self, other: &WasteAccum) {
        self.waste.merge(&other.waste);
        self.failures.merge(&other.failures);
        self.completed += other.completed;
        self.fatal += other.fatal;
        self.truncated += other.truncated;
    }

    /// Finishes the accumulator into a public estimate.
    pub fn into_estimate(self) -> WasteEstimate {
        let ci95 = if self.completed > 0 {
            Some(ConfidenceInterval::from_stats(&self.waste, 0.95))
        } else {
            None
        };
        WasteEstimate {
            waste: self.waste,
            ci95,
            failures: self.failures,
            completed: self.completed,
            fatal: self.fatal,
            truncated: self.truncated,
        }
    }
}

/// Reusable per-chunk replication driver: one [`RunMachine`] (the
/// resolved schedule, failure response and risk tracker) plus the RNG
/// factory, constructed once per work unit and driven for every
/// replication in it. The failure source is built on the stack per
/// replication — for the Exponential source the whole inner loop is
/// monomorphized, with no `Box<dyn FailureSource>` allocation and no
/// per-event dyn dispatch.
///
/// Stream identity: replication `i` consumes exactly the RNG stream of
/// [`replication_source`]`(run_cfg, mc, i)`, so driving that boxed
/// source through [`run_to_completion`](crate::run::run_to_completion)
/// gives the same outcome (and `dck run --rep i` replays precisely what
/// the estimator simulated).
pub(crate) struct ChunkRunner {
    machine: RunMachine,
    factory: RngFactory,
    source: SourceKind,
    usable: u64,
    individual: SimTime,
}

impl ChunkRunner {
    /// Builds the machinery for one chunk of replications.
    ///
    /// # Errors
    /// Propagates configuration errors and rejects renewal sources
    /// above [`MAX_RENEWAL_NODES`].
    pub(crate) fn new(run_cfg: &RunConfig, mc: &MonteCarloConfig) -> Result<Self, ModelError> {
        let usable = run_cfg.usable_nodes();
        if usable > MAX_RENEWAL_NODES && !matches!(mc.source, SourceKind::Exponential) {
            return Err(ModelError::invalid(
                "nodes",
                format!(
                    "a per-node renewal source keeps one queue entry per node; \
                     {usable} nodes exceed its limit of {MAX_RENEWAL_NODES}"
                ),
            ));
        }
        // Per-node MTBF is n·M; keep it fixed under rounding (same
        // calibration as `replication_source`).
        let individual = SimTime::seconds(run_cfg.mtbf * run_cfg.params.nodes as f64);
        Ok(ChunkRunner {
            machine: RunMachine::new(run_cfg)?,
            factory: RngFactory::new(mc.seed),
            source: mc.source,
            usable,
            individual,
        })
    }

    fn drive(&mut self, stop: Stop, replication: u64) -> RunOutcome {
        let rng = self.factory.component_stream("failures", replication);
        let result = match self.source {
            SourceKind::Exponential => {
                let mtbf = MtbfSpec::Individual {
                    mtbf: self.individual,
                    nodes: self.usable,
                };
                let mut src = AggregatedExponential::new(mtbf, rng);
                self.machine.drive(stop, &mut src, &mut Static, |_| {})
            }
            SourceKind::Renewal(spec) => {
                let mut src =
                    PerNodeRenewal::new(spec.with_mean(self.individual), self.usable, rng);
                self.machine.drive(stop, &mut src, &mut Static, |_| {})
            }
            SourceKind::RenewalWarmed(spec) => {
                let mut src = PerNodeRenewal::with_warmup(
                    spec.with_mean(self.individual),
                    self.usable,
                    rng,
                    self.individual * 10.0,
                );
                self.machine.drive(stop, &mut src, &mut Static, |_| {})
            }
        };
        result.expect("validated configuration cannot fail")
    }

    /// Runs replication `replication` to completion of `t_base` work.
    pub(crate) fn run_waste(&mut self, t_base: f64, replication: u64) -> RunOutcome {
        self.drive(Stop::Work(t_base), replication)
    }

    /// Runs replication `replication` over a fixed horizon; true if it
    /// survived (no fatal failure).
    pub(crate) fn run_success(&mut self, horizon: f64, replication: u64) -> bool {
        self.drive(Stop::Horizon(horizon), replication).survived()
    }
}

/// Structure-of-arrays staging for one chunk of run outcomes: the
/// per-replication scalars land in flat arrays and are folded into the
/// Welford accumulators once per chunk, keeping the hot loop free of
/// accumulator bookkeeping. Folding happens in index order into an
/// empty [`WasteAccum`], so the result is bit-identical to absorbing
/// each outcome as it happened.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkOutcomes {
    wastes: [f64; REP_CHUNK],
    failure_counts: [f64; REP_CHUNK],
    completed: usize,
    fatal: usize,
    truncated: usize,
}

impl ChunkOutcomes {
    /// Stages one run outcome. At most [`REP_CHUNK`] completed runs fit
    /// (callers cut work into `REP_CHUNK`-sized chunks).
    pub(crate) fn record(&mut self, outcome: &RunOutcome) {
        match outcome.reason {
            StopReason::WorkComplete => {
                debug_assert!(self.completed < REP_CHUNK, "chunk overflow");
                self.wastes[self.completed] = outcome.waste();
                self.failure_counts[self.completed] = outcome.failures as f64;
                self.completed += 1;
            }
            StopReason::Fatal => self.fatal += 1,
            // HorizonReached cannot occur in completion mode; count it
            // as truncated rather than panicking a sweep worker.
            StopReason::FailureCapReached | StopReason::NoProgress | StopReason::HorizonReached => {
                self.truncated += 1
            }
        }
    }

    /// Folds the staged outcomes into `acc` in recorded order.
    pub(crate) fn fold_into(&self, acc: &mut WasteAccum) {
        for i in 0..self.completed {
            acc.waste.push(self.wastes[i]);
            acc.failures.push(self.failure_counts[i]);
        }
        acc.completed += self.completed;
        acc.fatal += self.fatal;
        acc.truncated += self.truncated;
    }
}

/// Aggregated success-probability estimate across replications.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SuccessEstimate {
    /// Total replications.
    pub runs: usize,
    /// Replications with no fatal failure before the horizon.
    pub survived: usize,
    /// Point estimate `survived / runs`.
    pub p_hat: f64,
    /// 95% Wilson score interval `(lo, hi)`.
    pub wilson95: (f64, f64),
}

/// Estimates the waste of an operating point by running `t_base` work
/// to completion across replications.
///
/// # Errors
/// Rejects a `t_base` that is not positive and finite, propagates
/// configuration errors, and rejects renewal sources on platforms too
/// large to hold their per-node state.
pub fn estimate_waste(
    run_cfg: &RunConfig,
    t_base: f64,
    mc: &MonteCarloConfig,
) -> Result<WasteEstimate, ModelError> {
    // NaN fails the comparison, so it is rejected too.
    if !(t_base.is_finite() && t_base > 0.0) {
        return Err(ModelError::invalid(
            "t_base",
            format!("work per run must be a positive finite time, got {t_base}"),
        ));
    }
    // Validate once up front so worker panics can't hide config errors.
    ChunkRunner::new(run_cfg, mc)?;
    // One plan, one round: the sweep pool without early stopping.
    let plan = WastePlan {
        run_cfg: *run_cfg,
        mc: *mc,
        t_base,
    };
    let rounds = RoundBudget {
        budget: mc.replications,
        round: mc.replications.max(1),
        early_stop: None,
        workers: mc.workers,
    };
    let (acc, _) = run_pool(&[plan], rounds, None, None, None)?
        .pop()
        .unwrap_or_default();
    Ok(acc.into_estimate())
}

/// Estimates the success probability over an exploitation horizon.
///
/// # Errors
/// Propagates configuration errors, and rejects renewal sources on
/// platforms too large to hold their per-node state.
pub fn estimate_success(
    run_cfg: &RunConfig,
    horizon: f64,
    mc: &MonteCarloConfig,
) -> Result<SuccessEstimate, ModelError> {
    ChunkRunner::new(run_cfg, mc)?;
    let runs = mc.replications;
    // Each REP_CHUNK-sized chunk builds its runner and returns only its
    // survivor count; the sink adds them, and the first error wins.
    let mut survived = Ok(0);
    parallel_for_ordered(
        runs.div_ceil(REP_CHUNK),
        mc.resolved_workers(),
        |c| {
            let mut runner = ChunkRunner::new(run_cfg, mc)?;
            let end = ((c + 1) * REP_CHUNK).min(runs);
            Ok((c * REP_CHUNK..end)
                .filter(|&i| runner.run_success(horizon, i as u64))
                .count())
        },
        |_, chunk: Result<usize, ModelError>| {
            survived = std::mem::replace(&mut survived, Ok(0)).and_then(|n| Ok(n + chunk?));
        },
    )
    .map_err(|e| ModelError::execution(e.to_string()))?;
    let survived = survived?;
    let p_hat = if runs == 0 {
        0.0
    } else {
        survived as f64 / runs as f64
    };
    Ok(SuccessEstimate {
        runs,
        survived,
        p_hat,
        wilson95: wilson_interval(survived, runs, 1.96),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use dck_core::{PlatformParams, Protocol, RiskModel, WasteModel};
    use dck_simcore::stats::Tolerance;

    fn params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    #[test]
    fn waste_estimate_matches_model_at_moderate_mtbf() {
        // Base-like platform, M = 1 h, 64 nodes, φ = 1. The model's
        // first-order waste should sit within the Monte-Carlo CI
        // (with slack: the model is first-order).
        let m = 3600.0;
        let run_cfg = RunConfig::new(Protocol::DoubleNbl, params(64), 1.0, m);
        let mc = MonteCarloConfig::new(60, 0xDC0FFEE);
        let t_base = 40.0 * 3600.0; // 40 h of work per run
        let est = estimate_waste(&run_cfg, t_base, &mc).unwrap();
        assert_eq!(est.completed + est.fatal + est.truncated, 60);
        assert!(est.completed > 50, "completed {}", est.completed);

        let opt = dck_core::optimal_period(Protocol::DoubleNbl, &params(64), 1.0, m).unwrap();
        let model_waste = opt.waste.total;
        let ci95 = est.ci95.expect("completed runs produce an interval");
        assert!(
            Tolerance::new(4.0, 0.0).admits(model_waste, ci95.mean, ci95.half_width),
            "model {model_waste} vs sim {} ± {}",
            ci95.mean,
            ci95.half_width
        );
    }

    #[test]
    fn degenerate_estimate_is_marked_not_nan() {
        // Unsurvivable regime: MTBF far below the rework cost, so no
        // replication ever completes. The estimate must say so
        // explicitly rather than reporting a 0 ± 0 interval.
        let m = 30.0;
        let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, params(64), 0.0, m);
        run_cfg.period = PeriodChoice::Explicit(3600.0);
        let mc = MonteCarloConfig::new(6, 11);
        let est = estimate_waste(&run_cfg, 1e7, &mc).unwrap();
        assert_eq!(est.completed, 0, "regime unexpectedly survivable");
        assert!(est.is_degenerate());
        assert!(est.ci95.is_none());
        assert_eq!(est.fatal + est.truncated, 6);
        assert_eq!(est.waste.count(), 0);
    }

    #[test]
    fn success_estimate_matches_eq11_order_of_magnitude() {
        // Harsh regime so fatal failures actually occur: M = 60 s,
        // 64 nodes, horizon 12 h.
        let m = 60.0;
        let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, params(64), 0.0, m);
        run_cfg.period = PeriodChoice::Explicit(200.0);
        let horizon = 12.0 * 3600.0;
        let mc = MonteCarloConfig::new(300, 42);
        let est = estimate_success(&run_cfg, horizon, &mc).unwrap();

        let model = RiskModel::new(Protocol::DoubleNbl, &params(64), 0.0)
            .unwrap()
            .success_probability(m, horizon)
            .unwrap()
            .probability;
        let (lo, hi) = est.wilson95;
        // CI-aware tolerance: the Wilson interval already scales with
        // the 300-replication sample, widened by a fixed model-bias
        // allowance because Eq. 11 is first-order in λ·Risk. With the
        // seeded RNG the whole check is deterministic; the slack keeps
        // it green across reasonable RNG/engine changes.
        let slack = 0.05;
        assert!(
            model >= lo - slack && model <= hi + slack,
            "model {model} outside sim [{lo}, {hi}] ± {slack}"
        );
        // This regime must be genuinely risky, or the test is vacuous.
        assert!(est.p_hat < 0.999, "p_hat {}", est.p_hat);
    }

    #[test]
    fn replications_are_reproducible_across_worker_counts() {
        let run_cfg = RunConfig::new(Protocol::Triple, params(9), 1.0, 1800.0);
        let mut mc1 = MonteCarloConfig::new(16, 7);
        mc1.workers = 1;
        let mut mc8 = mc1;
        mc8.workers = 8;
        let a = estimate_waste(&run_cfg, 20_000.0, &mc1).unwrap();
        let b = estimate_waste(&run_cfg, 20_000.0, &mc8).unwrap();
        assert_eq!(a.waste.mean(), b.waste.mean());
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn renewal_source_supported() {
        let run_cfg = RunConfig::new(Protocol::DoubleNbl, params(8), 1.0, 1800.0);
        let mut mc = MonteCarloConfig::new(8, 3);
        mc.source = SourceKind::Renewal(DistributionSpec::Weibull {
            mean: SimTime::seconds(1.0), // retargeted internally
            shape: 0.7,
        });
        let est = estimate_waste(&run_cfg, 10_000.0, &mc).unwrap();
        assert_eq!(est.completed + est.fatal + est.truncated, 8);
    }

    /// A renewal source keeps state per node, so a platform above the
    /// bound is a typed error on every Monte-Carlo entry point instead
    /// of an allocation that aborts the process.
    #[test]
    fn huge_renewal_platforms_fail_typed() {
        let mut p = params(8);
        p.nodes = 10_000_000_000;
        let run_cfg = RunConfig::new(Protocol::DoubleNbl, p, 1.0, 1800.0);
        let mut mc = MonteCarloConfig::new(8, 3);
        mc.source = SourceKind::RenewalWarmed(DistributionSpec::Weibull {
            mean: SimTime::seconds(1.0),
            shape: 0.7,
        });
        let predictor = dck_core::PredictorSpec::new(0.8, 0.5, 30.0);
        let errors = [
            estimate_waste(&run_cfg, 10_000.0, &mc).unwrap_err(),
            estimate_success(&run_cfg, 10_000.0, &mc).unwrap_err(),
            crate::estimate_predicted_waste(&run_cfg, &predictor, 10_000.0, &mc).unwrap_err(),
        ];
        for e in errors {
            assert!(e.to_string().contains("renewal"), "{e}");
        }
        p.nodes = MAX_RENEWAL_NODES;
        let at_bound = RunConfig::new(Protocol::DoubleNbl, p, 1.0, 1800.0);
        assert!(ChunkRunner::new(&at_bound, &mc).is_ok());
    }

    #[test]
    fn fault_free_limit_recovers_waste_ff() {
        // Enormous MTBF: almost no failures, waste → WASTEff at the
        // chosen period.
        let m = 1e12;
        let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, params(8), 1.0, m);
        run_cfg.period = PeriodChoice::Explicit(100.0);
        let mc = MonteCarloConfig::new(4, 1);
        let est = estimate_waste(&run_cfg, 97_000.0, &mc).unwrap();
        let wff = WasteModel::new(Protocol::DoubleNbl, &params(8), 1.0)
            .unwrap()
            .waste(100.0, m)
            .unwrap()
            .fault_free;
        assert!((est.waste.mean() - wff).abs() < 1e-9);
    }

    fn assert_estimates_bit_identical(a: &WasteEstimate, b: &WasteEstimate) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.fatal, b.fatal);
        assert_eq!(a.truncated, b.truncated);
        assert_eq!(a.waste.count(), b.waste.count());
        assert_eq!(a.waste.mean().to_bits(), b.waste.mean().to_bits());
        assert_eq!(a.waste.variance().to_bits(), b.waste.variance().to_bits());
        assert_eq!(a.failures.mean().to_bits(), b.failures.mean().to_bits());
    }

    /// Sequential reference for [`estimate_waste`]: every replication
    /// through the boxed [`replication_source`] and
    /// [`run_to_completion`](crate::run::run_to_completion), absorbed
    /// per `REP_CHUNK` chunk and merged in ascending chunk order.
    fn boxed_reference(run_cfg: &RunConfig, t_base: f64, mc: &MonteCarloConfig) -> WasteEstimate {
        let mut acc = WasteAccum::default();
        for start in (0..mc.replications).step_by(REP_CHUNK) {
            let mut chunk = WasteAccum::default();
            for i in start..(start + REP_CHUNK).min(mc.replications) {
                let mut source = replication_source(run_cfg, mc, i as u64);
                chunk.absorb(
                    &crate::run::run_to_completion(run_cfg, t_base, source.as_mut()).unwrap(),
                );
            }
            acc.merge_in_place(&chunk);
        }
        acc.into_estimate()
    }

    #[test]
    fn fast_path_matches_boxed_reference_bitwise() {
        // The monomorphized ChunkRunner path must reproduce the boxed
        // per-replication reference exactly — same streams, same
        // outcomes, same accumulation order — for every source kind.
        let exp_cfg = RunConfig::new(Protocol::DoubleNbl, params(64), 1.0, 3600.0);
        let mut mc = MonteCarloConfig::new(24, 0xFA57);
        mc.workers = 2;
        let t_base = 20.0 * 3600.0;
        assert_estimates_bit_identical(
            &estimate_waste(&exp_cfg, t_base, &mc).unwrap(),
            &boxed_reference(&exp_cfg, t_base, &mc),
        );

        let ren_cfg = RunConfig::new(Protocol::DoubleNbl, params(8), 1.0, 1800.0);
        let spec = DistributionSpec::Weibull {
            mean: SimTime::seconds(1.0), // retargeted internally
            shape: 0.7,
        };
        for source in [SourceKind::Renewal(spec), SourceKind::RenewalWarmed(spec)] {
            let mut mc = MonteCarloConfig::new(8, 3);
            mc.source = source;
            assert_estimates_bit_identical(
                &estimate_waste(&ren_cfg, 10_000.0, &mc).unwrap(),
                &boxed_reference(&ren_cfg, 10_000.0, &mc),
            );
        }
    }

    #[test]
    fn success_fast_path_matches_boxed_loop() {
        // The horizon-mode fast path must agree with driving the boxed
        // replication_source through run_until one replication at a
        // time.
        let m = 60.0;
        let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, params(64), 0.0, m);
        run_cfg.period = PeriodChoice::Explicit(200.0);
        let horizon = 6.0 * 3600.0;
        let mc = MonteCarloConfig::new(64, 77);
        let est = estimate_success(&run_cfg, horizon, &mc).unwrap();
        let mut survived = 0usize;
        for i in 0..mc.replications {
            let mut source = replication_source(&run_cfg, &mc, i as u64);
            let out = crate::run::run_until(&run_cfg, horizon, source.as_mut()).unwrap();
            survived += usize::from(out.survived());
        }
        assert_eq!(est.survived, survived);
    }

    #[test]
    fn rejects_non_positive_or_non_finite_work() {
        let run_cfg = RunConfig::new(Protocol::DoubleNbl, params(8), 1.0, 3600.0);
        let mc = MonteCarloConfig::new(4, 1);
        for bad in [-5.0, 0.0, f64::NAN, f64::INFINITY] {
            let err = estimate_waste(&run_cfg, bad, &mc).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidParameter { name: "t_base", .. }),
                "{bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn invalid_config_surfaces_as_error() {
        let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, params(8), 1.0, 3600.0);
        run_cfg.period = PeriodChoice::Explicit(1.0);
        let mc = MonteCarloConfig::new(4, 1);
        assert!(estimate_waste(&run_cfg, 1000.0, &mc).is_err());
        assert!(estimate_success(&run_cfg, 1000.0, &mc).is_err());
    }
}
