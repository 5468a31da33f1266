//! `dck-bench` — the tracked perf-trajectory harness.
//!
//! Measures the two workloads ROADMAP item 2 cares about and writes
//! them as schema-validated artifacts (see [`dck_bench::report`]):
//!
//! * `BENCH_reps.json` — Monte-Carlo replication throughput of one
//!   operating point through `estimate_waste`, across worker counts.
//! * `BENCH_sweep.json` — wall-clock and throughput of a small
//!   parameter sweep across worker counts.
//!
//! Usage: `dck-bench [--out DIR] [--quick] [--seed N] [--reps N]
//! [--workers CSV]`. `--quick` shrinks the grid for CI smoke runs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dck_bench::{BenchConfig, BenchKind, BenchReport, BenchSeries, BenchSummary, SCHEMA};
use dck_core::{ModelError, PlatformParams, Protocol};
use dck_sim::{estimate_waste, run_sweep, MonteCarloConfig, RunConfig, SweepSpec};
use dck_simcore::fsio;

struct Options {
    out: PathBuf,
    quick: bool,
    seed: u64,
    reps: usize,
    workers: Vec<usize>,
}

const USAGE: &str = "usage: dck-bench [--out DIR] [--quick] [--seed N] [--reps N] [--workers CSV]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: PathBuf::from("."),
        quick: false,
        seed: 0xBE9C,
        reps: 0, // resolved after --quick is known
        workers: vec![1, 2, 4, 8],
    };
    let mut reps: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--quick" => opts.quick = true,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--reps" => {
                reps = Some(
                    value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .split(',')
                    .map(|w| w.trim().parse().map_err(|e| format!("--workers: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if opts.workers.is_empty() || opts.workers.contains(&0) {
        return Err("--workers needs a non-empty list of positive counts".to_string());
    }
    opts.reps = reps.unwrap_or(if opts.quick { 4096 } else { 65536 });
    if opts.reps == 0 {
        return Err("--reps must be positive".to_string());
    }
    Ok(opts)
}

/// Times `f` once. The single `Instant` touchpoint of the harness —
/// wall-clock is inherently nondeterministic, which is the point of a
/// benchmark; everything the timer wraps stays seeded and bit-stable.
fn time_once<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Best (minimum) wall-clock of `repeats` timed runs of `f` after one
/// untimed warmup, in seconds; the first error `f` returns ends the
/// measurement. The minimum is the standard throughput estimator under
/// one-sided scheduler/throttling noise: every disturbance only ever
/// makes a run slower.
fn time_best<E>(repeats: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    f()?; // warmup: page in code and data before measuring
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let mut result = Ok(());
        best = best.min(time_once(|| result = f()));
        result?;
    }
    Ok(best)
}

fn platform(nodes: u64) -> PlatformParams {
    PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).expect("benchmark platform params are valid")
}

/// Replication-throughput report: the `dck simulate` workload shape
/// (optimal period resolved from the model, once per chunk of
/// replications).
fn bench_reps(opts: &Options) -> Result<BenchReport, String> {
    let nodes = 64;
    let mtbf = 1800.0;
    let phi_ratio = 0.5;
    let work_in_mtbfs = 4.0;
    let params = platform(nodes);
    let run_cfg = RunConfig::new(
        Protocol::DoubleNbl,
        params,
        phi_ratio * params.theta_min,
        mtbf,
    );
    let t_base = work_in_mtbfs * mtbf;
    let repeats = if opts.quick { 3 } else { 5 };

    let mc_at = |workers: usize| {
        let mut mc = MonteCarloConfig::new(opts.reps, opts.seed);
        mc.workers = workers;
        mc
    };
    let mut series = Vec::new();
    for &workers in &opts.workers {
        let mc = mc_at(workers);
        let elapsed = time_best(repeats, || estimate_waste(&run_cfg, t_base, &mc).map(drop))
            .map_err(|e| e.to_string())?;
        let reps_per_sec = opts.reps as f64 / elapsed;
        eprintln!("reps  fast workers={workers}: {reps_per_sec:>12.0} reps/s");
        series.push(BenchSeries {
            label: "fast".to_string(),
            workers,
            replications: opts.reps,
            elapsed_s: elapsed,
            reps_per_sec,
        });
    }

    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        kind: BenchKind::Replications,
        config: BenchConfig {
            protocol: Protocol::DoubleNbl.to_string(),
            nodes,
            mtbf_s: vec![mtbf],
            phi_ratio: vec![phi_ratio],
            work_in_mtbfs,
            replications: opts.reps,
            seed: opts.seed,
            quick: opts.quick,
        },
        summary: summarize(&series, &opts.workers),
        series,
    })
}

/// Sweep wall-clock report over a small φ × MTBF grid.
fn bench_sweep(opts: &Options) -> Result<BenchReport, String> {
    let nodes = 64;
    let phi_ratios = vec![0.0, 0.5, 1.0];
    let mtbfs = vec![900.0, 1800.0, 3600.0];
    let per_cell = if opts.quick { 32 } else { 256 };
    let work_in_mtbfs = 4.0;
    let repeats = if opts.quick { 3 } else { 5 };

    let mut series = Vec::new();
    for &workers in &opts.workers {
        let mut spec = SweepSpec::new(
            Protocol::DoubleNbl,
            platform(nodes),
            phi_ratios.clone(),
            mtbfs.clone(),
        );
        spec.replications = per_cell;
        spec.work_in_mtbfs = work_in_mtbfs;
        spec.seed = opts.seed;
        spec.workers = workers;
        let mut total_reps = 0usize;
        let elapsed = time_best(repeats, || {
            total_reps = run_sweep(&spec)?.total_replications_run();
            Ok(())
        })
        .map_err(|e: ModelError| e.to_string())?;
        let reps_per_sec = total_reps as f64 / elapsed;
        eprintln!("sweep workers={workers}: {elapsed:>8.3} s wall, {reps_per_sec:>12.0} reps/s");
        series.push(BenchSeries {
            label: "sweep".to_string(),
            workers,
            replications: total_reps,
            elapsed_s: elapsed,
            reps_per_sec,
        });
    }

    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        kind: BenchKind::Sweep,
        config: BenchConfig {
            protocol: Protocol::DoubleNbl.to_string(),
            nodes,
            mtbf_s: mtbfs,
            phi_ratio: phi_ratios,
            work_in_mtbfs,
            replications: per_cell,
            seed: opts.seed,
            quick: opts.quick,
        },
        summary: summarize(&series, &opts.workers),
        series,
    })
}

/// Headline numbers of a one-series report: the largest worker count
/// and the throughput there over the throughput at the smallest.
fn summarize(series: &[BenchSeries], workers: &[usize]) -> BenchSummary {
    let max_workers = *workers.iter().max().expect("workers is non-empty");
    let min_workers = *workers.iter().min().expect("workers is non-empty");
    let tp = |w: usize| {
        series
            .iter()
            .find(|s| s.workers == w)
            .map(|s| s.reps_per_sec)
    };
    BenchSummary {
        max_workers,
        scaling_max_vs_one_worker: tp(max_workers).zip(tp(min_workers)).map(|(hi, lo)| hi / lo),
    }
}

fn write_report(dir: &Path, name: &str, report: &BenchReport) -> Result<(), String> {
    report.validate().map_err(|e| format!("{name}: {e}"))?;
    let json = report.to_json().map_err(|e| format!("{name}: {e}"))?;
    let dest = dir.join(name);
    fsio::atomic_write(&dest, json.as_bytes()).map_err(|e| format!("{}: {e}", dest.display()))?;
    println!("wrote {}", dest.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;

    let reps = bench_reps(&opts)?;
    write_report(&opts.out, "BENCH_reps.json", &reps)?;

    let sweep = bench_sweep(&opts)?;
    write_report(&opts.out, "BENCH_sweep.json", &sweep)?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dck-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
