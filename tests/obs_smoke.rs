//! End-to-end smoke tests for the observability layer: the `dck run
//! --trace` / `dck sweep --metrics` / `dck validate` pipeline through
//! the CLI entry point, and the bit-identity guarantee (metrics on or
//! off never changes sweep results).

use dck::model::{PlatformParams, Protocol};
use dck::obs;
use dck::sim::{run_sweep, SweepEngine, SweepSpec};

fn cli(raw: &[&str]) -> Result<String, String> {
    dck_cli::run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

fn tmp(name: &str) -> (std::path::PathBuf, String) {
    let path = std::env::temp_dir().join(format!("dck-obs-{}-{name}", std::process::id()));
    let s = path.to_str().unwrap().to_string();
    (path, s)
}

#[test]
fn trace_metrics_validate_pipeline() {
    // `--metrics` resets and enables the process-global registry, which
    // would zero the counters of a concurrently running metrics test.
    let _guard = obs::exclusive_session();
    let (trace_path, trace) = tmp("run.jsonl");
    let (metrics_path, metrics) = tmp("metrics.json");
    let (sweep_path, sweep) = tmp("sweep.json");

    let out = cli(&[
        "run",
        "--protocol",
        "double-nbl",
        "--mtbf",
        "30min",
        "--work",
        "4h",
        "--seed",
        "7",
        "--trace",
        &trace,
    ])
    .unwrap();
    assert!(out.contains("timeline:"), "missing trace line:\n{out}");
    cli(&["validate", "--trace", &trace]).unwrap();

    let out = cli(&[
        "sweep",
        "--protocol",
        "double-nbl",
        "--phi-ratios",
        "0,1",
        "--mtbfs",
        "30min,2h",
        "--reps",
        "8",
        "--format",
        "json",
        "--metrics",
        &metrics,
    ])
    .unwrap_or_else(|e| panic!("sweep failed: {e}"));
    std::fs::write(&sweep_path, &out).unwrap();
    cli(&["validate", "--metrics", &metrics]).unwrap();
    cli(&["validate", "--sweep", &sweep]).unwrap();

    for p in [trace_path, metrics_path, sweep_path] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn metrics_never_change_sweep_results() {
    let params = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 16).unwrap();
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        params,
        vec![0.25, 0.75],
        vec![900.0, 3_600.0],
    );
    spec.replications = 12;
    spec.work_in_mtbfs = 5.0;
    spec.seed = 0xB17;
    spec.engine = SweepEngine::GlobalPool;

    let _guard = obs::exclusive_session();
    let was = obs::set_enabled(false);
    let dark = run_sweep(&spec).unwrap();
    obs::reset();
    obs::set_enabled(true);
    let lit = run_sweep(&spec).unwrap();
    let snap = obs::snapshot();
    obs::set_enabled(was);

    for (a, b) in dark.cells.iter().zip(&lit.cells) {
        assert_eq!(a.sim_waste.map(f64::to_bits), b.sim_waste.map(f64::to_bits));
        assert_eq!(
            a.half_width.map(f64::to_bits),
            b.half_width.map(f64::to_bits)
        );
        assert_eq!(a.replications_run, b.replications_run);
    }
    assert_eq!(snap.counter("sweep.cells"), 4);
    assert_eq!(snap.counter("sweep.replications"), 4 * 12);
}
