//! Tests that enable the process-global metrics registry and assert on
//! its counters. The registry is shared by every test in a binary, and
//! a test that does not hold [`dck_obs::exclusive_session`] would
//! record into it while another has it enabled. So these tests live in
//! their own binary, and every test here takes the session.

use dck_obs::MetricsSnapshot;

fn run_ok(raw: &[&str]) -> String {
    dck_cli::run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("command succeeds")
}

#[test]
fn run_traces_to_jsonl_and_validates() {
    let _guard = dck_obs::exclusive_session();
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("dck-run-{}.jsonl", std::process::id()));
    let metrics = dir.join(format!("dck-run-{}.metrics.json", std::process::id()));
    let (tp, mp) = (trace.to_str().unwrap(), metrics.to_str().unwrap());
    let out = run_ok(&[
        "run",
        "--protocol",
        "double-nbl",
        "--phi-ratio",
        "0.5",
        "--mtbf",
        "30min",
        "--work",
        "10h",
        "--nodes",
        "8",
        "--seed",
        "3",
        "--trace",
        tp,
        "--metrics",
        mp,
    ]);
    assert!(out.contains("empirical waste"), "{out}");
    assert!(out.contains("timeline:"), "{out}");
    assert!(out.contains("metric"), "{out}");
    // Both emitted files pass schema validation.
    let out = run_ok(&["validate", "--trace", tp, "--metrics", mp]);
    assert!(out.contains("timestamps ordered"), "{out}");
    assert!(out.contains("counters"), "{out}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn sweep_metrics_prints_table_and_writes_snapshot() {
    let _guard = dck_obs::exclusive_session();
    let metrics =
        std::env::temp_dir().join(format!("dck-sweep-{}.metrics.json", std::process::id()));
    let mp = metrics.to_str().unwrap();
    let out = run_ok(&[
        "sweep",
        "--protocol",
        "double-nbl",
        "--phi-ratios",
        "0.0,0.5",
        "--mtbfs",
        "30min",
        "--reps",
        "8",
        "--work-mtbfs",
        "5",
        "--nodes",
        "16",
        "--metrics",
        mp,
    ]);
    assert!(out.contains("observability metrics:"), "{out}");
    assert!(out.contains("sweep.cells"), "{out}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.counter("sweep.cells"), 2);
    assert!(snap.counter("sweep.replications") >= 16);
    let out = run_ok(&["validate", "--metrics", mp]);
    assert!(out.contains("counters"), "{out}");
    std::fs::remove_file(&metrics).ok();
}
