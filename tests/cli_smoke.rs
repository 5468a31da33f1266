//! Smoke tests over the full `dck` CLI surface (via the library entry
//! point — no subprocesses needed).

fn run(raw: &[&str]) -> Result<String, String> {
    dck_cli::run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

#[test]
fn every_command_produces_output() {
    let commands: Vec<Vec<&str>> = vec![
        vec!["scenarios"],
        vec!["help"],
        vec!["waste", "--protocol", "double-nbl", "--mtbf", "4h"],
        vec![
            "waste",
            "--protocol",
            "triple",
            "--scenario",
            "exa",
            "--phi-ratio",
            "0.1",
        ],
        vec!["period", "--mtbf", "30min"],
        vec![
            "period",
            "--scenario",
            "exa",
            "--phi-ratio",
            "1.0",
            "--mtbf",
            "1d",
        ],
        vec!["risk", "--mtbf", "2min", "--life", "1w"],
        vec![
            "compare",
            "--phi-ratio",
            "0.25",
            "--mtbf",
            "7h",
            "--life",
            "30d",
        ],
    ];
    for cmd in commands {
        let out = run(&cmd).unwrap_or_else(|e| panic!("{cmd:?} failed: {e}"));
        assert!(!out.trim().is_empty(), "{cmd:?} produced no output");
    }
}

#[test]
fn run_reps_agrees_with_model_verdict() {
    let out = run(&[
        "run",
        "--protocol",
        "triple",
        "--phi-ratio",
        "0.5",
        "--mtbf",
        "20min",
        "--work",
        "8h",
        "--reps",
        "30",
        "--nodes",
        "12",
        "--seed",
        "99",
    ])
    .unwrap();
    assert!(
        out.contains("model within Monte-Carlo tolerance"),
        "unexpected verdict:\n{out}"
    );
}

/// `dck run --reps N` prints exactly what the former `dck simulate`
/// printed for the same flags, and `dck run` keeps its report and
/// timeline; the expected bytes were recorded from those commands.
#[test]
fn run_output_matches_pinned_bytes() {
    let cases = [
        (
            "--protocol triple --phi-ratio 0.5 --mtbf 20min --work 8h --reps 30 --nodes 12 --seed 99",
            "Monte-Carlo waste, TRIPLE on scenario Base (12 nodes simulated)
  M = 20min, phi = 2, work per run = 8h, 30 replications (seed 99)
  simulated waste: 0.10360 ± 0.00400 (95% CI over 30 completed runs)
  model waste (Eqs. 5/7/8/14): 0.10236
  mean failures per run: 28.4; fatal runs: 0; truncated: 0
  -> model within Monte-Carlo tolerance
",
        ),
        (
            "--protocol double-nbl --phi-ratio 0.5 --mtbf 30min --work 5h --reps 10 --nodes 8 --seed 3",
            "Monte-Carlo waste, DOUBLENBL on scenario Base (8 nodes simulated)
  M = 30min, phi = 2, work per run = 5h, 10 replications (seed 3)
  simulated waste: 0.07661 ± 0.00563 (95% CI over 10 completed runs)
  model waste (Eqs. 5/7/8/14): 0.08059
  mean failures per run: 9.9; fatal runs: 0; truncated: 0
  -> model within Monte-Carlo tolerance
",
        ),
        (
            "--protocol double-blocking --phi-ratio 1 --mtbf 15s --work 24h --reps 4",
            "Monte-Carlo waste, DOUBLE (blocking) on scenario Base (10368 nodes simulated)
  M = 15s, phi = 4, work per run = 1d, 4 replications (seed 220)
  simulated waste: n/a (no replication completed its work)
  model waste (Eqs. 5/7/8/14): 0.94434
  mean failures per run: 0.0; fatal runs: 4; truncated: 0
  -> DEGENERATE ESTIMATE: every replication was fatal or truncated
",
        ),
        (
            "--protocol double-nbl --mtbf 30min --work 8h --seed 7",
            "Run: DOUBLENBL on scenario Base (10368 nodes), replication 0 of seed 7
  M = 30min, phi = 0, work = 8h, period = optimal
  outcome: WorkComplete after 8.57h (8h useful, 22.15min in outages, 16 failures)
  empirical waste: 0.06600
",
        ),
    ];
    let run_with = |flags: &str, extra: &[&str]| {
        let mut raw: Vec<&str> = flags.split(' ').collect();
        raw.insert(0, "run");
        raw.extend_from_slice(extra);
        run(&raw).unwrap()
    };
    for (flags, expected) in cases {
        assert_eq!(run_with(flags, &[]), expected, "{flags}");
    }

    let path = std::env::temp_dir().join(format!("dck-pinned-{}.jsonl", std::process::id()));
    let p = path.to_str().unwrap();
    let (flags, report) = cases[3];
    assert_eq!(
        run_with(flags, &["--trace", p]),
        format!("{report}  timeline: 32 events -> {p}\n")
    );
    let timeline = std::fs::read_to_string(&path).unwrap();
    assert_eq!(timeline, include_str!("pinned/run_double_nbl_seed7.jsonl"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_pipeline_via_cli() {
    let path = std::env::temp_dir().join(format!("dck-smoke-{}.json", std::process::id()));
    let p = path.to_str().unwrap();
    run(&[
        "trace",
        "generate",
        "--nodes",
        "32",
        "--mtbf",
        "2min",
        "--horizon",
        "2h",
        "--seed",
        "5",
        "--out",
        p,
    ])
    .unwrap();
    let stats = run(&["trace", "stats", p]).unwrap();
    assert!(stats.contains("32 nodes"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn parameter_overrides_change_results() {
    let small = run(&["period", "--mtbf", "7h", "--delta", "1s"]).unwrap();
    let large = run(&["period", "--mtbf", "7h", "--delta", "20s"]).unwrap();
    assert_ne!(small, large);
}

#[test]
fn errors_are_actionable() {
    let e = run(&["waste"]).unwrap_err();
    assert!(e.contains("--protocol"));
    let e = run(&["waste", "--protocol", "warp-drive"]).unwrap_err();
    assert!(e.contains("unknown protocol"));
    let e = run(&["period", "--mtbf", "yesterday"]).unwrap_err();
    assert!(e.contains("duration"));
    let e = run(&["compare", "--scenario", "zeta"]).unwrap_err();
    assert!(e.contains("unknown scenario"));
}
