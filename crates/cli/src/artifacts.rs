//! `dck validate`: one table of the artifacts `dck` writes. Each row is
//! one flag of the command and the checker that reads its file back
//! into a one-line summary; `--bench` looks the file's schema tag up in
//! a second table, one row per [`Report`] kind.

use crate::app::read_file;
use crate::commands::{flag, Flag};
use crate::parse::Args;
use dck_bench::{AdaptReport, BenchReport, Report, ServeBenchReport};
use dck_experiments::conformance::ConformanceReport;
use dck_obs::MetricsSnapshot;
use dck_sim::{validate_snapshot, SweepResult, TimelineEvent};
use serde::{DeError, Deserialize, Reader, Value};
use std::path::Path;

/// Reads an artifact back and summarizes it in one line, or names what
/// is wrong with it.
pub(crate) type Check = fn(&str) -> Result<String, String>;

/// One artifact kind: the `dck validate` flag that names its file, and
/// the checker that reads the file (at a path) back.
pub(crate) struct Artifact {
    /// The flag.
    pub(crate) flag: Flag,
    /// The checker.
    pub(crate) check: Check,
}

/// Every artifact kind, in the order `dck validate` checks them.
#[rustfmt::skip]
pub(crate) const ARTIFACTS: &[Artifact] = &[
    Artifact { flag: flag("trace", "FILE", "JSONL timeline (run/inject --trace)"), check: check_trace },
    Artifact { flag: flag("metrics", "FILE", "counters snapshot (--metrics)"), check: check_metrics },
    Artifact { flag: flag("sweep", "FILE", "sweep --format json output"), check: check_sweep },
    Artifact { flag: flag("conformance", "FILE", "conformance report"), check: check_conformance },
    Artifact { flag: flag("bench", "FILE", "bench, loadgen or adapt report"), check: check_bench },
    Artifact { flag: flag("snapshot", "FILE", "sweep checkpoint snapshot"), check: check_snapshot },
];

/// The flags of `dck validate`, one per row of [`ARTIFACTS`].
pub(crate) const VALIDATE_FLAGS: [Flag; ARTIFACTS.len()] = {
    let mut flags = [ARTIFACTS[0].flag; ARTIFACTS.len()];
    let mut i = 1;
    while i < flags.len() {
        flags[i] = ARTIFACTS[i].flag;
        i += 1;
    }
    flags
};

/// The report kinds `--bench` accepts, by schema tag; these checkers
/// take the file's text, not its path.
const BENCH_REPORTS: &[(&str, Check)] = &[
    (BenchReport::SCHEMA, bench::<BenchReport>),
    (ServeBenchReport::SCHEMA, bench::<ServeBenchReport>),
    (AdaptReport::SCHEMA, bench::<AdaptReport>),
];

/// `dck validate`: checks every artifact named on the command line and
/// writes one line for each.
pub(crate) fn cmd_validate(args: &Args) -> Result<String, String> {
    let mut out = String::new();
    for artifact in ARTIFACTS {
        if let Some(path) = args.get(artifact.flag.name) {
            out += &((artifact.check)(path)? + "\n");
        }
    }
    if out.is_empty() {
        let flags: Vec<String> = VALIDATE_FLAGS
            .iter()
            .map(|f| format!("--{} {}", f.name, f.meta))
            .collect();
        return Err(format!("usage: dck validate {}", flags.join(" | ")));
    }
    Ok(out)
}

fn check_trace(path: &str) -> Result<String, String> {
    let text = read_file(path)?;
    let mut events = 0usize;
    let mut last_at = f64::NEG_INFINITY;
    for (i, line) in text.lines().enumerate() {
        let event: TimelineEvent = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: invalid TimelineEvent: {e}", i + 1))?;
        let at = match event {
            TimelineEvent::Failure { at, .. }
            | TimelineEvent::OutageEnd { at }
            | TimelineEvent::Retune { at, .. }
            | TimelineEvent::Finished { at, .. } => at,
        };
        if at < last_at {
            return Err(format!(
                "{path}:{}: timestamp {at} moves backwards (previous {last_at})",
                i + 1
            ));
        }
        last_at = at;
        events += 1;
    }
    if events == 0 {
        return Err(format!(
            "{path}: trace contains no events — an empty artifact is a failed run, not a valid one"
        ));
    }
    Ok(format!(
        "trace {path}: {events} valid events, timestamps ordered"
    ))
}

fn check_metrics(path: &str) -> Result<String, String> {
    let snapshot: MetricsSnapshot = serde_json::from_str(&read_file(path)?)
        .map_err(|e| format!("{path}: invalid MetricsSnapshot: {e}"))?;
    Ok(format!(
        "metrics {path}: {} counters, {} histograms",
        snapshot.counters.len(),
        snapshot.histograms.len()
    ))
}

fn check_sweep(path: &str) -> Result<String, String> {
    let result: SweepResult = serde_json::from_str(&read_file(path)?)
        .map_err(|e| format!("{path}: invalid SweepResult: {e}"))?;
    let expected = result.spec.phi_ratios.len() * result.spec.mtbfs.len();
    if result.cells.len() != expected {
        return Err(format!(
            "{path}: {} cells but the spec's grid has {expected}",
            result.cells.len()
        ));
    }
    Ok(format!(
        "sweep {path}: {} cells, grid consistent",
        result.cells.len()
    ))
}

fn check_conformance(path: &str) -> Result<String, String> {
    let report =
        ConformanceReport::from_json(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
    if report.failed > 0 {
        return Err(format!(
            "{path}: {} conformance cell(s) out of tolerance:\n{}",
            report.failed,
            report.failures().join("\n")
        ));
    }
    Ok(format!(
        "conformance {path}: {} region cells in {} regions ({} gating) + {} prediction \
         cells; gating cells: {} passed, {} degenerate, max |model - sim| = {:.4}",
        report.spec.cell_count(),
        report.regions.len(),
        report.spec.regions.iter().filter(|r| r.gate).count(),
        report.prediction_cells.len(),
        report.passed,
        report.degenerate,
        report.max_abs_deviation
    ))
}

/// A `BENCH_*.json` file is held to the kind its schema tag claims,
/// with no fallback to another kind.
fn check_bench(path: &str) -> Result<String, String> {
    let text = read_file(path)?;
    // Only a syntax error makes the file "not JSON"; a document that is
    // not an object has no tag.
    let tag = match serde::read::from_text::<Tagged>(&text) {
        Ok(Tagged { schema }) => schema.0,
        Err(e) if e.is_syntax() => return Err(format!("{path}: not JSON: {e}")),
        Err(_) => String::new(),
    };
    let Some((_, check)) = BENCH_REPORTS.iter().find(|(known, _)| *known == tag) else {
        let known: Vec<&str> = BENCH_REPORTS.iter().map(|(known, _)| *known).collect();
        return Err(format!(
            "{path}: unknown schema tag {tag:?} (known: {})",
            known.join(", ")
        ));
    };
    let summary = check(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("bench {path}: {summary}"))
}

/// The one field `--bench` reads before it knows the report's kind.
#[derive(Deserialize)]
struct Tagged {
    schema: Tag,
}

/// A schema tag: the string, or empty when the value is not a string
/// (or is missing). Read without building the value.
struct Tag(String);

impl Deserialize for Tag {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Tag(v.as_str().unwrap_or_default().to_string()))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.peek() == Some(b'"') {
            return Ok(Tag(r.string()?.into_owned()));
        }
        r.skip()?;
        Ok(Tag(String::new()))
    }
}

/// Decodes and validates one report kind.
fn bench<R: Report>(text: &str) -> Result<String, String> {
    let report = R::from_json(text).map_err(|e| format!("invalid {}: {e}", R::NAME))?;
    report.validate()?;
    Ok(report.summary())
}

fn check_snapshot(path: &str) -> Result<String, String> {
    let info = validate_snapshot(Path::new(path)).map_err(|e| {
        // The read error already names the path; format errors from a
        // successfully-read file need it prepended.
        if e.contains(path) {
            e
        } else {
            format!("{path}: {e}")
        }
    })?;
    Ok(format!(
        "snapshot {path}: v{}, {} rounds, {}/{} cells active, {} replications done, \
         cadence {} round(s)/snapshot, spec {}",
        info.version,
        info.rounds_done,
        info.active_cells,
        info.cells,
        info.replications_done,
        info.checkpoint_every,
        info.spec_fingerprint
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use dck_core::Protocol;
    use dck_experiments::conformance::{run_conformance, CellStatus, ConformanceSpec};
    use dck_failures::FailureTrace;
    use dck_sim::SweepSpec;
    use dck_simcore::{stats::Tolerance, SimTime};

    fn run_ok(raw: &[&str]) -> String {
        run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("command succeeds")
    }

    fn run_err(raw: &[&str]) -> String {
        run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect_err("command fails")
    }

    /// One benign-region plane of one cell: fast enough for a unit test.
    fn tiny_conformance_spec() -> ConformanceSpec {
        let mut spec = ConformanceSpec::coarse();
        spec.regions.truncate(1);
        let region = &mut spec.regions[0];
        region.protocols = vec![Protocol::DoubleNbl];
        region.mtbfs = vec![3_600.0];
        region.alphas = vec![10.0];
        region.phi_ratios = vec![0.5];
        region.replications = 8;
        spec
    }

    /// A report as `dck loadgen` writes it.
    fn serve_sample() -> ServeBenchReport {
        ServeBenchReport {
            schema: dck_bench::SERVE_SCHEMA.to_string(),
            config: dck_bench::ServeBenchConfig {
                addr: "127.0.0.1:4717".to_string(),
                threads: 2,
                concurrency: 2,
                duration_s: 1.0,
                seed: 7,
                methods: vec!["waste".to_string(), "sweep_cell".to_string()],
            },
            elapsed_s: 1.01,
            ok_requests: 100,
            errors: 0,
            req_per_sec: 99.0,
            latency: dck_bench::ServeLatency {
                p50_us: 100,
                p90_us: 200,
                p99_us: 400,
                p999_us: 900,
                max_us: 1000,
                mean_us: 130.0,
            },
        }
    }

    /// Every kind of artifact, written by its real writer at a small
    /// size, reads back through its row of [`ARTIFACTS`].
    #[test]
    fn every_artifact_reads_back() {
        let dir = std::env::temp_dir().join(format!("dck-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        // One command line, split on spaces (the scratch paths hold none).
        let dck = |line: String| run(&line.split(' ').map(str::to_string).collect::<Vec<_>>());
        let sweep = "sweep --protocol double-nbl --phi-ratios 0,0.5 --mtbfs 30min --reps 24 \
                     --work-mtbfs 5 --nodes 16 --target-hw 0.0 --min-reps 8 --batch 8 \
                     --format json";

        dck(format!(
            "run --protocol double-nbl --mtbf 30min --work 8h --nodes 16 \
             --trace {d}/run.jsonl --metrics {d}/run.json"
        ))
        .unwrap();
        dck(format!("{sweep} --out {d}/sweep.json")).unwrap();
        dck(format!("{sweep} --checkpoint {d}/ck --max-rounds 1")).unwrap_err();
        let mut snapshots: Vec<_> = std::fs::read_dir(dir.join("ck"))
            .unwrap()
            .map(|e| e.unwrap().path().to_str().unwrap().to_string())
            .collect();
        snapshots.sort();
        let bench = dck(format!(
            "bench --fast --reps 64 --workers 1,2 --out {d}/bench"
        ))
        .unwrap();
        dck(format!(
            "adapt --reps 4 --work-mtbfs 10 --tolerance 0.5 --out {d}/adapt.json"
        ))
        .unwrap();
        let report = run_conformance(&tiny_conformance_spec()).unwrap();
        std::fs::write(dir.join("conf.json"), report.to_json().unwrap()).unwrap();
        std::fs::write(dir.join("serve.json"), serve_sample().to_json().unwrap()).unwrap();

        let rows: [(&str, String, &[&str]); 9] = [
            ("trace", format!("{d}/run.jsonl"), &["timestamps ordered"]),
            ("metrics", format!("{d}/run.json"), &["counters"]),
            ("sweep", format!("{d}/sweep.json"), &["grid consistent"]),
            (
                "snapshot",
                snapshots.pop().unwrap(),
                &["rounds", "cells active"],
            ),
            (
                "bench",
                format!("{d}/bench/BENCH_reps.json"),
                &["2 series, max workers 2"],
            ),
            (
                "bench",
                format!("{d}/bench/BENCH_sweep.json"),
                &["2 series, max workers 2"],
            ),
            (
                "bench",
                format!("{d}/adapt.json"),
                &["adaptive regret, 4 scenarios"],
            ),
            (
                "bench",
                format!("{d}/serve.json"),
                &["serve load", "99 req/s"],
            ),
            (
                "conformance",
                format!("{d}/conf.json"),
                &["1 region cells in 1 regions"],
            ),
        ];
        for (flag, path, summary) in &rows {
            let artifact = ARTIFACTS.iter().find(|a| a.flag.name == *flag).unwrap();
            let line = (artifact.check)(path).unwrap_or_else(|e| panic!("{flag} {path}: {e}"));
            assert!(line.contains(path), "{line}");
            for part in *summary {
                assert!(line.contains(part), "{line}");
            }
        }
        for name in ["BENCH_reps.json", "BENCH_sweep.json"] {
            assert!(bench.contains(&format!("{d}/bench/{name}")), "{bench}");
        }
        for artifact in ARTIFACTS {
            let name = artifact.flag.name;
            assert!(
                rows.iter().any(|(flag, ..)| *flag == name),
                "no row for --{name}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_names_an_unknown_schema_tag() {
        let path = std::env::temp_dir().join(format!("dck-tag-{}.json", std::process::id()));
        let p = path.to_str().unwrap();
        for (text, tag) in [
            (
                r#"{"schema": "dck-bench/v9", "kind": "Sweep"}"#,
                r#""dck-bench/v9""#,
            ),
            (r#"{"kind": "Sweep"}"#, r#""""#),
            // A tag that is not a string reads as no tag, and so does a
            // document that is not an object.
            (r#"{"schema": 7, "kind": "Sweep"}"#, r#""""#),
            (r#"{"schema": {"v": ["dck-bench/v3"]}}"#, r#""""#),
            (r#"["dck-bench/v3"]"#, r#""""#),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = run_err(&["validate", "--bench", p]);
            assert!(err.contains(&format!("unknown schema tag {tag}")), "{err}");
            for (known, _) in BENCH_REPORTS {
                assert!(err.contains(known) && err.contains(p), "{err}");
            }
        }
        // A file that is not JSON is named as such, with the reader's
        // message and byte offset.
        for (text, why) in [
            ("schema: dck-bench/v3", "unexpected character `s` at byte 0"),
            (
                r#"{"schema": "dck-bench/v3""#,
                "expected `,` or `}` at byte 25",
            ),
            (r#"{"kind": [1, 2}"#, "expected `,` or `]` at byte 14"),
            (
                r#"{"schema": "dck-bench/v3"} x"#,
                "trailing characters at byte 27",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = run_err(&["validate", "--bench", p]);
            assert_eq!(err, format!("{p}: not JSON: {why}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_stop_reason_traces_validate() {
        // Acceptance: traced runs for every StopReason end in Finished
        // and round-trip through `dck validate --trace`.
        use dck_sim::{PeriodChoice, RunConfig};
        let params = dck_core::PlatformParams::new(0.0, 2.0, 4.0, 10.0, 8).unwrap();
        let mk_trace = |events: &[(f64, u64)]| {
            FailureTrace::new(
                8,
                events
                    .iter()
                    .map(|&(at, node)| dck_failures::FailureEvent {
                        at: SimTime::seconds(at),
                        node,
                    })
                    .collect(),
            )
        };
        let mut cfg = RunConfig::new(Protocol::DoubleNbl, params, 1.0, 7.0 * 3600.0);
        cfg.period = PeriodChoice::Explicit(100.0);
        let mut stuck = RunConfig::new(Protocol::DoubleBlocking, params, 0.0, 3600.0);
        stuck.period = PeriodChoice::Explicit(6.0);
        let mut capped = cfg;
        capped.max_failures = 1;

        let timelines = [
            // WorkComplete
            dck_sim::run_to_completion_traced(&cfg, 970.0, &mut mk_trace(&[]).replay())
                .unwrap()
                .1,
            // Fatal (buddy inside the risk window)
            dck_sim::run_to_completion_traced(
                &cfg,
                970.0,
                &mut mk_trace(&[(250.0, 0), (260.0, 1)]).replay(),
            )
            .unwrap()
            .1,
            // HorizonReached
            dck_sim::run_until_traced(&cfg, 500.0, &mut mk_trace(&[]).replay())
                .unwrap()
                .1,
            // FailureCapReached
            dck_sim::run_to_completion_traced(
                &capped,
                1e9,
                &mut mk_trace(&[(1000.0, 0), (2000.0, 2)]).replay(),
            )
            .unwrap()
            .1,
            // NoProgress
            dck_sim::run_to_completion_traced(&stuck, 100.0, &mut mk_trace(&[]).replay())
                .unwrap()
                .1,
        ];
        for (i, timeline) in timelines.iter().enumerate() {
            assert!(
                matches!(timeline.last(), Some(TimelineEvent::Finished { .. })),
                "timeline {i} missing Finished: {timeline:?}"
            );
            let path =
                std::env::temp_dir().join(format!("dck-reason-{}-{i}.jsonl", std::process::id()));
            let lines: String = timeline
                .iter()
                .map(|e| serde_json::to_string(e).unwrap() + "\n")
                .collect();
            std::fs::write(&path, lines).unwrap();
            let out = run_ok(&["validate", "--trace", path.to_str().unwrap()]);
            assert!(out.contains("timestamps ordered"), "timeline {i}: {out}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn validate_checks_bench_reports() {
        let report = BenchReport {
            schema: dck_bench::SCHEMA.to_string(),
            kind: dck_bench::BenchKind::Sweep,
            config: dck_bench::BenchConfig {
                protocol: "double-nbl".to_string(),
                nodes: 64,
                mtbf_s: vec![1800.0],
                phi_ratio: vec![0.5],
                work_in_mtbfs: 4.0,
                replications: 64,
                seed: 1,
                quick: true,
                available_parallelism: Some(2),
            },
            series: vec![dck_bench::BenchSeries {
                label: "sweep".to_string(),
                workers: 2,
                replications: 64,
                elapsed_s: 0.25,
                reps_per_sec: 256.0,
                oversubscribed: Some(false),
            }],
            summary: dck_bench::BenchSummary {
                max_workers: 2,
                scaling_max_vs_one_worker: None,
            },
        };
        let path = std::env::temp_dir().join(format!("dck-bench-{}.json", std::process::id()));
        std::fs::write(&path, report.to_json().unwrap()).unwrap();
        let out = run_ok(&["validate", "--bench", path.to_str().unwrap()]);
        assert!(out.contains("Sweep"), "{out}");

        // A corrupted report is rejected with the defect named.
        let mut bad = report;
        bad.series[0].elapsed_s = -1.0;
        std::fs::write(&path, bad.to_json().unwrap()).unwrap();
        let err = run_err(&["validate", "--bench", path.to_str().unwrap()]);
        assert!(err.contains("elapsed"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_garbage_and_empty_invocation() {
        assert!(run_err(&["validate"]).contains("usage"));
        let path = std::env::temp_dir().join(format!("dck-garbage-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"NotAnEvent\":{}}\n").unwrap();
        let err = run_err(&["validate", "--trace", path.to_str().unwrap()]);
        assert!(err.contains("invalid TimelineEvent"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_empty_trace() {
        let path = std::env::temp_dir().join(format!("dck-empty-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let err = run_err(&["validate", "--trace", path.to_str().unwrap()]);
        assert!(err.contains("no events"), "{err}");
        assert!(
            err.contains(path.to_str().unwrap()),
            "names the path: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_errors_name_the_failing_path() {
        // Every arm must name the artifact it rejected so a CI log
        // pinpoints the broken file without re-running locally.
        for flag in [
            "--trace",
            "--metrics",
            "--sweep",
            "--conformance",
            "--snapshot",
            "--bench",
        ] {
            let err = run_err(&["validate", flag, "/nonexistent/artifact.json"]);
            assert!(err.contains("/nonexistent/artifact.json"), "{flag}: {err}");
        }
        // A structurally-invalid artifact is named too.
        let path = std::env::temp_dir().join(format!("dck-badsnap-{}.json", std::process::id()));
        std::fs::write(&path, "{\"not\": \"a snapshot\"}").unwrap();
        let err = run_err(&["validate", "--metrics", path.to_str().unwrap()]);
        assert!(err.contains(path.to_str().unwrap()), "{err}");
        assert!(err.contains("invalid MetricsSnapshot"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_sweep_accepts_degenerate_null_cells() {
        // A cell where every replication died keeps explicit nulls in
        // the artifact; `validate --sweep` must accept the round-trip,
        // not choke on them.
        let mut spec = SweepSpec::new(
            Protocol::DoubleNbl,
            dck_core::PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap(),
            vec![0.0],
            vec![3600.0],
        );
        spec.replications = 4;
        let result = SweepResult {
            spec,
            cells: vec![dck_sim::SweepCell {
                phi_ratio: 0.0,
                mtbf: 3600.0,
                period: 120.0,
                model_waste: 0.9,
                sim_waste: None,
                half_width: None,
                completed: 0,
                fatal: 4,
                truncated: 0,
                replications_run: 4,
            }],
        };
        let json = serde_json::to_string_pretty(&result).unwrap();
        assert!(json.contains("\"sim_waste\": null"), "{json}");
        assert!(json.contains("\"half_width\": null"), "{json}");

        let path =
            std::env::temp_dir().join(format!("dck-degen-sweep-{}.json", std::process::id()));
        std::fs::write(&path, &json).unwrap();
        let out = run_ok(&["validate", "--sweep", path.to_str().unwrap()]);
        assert!(out.contains("1 cells"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_conformance_report() {
        let path = std::env::temp_dir().join(format!("dck-conf-{}.json", std::process::id()));
        let p = path.to_str().unwrap();
        let mut spec = tiny_conformance_spec();
        let report = run_conformance(&spec).unwrap();
        std::fs::write(&path, report.to_json().unwrap()).unwrap();
        let out = run_ok(&["validate", "--conformance", p]);
        assert!(out.contains("cells"), "{out}");

        // A report with failures is rejected, naming the cell.
        spec.regions[0].tolerance = Tolerance::new(0.0, 0.0);
        let failing = run_conformance(&spec).unwrap();
        assert_eq!(failing.failed, 1, "{failing:?}");
        std::fs::write(&path, failing.to_json().unwrap()).unwrap();
        let err = run_err(&["validate", "--conformance", p]);
        assert!(
            err.contains("out of tolerance") && err.contains("benign"),
            "{err}"
        );

        // Edited to pass, with tallies to match, it is still rejected:
        // the judge re-runs on the stored model and estimate. So are a
        // maximum and a tally the cells do not give.
        let mut flipped = failing;
        flipped.regions[0].cells[0].status = CellStatus::Pass;
        flipped.regions[0].passed += 1;
        flipped.regions[0].failed -= 1;
        flipped.passed += 1;
        flipped.failed -= 1;
        let mut deviation = report.clone();
        deviation.max_abs_deviation += 0.5;
        let mut tally = report;
        tally.regions[0].degenerate += 1;
        for (tampered, expected) in [
            (flipped, "the judge gives"),
            (deviation, "max_abs_deviation"),
            (tally, "1 degenerate"),
        ] {
            std::fs::write(&path, tampered.to_json().unwrap()).unwrap();
            let err = run_err(&["validate", "--conformance", p]);
            assert!(err.contains(expected) && err.contains(p), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_bench_sniffs_the_serve_schema() {
        let report = serve_sample();
        let path =
            std::env::temp_dir().join(format!("dck-serve-bench-{}.json", std::process::id()));
        std::fs::write(&path, report.to_json().unwrap()).unwrap();
        // A serve-schema file is held to the serve validator: break a
        // percentile and the same command must reject it.
        let mut broken = report;
        broken.latency.p99_us = 150;
        std::fs::write(&path, broken.to_json().unwrap()).unwrap();
        let err = run_err(&["validate", "--bench", path.to_str().unwrap()]);
        assert!(err.contains("monotone"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_snapshot_rejects_garbage() {
        // A corrupted snapshot is rejected, naming the file.
        let garbage =
            std::env::temp_dir().join(format!("dck-r99999999-{}.dckpt", std::process::id()));
        std::fs::write(&garbage, "not a snapshot\n").unwrap();
        let err = run_err(&["validate", "--snapshot", garbage.to_str().unwrap()]);
        assert!(err.contains(garbage.to_str().unwrap()), "{err}");
        std::fs::remove_file(&garbage).ok();
    }
}
