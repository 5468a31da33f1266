//! Self-checks of the benchmark against its own contract:
//! `BENCHMARK.json` declares exactly what the program emits, and a
//! quick run of every workload passes its checks within budget.

use dck_benchmark::catalog::{self, DEFAULT_SECONDS, END_TO_END, LAYERS, WORKLOADS};
use dck_benchmark::report::ResultSet;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn benchmark_json_mirrors_the_catalog() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        m.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        m.get("paths"),
        Some(&Value::Array(vec![Value::String("benchmark".into())]))
    );
    let command = m.get("command").and_then(Value::as_array).unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let s = part.as_str().unwrap();
        assert!(
            s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
            "{s}"
        );
    }

    let workloads = m.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(j.as_object().unwrap().len(), 2);
        assert_eq!((field(j, "name"), field(j, "why")), (w.name, w.why));
    }

    let e2e = m.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(
        names(&m, "end_to_end"),
        END_TO_END.map(|e| e.name.to_string())
    );
    for (j, e) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(j.as_object().unwrap().len(), 4);
        assert_eq!(field(j, "unit"), e.unit);
        assert_eq!(field(j, "better"), e.better.as_str());
        assert_eq!(j.get("bound").and_then(Value::as_f64), Some(e.bound));
    }

    let layers = m.get("per_layer").and_then(Value::as_array).unwrap();
    assert_eq!(
        names(&m, "per_layer"),
        LAYERS
            .iter()
            .map(|l| l.name.to_string())
            .collect::<Vec<_>>()
    );
    for (j, l) in layers.iter().zip(LAYERS) {
        assert_eq!(j.as_object().unwrap().len(), 3);
        assert_eq!(
            (field(j, "unit"), field(j, "better")),
            (l.unit, l.better.as_str())
        );
    }
    assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && LAYERS.len() <= 128);
    for n in names(&m, "end_to_end")
        .iter()
        .chain(&names(&m, "per_layer"))
    {
        assert!(catalog::valid_name(n), "{n}");
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_quick(dir: &Path, traced: bool) -> (f64, ResultSet) {
    let out = dir.join(if traced { "trace.json" } else { "run.json" });
    let start = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_dck-benchmark"))
        .arg(if traced { "trace" } else { "run" })
        .args(["--quick", "--seed", "3", "--out"])
        .arg(&out)
        .args(["--spans-dir"])
        .arg(dir)
        .status()
        .expect("the benchmark runs");
    let secs = start.elapsed().as_secs_f64();
    assert!(
        status.success(),
        "quick {} failed",
        if traced { "trace" } else { "run" }
    );
    (secs, ResultSet::load(out.to_str().unwrap()).unwrap())
}

fn emitted(set: &ResultSet, workload: &str) -> Vec<String> {
    set.workload(workload)
        .unwrap_or_else(|| panic!("{workload} missing"))
        .outcome
        .metrics
        .keys()
        .cloned()
        .collect()
}

/// One test, so the quick runs are timed without other tests competing
/// for the cores.
#[test]
fn quick_runs_emit_every_declared_metric_and_pass_their_checks() {
    let m = manifest();
    let dir = scratch("selfcheck");

    let (secs, run) = run_quick(&dir, false);
    assert!(secs <= 10.0, "quick run of all workloads took {secs:.1} s");
    let mut declared = names(&m, "end_to_end");
    declared.sort_unstable();
    for w in &WORKLOADS {
        let r = run.workload(w.name).unwrap();
        assert!(
            r.outcome.correct && r.outcome.failed == 0,
            "{}: {:?}",
            w.name,
            r.outcome
        );
        assert_eq!(emitted(&run, w.name), declared, "{}", w.name);
    }
    assert!(run.workload("sweep-base").unwrap().digest.is_some());

    let (_, traced) = run_quick(&dir, true);
    let mut declared = names(&m, "per_layer");
    declared.sort_unstable();
    for w in &WORKLOADS {
        assert_eq!(emitted(&traced, w.name), declared, "{}", w.name);
        let spans = std::fs::read_to_string(dir.join(format!("spans-{}.jsonl", w.name))).unwrap();
        let first: Value = serde_json::from_str(spans.lines().next().unwrap()).unwrap();
        for key in ["name", "start_ns", "end_ns", "parent", "id"] {
            assert!(first.get(key).is_some(), "{}: span lacks {key}", w.name);
        }
    }
}
