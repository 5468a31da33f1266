//! `dck-benchmark`: measure, trace and compare the dck workloads.
//!
//! ```text
//! dck-benchmark measure --workload W [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! dck-benchmark run     [--seed N] [--seconds S] [--out FILE]
//! dck-benchmark trace   [--seed N] [--seconds S] [--out FILE] [--spans-dir DIR]
//! dck-benchmark compare PARENT.json... -- CHANGE.json...
//! dck-benchmark baseline RUN.json...
//! ```
//!
//! `measure` runs one workload in this process and prints its outcome
//! as the last line of standard output. `run` and `trace` run every
//! workload, each in its own child process, print every metric by name
//! with its unit, and write a result set. `--quick` shrinks every input
//! for a smoke run.

use dck_benchmark::catalog::{workload_names, DEFAULT_SECONDS};
use dck_benchmark::compare;
use dck_benchmark::report::{render_table, Outcome, ResultSet, WorkloadResult, RESULT_SCHEMA};
use dck_benchmark::sys;
use dck_benchmark::trace::write_jsonl;
use dck_benchmark::workloads::{self, Opts};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  dck-benchmark measure --workload W [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--quick]
  dck-benchmark run     [--seed N] [--seconds S] [--out FILE] [--quick]
  dck-benchmark trace   [--seed N] [--seconds S] [--out FILE] [--spans-dir DIR] [--quick]
  dck-benchmark compare PARENT.json... -- CHANGE.json...
  dck-benchmark baseline RUN.json...";

/// Parsed `--key value` options plus bare flags and positionals.
struct Args {
    opts: BTreeMap<String, String>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            opts: BTreeMap::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.quick = true,
                Some("") => args.positional.push(a.clone()),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.opts.insert(key.to_string(), value.clone());
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn workload_opts(&self) -> Result<Opts, String> {
        let default = if self.quick { 0.5 } else { DEFAULT_SECONDS };
        let seconds: f64 = self.parsed("seconds", default)?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!(
                "--seconds must be a non-negative number, got {seconds}"
            ));
        }
        Ok(Opts {
            seed: self.parsed("seed", 1)?,
            seconds,
            quick: self.quick,
        })
    }
}

/// Where traced runs write spans by default: under the build directory,
/// which is never committed.
fn default_spans_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("dck-benchmark")
}

fn cmd_measure(args: &Args) -> Result<ExitCode, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let opts = args.workload_opts()?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    eprintln!(
        "{workload}: seed {} for {} s ({}), nproc {}",
        opts.seed,
        opts.seconds,
        if traced {
            "traced copies"
        } else {
            "tracing off"
        },
        sys::nproc()
    );
    let run = if traced {
        workloads::trace(workload, &opts)?
    } else {
        workloads::measure(workload, &opts)?
    };
    for note in &run.notes {
        eprintln!("{note}");
    }
    if traced {
        let path = match args.get("spans") {
            Some(p) => PathBuf::from(p),
            None => default_spans_dir().join(format!("spans-{workload}.jsonl")),
        };
        write_jsonl(&path, &run.spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("{} spans -> {}", run.spans.len(), path.display());
    }
    let outcome = Outcome::new(run.attempted, run.failed, &run.values, traced)?;
    if let Some(d) = run.digest {
        println!("digest {d:016x}");
    }
    println!("{}", outcome.to_line());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own child process.
fn cmd_run(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let opts = args.workload_opts()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let spans_dir = args
        .get("spans-dir")
        .map_or_else(default_spans_dir, PathBuf::from);
    let mut results = Vec::new();
    let mut ok = true;
    for workload in workload_names() {
        let mut cmd = Command::new(&exe);
        cmd.args(["measure", "--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if traced {
            cmd.arg("--spans")
                .arg(spans_dir.join(format!("spans-{workload}.jsonl")));
        }
        if opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let outcome = match Outcome::from_line(stdout.lines().last().unwrap_or_default()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{workload}: no result ({e})");
                Outcome::missing()
            }
        };
        ok &= out.status.success() && outcome.correct;
        results.push(WorkloadResult {
            name: workload.to_string(),
            digest: stdout
                .lines()
                .find_map(|l| l.strip_prefix("digest "))
                .map(str::to_string),
            outcome,
        });
    }
    print!("{}", render_table(&results));
    let set = ResultSet {
        schema: RESULT_SCHEMA.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: traced,
        nproc: sys::nproc(),
        rustc: sys::tool_output("rustc", &["-V"]),
        commit: sys::tool_output("git", &["rev-parse", "HEAD"]),
        workloads: results,
    };
    if let Some(path) = args.get("out") {
        let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("results -> {path}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_all(paths: &[String]) -> Result<Vec<ResultSet>, String> {
    paths.iter().map(|p| ResultSet::load(p)).collect()
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let split = args
        .positional
        .iter()
        .position(|a| a == "--")
        .ok_or("separate the parent's and the change's result sets with --")?;
    let parent = load_all(&args.positional[..split])?;
    let change = load_all(&args.positional[split + 1..])?;
    let c = compare::compare(&parent, &change)?;
    print!("{}", c.render());
    Ok(if c.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_baseline(args: &Args) -> Result<ExitCode, String> {
    let sets = load_all(&args.positional)?;
    if sets.is_empty() {
        return Err("baseline needs at least one result set".to_string());
    }
    let text =
        serde_json::to_string_pretty(&compare::baseline(&sets)).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "measure" => cmd_measure(&args),
        "run" => cmd_run(&args, false),
        "trace" => cmd_run(&args, true),
        "compare" => cmd_compare(&args),
        "baseline" => cmd_baseline(&args),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dck-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
