//! Command implementations: a checked command line → rendered report.
//! [`crate::commands`] maps each command name to one of these.

use crate::parse::{
    format_duration, parse_duration, resolve_params, resolve_phi, resolve_protocol, Args,
};
use dck_bench::Report as _;
use dck_core::{
    base_success_probability, optimal_period, proactive_cost, ControllerConfig, Evaluation,
    PredictorSpec, Protocol, RiskModel, Scenario,
};
use dck_experiments::output::{ascii_table, fmt_f64};
use dck_failures::{AggregatedExponential, FailureSource, FailureTrace, MtbfSpec};
use dck_obs::{JsonlSink, MetricsSnapshot};
use dck_sim::{
    estimate_waste, replication_source, run_regret, run_sweep_with_checkpoint,
    run_to_completion_sinked, EarlyStop, MonteCarloConfig, RegretCase, RegretScenario, RegretSpec,
    RunConfig, RunOutcome, SweepCheckpoint, SweepSpec,
};
use dck_simcore::{fsio, stats::Tolerance, RngFactory, SimTime};
use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::Path;

pub(crate) fn cmd_scenarios(_args: &Args) -> Result<String, String> {
    let rows: Vec<Vec<String>> = Scenario::all()
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format_duration(s.params.downtime),
                format_duration(s.params.delta),
                format_duration(s.params.theta_min),
                format!("{}", s.params.alpha),
                format!("{}", s.params.nodes),
                s.description.clone(),
            ]
        })
        .collect();
    Ok(ascii_table(
        &["scenario", "D", "delta", "R", "alpha", "n", "description"],
        &rows,
    ))
}

pub(crate) fn cmd_waste(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let protocol = resolve_protocol(args, None)?;
    let phi = resolve_phi(args, &params)?;
    let mtbf = args.get_duration("mtbf", 7.0 * 3600.0)?;
    let e =
        Evaluation::at_optimal_period(protocol, &params, phi, mtbf).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on scenario {scenario}, M = {}",
        protocol,
        format_duration(mtbf)
    );
    let _ = writeln!(
        out,
        "  phi = {} (ratio {:.2}), theta = {}",
        fmt_f64(e.phi),
        e.phi / params.theta_min,
        format_duration(e.theta)
    );
    let _ = writeln!(
        out,
        "  optimal period P* = {} ({:?})",
        format_duration(e.period),
        e.period_source
    );
    let _ = writeln!(
        out,
        "  period structure: first {} | exchange {} | compute {}",
        format_duration(e.structure.first),
        format_duration(e.structure.exchange),
        format_duration(e.structure.sigma)
    );
    let _ = writeln!(
        out,
        "  waste: fault-free {:.4} + failures {:.4} -> total {:.4}",
        e.waste.fault_free, e.waste.failure_induced, e.waste.total
    );
    if let Ok(r) = dck_core::refined_waste(protocol, &params, phi, e.period, mtbf) {
        let _ = writeln!(
            out,
            "  refined (restart-aware) waste: {:.4} (first-order Eq. 5: {:.4})",
            r.total, r.first_order
        );
    }
    let _ = writeln!(out, "  efficiency: {:.2}%", 100.0 * e.efficiency());
    let _ = writeln!(
        out,
        "  risk window after a failure: {}",
        format_duration(e.risk_window)
    );
    Ok(out)
}

pub(crate) fn cmd_period(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let phi = resolve_phi(args, &params)?;
    let mtbf = args.get_duration("mtbf", 7.0 * 3600.0)?;
    let rows: Vec<Vec<String>> = Protocol::registry()
        .iter()
        .map(|&p| {
            let opt = optimal_period(p, &params, phi, mtbf).map_err(|e| e.to_string())?;
            Ok(vec![
                p.to_string(),
                format_duration(opt.period),
                format!("{:?}", opt.source),
                format!("{:.4}", opt.waste.fault_free),
                format!("{:.4}", opt.waste.failure_induced),
                format!("{:.4}", opt.waste.total),
            ])
        })
        .collect::<Result<_, String>>()?;
    Ok(format!(
        "Optimal periods on scenario {scenario}, M = {}, phi = {}\n{}",
        format_duration(mtbf),
        fmt_f64(phi),
        ascii_table(
            &[
                "protocol",
                "P*",
                "source",
                "waste_ff",
                "waste_fail",
                "waste"
            ],
            &rows
        )
    ))
}

pub(crate) fn cmd_risk(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let mtbf = args.get_duration("mtbf", 7.0 * 3600.0)?;
    let life = args.get_duration("life", 30.0 * 86_400.0)?;
    // Figures 6/9 pin θ at its maximum; allow overriding via phi-ratio.
    let theta = match args.get("phi-ratio") {
        Some(_) => {
            let phi = resolve_phi(args, &params)?;
            dck_core::OverlapModel::new(&params)
                .theta_of_phi(phi)
                .map_err(|e| e.to_string())?
        }
        None => params.theta_max(),
    };
    let mut rows = Vec::new();
    for p in Protocol::registry() {
        let rm = RiskModel::with_theta(p, &params, theta).map_err(|e| e.to_string())?;
        let s = rm
            .success_probability(mtbf, life)
            .map_err(|e| e.to_string())?;
        rows.push(vec![
            p.to_string(),
            format_duration(s.risk_window),
            format!("{:.6}", s.probability),
            format!("{:.3e}", 1.0 - s.probability),
        ]);
    }
    let p_base = base_success_probability(&params, mtbf, life).map_err(|e| e.to_string())?;
    rows.push(vec![
        "no checkpointing".into(),
        "-".into(),
        format!("{:.6}", p_base),
        format!("{:.3e}", 1.0 - p_base),
    ]);
    Ok(format!(
        "Success probability on scenario {scenario}: M = {}, platform life = {}, theta = {}\n{}",
        format_duration(mtbf),
        format_duration(life),
        format_duration(theta),
        ascii_table(
            &["protocol", "risk window", "P(success)", "P(fatal)"],
            &rows
        )
    ))
}

pub(crate) fn cmd_compare(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let phi = resolve_phi(args, &params)?;
    let mtbf = args.get_duration("mtbf", 7.0 * 3600.0)?;
    let life = args.get_duration("life", 30.0 * 86_400.0)?;
    let mut rows = Vec::new();
    for p in Protocol::EVALUATED {
        let e = Evaluation::at_optimal_period(p, &params, phi, mtbf).map_err(|e| e.to_string())?;
        let surv = e
            .success_probability(&params, life)
            .map_err(|e| e.to_string())?;
        rows.push(vec![
            p.to_string(),
            format_duration(e.period),
            format!("{:.4}", e.waste.total),
            format!("{:.2}%", 100.0 * e.efficiency()),
            format_duration(e.risk_window),
            format!("{:.6}", surv),
        ]);
    }
    Ok(format!(
        "Scenario {scenario}: M = {}, phi = {}, life = {}\n{}",
        format_duration(mtbf),
        fmt_f64(phi),
        format_duration(life),
        ascii_table(
            &[
                "protocol",
                "P*",
                "waste",
                "efficiency",
                "risk window",
                "P(success)"
            ],
            &rows
        )
    ))
}

pub(crate) fn cmd_optimize(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let mtbf = args.get_duration("mtbf", 7.0 * 3600.0)?;
    let mut rows = Vec::new();
    for p in Protocol::EVALUATED {
        let op = dck_core::optimal_operating_point(p, &params, mtbf).map_err(|e| e.to_string())?;
        rows.push(vec![
            p.to_string(),
            fmt_f64(op.phi),
            format!("{:.2}", op.phi / params.theta_min),
            format_duration(op.theta),
            format_duration(op.period),
            format!("{:.4}", op.waste.total),
        ]);
    }
    Ok(format!(
        "Waste-optimal overhead on scenario {scenario}, M = {}\n\
         (phi* trades transfer overlap against per-failure loss; see phi-choice experiment)\n{}",
        format_duration(mtbf),
        ascii_table(
            &["protocol", "phi*", "phi*/R", "theta*", "P*", "waste*"],
            &rows
        )
    ))
}

pub(crate) fn cmd_hierarchical(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let phi = resolve_phi(args, &params)?;
    let mtbf = args.get_duration("mtbf", 600.0)?;
    let write = args.get_duration("write", 600.0)?;
    let read = args.get_duration("read", write)?;
    let life = args.get_duration("life", 30.0 * 86_400.0)?;
    let store = dck_core::GlobalStore::new(write, read).map_err(|e| e.to_string())?;

    let mut rows = Vec::new();
    for p in Protocol::EVALUATED {
        let hm =
            dck_core::HierarchicalModel::new(p, &params, phi, store).map_err(|e| e.to_string())?;
        let level1 = optimal_period(p, &params, phi, mtbf).map_err(|e| e.to_string())?;
        let rm = RiskModel::new(p, &params, phi).map_err(|e| e.to_string())?;
        let p_success = rm
            .success_probability(mtbf, life)
            .map_err(|e| e.to_string())?
            .probability;
        let best = hm.optimal(mtbf, 100_000_000).map_err(|e| e.to_string())?;
        rows.push(vec![
            p.to_string(),
            format!("{:.4}", level1.waste.total),
            format!("{:.6}", p_success),
            best.periods_per_global.to_string(),
            format_duration(best.segment),
            format!("{:.4}", best.waste),
            format!("{:.2}", best.fatal_rate * life),
        ]);
    }
    Ok(format!(
        "Two-level checkpointing on scenario {scenario}: M = {}, phi = {}, Cg = {}, Rg = {}\n\
         (fatal buddy failures become rollbacks to the last global checkpoint)\n{}",
        format_duration(mtbf),
        fmt_f64(phi),
        format_duration(write),
        format_duration(read),
        ascii_table(
            &[
                "protocol",
                "L1 waste",
                "L1 P(life)",
                "K*",
                "segment",
                "2-level waste",
                "rollbacks/life"
            ],
            &rows
        )
    ))
}

/// Reads `path` whole, naming it in the error.
pub(crate) fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes `contents` to `path` atomically.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    fsio::atomic_write(Path::new(path), contents.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes a pretty-printed metrics snapshot to `path` atomically.
fn write_metrics(path: &str, snapshot: &MetricsSnapshot) -> Result<(), String> {
    let json = serde_json::to_string_pretty(snapshot).map_err(|e| e.to_string())?;
    write_file(path, &(json + "\n"))
}

/// The outcome lines shared by `dck run` and `dck inject`.
fn write_outcome(out: &mut String, outcome: &RunOutcome) {
    let _ = writeln!(
        out,
        "  outcome: {:?} after {} ({} useful, {} in outages, {} failures)",
        outcome.reason,
        format_duration(outcome.total_time),
        format_duration(outcome.useful_work),
        format_duration(outcome.outage_time),
        outcome.failures
    );
    let _ = writeln!(out, "  empirical waste: {:.5}", outcome.waste());
    if let Some(at) = outcome.fatal_at {
        let _ = writeln!(out, "  fatal failure at {}", format_duration(at));
    }
}

/// Runs `f`, and when `on` is set runs it in a metrics session: the
/// process-wide registry is reset and enabled for `f`, its counters are
/// snapshotted, and the enable flag is restored as it was found.
fn metered<T>(on: bool, f: impl FnOnce() -> T) -> (T, Option<MetricsSnapshot>) {
    if !on {
        return (f(), None);
    }
    dck_obs::reset();
    let was = dck_obs::set_enabled(true);
    let out = f();
    let snapshot = dck_obs::snapshot();
    dck_obs::set_enabled(was);
    (out, Some(snapshot))
}

/// `dck run`: one observable run of replication `--rep`, or with
/// `--reps N` the Monte-Carlo estimate over replications `0..N` of the
/// same seed, set against the model.
pub(crate) fn cmd_run(args: &Args) -> Result<String, String> {
    let (params, scenario) = resolve_params(args)?;
    let protocol = resolve_protocol(args, None)?;
    let phi = resolve_phi(args, &params)?;
    let mtbf = args.get_duration("mtbf", 3600.0)?;
    let work = args.get_positive_duration("work", 40.0 * 3600.0)?;
    let seed: u64 = args.get_parsed("seed", 0xDC)?;
    let reps: Option<usize> =
        args.get_count_opt("reps", "a zero-replication run estimates nothing")?;
    let metrics_path = args.get("metrics").map(str::to_string);
    let run_cfg = RunConfig::new(protocol, params, phi, mtbf);
    // Every check on the operating point (MTBF, group layout) lives in
    // the run machinery: build it once so bad input fails typed before
    // a failure source is drawn.
    run_cfg.build().map_err(|e| e.to_string())?;
    let mc = MonteCarloConfig::new(reps.unwrap_or(1), seed);

    let mut out = String::new();
    let snapshot = match reps {
        Some(reps) => {
            let (est, snapshot) = metered(metrics_path.is_some(), || {
                estimate_waste(&run_cfg, work, &mc)
            });
            let est = est.map_err(|e| e.to_string())?;
            let model = optimal_period(protocol, &params, phi, mtbf)
                .map_err(|e| e.to_string())?
                .waste
                .total;
            let _ = writeln!(
                out,
                "Monte-Carlo waste, {} on scenario {scenario} ({} nodes simulated)",
                protocol,
                run_cfg.usable_nodes()
            );
            let _ = writeln!(
                out,
                "  M = {}, phi = {}, work per run = {}, {reps} replications (seed {seed})",
                format_duration(mtbf),
                fmt_f64(phi),
                format_duration(work)
            );
            let _ = match est.ci95 {
                Some(ci) => writeln!(
                    out,
                    "  simulated waste: {:.5} ± {:.5} (95% CI over {} completed runs)",
                    ci.mean, ci.half_width, est.completed
                ),
                None => writeln!(
                    out,
                    "  simulated waste: n/a (no replication completed its work)"
                ),
            };
            let _ = writeln!(out, "  model waste (Eqs. 5/7/8/14): {model:.5}");
            let _ = writeln!(
                out,
                "  mean failures per run: {:.1}; fatal runs: {}; truncated: {}",
                est.failures.mean(),
                est.fatal,
                est.truncated
            );
            let verdict = match est.ci95 {
                Some(ci) if Tolerance::new(4.0, 0.0).admits(model, ci.mean, ci.half_width) => {
                    "model within Monte-Carlo tolerance"
                }
                Some(_) => "MODEL OUTSIDE TOLERANCE",
                None => "DEGENERATE ESTIMATE: every replication was fatal or truncated",
            };
            let _ = writeln!(out, "  -> {verdict}");
            snapshot
        }
        None => {
            let rep: u64 = args.get_parsed("rep", 0)?;
            let trace_path = args.get("trace").map(str::to_string);
            let (result, snapshot) = metered(metrics_path.is_some(), || {
                // The exact stream replication `rep` of `dck run --reps`
                // (same seed) consumes — a traced run reproduces one
                // Monte-Carlo sample.
                let mut source = replication_source(&run_cfg, &mc, rep);
                match &trace_path {
                    Some(path) => run_traced(&run_cfg, work, source.as_mut(), path)
                        .map(|(o, lines)| (o, Some(lines))),
                    None => dck_sim::run_to_completion(&run_cfg, work, source.as_mut())
                        .map(|o| (o, None))
                        .map_err(|e| e.to_string()),
                }
            });
            let (outcome, trace_lines) = result?;
            let _ = writeln!(
                out,
                "Run: {} on scenario {scenario} ({} nodes), replication {rep} of seed {seed}",
                protocol,
                run_cfg.usable_nodes()
            );
            let _ = writeln!(
                out,
                "  M = {}, phi = {}, work = {}, period = optimal",
                format_duration(mtbf),
                fmt_f64(phi),
                format_duration(work)
            );
            write_outcome(&mut out, &outcome);
            if let (Some(path), Some(lines)) = (&trace_path, trace_lines) {
                let _ = writeln!(out, "  timeline: {lines} events -> {path}");
            }
            snapshot
        }
    };
    if let (Some(path), Some(snapshot)) = (&metrics_path, &snapshot) {
        write_metrics(path, snapshot)?;
        let _ = writeln!(out, "  metrics -> {path}");
        out.push_str(&snapshot.to_table());
    }
    Ok(out)
}

/// One run streamed as a JSONL timeline into a temp sibling of `path`,
/// fsynced, then renamed into place: a kill mid-run never leaves a
/// truncated trace under the final name. Returns the outcome and the
/// number of events written.
fn run_traced(
    run_cfg: &RunConfig,
    work: f64,
    source: &mut dyn FailureSource,
    path: &str,
) -> Result<(RunOutcome, u64), String> {
    let dest = Path::new(path);
    let tmp = fsio::temp_sibling(dest);
    let file = std::fs::File::create(&tmp).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut sink = JsonlSink::new(BufWriter::new(file));
    let outcome =
        run_to_completion_sinked(run_cfg, work, source, &mut sink).map_err(|e| e.to_string());
    let committed = outcome.and_then(|o| {
        sink.finish_with_writer()
            .and_then(|(lines, writer)| {
                let file = writer
                    .into_inner()
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                file.sync_all()?;
                fsio::commit(&tmp, dest)?;
                Ok((o, lines))
            })
            .map_err(|e| format!("cannot write {path}: {e}"))
    });
    if committed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    committed
}

pub(crate) fn cmd_inject(args: &Args) -> Result<String, String> {
    let script_path = args
        .get("script")
        .ok_or("usage: dck inject --script FILE (see dck help)")?
        .to_string();
    let trace_path = args.get("trace").map(str::to_string);
    let golden_path = args.get("golden").map(str::to_string);

    let text = read_file(&script_path)?;
    let script =
        dck_testkit::FaultScript::from_json(&text).map_err(|e| format!("{script_path}: {e}"))?;
    let compiled = script.compile()?;
    let result = compiled.execute()?;
    let outcome = &result.outcome;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Inject: script `{}` — {} ({} nodes, {} scripted faults)",
        script.name,
        script.protocol,
        compiled.config.usable_nodes(),
        compiled.trace.len()
    );
    if !script.description.is_empty() {
        let _ = writeln!(out, "  {}", script.description);
    }
    let _ = writeln!(
        out,
        "  M = {}, phi/R = {:.2}, period = {}, risk window = {}, work = {}",
        format_duration(script.mtbf),
        script.phi_ratio,
        format_duration(compiled.period),
        format_duration(compiled.risk_window),
        format_duration(compiled.work)
    );
    write_outcome(&mut out, outcome);
    match script.expect.check(outcome) {
        Ok(()) => {
            let _ = writeln!(out, "  expectation: satisfied");
        }
        Err(e) => return Err(format!("script `{}`: expectation failed: {e}", script.name)),
    }
    if let Some(path) = &trace_path {
        let jsonl = dck_testkit::golden::timeline_to_jsonl(&result.timeline)?;
        write_file(path, &jsonl)?;
        let _ = writeln!(
            out,
            "  timeline: {} events -> {path}",
            result.timeline.len()
        );
    }
    if let Some(path) = &golden_path {
        let text = read_file(path)?;
        let golden =
            dck_testkit::golden::timeline_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        match dck_testkit::diff_timelines(
            &golden,
            &result.timeline,
            dck_testkit::diff::FLOAT_TOLERANCE,
        ) {
            Some(divergence) => {
                return Err(format!("golden mismatch against {path}: {divergence}"))
            }
            None => {
                let _ = writeln!(out, "  golden: matches {path} ({} events)", golden.len());
            }
        }
    }
    Ok(out)
}

/// Upward search for the workspace root: the nearest ancestor with an
/// `analyze.toml`, else the nearest with a `Cargo.toml` declaring a
/// `[workspace]`.
fn find_workspace_root() -> Result<std::path::PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    for dir in start.ancestors() {
        if dir.join("analyze.toml").is_file() {
            return Ok(dir.to_path_buf());
        }
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir.to_path_buf());
                }
            }
        }
    }
    Err(format!(
        "no workspace root found above {} (looked for analyze.toml or a [workspace] manifest); pass --root DIR",
        start.display()
    ))
}

pub(crate) fn cmd_lint(args: &Args) -> Result<String, String> {
    let baseline = match args.positional(1) {
        None => false,
        Some("baseline") => true,
        Some(other) => return Err(format!("unknown lint mode `{other}` (expected `baseline`)")),
    };
    let format = args.get("format").unwrap_or("human");
    if !matches!(format, "human" | "json" | "sarif") {
        return Err(format!("unknown --format `{format}` (human|json|sarif)"));
    }
    if let Some(name) = args.get("explain") {
        return explain_lint(name);
    }
    let root = match args.get("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => find_workspace_root()?,
    };
    if !root.is_dir() {
        return Err(format!("--root {} is not a directory", root.display()));
    }
    if args.get("graph") == Some("true") {
        return dck_analyze::dump_call_graph(&root);
    }
    let config_path = match args.get("config") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("analyze.toml"),
    };
    let config = if config_path.is_file() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
        dck_analyze::AnalyzeConfig::from_toml(&text)
            .map_err(|e| format!("{}: {e}", config_path.display()))?
    } else {
        dck_analyze::AnalyzeConfig::default()
    };
    let out_path = args.get("out").map(str::to_string);
    let report = dck_analyze::scan(&root, &config)?;

    if baseline {
        // Starting point for a new baseline: justifications are left
        // empty on purpose — the scan rejects them until written.
        let deny: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.severity == dck_analyze::Severity::Deny)
            .cloned()
            .collect();
        return Ok(dck_analyze::AnalyzeConfig::baseline_toml(&deny));
    }
    // The JSON and SARIF artifacts are written even when the scan
    // fails, so CI can upload them from a failing job.
    if let Some(path) = &out_path {
        write_file(path, &report.to_json()?)?;
    }
    if let Some(path) = args.get("sarif").map(str::to_string) {
        write_file(&path, &dck_analyze::sarif::render(&report)?)?;
    }
    if report.is_clean() {
        match format {
            "json" => report.to_json(),
            "sarif" => dck_analyze::sarif::render(&report),
            _ => Ok(report.to_human()),
        }
    } else {
        Err(report.to_human())
    }
}

/// `dck lint --explain NAME`: the lint's registry entry rendered as a
/// card — what it matches, why the rule exists, and a bad/good pair.
fn explain_lint(name: &str) -> Result<String, String> {
    let catalog = dck_analyze::catalog();
    let Some(info) = catalog.iter().find(|i| i.name == name) else {
        let names: Vec<&str> = catalog.iter().map(|i| i.name).collect();
        return Err(format!(
            "unknown lint `{name}`; available: {}",
            names.join(", ")
        ));
    };
    let scope = if info.workspace {
        "workspace (call-graph)"
    } else {
        "per-file (token pattern)"
    };
    Ok(format!(
        "{} [{} by default, {scope}]\n  {}\n\nwhy\n  {}\n\nflagged\n{}\n\naccepted\n{}\n",
        info.name,
        info.default_severity,
        info.description,
        info.explanation.rationale,
        indent(info.explanation.bad),
        indent(info.explanation.good),
    ))
}

fn indent(block: &str) -> String {
    block
        .trim_end()
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

pub(crate) fn cmd_sweep(args: &Args) -> Result<String, String> {
    let format = args.get("format").unwrap_or("ascii");
    if !matches!(format, "ascii" | "csv" | "json") {
        return Err(format!("unknown --format `{format}` (ascii|csv|json)"));
    }
    let (params, scenario) = resolve_params(args)?;
    let protocol = resolve_protocol(args, None)?;

    let phi_ratios = args.get_list("phi-ratios", vec![0.0, 0.5, 1.0], |s| {
        s.parse::<f64>().map_err(|e| e.to_string())
    })?;
    let mtbfs = args.get_list(
        "mtbfs",
        vec![1_800.0, 3_600.0, 7.0 * 3_600.0],
        parse_duration,
    )?;

    let mut spec = SweepSpec::new(protocol, params, phi_ratios, mtbfs);
    spec.work_in_mtbfs = args.get_parsed("work-mtbfs", spec.work_in_mtbfs)?;
    spec.replications = args.get_count(
        "reps",
        spec.replications,
        "a zero-replication sweep estimates nothing",
    )?;
    spec.seed = args.get_parsed("seed", spec.seed)?;
    // --workers 0 is the documented "auto" value (size to the machine);
    // negatives are already rejected by the usize parse.
    spec.workers = args.get_parsed("workers", 0)?;
    if let Some(target) = args.get("target-hw") {
        let target_half_width: f64 = target
            .parse()
            .map_err(|e| format!("bad --target-hw `{target}`: {e}"))?;
        let mut es = EarlyStop::at_half_width(target_half_width);
        es.min_replications = args.get_parsed("min-reps", es.min_replications)?;
        es.batch = args.get_parsed("batch", es.batch)?;
        spec.early_stop = Some(es);
    }
    let checkpoint = match args.get("checkpoint") {
        Some(dir) => {
            let mut ck = SweepCheckpoint::new(dir);
            // Explicit vs defaulted matters on resume: an explicit
            // cadence that disagrees with the one the snapshot records
            // is a typed error, a defaulted one honors the snapshot.
            ck.every_explicit = args.get("checkpoint-every").is_some();
            ck.every_rounds = args.get_count(
                "checkpoint-every",
                ck.every_rounds,
                "0 rounds per snapshot is not a schedule",
            )?;
            ck.keep_snapshots = args.get_parsed("keep-snapshots", ck.keep_snapshots)?;
            ck.resume = args.get_parsed("resume", false)?;
            ck.max_rounds = args.get_count_opt(
                "max-rounds",
                "a zero-round budget would pause before doing any work",
            )?;
            Some(ck)
        }
        None => None,
    };

    let out_path = args.get("out").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let (result, snapshot) = metered(metrics_path.is_some(), || {
        run_sweep_with_checkpoint(&spec, checkpoint.as_ref())
    });
    let result = result.map_err(|e| e.to_string())?;
    if let (Some(path), Some(snapshot)) = (&metrics_path, &snapshot) {
        write_metrics(path, snapshot)?;
    }

    let rendered = match format {
        "json" => serde_json::to_string_pretty(&result)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| e.to_string()),
        "csv" => {
            let mut out = String::from(
                "phi_ratio,mtbf_s,period_s,model_waste,sim_waste,half_width,\
                 completed,fatal,truncated,replications_run\n",
            );
            for c in &result.cells {
                let opt = |v: Option<f64>| v.map(|x| format!("{x}")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{}",
                    c.phi_ratio,
                    c.mtbf,
                    c.period,
                    c.model_waste,
                    opt(c.sim_waste),
                    opt(c.half_width),
                    c.completed,
                    c.fatal,
                    c.truncated,
                    c.replications_run
                );
            }
            Ok(out)
        }
        _ => {
            let rows: Vec<Vec<String>> = result
                .cells
                .iter()
                .map(|c| {
                    vec![
                        format!("{:.2}", c.phi_ratio),
                        format_duration(c.mtbf),
                        format_duration(c.period),
                        format!("{:.4}", c.model_waste),
                        match (c.sim_waste, c.half_width) {
                            (Some(s), Some(h)) => format!("{s:.4} ± {h:.4}"),
                            _ => "degenerate".to_string(),
                        },
                        format!("{}/{}/{}", c.completed, c.fatal, c.truncated),
                        format!("{}", c.replications_run),
                    ]
                })
                .collect();
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Waste sweep, {} on scenario {scenario} ({} cells, seed {})",
                protocol,
                result.cells.len(),
                result.spec.seed
            );
            out.push_str(&ascii_table(
                &[
                    "phi/R",
                    "MTBF",
                    "P*",
                    "model",
                    "sim waste (95% CI)",
                    "ok/fatal/trunc",
                    "reps",
                ],
                &rows,
            ));
            let _ = writeln!(
                out,
                "max |model - sim| over well-estimated cells: {:.4}; total replications: {}",
                result.max_model_deviation(),
                result.total_replications_run()
            );
            Ok(out)
        }
    };
    let mut rendered = rendered?;
    // Append the counter table to human-readable output only; csv/json
    // stay machine-parseable (the snapshot lives in the --metrics file).
    if format == "ascii" {
        if let Some(snapshot) = &snapshot {
            rendered.push_str("\nobservability metrics:\n");
            rendered.push_str(&snapshot.to_table());
        }
    }
    match &out_path {
        Some(path) => {
            write_file(path, &rendered)?;
            Ok(format!("sweep: {} cells -> {path}\n", result.cells.len()))
        }
        None => Ok(rendered),
    }
}

pub(crate) fn cmd_adapt(args: &Args) -> Result<String, String> {
    let (params, _scenario) = resolve_params(args)?;
    let protocol = resolve_protocol(args, Some(Protocol::DoubleNbl))?;
    let phi = resolve_phi(args, &params)?;
    let true_mtbf = args.get_duration("mtbf", 7.0 * 3600.0)?;
    let work_in_mtbfs: f64 = args.get_parsed("work-mtbfs", 80.0)?;
    let replications: usize =
        args.get_count("reps", 24, "a zero-replication run measures nothing")?;
    let seed: u64 = args.get_parsed("seed", 0xADA7)?;
    let tolerance: f64 = args.get_parsed("tolerance", dck_bench::DEFAULT_STATIONARY_TOLERANCE)?;
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err("--tolerance must be a positive fraction".into());
    }
    let out_path = args.get("out").unwrap_or("BENCH_adapt.json").to_string();

    let mut controller = ControllerConfig::default();
    controller.hysteresis = args.get_parsed("hysteresis", controller.hysteresis)?;
    controller.min_failures = args.get_parsed("min-failures", controller.min_failures)?;
    if let Some(hl) = args.get("half-life") {
        controller.half_life = Some(parse_duration(hl)?);
    }
    controller.validate().map_err(|e| e.to_string())?;

    // Predictor for the predicted scenario: the lead window must cover
    // the proactive checkpoint, whatever the platform parameters are.
    let predictor = PredictorSpec::new(0.9, 0.7, 2.0 * proactive_cost(&params));
    let spec = RegretSpec {
        protocol,
        params,
        phi,
        true_mtbf,
        work_in_mtbfs,
        replications,
        seed,
        controller,
        cases: vec![
            RegretCase {
                name: "mtbf-over-x4".into(),
                scenario: RegretScenario::Misspecified { factor: 4.0 },
            },
            RegretCase {
                name: "mtbf-under-x0.25".into(),
                scenario: RegretScenario::Misspecified { factor: 0.25 },
            },
            RegretCase {
                name: "drift-degrading-x0.25".into(),
                scenario: RegretScenario::Drift { end_factor: 0.25 },
            },
            RegretCase {
                name: "predicted-over-x4".into(),
                scenario: RegretScenario::Predicted {
                    factor: 4.0,
                    predictor,
                },
            },
        ],
    };
    let results = run_regret(&spec).map_err(|e| e.to_string())?;

    let report = dck_bench::AdaptReport::from_results(
        dck_bench::AdaptBenchConfig {
            protocol: protocol.to_string(),
            nodes: params.nodes,
            true_mtbf_s: true_mtbf,
            phi_ratio: if params.theta_min > 0.0 {
                phi / params.theta_min
            } else {
                0.0
            },
            work_in_mtbfs,
            replications,
            seed,
            hysteresis: controller.hysteresis,
            min_failures: controller.min_failures,
            half_life_s: controller.half_life,
        },
        &results,
        tolerance,
    );

    let mut rows = Vec::new();
    for s in &report.scenarios {
        rows.push(vec![
            s.name.clone(),
            s.kind.clone(),
            format_duration(s.believed_mtbf_s),
            format_duration(s.oracle_mtbf_s),
            format!("{:.4}", s.adaptive_waste),
            format!("{:.4}", s.static_waste),
            format!("{:.4}", s.oracle_waste),
            format!("{:+.1}%", 100.0 * s.regret_ratio),
            if s.beats_static { "yes" } else { "NO" }.to_string(),
            format!("{:.1}", s.retunes_mean),
        ]);
    }
    let mut out = ascii_table(
        &[
            "scenario", "kind", "believed", "oracle", "adaptive", "static", "oracle w", "regret",
            "beats", "retunes",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "stationary regret: max {:+.1}% (tolerance {:.0}%) -> {}",
        100.0 * report.summary.max_stationary_regret_ratio,
        100.0 * tolerance,
        if report.summary.stationary_within_tolerance {
            "ok"
        } else {
            "FAIL"
        }
    );
    let _ = writeln!(
        out,
        "drift beats static: {}",
        if report.summary.drift_beats_static {
            "yes"
        } else {
            "NO"
        }
    );
    // Write the artifact before judging it, so a failing run still
    // leaves the evidence on disk for inspection.
    write_file(&out_path, &report.to_json().map_err(|e| e.to_string())?)?;
    let _ = writeln!(out, "report -> {out_path}");
    report
        .validate()
        .map_err(|e| format!("{out}adaptive acceptance gate failed: {e}"))?;
    Ok(out)
}

pub(crate) fn cmd_serve(args: &Args) -> Result<String, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let workers: usize = args.get_parsed("workers", 0)?; // 0 is documented auto
    let cache_cells: usize = args.get_parsed("cache-cells", 256)?;
    let cfg = dck_serve::ServeConfig {
        addr,
        workers,
        cache_cells,
    };
    // `run()`'s return value only prints after the server exits, so
    // the bound address (ephemeral ports especially) goes straight to
    // stdout the moment the listener is up.
    let summary = dck_serve::serve(&cfg, |bound| {
        println!("dck serve listening on {bound}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
    })
    .map_err(|e| format!("serve failed: {e}"))?;
    Ok(format!(
        "serve: drained after {} connections, {} requests ({} errors), \
         sweep-cell cache {} hits / {} misses, {} worker panics\n",
        summary.connections,
        summary.requests,
        summary.errors,
        summary.cache_hits,
        summary.cache_misses,
        summary.worker_panics
    ))
}

pub(crate) fn cmd_loadgen(args: &Args) -> Result<String, String> {
    let addr = args
        .get("addr")
        .ok_or("--addr HOST:PORT is required (start `dck serve` first; it prints its address)")?
        .to_string();
    let threads: usize = args.get_count("threads", 2, "zero threads generate no load")?;
    let concurrency: usize = args.get_count(
        "concurrency",
        2,
        "zero connections per thread generate no load",
    )?;
    let duration_s = args.get_positive_duration("duration", 2.0)?;
    let seed: u64 = args.get_parsed("seed", 0x10AD)?;
    let out_path = args.get("out").unwrap_or("BENCH_serve.json").to_string();
    let metrics_path = args.get("metrics").map(str::to_string);

    // The obs registry is process-global: serialize against other
    // metered commands and leave the enable flag as we found it.
    let _guard = dck_obs::exclusive_session();
    let cfg = dck_serve::LoadgenConfig {
        addr: addr.clone(),
        threads,
        concurrency,
        duration: std::time::Duration::from_secs_f64(duration_s),
        seed,
    };
    let (outcome, snapshot) = metered(true, || dck_serve::run_loadgen(&cfg));
    let outcome = outcome?;
    if let (Some(path), Some(snapshot)) = (&metrics_path, &snapshot) {
        write_metrics(path, snapshot)?;
    }
    let report = &outcome.report;
    write_file(&out_path, &report.to_json().map_err(|e| e.to_string())?)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "loadgen against {addr}: {} threads x {} connections for {}",
        threads,
        concurrency,
        format_duration(duration_s)
    );
    let l = &report.latency;
    let _ = writeln!(
        out,
        "  {} ok requests in {:.2}s -> {:.0} req/s ({} errors)",
        report.ok_requests, report.elapsed_s, report.req_per_sec, report.errors
    );
    let _ = writeln!(
        out,
        "  latency us: p50 {}  p90 {}  p99 {}  p999 {}  max {}  mean {:.1}",
        l.p50_us, l.p90_us, l.p99_us, l.p999_us, l.max_us, l.mean_us
    );
    let _ = writeln!(out, "  report -> {out_path}");
    if let Some(path) = &metrics_path {
        let _ = writeln!(out, "  metrics -> {path}");
    }
    Ok(out)
}

/// `dck trace generate`: records an exponential failure trace.
pub(crate) fn cmd_trace_generate(args: &Args) -> Result<String, String> {
    let nodes: u64 = args.get_count("nodes", 64, "failures need a node to strike")?;
    let mtbf = args.get_positive_duration("mtbf", 600.0)?;
    let horizon = args.get_duration("horizon", 86_400.0)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let out_path = args
        .get("out")
        .ok_or_else(|| "--out FILE is required".to_string())?
        .to_string();
    let spec = MtbfSpec::Platform {
        mtbf: SimTime::seconds(mtbf),
        nodes,
    };
    let mut source = AggregatedExponential::new(spec, RngFactory::new(seed).stream(0));
    let trace = FailureTrace::record(&mut source, SimTime::seconds(horizon));
    write_file(&out_path, &trace.to_json()?)?;
    Ok(format!(
        "wrote {} failures over {} ({} nodes) to {out_path}\n",
        trace.len(),
        format_duration(horizon),
        nodes
    ))
}

/// `dck trace stats FILE`: summarizes a failure trace.
pub(crate) fn cmd_trace_stats(args: &Args) -> Result<String, String> {
    let path = args
        .positional(2)
        .ok_or_else(|| "trace stats needs a file".to_string())?;
    let json = read_file(path)?;
    let trace = FailureTrace::from_json(&json)?;
    // Count over the events, not a slot per node: memory then follows
    // the trace, whatever node count it declares.
    let mut nodes: Vec<u64> = trace.events().iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    let max = nodes
        .chunk_by(|a, b| a == b)
        .map(<[u64]>::len)
        .max()
        .unwrap_or(0);
    let mtbf = trace
        .empirical_platform_mtbf()
        .map(|m| format_duration(m.as_secs()))
        .unwrap_or_else(|| "n/a".into());
    Ok(format!(
        "trace {path}: {} failures over {} nodes\n  span: {}\n  empirical platform MTBF: {}\n  max failures on one node: {max}\n",
        trace.len(),
        trace.nodes(),
        trace
            .span()
            .map(|s| format_duration(s.as_secs()))
            .unwrap_or_else(|| "empty".into()),
        mtbf
    ))
}

/// `dck experiments <all|NAME>`: regenerates the paper's evaluation.
/// Progress lines reach stdout as each experiment finishes.
pub(crate) fn cmd_experiments(args: &Args) -> Result<String, String> {
    let name = args
        .positional(1)
        .ok_or("usage: dck experiments <all|NAME> (see dck help)")?;
    let out = args.get("out").unwrap_or("results");
    let fast = args.get_parsed("fast", false)?;
    let seed = args.get_parsed("seed", 0x0D0C_5EED)?;
    dck_experiments::run_experiments(name, Path::new(out), fast, seed)?;
    Ok(String::new())
}

/// `dck bench`: the replication and sweep throughput harness.
pub(crate) fn cmd_bench(args: &Args) -> Result<String, String> {
    let out = args.get("out").unwrap_or(".");
    let fast = args.get_parsed("fast", false)?;
    let seed = args.get_parsed("seed", 0xBE9C)?;
    let reps = args.get_count_opt("reps", "a zero-replication bench measures nothing")?;
    let workers = args.get_list("workers", vec![1, 2, 4, 8], |w| {
        w.parse::<usize>().map_err(|e| e.to_string())
    })?;
    dck_bench::run_bench(Path::new(out), fast, seed, reps, &workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn run_ok(raw: &[&str]) -> String {
        run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("command succeeds")
    }

    fn run_err(raw: &[&str]) -> String {
        run(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect_err("command fails")
    }

    #[test]
    fn scenarios_lists_both() {
        let out = run_ok(&["scenarios"]);
        assert!(out.contains("Base"));
        assert!(out.contains("Exa"));
    }

    #[test]
    fn waste_reports_breakdown() {
        let out = run_ok(&[
            "waste",
            "--protocol",
            "triple",
            "--phi-ratio",
            "0.25",
            "--mtbf",
            "7h",
        ]);
        assert!(out.contains("TRIPLE"));
        assert!(out.contains("optimal period"));
        assert!(out.contains("efficiency"));
    }

    #[test]
    fn period_lists_all_protocols() {
        let out = run_ok(&["period", "--mtbf", "1h", "--phi-ratio", "0.5"]);
        for p in Protocol::registry() {
            assert!(out.contains(&p.paper_name()), "{p:?} missing");
        }
    }

    #[test]
    fn risk_includes_baseline() {
        let out = run_ok(&["risk", "--mtbf", "10min", "--life", "30d"]);
        assert!(out.contains("no checkpointing"));
        assert!(out.contains("TRIPLE"));
    }

    #[test]
    fn compare_runs_on_exa() {
        let out = run_ok(&[
            "compare",
            "--scenario",
            "exa",
            "--phi-ratio",
            "0.1",
            "--mtbf",
            "7h",
            "--life",
            "4w",
        ]);
        assert!(out.contains("Exa"));
        assert!(out.contains("DOUBLEBOF"));
    }

    #[test]
    fn hierarchical_reports_tuning() {
        let out = run_ok(&[
            "hierarchical",
            "--mtbf",
            "5min",
            "--phi-ratio",
            "1.0",
            "--write",
            "10min",
            "--life",
            "30d",
        ]);
        assert!(out.contains("K*"));
        assert!(out.contains("rollbacks/life"));
        assert!(out.contains("TRIPLE"));
    }

    #[test]
    fn waste_includes_refined_estimate() {
        let out = run_ok(&[
            "waste",
            "--protocol",
            "double-nbl",
            "--mtbf",
            "2min",
            "--phi-ratio",
            "1.0",
        ]);
        assert!(out.contains("refined (restart-aware) waste"));
    }

    #[test]
    fn optimize_reports_phi_star() {
        let out = run_ok(&["optimize", "--scenario", "exa", "--mtbf", "15min"]);
        assert!(out.contains("phi*"));
        assert!(out.contains("TRIPLE"));
        // At such a low MTBF the double protocols should not pick full
        // overlap (phi* > 0 shows up as a non-zero ratio somewhere).
        let out_day = run_ok(&["optimize", "--scenario", "exa", "--mtbf", "1d"]);
        assert_ne!(out, out_day);
    }

    #[test]
    fn run_reps_small_run() {
        let out = run_ok(&[
            "run",
            "--protocol",
            "double-nbl",
            "--phi-ratio",
            "0.5",
            "--mtbf",
            "30min",
            "--work",
            "5h",
            "--reps",
            "10",
            "--nodes",
            "8",
            "--seed",
            "3",
        ]);
        assert!(out.contains("simulated waste"));
        assert!(out.contains("model waste"));
    }

    #[test]
    fn run_rejects_inputs_that_used_to_panic_or_mislead() {
        let run_with =
            |extra: &[&str]| run_err(&[&["run", "--protocol", "triple"][..], extra].concat());
        for reps in [&[][..], &["--reps", "3"]] {
            let err = run_with(&[&["--mtbf", "0"][..], reps].concat());
            assert!(err.contains("invalid parameter `mtbf`"), "{reps:?}: {err}");
        }
        let err = run_with(&["--work", "0"]);
        assert!(err.contains("--work must be a positive duration"), "{err}");
        // Two nodes hold no TRIPLE group: no node is left to fail.
        let err = run_with(&["--nodes", "2"]);
        assert!(err.contains("invalid parameter `nodes`"), "{err}");
        let err = run_with(&["--reps", "0"]);
        assert!(err.contains("--reps must be at least 1"), "{err}");
        let err = run_with(&["--reps", "3", "--rep", "1"]);
        assert!(err.contains("--rep belongs to a single run"), "{err}");
        let err = run_with(&["--reps", "3", "--trace", "unused.jsonl"]);
        assert!(err.contains("--trace belongs to a single run"), "{err}");
        assert!(!Path::new("unused.jsonl").exists());
    }

    #[test]
    fn trace_commands_reject_degenerate_input() {
        let out = std::env::temp_dir().join(format!("dck-trace-bad-{}.json", std::process::id()));
        let o = out.to_str().unwrap();
        let err = run_err(&["trace", "generate", "--nodes", "0", "--out", o]);
        assert!(err.contains("--nodes must be at least 1"), "{err}");
        let err = run_err(&["trace", "generate", "--mtbf", "0", "--out", o]);
        assert!(err.contains("--mtbf must be a positive duration"), "{err}");
        assert!(!out.exists());

        // A huge platform with few events: memory follows the events.
        let huge = r#"{"nodes": 100000000000000, "events": [
            {"at": 1.0, "node": 99999999999999}, {"at": 2.0, "node": 7},
            {"at": 3.0, "node": 99999999999999}]}"#;
        std::fs::write(&out, huge).unwrap();
        let stats = run_ok(&["trace", "stats", o]);
        assert!(stats.contains("max failures on one node: 2"), "{stats}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn experiments_run_by_name() {
        let dir = std::env::temp_dir().join(format!("dck-cli-exp-{}", std::process::id()));
        let d = dir.to_str().unwrap();
        assert_eq!(run_ok(&["experiments", "table1", "--out", d, "--fast"]), "");
        assert!(dir.join("table1.csv").is_file());
        let err = run_err(&["experiments", "fig10", "--out", d]);
        assert!(err.contains("unknown experiment `fig10`"), "{err}");
        assert!(run_err(&["experiments"]).contains("usage"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_rejects_bad_options_before_writing() {
        // The reports a good run writes read back: see
        // `artifacts::tests::every_artifact_reads_back`.
        let dir = std::env::temp_dir().join(format!("dck-cli-bench-{}", std::process::id()));
        let d = dir.to_str().unwrap();
        for workers in ["1,0", "0", ""] {
            let err = run_err(&["bench", "--fast", "--workers", workers, "--out", d]);
            assert!(err.contains("--workers"), "{workers:?}: {err}");
        }
        assert!(run_err(&["bench", "--reps", "0", "--out", d]).contains("--reps"));
        assert!(!dir.exists(), "rejected options must not write anything");
    }

    #[test]
    fn adapt_survives_a_half_life_that_forgets_every_failure() {
        // A 10 s half-life against a 7 h MTBF forgets every failure
        // between consults. The controller keeps its belief, the report
        // is written, and the acceptance gates judge the (poor) result;
        // no solver error may end the run.
        let path = std::env::temp_dir().join(format!("dck-adapt-hl-{}.json", std::process::id()));
        let err = run_err(&[
            "adapt",
            "--reps",
            "2",
            "--work-mtbfs",
            "10",
            "--half-life",
            "10s",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(!err.contains("invalid parameter"), "{err}");
        assert!(err.contains("adaptive acceptance gate failed"), "{err}");
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_generate_and_stats_roundtrip() {
        let path = std::env::temp_dir().join(format!("dck-cli-{}.json", std::process::id()));
        let p = path.to_str().unwrap();
        let out = run_ok(&[
            "trace",
            "generate",
            "--nodes",
            "16",
            "--mtbf",
            "5min",
            "--horizon",
            "6h",
            "--seed",
            "9",
            "--out",
            p,
        ]);
        assert!(out.contains("failures"));
        let out = run_ok(&["trace", "stats", p]);
        assert!(out.contains("empirical platform MTBF"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_is_reproducible_per_replication() {
        let a = run_ok(&["run", "--protocol", "triple", "--nodes", "9", "--rep", "2"]);
        let b = run_ok(&["run", "--protocol", "triple", "--nodes", "9", "--rep", "2"]);
        assert_eq!(a, b);
        let c = run_ok(&["run", "--protocol", "triple", "--nodes", "9", "--rep", "3"]);
        assert_ne!(a, c, "different replications draw different streams");
    }

    fn demo_script_json() -> String {
        r#"{
  "name": "cli_demo",
  "description": "two survivable failures in distinct pairs",
  "protocol": "DoubleNbl",
  "platform": {"downtime": 0.0, "delta": 2.0, "theta_min": 4.0, "alpha": 10.0, "nodes": 8},
  "phi_ratio": 0.25,
  "mtbf": 3600.0,
  "period": {"Explicit": 100.0},
  "work": {"Periods": 10.0},
  "faults": [{"at": 250.0, "node": 0}, {"at": 300.0, "node": 2}],
  "expect": {"reason": "WorkComplete", "failures": 2, "survives": true}
}
"#
        .to_string()
    }

    #[test]
    fn inject_replays_script_and_diffs_golden() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let script = dir.join(format!("dck-inject-{pid}.json"));
        let trace = dir.join(format!("dck-inject-{pid}.jsonl"));
        let (sp, tp) = (script.to_str().unwrap(), trace.to_str().unwrap());
        std::fs::write(&script, demo_script_json()).unwrap();

        // Replay, record the timeline, then use it as its own golden.
        let out = run_ok(&["inject", "--script", sp, "--trace", tp]);
        assert!(out.contains("expectation: satisfied"), "{out}");
        assert!(out.contains("timeline:"), "{out}");
        let out = run_ok(&["inject", "--script", sp, "--golden", tp]);
        assert!(out.contains("golden: matches"), "{out}");

        // A tampered golden is reported with the diverging event index.
        let text = std::fs::read_to_string(&trace).unwrap();
        let tampered: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&trace, tampered).unwrap();
        let err = run_err(&["inject", "--script", sp, "--golden", tp]);
        assert!(err.contains("first divergence at event 0"), "{err}");

        std::fs::remove_file(&script).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn inject_reports_expectation_failures() {
        let dir = std::env::temp_dir();
        let script = dir.join(format!("dck-inject-bad-{}.json", std::process::id()));
        std::fs::write(
            &script,
            demo_script_json().replace("\"failures\": 2", "\"failures\": 9"),
        )
        .unwrap();
        let err = run_err(&["inject", "--script", script.to_str().unwrap()]);
        assert!(err.contains("expectation failed"), "{err}");
        assert!(run_err(&["inject"]).contains("usage"));
        std::fs::remove_file(&script).ok();
    }

    /// The common grid for checkpoint tests: 2 cells × 24 replications
    /// with batch 8 and an unreachable precision target, so the global
    /// pool runs exactly 3 rounds per cell.
    fn ckpt_sweep_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
        let mut v = vec![
            "sweep",
            "--protocol",
            "double-nbl",
            "--phi-ratios",
            "0.0,0.5",
            "--mtbfs",
            "30min",
            "--reps",
            "24",
            "--work-mtbfs",
            "5",
            "--nodes",
            "16",
            "--target-hw",
            "0.0",
            "--min-reps",
            "8",
            "--batch",
            "8",
            "--format",
            "json",
        ];
        v.extend_from_slice(extra);
        v
    }

    #[test]
    fn sweep_pause_and_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("dck-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();

        let baseline = run_ok(&ckpt_sweep_args(&[]));
        // Pause after one round: the error points the operator at --resume.
        let err = run_err(&ckpt_sweep_args(&["--checkpoint", d, "--max-rounds", "1"]));
        assert!(err.contains("--resume"), "{err}");
        assert!(err.contains("paused"), "{err}");
        // Resuming finishes the grid with byte-identical rendered output.
        let resumed = run_ok(&ckpt_sweep_args(&["--checkpoint", d, "--resume"]));
        assert_eq!(resumed, baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_checkpoint_flags_require_a_directory() {
        for flag in ["--resume", "--checkpoint-every", "--max-rounds"] {
            let err = run_err(&ckpt_sweep_args(&[flag, "2"]));
            assert!(err.contains("requires --checkpoint"), "{flag}: {err}");
        }
    }

    #[test]
    fn bad_format_is_rejected_before_any_work() {
        let dir = std::env::temp_dir().join(format!("dck-cli-badformat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();
        let err = run_err(&[
            "sweep",
            "--protocol",
            "double-nbl",
            "--phi-ratios",
            "0.5",
            "--mtbfs",
            "1h",
            "--reps",
            "8",
            "--checkpoint",
            d,
            "--format",
            "yaml",
        ]);
        assert!(err.contains("unknown --format `yaml`"), "{err}");
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "a rejected format must not have run the sweep into a snapshot"
        );
        // A tree with deny findings: the scan's report must not hide
        // the bad format.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../analyze/tests/fixtures/mini"
        );
        let err = run_err(&["lint", "--root", fixture, "--format", "yaml"]);
        assert!(err.contains("unknown --format `yaml`"), "{err}");
    }

    #[test]
    fn sweep_rejects_zero_valued_numeric_flags() {
        let dir = std::env::temp_dir().join(format!("dck-cli-zeroflag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();

        let err = run_err(&["sweep", "--protocol", "double-nbl", "--reps", "0"]);
        assert!(err.contains("--reps must be at least 1"), "{err}");

        let err = run_err(&ckpt_sweep_args(&["--checkpoint", d, "--max-rounds", "0"]));
        assert!(err.contains("--max-rounds must be at least 1"), "{err}");
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "a rejected budget must not have written a snapshot"
        );

        let err = run_err(&ckpt_sweep_args(&[
            "--checkpoint",
            d,
            "--checkpoint-every",
            "0",
        ]));
        assert!(
            err.contains("--checkpoint-every must be at least 1"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_rejects_negative_numeric_flags() {
        // usize flags: the parse itself produces the typed error.
        for flag in ["reps", "workers"] {
            let err = run_err(&[
                "sweep",
                "--protocol",
                "double-nbl",
                &format!("--{flag}"),
                "-3",
            ]);
            assert!(
                err.contains(&format!("cannot parse --{flag} value `-3`")),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn sweep_out_writes_valid_artifact_atomically() {
        let path = std::env::temp_dir().join(format!("dck-sweep-out-{}.json", std::process::id()));
        let p = path.to_str().unwrap();
        let out = run_ok(&ckpt_sweep_args(&["--out", p]));
        assert!(out.contains(p), "{out}");
        // The file passes schema validation and no temp sibling lingers.
        let report = run_ok(&["validate", "--sweep", p]);
        assert!(report.contains("grid consistent"), "{report}");
        assert!(!Path::new(&format!("{p}.tmp")).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(run_err(&["frobnicate"]).contains("unknown command"));
        assert!(
            run_err(&["waste", "--protocol", "triple", "--bogus", "1"]).contains("unknown flag")
        );
        assert!(run_err(&["waste"]).contains("--protocol is required"));
        let sweep = [
            "sweep",
            "--protocol",
            "double-nbl",
            "--phi-ratios",
            "0",
            "--mtbfs",
            "1h",
            "--reps",
            "8",
        ];
        let engine = run_err(&[&sweep[..], &["--engine", "global"]].concat());
        assert!(engine.contains("unknown flag --engine"), "{engine}");
        let work = run_err(&[&sweep[..], &["--work-mtbfs", "-5"]].concat());
        assert!(work.contains("work_in_mtbfs"), "{work}");
        // Stray positionals are rejected like unknown flags.
        let lint = run_err(&["lint", "baselin"]);
        assert!(lint.contains("unknown lint mode `baselin`"), "{lint}");
        let extra = run_err(&["scenarios", "foo"]);
        assert!(extra.contains("unexpected argument `foo`"), "{extra}");
        let trace = std::env::temp_dir().join(format!("dck-stray-{}.json", std::process::id()));
        std::fs::write(&trace, r#"{"nodes": 2, "events": []}"#).unwrap();
        let t = trace.to_str().unwrap();
        let extra = run_err(&["trace", "stats", t, "b.json"]);
        assert!(extra.contains("unexpected argument `b.json`"), "{extra}");
        std::fs::remove_file(&trace).ok();
        // `simulate` became `run --reps`.
        assert!(run_err(&["simulate", "--protocol", "triple"]).contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_ok(&["help"]);
        assert!(out.contains("commands:"));
        let out = run_ok(&[]);
        assert!(out.contains("commands:"));
        // `--help` parses as a boolean flag and still reaches usage,
        // even when tacked onto another command.
        let out = run_ok(&["--help"]);
        assert!(out.contains("commands:"));
        let out = run_ok(&["sweep", "--help"]);
        assert!(out.contains("commands:"));
    }

    #[test]
    fn overrides_flow_through() {
        let out = run_ok(&[
            "period",
            "--scenario",
            "base",
            "--delta",
            "10s",
            "--mtbf",
            "1d",
        ]);
        assert!(out.contains("Base"));
    }
}
