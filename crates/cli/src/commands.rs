//! The command table: every `dck` command with its positional
//! synopsis, its flags and the function that runs it.
//!
//! [`run`] checks a whole command line against its entry before the
//! command does any work: an undeclared flag, a stray positional or a
//! dependent flag without its parent fails at once, and no file is
//! written. [`usage`] renders `dck help` from the same table, so the
//! help and the parser cannot drift apart.

use crate::app::*;
use crate::artifacts::{cmd_validate, VALIDATE_FLAGS};
use crate::parse::Args;
use std::fmt::Write as _;

/// One flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Name without the leading `--`.
    pub name: &'static str,
    /// Metavariable of its value; empty for a switch.
    pub meta: &'static str,
    /// One line of help.
    pub help: &'static str,
    /// A flag that must be given beside this one.
    pub needs: Option<&'static str>,
    /// A flag this one cannot be combined with, and why.
    pub excludes: Option<(&'static str, &'static str)>,
}

/// A flag with no rule tying it to another: name, metavariable, help.
pub(crate) const fn flag(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        meta,
        help,
        needs: None,
        excludes: None,
    }
}

impl Flag {
    /// This flag, only valid beside `--parent`.
    const fn needs(self, parent: &'static str) -> Flag {
        Flag {
            needs: Some(parent),
            ..self
        }
    }

    /// This flag, never valid beside `--other`, for the reason `why`.
    const fn excludes(self, other: &'static str, why: &'static str) -> Flag {
        Flag {
            excludes: Some((other, why)),
            ..self
        }
    }
}

/// One `dck` command.
pub struct Command {
    /// Its name (one word, or two for `trace stats`), then one word per
    /// positional it takes, `<required>` or `[optional]`; the command
    /// itself checks the ones it requires.
    pub usage: &'static str,
    /// What the command does, in one line.
    pub about: &'static str,
    /// Runs the command on a checked command line.
    pub run: fn(&Args) -> Result<String, String>,
    /// The leading part of [`COMMON`] the command reads.
    pub common: &'static [Flag],
    /// The command's own flags.
    pub flags: &'static [Flag],
}

const fn cmd(
    usage: &'static str,
    about: &'static str,
    run: fn(&Args) -> Result<String, String>,
    common: &'static [Flag],
    flags: &'static [Flag],
) -> Command {
    Command {
        usage,
        about,
        run,
        common,
        flags,
    }
}

/// The common platform options, declared once. A command reads all of
/// them, or only the platform part when it takes the MTBF and φ/R as
/// grids (`sweep`) or searches φ (`optimize`).
#[rustfmt::skip]
pub const COMMON: &[Flag] = &[
    flag("scenario", "base|exa", "parameter preset (default base)"),
    flag("delta", "DUR", "override the preset's delta"),
    flag("theta-min", "DUR", "override the preset's R"),
    flag("downtime", "DUR", "override the preset's D"),
    flag("alpha", "X", "override the preset's alpha"),
    flag("nodes", "N", "override the preset's node count"),
    flag("mtbf", "DUR", "platform MTBF (default 7h)"),
    flag("phi-ratio", "X", "overhead ratio phi/R in [0,1] (default 0)"),
];
const PLATFORM: &[Flag] = COMMON.split_at(6).0;

const PROTOCOL: Flag = flag("protocol", "P", "protocol (required)");
const LIFE: Flag = flag("life", "DUR", "platform life (default 30d)");
const SEED: Flag = flag("seed", "N", "master seed");
const SINGLE: &str = "belongs to a single run";

/// Every command, in help order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    cmd("scenarios", "list Table I scenarios", cmd_scenarios, &[], &[]),
    cmd("waste", "waste breakdown at the optimal period", cmd_waste, COMMON, &[PROTOCOL]),
    cmd("period", "optimal periods, all protocols", cmd_period, COMMON, &[]),
    cmd("risk", "success probabilities over a platform life", cmd_risk, COMMON, &[LIFE]),
    cmd("compare", "all protocols side by side", cmd_compare, COMMON, &[LIFE]),
    cmd("optimize", "best overhead phi* per protocol", cmd_optimize, COMMON.split_at(7).0, &[]),
    cmd("hierarchical", "two-level global-checkpoint tuning (default --mtbf 10min)",
        cmd_hierarchical, COMMON, &[
        flag("write", "DUR", "global checkpoint cost Cg (default 10min)"),
        flag("read", "DUR", "global recovery cost Rg (default Cg)"),
        LIFE,
    ]),
    cmd("run", "one simulated run, observable (default --mtbf 1h)", cmd_run, COMMON, &[
        PROTOCOL,
        flag("work", "DUR", "useful work per run (default 40h)"),
        SEED,
        flag("rep", "N", "replication to run (default 0)").excludes("reps", SINGLE),
        flag("trace", "FILE", "JSONL timeline").excludes("reps", SINGLE),
        flag("metrics", "FILE", "counters as JSON"),
        flag("reps", "N", "Monte-Carlo waste over replications 0..N"),
    ]),
    cmd("inject", "replay a deterministic fault script", cmd_inject, &[], &[
        flag("script", "FILE", "fault script (required)"),
        flag("trace", "FILE", "timeline JSONL"),
        flag("golden", "FILE", "diff against a golden timeline"),
    ]),
    cmd("sweep", "simulated waste over a (phi/R, MTBF) grid", cmd_sweep, PLATFORM, &[
        PROTOCOL,
        flag("phi-ratios", "A,B,..", "phi/R grid (default 0,0.5,1)"),
        flag("mtbfs", "D1,D2,..", "MTBF grid (default 30min,1h,7h)"),
        flag("reps", "N", "replications per cell (default 60)"),
        flag("work-mtbfs", "X", "work per run in MTBFs (default 20)"),
        SEED,
        flag("workers", "N", "worker threads (0 = auto)"),
        flag("target-hw", "X", "stop a cell at this CI half-width"),
        flag("min-reps", "N", "replications before a stop (default 16)").needs("target-hw"),
        flag("batch", "N", "replications per round (default 32)").needs("target-hw"),
        flag("format", "ascii|csv|json", "output format (default ascii)"),
        flag("metrics", "FILE", "counters + summary table"),
        flag("out", "FILE", "write the output atomically"),
        flag("checkpoint", "DIR", "snapshot between-rounds state"),
        flag("checkpoint-every", "N", "rounds per snapshot (default 1)").needs("checkpoint"),
        flag("keep-snapshots", "K", "generations kept, 2..=8 (default 2)").needs("checkpoint"),
        flag("resume", "", "continue from the newest valid snapshot").needs("checkpoint"),
        flag("max-rounds", "N", "pause after N rounds").needs("checkpoint"),
    ]),
    cmd("adapt", "adaptive-controller regret vs static tunings", cmd_adapt, COMMON, &[
        flag("protocol", "P", "protocol (default double-nbl)"),
        flag("reps", "N", "replications per arm (default 24)"),
        flag("work-mtbfs", "X", "work per run in MTBFs (default 80)"),
        SEED,
        flag("half-life", "DUR", "estimator window"),
        flag("hysteresis", "X", "retune dead band"),
        flag("min-failures", "N", "failures before the first retune"),
        flag("tolerance", "X", "stationary regret gate (default 0.10)"),
        flag("out", "FILE", "report (default BENCH_adapt.json), gated after writing"),
    ]),
    cmd("serve", "waste/risk query service; stop it with a shutdown request", cmd_serve, &[], &[
        flag("addr", "HOST:PORT", "listen address (default 127.0.0.1:0)"),
        flag("workers", "N", "worker threads (0 = auto)"),
        flag("cache-cells", "N", "sweep-cell LRU size (default 256)"),
    ]),
    cmd("loadgen", "measured load against a running serve", cmd_loadgen, &[], &[
        flag("addr", "HOST:PORT", "server address (required)"),
        flag("threads", "N", "client threads (default 2)"),
        flag("concurrency", "N", "connections per thread (default 2)"),
        flag("duration", "DUR", "load duration (default 2s)"),
        SEED,
        flag("out", "FILE", "report (default BENCH_serve.json)"),
        flag("metrics", "FILE", "client-side histogram snapshot"),
    ]),
    cmd("trace generate", "record an exponential failure trace", cmd_trace_generate, &[], &[
        flag("nodes", "N", "platform nodes (default 64)"),
        flag("mtbf", "DUR", "platform MTBF (default 10min)"),
        flag("horizon", "DUR", "trace length (default 1d)"),
        flag("seed", "N", "seed (default 1)"),
        flag("out", "FILE", "trace JSON (required)"),
    ]),
    cmd("trace stats <FILE>", "summarize a failure trace", cmd_trace_stats, &[], &[]),
    cmd("lint [baseline]", "static determinism/panic-safety lints", cmd_lint, &[], &[
        flag("root", "DIR", "workspace root"),
        flag("config", "FILE", "lint config (default ROOT/analyze.toml)"),
        flag("format", "human|json|sarif", "output format"),
        flag("out", "FILE", "JSON report, written even on failure"),
        flag("sarif", "FILE", "SARIF 2.1.0 report, written even on failure"),
        flag("graph", "", "dump the resolved cross-crate call graph"),
        flag("explain", "LINT", "what a lint matches, and why"),
    ]),
    cmd("validate", "check the artifacts dck writes", cmd_validate, &[], &VALIDATE_FLAGS),
    cmd("experiments <all|NAME>", "regenerate the paper's tables and figures; NAME is one of \
         table1 fig4 fig5 fig6 fig7 fig8 fig9 period-check phi-choice blocking-gain fig5-sim \
         hierarchical refined validate robustness", cmd_experiments, &[], &[
        flag("out", "DIR", "output directory (default results)"),
        flag("fast", "", "CI-sized grids"),
        SEED,
    ]),
    cmd("bench", "replication + sweep throughput (BENCH_*.json)", cmd_bench, &[], &[
        flag("out", "DIR", "output directory (default .)"),
        flag("fast", "", "CI-sized grid"),
        SEED,
        flag("reps", "N", "replications per measurement"),
        flag("workers", "CSV", "worker counts (default 1,2,4,8)"),
    ]),
    cmd("help", "this text", |_| Ok(usage()), &[], &[]),
];

impl Command {
    /// The words of [`Command::usage`] before its positionals.
    fn name(&self) -> &'static str {
        let name = self.usage.split_once(" <").map_or(self.usage, |(n, _)| n);
        name.split_once(" [").map_or(name, |(n, _)| n)
    }

    /// Rejects a stray positional, an undeclared flag, a dependent flag
    /// without its parent and a pair of excluded flags.
    fn check(&self, args: &Args) -> Result<(), String> {
        let words = self.usage.split(' ').count();
        if let Some(extra) = args.positionals().get(words) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let declared = |name: &str| {
            self.common
                .iter()
                .chain(self.flags)
                .find(|f| f.name == name)
        };
        for name in args.flag_names() {
            let flag = declared(name).ok_or_else(|| format!("unknown flag --{name}"))?;
            if let Some(parent) = flag.needs.filter(|p| args.get(p).is_none()) {
                let meta = declared(parent).map_or("", |p| p.meta);
                return Err(format!("--{name} requires --{parent} {meta}"));
            }
            if let Some((other, why)) = flag.excludes.filter(|(o, _)| args.get(o).is_some()) {
                return Err(format!(
                    "--{name} {why} and cannot be combined with --{other}"
                ));
            }
        }
        Ok(())
    }
}

/// Splits a command line into its command and arguments, and checks
/// the whole line against the command's entry. `--help` anywhere
/// selects `help`.
///
/// # Errors
/// An unknown command (`trace` alone included: its subcommands are
/// commands of their own), a stray positional, an undeclared flag, a
/// dependent flag without its parent, or a pair of excluded flags.
pub fn parse(raw: &[String]) -> Result<(&'static Command, Args), String> {
    let args = Args::parse(raw)?;
    let help = args.get("help").is_some();
    let words = args.positionals();
    let first = match words.first() {
        Some(first) if !help && first != "-h" => first.as_str(),
        _ => "help",
    };
    let pair = words.get(1).map(|second| format!("{first} {second}"));
    let command = COMMANDS
        .iter()
        .find(|c| Some(c.name()) == pair.as_deref())
        .or_else(|| COMMANDS.iter().find(|c| c.name() == first));
    let command = command.ok_or_else(|| format!("unknown command `{first}`\n{}", usage()))?;
    if !help {
        command.check(&args)?;
    }
    Ok((command, args))
}

/// Entry point: checks a command line, then runs its command and
/// returns the rendered output. `--help` anywhere prints the usage.
///
/// # Errors
/// A usage or domain error message fit for stderr.
pub fn run(raw: &[String]) -> Result<String, String> {
    let (command, args) = parse(raw)?;
    (command.run)(&args)
}

/// One help line per flag, with its rule.
fn write_flags(out: &mut String, indent: &str, flags: &[Flag]) {
    for f in flags {
        let head = format!("--{} {}", f.name, f.meta);
        let _ = write!(out, "{indent}{head:<28} {}", f.help);
        if let Some(parent) = f.needs {
            let _ = write!(out, " (needs --{parent})");
        }
        if let Some((other, _)) = f.excludes {
            let _ = write!(out, " (not with --{other})");
        }
        out.push('\n');
    }
}

/// The help text, rendered from [`COMMANDS`] and [`COMMON`].
pub fn usage() -> String {
    let mut out = String::from(
        "dck — in-memory buddy checkpointing toolkit\n\n\
         usage: dck COMMAND [ARGS] [--FLAG VALUE]...\n\n\
         commands:\n",
    );
    for c in COMMANDS {
        let _ = write!(out, "  {}", c.usage);
        match c.common.last() {
            None => {}
            Some(_) if c.common.len() == COMMON.len() => out.push_str(" [common options]"),
            Some(last) => {
                let _ = write!(out, " [common options up to --{}]", last.name);
            }
        }
        let _ = writeln!(out, "\n      {}", c.about);
        write_flags(&mut out, "      ", c.flags);
    }
    out.push_str("\ncommon options:\n");
    write_flags(&mut out, "  ", COMMON);
    out.push_str("durations: 45s, 30min, 7h, 1d, 2w\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn typos_and_orphan_flags_fail_before_any_work() {
        let out = std::env::temp_dir().join(format!("dck-typo-{}.json", std::process::id()));
        let o = out.to_str().unwrap();
        let adapt = ["adapt", "--reps", "2", "--work-mtbfs", "4", "--out", o];
        let sweep = [
            "sweep",
            "--protocol",
            "double-nbl",
            "--reps",
            "8",
            "--mtbfs",
            "1h",
            "--phi-ratios",
            "0",
            "--out",
            o,
        ];
        for (raw, message) in [
            (
                [&adapt[..], &["--tolerence", "0.2"]].concat(),
                "unknown flag --tolerence",
            ),
            (
                [&sweep[..], &["--min-reps", "4"]].concat(),
                "--min-reps requires --target-hw",
            ),
            (
                [&sweep[..], &["--batch", "4"]].concat(),
                "--batch requires --target-hw",
            ),
        ] {
            let err = run(&line(&raw)).unwrap_err();
            assert!(err.contains(message), "{raw:?}: {err}");
            assert!(!out.exists(), "{raw:?} wrote {o}");
        }
    }

    /// The `experiments` help line names every experiment, in the order
    /// `all` runs them; an unknown name lists them all.
    #[test]
    fn experiments_help_names_every_experiment_in_order() {
        let cmd = COMMANDS
            .iter()
            .find(|c| c.usage.starts_with("experiments "));
        let (_, names) = cmd.unwrap().about.split_once("NAME is one of ").unwrap();
        let names: Vec<&str> = names.split_whitespace().collect();
        assert_eq!(names, dck_experiments::ALL);
        let err = run(&line(&["experiments", "nope"])).unwrap_err();
        assert_eq!(
            err,
            "unknown experiment `nope` (expected all, table1, fig4, fig5, fig6, fig7, fig8, \
             fig9, period-check, phi-choice, blocking-gain, fig5-sim, hierarchical, refined, \
             validate, robustness)"
        );
    }

    #[test]
    fn lint_explain_accepts_the_other_lint_flags() {
        let out = run(&line(&["lint", "--explain", "float-eq", "--root", "."])).unwrap();
        assert!(out.starts_with("float-eq"), "{out}");
    }

    #[test]
    fn serve_typo_fails_before_binding() {
        // `run` would serve until shutdown: the parse step alone decides.
        let err = parse(&line(&["serve", "--worker", "2"])).err().unwrap();
        assert_eq!(err, "unknown flag --worker");
        assert!(parse(&line(&["serve", "--workers", "2"])).is_ok());
    }

    /// Every flag `dck help` lists for a command, with the common
    /// options its header names, passes the parse step.
    #[test]
    fn help_matches_the_parser() {
        let help = usage();
        let (commands, common) = help.split_once("\ncommon options:\n").unwrap();
        let first_word = |l: &str| l.split_whitespace().next().unwrap().to_string();
        let common: Vec<String> = common
            .lines()
            .filter(|l| l.starts_with("  --"))
            .map(first_word)
            .collect();
        let mut sections: Vec<(&str, Vec<String>)> = Vec::new();
        for l in commands.lines().skip_while(|l| *l != "commands:").skip(1) {
            if l.starts_with("      --") {
                sections.last_mut().unwrap().1.push(first_word(l));
            } else if !l.starts_with("   ") {
                sections.push((l.trim_start(), Vec::new()));
            }
        }
        assert_eq!(sections.len(), COMMANDS.len());
        for (header, flags) in &sections {
            let included = match header.split_once(" [common options") {
                None => &[][..],
                Some((_, "]")) => &common[..],
                Some((_, rest)) => {
                    let last = rest.trim_start_matches(" up to ").trim_end_matches(']');
                    let n = common.iter().position(|f| f == last).unwrap();
                    &common[..=n]
                }
            };
            let mut raw: Vec<&str> = header
                .split(' ')
                .take_while(|w| !w.starts_with('['))
                .collect();
            for flag in included.iter().chain(flags) {
                raw.extend([flag.as_str(), "1"]);
            }
            if let Err(e) = parse(&line(&raw)) {
                assert!(
                    !e.contains("unknown flag") && !e.contains("twice"),
                    "{header}: {e}"
                );
            }
        }
        let section = |name: &str| {
            &sections
                .iter()
                .find(|(h, _)| h.starts_with(name))
                .unwrap()
                .1
        };
        for (command, flag) in [
            ("sweep", "--seed"),
            ("sweep", "--workers"),
            ("hierarchical", "--life"),
            ("trace generate", "--nodes"),
            ("trace generate", "--mtbf"),
            ("trace generate", "--horizon"),
            ("trace generate", "--seed"),
            ("trace generate", "--out"),
        ] {
            assert!(
                section(command).iter().any(|f| f == flag),
                "{command} {flag}"
            );
        }
    }
}
