//! Parent-versus-change verdicts over sets of runs, and the baseline
//! summary.
//!
//! For every (end-to-end metric, workload) pair the change's median is
//! compared with the parent's under the metric's bound:
//!
//! - **regression** — the change's median is worse by more than the
//!   bound;
//! - **gain** — over at least [`MIN_PAIRS`] pairs of runs, the change
//!   wins at least 9 of every 10 (ties count for neither side) and the
//!   medians differ by more than the parent's interquartile range;
//! - **unresolved** — neither, and either side's interquartile range is
//!   wider than the bound, unless every change run beats every parent
//!   run;
//! - **unchanged** — otherwise.
//!
//! A change that fails more operations per run than its parent is a
//! regression whatever its speed. A result set that lacks a workload,
//! or holds it without metrics (its run crashed), counts as one failed
//! operation of that workload.

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::report::ResultSet;
use crate::stats::quartiles;
use serde::{Map, Value};

/// Fewest pairs of runs that can support a gain: with fewer, winning
/// 9 in 10 by chance is too likely (5 of 5 happens once in 32).
pub const MIN_PAIRS: usize = 10;

/// A verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Reliably better.
    Gain,
    /// Within the bound and the noise.
    Unchanged,
    /// The runs spread wider than the bound: no conclusion.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side { q1, median, q3 }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The comparison of one (metric, workload) pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static str,
    /// Parent runs.
    pub parent: Side,
    /// Change runs.
    pub change: Side,
    /// How much worse the change's median is, as a share of the
    /// parent's (negative when better).
    pub worse: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges the parent's and the change's runs of `m` on `workload` under
/// `m`'s bound, one value per result set (`None` where that run reported
/// nothing). Runs pair up by set index; a pair missing either value
/// counts for neither side.
pub fn judge(
    m: &'static EndToEnd,
    workload: &str,
    parent: &[Option<f64>],
    change: &[Option<f64>],
) -> Row {
    let present = |v: &[Option<f64>]| v.iter().flatten().copied().collect::<Vec<f64>>();
    let (pv, cv) = (present(parent), present(change));
    let a = Side::of(&pv);
    let b = Side::of(&cv);
    let better = |x: f64, y: f64| match m.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let worse = match m.better {
        Better::Higher => (a.median - b.median) / a.median.abs(),
        Better::Lower => (b.median - a.median) / a.median.abs(),
    };
    let paired: Vec<(f64, f64)> = parent
        .iter()
        .zip(change)
        .filter_map(|(p, c)| Some(((*p)?, (*c)?)))
        .collect();
    let pairs = paired.len();
    let wins = paired.iter().filter(|(p, c)| better(*c, *p)).count();
    let all_better = cv.iter().all(|&c| pv.iter().all(|&p| better(c, p)));
    let verdict = if worse > m.bound {
        Verdict::Regression
    } else if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && worse < 0.0
        && (b.median - a.median).abs() > a.q3 - a.q1
    {
        Verdict::Gain
    } else if (a.spread() > m.bound || b.spread() > m.bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Row {
        workload: workload.to_string(),
        metric: m.name,
        parent: a,
        change: b,
        worse,
        wins,
        pairs,
        verdict,
    }
}

/// The full comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// One row per (metric, workload).
    pub rows: Vec<Row>,
    /// Workloads whose change runs fail more operations per run than
    /// the parent's: `(workload, parent failures/run, change
    /// failures/run)`.
    pub more_failures: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Whether the change must be refused.
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regression)
    }

    /// Renders the verdict table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "workload", "metric", "parent median", "change median", "worse", "wins"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>3}/{:<3}  {}\n",
                r.workload,
                r.metric,
                r.parent.median,
                r.change.median,
                100.0 * r.worse,
                r.wins,
                r.pairs,
                r.verdict.as_str()
            ));
        }
        for (w, a, b) in &self.more_failures {
            out.push_str(&format!(
                "{w}: failed operations per run rose from {a} to {b} — REGRESSION\n"
            ));
        }
        out
    }
}

/// One value per result set, `None` where the set does not report it.
fn values(sets: &[ResultSet], workload: &str, metric: &str) -> Vec<Option<f64>> {
    sets.iter()
        .map(|s| s.workload(workload)?.outcome.value(metric))
        .collect()
}

/// Mean failed operations per result set; a set without the workload
/// counts one.
fn failures_per_run(sets: &[ResultSet], workload: &str) -> f64 {
    let failed: u64 = sets
        .iter()
        .map(|s| s.workload(workload).map_or(1, |w| w.outcome.failed))
        .sum();
    failed as f64 / sets.len().max(1) as f64
}

/// Compares the change's runs with the parent's, on every workload
/// either side ran.
///
/// # Errors
/// Fails when a side is empty or holds traced results.
pub fn compare(parent: &[ResultSet], change: &[ResultSet]) -> Result<Comparison, String> {
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs at least one result set on each side".to_string());
    }
    if parent.iter().chain(change).any(|s| s.trace) {
        return Err("compare takes untraced result sets (dck-benchmark run)".to_string());
    }
    let mut names: Vec<&str> = Vec::new();
    for w in parent.iter().chain(change).flat_map(|s| &s.workloads) {
        if !names.contains(&w.name.as_str()) {
            names.push(&w.name);
        }
    }
    let mut out = Comparison::default();
    for name in names {
        for m in &END_TO_END {
            let a = values(parent, name, m.name);
            let b = values(change, name, m.name);
            // A side with no value at all has only crashed runs: the
            // failure count below judges it.
            if a.iter().any(Option::is_some) && b.iter().any(Option::is_some) {
                out.rows.push(judge(m, name, &a, &b));
            }
        }
        let (fa, fb) = (
            failures_per_run(parent, name),
            failures_per_run(change, name),
        );
        if fb > fa {
            out.more_failures.push((name.to_string(), fa, fb));
        }
    }
    Ok(out)
}

/// The baseline summary of a set of runs of one commit: per (metric,
/// workload) the median, quartiles and largest deviation from the
/// median, the bound that rule derives — max(5 %, 2 × the largest
/// deviation), capped at 15 % — next to the bound in force, and the
/// host facts.
pub fn baseline(sets: &[ResultSet]) -> Value {
    let mut metrics = Map::new();
    for m in &END_TO_END {
        let mut per_workload = Map::new();
        let mut derived: f64 = 0.05;
        for w in sets
            .first()
            .map(|s| s.workloads.as_slice())
            .unwrap_or_default()
        {
            let v: Vec<f64> = values(sets, &w.name, m.name)
                .into_iter()
                .flatten()
                .collect();
            let (q1, med, q3) = quartiles(&v);
            let max_dev = v
                .iter()
                .map(|x| (x - med).abs() / med.abs())
                .fold(0.0, f64::max);
            derived = derived.max(2.0 * max_dev);
            let mut entry = Map::new();
            entry.insert("median", Value::F64(med));
            entry.insert("q1", Value::F64(q1));
            entry.insert("q3", Value::F64(q3));
            entry.insert("iqr_share", Value::F64((q3 - q1) / med.abs()));
            entry.insert("max_dev_share", Value::F64(max_dev));
            per_workload.insert(w.name.clone(), Value::Object(entry));
        }
        let mut entry = Map::new();
        entry.insert("unit", Value::String(m.unit.to_string()));
        entry.insert("derived_bound", Value::F64(derived.min(0.15)));
        entry.insert("bound", Value::F64(m.bound));
        entry.insert("workloads", Value::Object(per_workload));
        metrics.insert(m.name, Value::Object(entry));
    }
    let first = sets.first();
    let mut out = Map::new();
    out.insert("runs", Value::U64(sets.len() as u64));
    out.insert(
        "seeds",
        Value::Array(sets.iter().map(|s| Value::U64(s.seed)).collect()),
    );
    out.insert("seconds", Value::F64(first.map_or(0.0, |s| s.seconds)));
    out.insert("nproc", Value::U64(first.map_or(0, |s| s.nproc)));
    out.insert(
        "rustc",
        Value::String(first.map_or_else(String::new, |s| s.rustc.clone())),
    );
    out.insert(
        "commit",
        Value::String(first.map_or_else(String::new, |s| s.commit.clone())),
    );
    out.insert("metrics", Value::Object(metrics));
    Value::Object(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MetricValue, Outcome, WorkloadResult, RESULT_SCHEMA};
    use std::collections::BTreeMap;

    /// A result set whose throughput on `sweep-base` is `tp`, every
    /// other metric fixed.
    fn set(tp: f64, failed: u64) -> ResultSet {
        let mut metrics = BTreeMap::new();
        for m in &END_TO_END {
            let value = if m.name == "throughput" { tp } else { 1.0 };
            metrics.insert(
                m.name.to_string(),
                MetricValue {
                    value,
                    unit: m.unit.to_string(),
                },
            );
        }
        ResultSet {
            schema: RESULT_SCHEMA.to_string(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            nproc: 2,
            rustc: "rustc".into(),
            commit: "c".into(),
            workloads: vec![WorkloadResult {
                name: "sweep-base".into(),
                digest: None,
                outcome: Outcome {
                    correct: failed == 0,
                    attempted: 99,
                    failed,
                    metrics,
                },
            }],
        }
    }

    fn sets(tps: &[f64]) -> Vec<ResultSet> {
        tps.iter().map(|&t| set(t, 0)).collect()
    }

    fn throughput_verdict(c: &Comparison) -> Verdict {
        c.rows
            .iter()
            .find(|r| r.metric == "throughput")
            .map(|r| r.verdict)
            .unwrap()
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn a_reliable_win_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 1.08).collect();
        let c = compare(&sets(&PARENT), &sets(&change)).unwrap();
        assert_eq!(throughput_verdict(&c), Verdict::Gain);
        assert!(!c.regressed());
        // The fixed metrics tie: unchanged.
        assert!(c
            .rows
            .iter()
            .filter(|r| r.metric != "throughput")
            .all(|r| r.verdict == Verdict::Unchanged));
    }

    #[test]
    fn five_pairs_never_claim_a_gain() {
        let change: Vec<f64> = PARENT[..5].iter().map(|x| x * 1.08).collect();
        let c = compare(&sets(&PARENT[..5]), &sets(&change)).unwrap();
        assert_eq!(throughput_verdict(&c), Verdict::Unchanged);
    }

    #[test]
    fn identical_runs_tie() {
        let c = compare(&sets(&PARENT), &sets(&PARENT)).unwrap();
        assert_eq!(throughput_verdict(&c), Verdict::Unchanged);
        assert!(!c.regressed());
    }

    #[test]
    fn a_drop_beyond_the_bound_is_a_regression() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 0.7).collect();
        let c = compare(&sets(&PARENT), &sets(&change)).unwrap();
        assert_eq!(throughput_verdict(&c), Verdict::Regression);
        assert!(c.regressed());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0,
        ];
        let change: Vec<f64> = noisy.iter().rev().copied().collect();
        let c = compare(&sets(&noisy), &sets(&change)).unwrap();
        assert_eq!(throughput_verdict(&c), Verdict::Unresolved);
        assert!(!c.regressed());
    }

    #[test]
    fn more_failed_operations_is_a_regression() {
        let parent = sets(&PARENT);
        let change: Vec<ResultSet> = PARENT.iter().map(|&t| set(t, 1)).collect();
        let c = compare(&parent, &change).unwrap();
        assert!(c.regressed());
        assert_eq!(c.more_failures.len(), 1);
    }

    #[test]
    fn a_change_that_loses_a_workload_in_some_runs_is_a_regression() {
        let parent = sets(&PARENT);
        let mut change = sets(&PARENT);
        // Two runs crashed (recorded without metrics), one lacks the
        // workload altogether; the other seven match the parent.
        for s in &mut change[..2] {
            s.workloads[0].outcome = Outcome::missing();
        }
        change[2].workloads.clear();
        let c = compare(&parent, &change).unwrap();
        assert!(c.regressed());
        assert_eq!(c.more_failures, [("sweep-base".to_string(), 0.0, 0.3)]);
        // The runs still pair by set index: seven identical pairs.
        let row = c.rows.iter().find(|r| r.metric == "throughput").unwrap();
        assert_eq!(
            (row.pairs, row.wins, row.verdict),
            (7, 0, Verdict::Unchanged)
        );
    }

    #[test]
    fn baseline_reports_quartiles_and_derived_bounds() {
        let b = baseline(&sets(&[100.0, 102.0, 98.0, 101.0, 99.0]));
        let tp = b.get("metrics").and_then(|m| m.get("throughput")).unwrap();
        let med = tp
            .get("workloads")
            .and_then(|w| w.get("sweep-base"))
            .and_then(|w| w.get("median"))
            .and_then(Value::as_f64);
        assert_eq!(med, Some(100.0));
        // Largest deviation 2 % → 2 × 2 % = 4 %, floored at 5 %.
        assert_eq!(tp.get("derived_bound").and_then(Value::as_f64), Some(0.05));
        assert_eq!(b.get("nproc").and_then(Value::as_u64), Some(2));
    }
}
