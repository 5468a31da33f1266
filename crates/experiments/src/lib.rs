//! # dck-experiments — regenerating the paper's evaluation
//!
//! One module per artifact of the paper's §VI, plus three validation
//! experiments (V1–V3) and five extensions (E1–E5) that go beyond it:
//!
//! | Id | Paper artifact | Module |
//! |---|---|---|
//! | T1 | Table I (scenario parameters) | [`figures`] |
//! | F4 | Fig. 4a–c — waste surface, `Base` | [`figures`] |
//! | F5 | Fig. 5 — waste ratios at `M = 7 h`, `Base` | [`figures`] |
//! | F6 | Fig. 6a–b — success-probability ratios, `Base` | [`figures`] |
//! | F7 | Fig. 7a–c — waste surface, `Exa` | [`figures`] |
//! | F8 | Fig. 8 — waste ratios at `M = 7 h`, `Exa` | [`figures`] |
//! | F9 | Fig. 9a–b — success-probability ratios, `Exa` | [`figures`] |
//! | V1 | model vs Monte-Carlo simulation (waste & risk) | [`validate`] |
//! | V2 | closed-form vs numeric optimal periods; Young/Daly | [`figures`] |
//! | E1 | robustness to non-Exponential failures (Weibull/LogNormal) | [`robustness`] |
//! | E2 | blocking \[1\] vs non-blocking \[2\] double checkpointing | [`figures`] |
//! | E3 | optimal overhead choice φ* across the MTBF axis | [`figures`] |
//! | E4 | hierarchical two-level checkpointing (§VIII future work) | [`figures`] |
//! | E5 | higher-order (Daly-style) model accuracy vs simulation | [`refined_exp`] |
//! | V3 | Figure 5 regenerated from the simulator (not the model) | [`fig5_sim`] |
//!
//! The closed-form experiments (T1, F4–F9, V2, E2–E4) are entries of
//! one [`figures::FIGURES`] registry: each builds [`table::Table`]s and
//! renders its CSV, JSON, text and gnuplot files from them. V1, E1 and
//! E5 are regions of the model↔simulator [`conformance`] harness and
//! only render its report; [`output`] holds the shared CSV, ASCII and
//! directory helpers.
//! [`run_experiments`] runs them by name for the `dck experiments`
//! command (`dck experiments all --out results`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod fig5_sim;
pub mod figures;
pub mod output;
pub mod refined_exp;
pub mod robustness;
pub mod table;
pub mod validate;

pub use output::OutputDir;

use conformance::{run_conformance, ConformanceSpec};
use std::error::Error;
use std::path::Path;

/// Every experiment, in the order `all` runs them: the entries of
/// [`figures::FIGURES`], with the simulated ones between them.
pub const ALL: [&str; 15] = [
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "period-check",
    "phi-choice",
    "blocking-gain",
    "fig5-sim",
    "hierarchical",
    "refined",
    "validate",
    "robustness",
];

/// Runs experiment `name`, or every experiment for `all`, writing the
/// artifacts under `out`. `fast` shrinks every grid to CI size and
/// `seed` drives the simulated experiments. Each experiment prints its
/// summary to stdout as it finishes; `all` keeps going past a failing
/// experiment and reports it on stderr.
///
/// # Errors
/// An unknown name, an output directory that cannot be created, or the
/// names of the experiments that failed.
pub fn run_experiments(name: &str, out: &Path, fast: bool, seed: u64) -> Result<(), String> {
    let names: Vec<&str> = match name {
        "all" => ALL.to_vec(),
        one if ALL.contains(&one) => vec![one],
        other => {
            let known = ALL.join(", ");
            return Err(format!(
                "unknown experiment `{other}` (expected all, {known})"
            ));
        }
    };
    let dir = OutputDir::create(out)
        .map_err(|e| format!("cannot create output directory {}: {e}", out.display()))?;
    let failed: Vec<&str> = names
        .into_iter()
        .filter(|&n| match run_one(n, fast, seed, &dir) {
            Ok(()) => false,
            Err(e) => {
                eprintln!("{n}: error: {e}");
                true
            }
        })
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("experiments failed: {}", failed.join(", ")))
    }
}

fn run_one(name: &str, fast: bool, seed: u64, out: &OutputDir) -> Result<(), Box<dyn Error>> {
    if let Some(e) = figures::FIGURES.iter().find(|e| e.name == name) {
        let fig = (e.build)(e.name, if fast { e.fast } else { e.full }, seed, out.path())?;
        fig.write(out)?;
        println!("{}", fig.summary);
        return Ok(());
    }
    match name {
        "validate" | "refined" | "robustness" => {
            let mut spec = match name {
                "validate" => ConformanceSpec::v1(fast),
                "refined" => ConformanceSpec::e5(fast),
                _ => ConformanceSpec::e1(fast),
            };
            spec.seed = seed;
            let report = run_conformance(&spec)?;
            let text = match name {
                "validate" => validate::write(&report, out)?,
                "refined" => refined_exp::write(&report, out)?,
                _ => robustness::write(&report, out)?,
            };
            println!("{text}");
            if !report.all_pass() {
                return Err(format!(
                    "gating cells outside tolerance:\n{}",
                    report.failures().join("\n")
                )
                .into());
            }
        }
        "fig5-sim" => {
            let mut cfg = if fast {
                fig5_sim::Fig5SimConfig::fast()
            } else {
                fig5_sim::Fig5SimConfig::default()
            };
            cfg.seed = seed;
            let fig = fig5_sim::run(&cfg)?;
            fig.write(out)?;
            println!(
                "fig5-sim: {} points; max |sim − model| ratio deviation: {:.4}",
                fig.points.len(),
                fig.max_ratio_deviation()
            );
        }
        other => return Err(format!("unknown experiment `{other}`").into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_is_listed_in_order() {
        let listed: Vec<&str> = ALL
            .into_iter()
            .filter(|n| figures::FIGURES.iter().any(|e| e.name == *n))
            .collect();
        let registry: Vec<&str> = figures::FIGURES.iter().map(|e| e.name).collect();
        assert_eq!(listed, registry);
    }
}
