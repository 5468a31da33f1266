//! # dck-experiments — regenerating the paper's evaluation
//!
//! One module per artifact of the paper's §VI, plus three validation
//! experiments (V1–V3) and five extensions (E1–E5) that go beyond it:
//!
//! | Id | Paper artifact | Module |
//! |---|---|---|
//! | T1 | Table I (scenario parameters) | [`table1`] |
//! | F4 | Fig. 4a–c — waste surface, `Base` | [`waste_surface`] |
//! | F5 | Fig. 5 — waste ratios at `M = 7 h`, `Base` | [`waste_ratio`] |
//! | F6 | Fig. 6a–b — success-probability ratios, `Base` | [`risk_surface`] |
//! | F7 | Fig. 7a–c — waste surface, `Exa` | [`waste_surface`] |
//! | F8 | Fig. 8 — waste ratios at `M = 7 h`, `Exa` | [`waste_ratio`] |
//! | F9 | Fig. 9a–b — success-probability ratios, `Exa` | [`risk_surface`] |
//! | V1 | model vs Monte-Carlo simulation (waste & risk) | [`validate`] |
//! | V2 | closed-form vs numeric optimal periods; Young/Daly | [`period_check`] |
//! | E1 | robustness to non-Exponential failures (Weibull/LogNormal) | [`robustness`] |
//! | E2 | blocking \[1\] vs non-blocking \[2\] double checkpointing | [`blocking_gain`] |
//! | E3 | optimal overhead choice φ* across the MTBF axis | [`phi_choice`] |
//! | E4 | hierarchical two-level checkpointing (§VIII future work) | [`hierarchical_exp`] |
//! | E5 | higher-order (Daly-style) model accuracy vs simulation | [`refined_exp`] |
//! | V3 | Figure 5 regenerated from the simulator (not the model) | [`fig5_sim`] |
//!
//! V1, E1 and E5 are regions of the model↔simulator [`conformance`]
//! harness and only render its report. Every experiment is a pure
//! function from parameters to a typed, serializable result; [`output`]
//! renders results to CSV (gnuplot ready), JSON and ASCII previews
//! under a results directory.
//! [`run_experiments`] runs them by name for the `dck experiments`
//! command (`dck experiments all --out results`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking_gain;
pub mod conformance;
pub mod fig5_sim;
pub mod gnuplot;
pub mod hierarchical_exp;
pub mod output;
pub mod period_check;
pub mod phi_choice;
pub mod refined_exp;
pub mod risk_surface;
pub mod robustness;
pub mod table1;
pub mod validate;
pub mod waste_ratio;
pub mod waste_surface;

pub use output::OutputDir;

use conformance::{run_conformance, ConformanceSpec};
use dck_core::Scenario;
use std::error::Error;
use std::path::Path;

/// Every experiment, in the order `all` runs them.
const ALL: &str = "table1 fig4 fig5 fig6 fig7 fig8 fig9 period-check phi-choice blocking-gain \
                   fig5-sim hierarchical refined validate robustness";

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
        "all" => ALL.split_whitespace().collect(),
        one if ALL.split_whitespace().any(|n| n == one) => vec![one],
        other => {
            let known = ALL.split_whitespace().collect::<Vec<_>>().join(", ");
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
    let (base, exa) = (Scenario::base(), Scenario::exa());
    match name {
        "table1" => {
            let t = table1::run();
            println!("{}", t.to_ascii());
            t.write(out)?;
        }
        "fig4" | "fig7" => {
            let scenario = if name == "fig4" { &base } else { &exa };
            let resolution = if fast {
                waste_surface::Resolution {
                    mtbf_points: 9,
                    phi_points: 9,
                }
            } else {
                waste_surface::Resolution::default()
            };
            let fig = waste_surface::run(scenario, resolution)?;
            fig.write(out)?;
            println!(
                "fig{}: {} surfaces over {}×{} grid written to {}",
                fig.figure_number(),
                fig.surfaces.len(),
                fig.mtbf_grid.len(),
                fig.phi_grid.len(),
                out.path().display()
            );
        }
        "fig5" | "fig8" => {
            let scenario = if name == "fig5" { &base } else { &exa };
            let fig = waste_ratio::run(scenario, if fast { 11 } else { 41 })?;
            fig.write(out)?;
            if let Some(last) = fig.points.last() {
                println!(
                    "fig{}: {} points; at phi/R=1: BoF/NBL={:.4}, Triple/NBL={:.4}",
                    fig.figure_number(),
                    fig.points.len(),
                    last.bof_over_nbl,
                    last.triple_over_nbl
                );
            }
        }
        "fig6" | "fig9" => {
            let scenario = if name == "fig6" { &base } else { &exa };
            let resolution = if fast {
                risk_surface::Resolution {
                    mtbf_points: 10,
                    exploitation_points: 10,
                }
            } else {
                risk_surface::Resolution::default()
            };
            let fig = risk_surface::run(scenario, resolution)?;
            fig.write(out)?;
            println!(
                "fig{}: {} grid points written to {}",
                fig.figure_number(),
                fig.points.len(),
                out.path().display()
            );
        }
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
        "blocking-gain" => {
            let report = blocking_gain::run(if fast { 8 } else { 17 })?;
            println!("{}", report.to_ascii());
            println!(
                "max gain of full overlap over the blocking protocol: {:.1}%",
                100.0 * report.max_gain()
            );
            report.write(out)?;
        }
        "hierarchical" => {
            let mut cfg = hierarchical_exp::HierarchicalConfig::default();
            if fast {
                cfg.replications = 12;
            }
            cfg.seed = seed;
            let report = hierarchical_exp::run(&cfg)?;
            println!("{}", report.to_ascii());
            report.write(out)?;
        }
        "phi-choice" => {
            let report = phi_choice::run(if fast { 8 } else { 17 })?;
            println!("{}", report.to_ascii());
            println!(
                "max gain of tuning phi over the better fixed policy: {:.1}%",
                100.0 * report.max_gain_over_fixed()
            );
            report.write(out)?;
        }
        "period-check" => {
            let report = period_check::run()?;
            println!("{}", report.to_ascii());
            println!(
                "max interior closed-form vs numeric rel. err: {:.2e}",
                report.max_interior_rel_err()
            );
            report.write(out)?;
        }
        other => return Err(format!("unknown experiment `{other}`").into()),
    }
    Ok(())
}
