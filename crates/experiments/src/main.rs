//! `dck-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! dck-experiments <command> [--out DIR] [--fast] [--seed N]
//!
//! commands:
//!   all           run every experiment
//!   table1        Table I (scenario parameters)
//!   fig4 | fig7   waste surfaces (Base | Exa)
//!   fig5 | fig8   waste ratios at M = 7 h (Base | Exa)
//!   fig6 | fig9   success-probability ratios (Base | Exa)
//!   validate      model vs Monte-Carlo simulation (V1)
//!   period-check  closed-form vs numeric optimal periods (V2)
//!   robustness    non-Exponential failure distributions (E1)
//!   blocking-gain blocking [1] vs non-blocking [2] double ckpt (E2)
//!   phi-choice    optimal overhead phi* across the MTBF axis (E3)
//!   hierarchical  two-level buddy + stable-storage checkpointing (E4)
//!   refined       higher-order model accuracy vs simulation (E5)
//!   fig5-sim      Figure 5 from the simulator, overlaid on the model (V3)
//! ```

use dck_core::Scenario;
use dck_experiments::{
    blocking_gain, fig5_sim, hierarchical_exp, output::OutputDir, period_check, phi_choice,
    refined_exp, risk_surface, robustness, table1, validate, waste_ratio, waste_surface,
};
use std::process::ExitCode;

struct Options {
    out: String,
    fast: bool,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut command = None;
    let mut opts = Options {
        out: "results".to_string(),
        fast: false,
        seed: 0x0D0C_5EED,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                opts.out = it
                    .next()
                    .ok_or_else(|| "--out needs a directory".to_string())?
                    .clone();
            }
            "--fast" => opts.fast = true,
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or_else(|| "--seed needs a value".to_string())?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "-h" | "--help" => return Err(usage()),
            c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let command = command.ok_or_else(usage)?;
    Ok((command, opts))
}

fn usage() -> String {
    "usage: dck-experiments \
     <all|table1|fig4|fig5|fig6|fig7|fig8|fig9|validate|period-check|robustness|phi-choice|\
     blocking-gain|hierarchical|refined|fig5-sim> [--out DIR] [--fast] [--seed N]"
        .to_string()
}

fn surface_resolution(fast: bool) -> waste_surface::Resolution {
    if fast {
        waste_surface::Resolution {
            mtbf_points: 9,
            phi_points: 9,
        }
    } else {
        waste_surface::Resolution::default()
    }
}

fn risk_resolution(fast: bool) -> risk_surface::Resolution {
    if fast {
        risk_surface::Resolution {
            mtbf_points: 10,
            exploitation_points: 10,
        }
    } else {
        risk_surface::Resolution::default()
    }
}

fn run_command(
    command: &str,
    opts: &Options,
    out: &OutputDir,
) -> Result<bool, Box<dyn std::error::Error>> {
    let mut ok = true;
    let base = Scenario::base();
    let exa = Scenario::exa();
    match command {
        "table1" => {
            let t = table1::run();
            println!("{}", t.to_ascii());
            t.write(out)?;
        }
        "fig4" | "fig7" => {
            let scenario = if command == "fig4" { &base } else { &exa };
            let fig = waste_surface::run(scenario, surface_resolution(opts.fast))?;
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
            let scenario = if command == "fig5" { &base } else { &exa };
            let points = if opts.fast { 11 } else { 41 };
            let fig = waste_ratio::run(scenario, points)?;
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
            let scenario = if command == "fig6" { &base } else { &exa };
            let fig = risk_surface::run(scenario, risk_resolution(opts.fast))?;
            fig.write(out)?;
            println!(
                "fig{}: {} grid points written to {}",
                fig.figure_number(),
                fig.points.len(),
                out.path().display()
            );
        }
        "validate" => {
            let mut cfg = if opts.fast {
                validate::ValidateConfig::fast()
            } else {
                validate::ValidateConfig::default()
            };
            cfg.seed = opts.seed;
            let report = validate::run(&cfg)?;
            println!("{}", report.to_ascii());
            report.write(out)?;
            if !report.all_within() {
                eprintln!("validation: some points fell outside tolerance");
                ok = false;
            }
        }
        "robustness" => {
            let cfg = if opts.fast {
                robustness::RobustnessConfig::fast()
            } else {
                robustness::RobustnessConfig::default()
            };
            let report = robustness::run(&cfg)?;
            println!("{}", report.to_ascii());
            report.write(out)?;
        }
        "fig5-sim" => {
            let mut cfg = if opts.fast {
                fig5_sim::Fig5SimConfig::fast()
            } else {
                fig5_sim::Fig5SimConfig::default()
            };
            cfg.seed = opts.seed;
            let fig = fig5_sim::run(&cfg)?;
            fig.write(out)?;
            println!(
                "fig5-sim: {} points; max |sim − model| ratio deviation: {:.4}",
                fig.points.len(),
                fig.max_ratio_deviation()
            );
        }
        "blocking-gain" => {
            let points = if opts.fast { 8 } else { 17 };
            let report = blocking_gain::run(points)?;
            println!("{}", report.to_ascii());
            println!(
                "max gain of full overlap over the blocking protocol: {:.1}%",
                100.0 * report.max_gain()
            );
            report.write(out)?;
        }
        "hierarchical" => {
            let mut cfg = hierarchical_exp::HierarchicalConfig::default();
            if opts.fast {
                cfg.replications = 12;
            }
            cfg.seed = opts.seed;
            let report = hierarchical_exp::run(&cfg)?;
            println!("{}", report.to_ascii());
            report.write(out)?;
        }
        "refined" => {
            let mut cfg = if opts.fast {
                refined_exp::RefinedConfig::fast()
            } else {
                refined_exp::RefinedConfig::default()
            };
            cfg.seed = opts.seed;
            let report = refined_exp::run(&cfg)?;
            println!("{}", report.to_ascii());
            report.write(out)?;
        }
        "phi-choice" => {
            let points = if opts.fast { 8 } else { 17 };
            let report = phi_choice::run(points)?;
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
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = match parse_args(&args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let out = match OutputDir::create(&opts.out) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot create output directory {}: {e}", opts.out);
            return ExitCode::FAILURE;
        }
    };

    let commands: Vec<&str> = if command == "all" {
        vec![
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
        ]
    } else {
        vec![command.as_str()]
    };

    let mut ok = true;
    for c in commands {
        match run_command(c, &opts, &out) {
            Ok(this_ok) => ok &= this_ok,
            Err(e) => {
                eprintln!("{c}: error: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
