//! V3 — Figure 5 regenerated from the simulator.
//!
//! Figures 4–9 are model instantiations (in the paper and in our
//! [`crate::figures`]). This experiment re-draws the paper's key
//! comparison — Figure 5's waste ratios at `M = 7 h` — from the
//! *mechanistic* Monte-Carlo simulator alone, then overlays the model
//! curves: if the ratios agree, the figure's story (BoF ≥ NBL with
//! convergence at φ/R = 1; TRIPLE winning below the φ = δ crossover and
//! losing ≤ 15 % above it) rests on the protocol mechanics, not on the
//! closed forms used to plot it.

use crate::figures::M_7H;
use crate::output::{fmt_f64, to_csv, OutputDir};
use dck_core::{optimal_period, ModelError, Protocol, Scenario};
use dck_sim::{estimate_waste, MonteCarloConfig, PeriodChoice, RunConfig};
use serde::{Deserialize, Serialize};

/// Configuration of the simulated-figure run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig5SimConfig {
    /// φ/R sample count.
    pub points: usize,
    /// Monte-Carlo replications per (protocol, φ) cell.
    pub replications: usize,
    /// Useful work per run, in multiples of the MTBF.
    pub work_in_mtbfs: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
}

impl Default for Fig5SimConfig {
    fn default() -> Self {
        Fig5SimConfig {
            points: 11,
            replications: 120,
            work_in_mtbfs: 25.0,
            seed: 0xF1_65,
            workers: 0,
        }
    }
}

impl Fig5SimConfig {
    /// CI-friendly settings.
    pub fn fast() -> Self {
        Fig5SimConfig {
            points: 5,
            replications: 40,
            work_in_mtbfs: 15.0,
            ..Default::default()
        }
    }
}

/// One simulated ratio point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimRatioPoint {
    /// Overhead ratio φ/R.
    pub phi_ratio: f64,
    /// Simulated waste of DOUBLENBL (mean over replications).
    pub sim_nbl: f64,
    /// Simulated waste of DOUBLEBOF.
    pub sim_bof: f64,
    /// Simulated waste of TRIPLE.
    pub sim_triple: f64,
    /// Simulated BoF/NBL ratio.
    pub sim_bof_over_nbl: f64,
    /// Simulated Triple/NBL ratio.
    pub sim_triple_over_nbl: f64,
    /// Model BoF/NBL ratio (Figure 5's curve).
    pub model_bof_over_nbl: f64,
    /// Model Triple/NBL ratio.
    pub model_triple_over_nbl: f64,
}

/// The simulated figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5SimFigure {
    /// Points across φ/R.
    pub points: Vec<SimRatioPoint>,
}

/// Runs the simulated Figure 5 on a 96-node Base-shaped platform
/// (waste is node-count independent; 96 nodes keeps runs cheap).
///
/// # Errors
/// Propagates model/configuration errors; an operating point where no
/// replication completes is reported as a degenerate-estimate error.
pub fn run(cfg: &Fig5SimConfig) -> Result<Fig5SimFigure, ModelError> {
    let mut params = Scenario::base().params;
    params.nodes = 96;
    let work = cfg.work_in_mtbfs * M_7H;

    let sim_waste = |protocol: Protocol, phi: f64, salt: u64| -> Result<f64, ModelError> {
        let opt = optimal_period(protocol, &params, phi, M_7H)?;
        let mut run_cfg = RunConfig::new(protocol, params, phi, M_7H);
        run_cfg.period = PeriodChoice::Explicit(opt.period);
        let mc = MonteCarloConfig {
            replications: cfg.replications,
            seed: cfg.seed ^ salt,
            workers: cfg.workers,
            source: dck_sim::montecarlo::SourceKind::Exponential,
        };
        let ci = estimate_waste(&run_cfg, work, &mc)?.ci95.ok_or_else(|| {
            ModelError::invalid("replications", "no F5 replication completed its work")
        })?;
        Ok(ci.mean)
    };
    let model_waste = |protocol: Protocol, phi: f64| -> Result<f64, ModelError> {
        Ok(optimal_period(protocol, &params, phi, M_7H)?.waste.total)
    };

    let mut points = Vec::with_capacity(cfg.points);
    for i in 0..cfg.points {
        let ratio = i as f64 / (cfg.points - 1) as f64;
        let phi = ratio * params.theta_min;
        // Common random numbers across protocols (same salt): the
        // *ratio* estimates share failure streams, cancelling most of
        // the Monte-Carlo noise.
        let salt = i as u64;
        let sim_nbl = sim_waste(Protocol::DoubleNbl, phi, salt)?;
        let sim_bof = sim_waste(Protocol::DoubleBof, phi, salt)?;
        let sim_triple = sim_waste(Protocol::Triple, phi, salt)?;
        points.push(SimRatioPoint {
            phi_ratio: ratio,
            sim_nbl,
            sim_bof,
            sim_triple,
            sim_bof_over_nbl: sim_bof / sim_nbl,
            sim_triple_over_nbl: sim_triple / sim_nbl,
            model_bof_over_nbl: model_waste(Protocol::DoubleBof, phi)?
                / model_waste(Protocol::DoubleNbl, phi)?,
            model_triple_over_nbl: model_waste(Protocol::Triple, phi)?
                / model_waste(Protocol::DoubleNbl, phi)?,
        });
    }
    Ok(Fig5SimFigure { points })
}

impl Fig5SimFigure {
    /// Largest |simulated − model| across both ratio curves.
    pub fn max_ratio_deviation(&self) -> f64 {
        self.points
            .iter()
            .flat_map(|p| {
                [
                    (p.sim_bof_over_nbl - p.model_bof_over_nbl).abs(),
                    (p.sim_triple_over_nbl - p.model_triple_over_nbl).abs(),
                ]
            })
            .fold(0.0, f64::max)
    }

    /// Writes CSV + JSON.
    ///
    /// # Errors
    /// I/O errors.
    pub fn write(&self, out: &OutputDir) -> std::io::Result<()> {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    fmt_f64(p.phi_ratio),
                    fmt_f64(p.sim_nbl),
                    fmt_f64(p.sim_bof),
                    fmt_f64(p.sim_triple),
                    fmt_f64(p.sim_bof_over_nbl),
                    fmt_f64(p.sim_triple_over_nbl),
                    fmt_f64(p.model_bof_over_nbl),
                    fmt_f64(p.model_triple_over_nbl),
                ]
            })
            .collect();
        out.write_text(
            "fig5_simulated.csv",
            &to_csv(
                &[
                    "phi_over_r",
                    "sim_waste_nbl",
                    "sim_waste_bof",
                    "sim_waste_triple",
                    "sim_bof_over_nbl",
                    "sim_triple_over_nbl",
                    "model_bof_over_nbl",
                    "model_triple_over_nbl",
                ],
                &rows,
            ),
        )?;
        out.write_json("fig5_simulated.json", self)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_figure5_reproduces_the_shape() {
        let fig = run(&Fig5SimConfig::fast()).unwrap();
        assert_eq!(fig.points.len(), 5);

        // Shape assertions on the *simulated* curves alone:
        let first = &fig.points[0];
        let last = fig.points.last().unwrap();
        // TRIPLE wins decisively at φ = 0…
        assert!(
            first.sim_triple_over_nbl < 0.55,
            "{}",
            first.sim_triple_over_nbl
        );
        // …and loses by a bounded margin at φ = R.
        assert!(last.sim_triple_over_nbl > 1.0);
        assert!(
            last.sim_triple_over_nbl < 1.25,
            "{}",
            last.sim_triple_over_nbl
        );
        // BoF and NBL coincide at φ = R (identical protocols there).
        assert!((last.sim_bof_over_nbl - 1.0).abs() < 0.05);

        // And the simulated curves track the model curves.
        assert!(
            fig.max_ratio_deviation() < 0.12,
            "max deviation {}",
            fig.max_ratio_deviation()
        );
    }
}
