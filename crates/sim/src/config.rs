//! Simulation run configuration.

use dck_core::{ModelError, PlatformParams, Protocol, RiskModel};
use dck_protocols::{FailureResponse, GroupLayout, PeriodSchedule, RiskTracker};
use serde::{Deserialize, Serialize};

/// How the checkpointing period is chosen for a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PeriodChoice {
    /// Use the model-optimal period (Eqs. 9/10/15, clamped) for the
    /// configured MTBF.
    Optimal,
    /// Use an explicit period (seconds).
    Explicit(f64),
}

/// Configuration of a single protocol simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Protocol to simulate.
    pub protocol: Protocol,
    /// Platform parameters (Table I shape).
    pub params: PlatformParams,
    /// Overhead `φ ∈ [0, θmin]`.
    pub phi: f64,
    /// Platform MTBF `M` (seconds) — used for period optimization and
    /// as the calibration target for failure sources.
    pub mtbf: f64,
    /// Period selection.
    pub period: PeriodChoice,
    /// Safety cap on processed failures per run (guards against
    /// pathological configurations that cannot make progress).
    pub max_failures: u64,
}

impl RunConfig {
    /// A config with the optimal period and a generous failure cap.
    pub fn new(protocol: Protocol, params: PlatformParams, phi: f64, mtbf: f64) -> Self {
        RunConfig {
            protocol,
            params,
            phi,
            mtbf,
            period: PeriodChoice::Optimal,
            max_failures: 50_000_000,
        }
    }

    /// The node count actually simulated: the platform size rounded
    /// down to a multiple of the group size.
    pub fn usable_nodes(&self) -> u64 {
        GroupLayout::usable_nodes(self.protocol, self.params.nodes)
    }

    /// Resolves the period per [`PeriodChoice`].
    pub fn resolve_period(&self) -> Result<f64, ModelError> {
        match self.period {
            PeriodChoice::Explicit(p) => Ok(p),
            PeriodChoice::Optimal => {
                Ok(
                    dck_core::optimal_period(self.protocol, &self.params, self.phi, self.mtbf)?
                        .period,
                )
            }
        }
    }

    /// Builds the executable machinery for a run: schedule, failure
    /// response, and risk tracker. The tracker starts empty and stores
    /// only open risk windows, so the cost does not grow with the node
    /// count; resolving [`PeriodChoice::Optimal`] is the costly part.
    pub fn build(&self) -> Result<(PeriodSchedule, FailureResponse, RiskTracker), ModelError> {
        let period = self.resolve_period()?;
        let schedule = PeriodSchedule::new(self.protocol, &self.params, self.phi, period)?;
        let response = FailureResponse::for_schedule(&self.params, &schedule);
        let mut layout_params = self.params;
        layout_params.nodes = self.usable_nodes();
        let layout = GroupLayout::new(self.protocol, layout_params.nodes)?;
        let risk = RiskModel::new(self.protocol, &self.params, self.phi)?;
        let tracker = RiskTracker::new(layout, risk.risk_window())?;
        Ok((schedule, response, tracker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, 324 * 32).unwrap()
    }

    #[test]
    fn optimal_period_resolves() {
        let cfg = RunConfig::new(Protocol::DoubleNbl, base(), 1.0, 7.0 * 3600.0);
        let p = cfg.resolve_period().unwrap();
        let expected = dck_core::optimal_period(Protocol::DoubleNbl, &base(), 1.0, 7.0 * 3600.0)
            .unwrap()
            .period;
        assert_eq!(p, expected);
    }

    #[test]
    fn explicit_period_passes_through() {
        let mut cfg = RunConfig::new(Protocol::Triple, base(), 1.0, 3600.0);
        cfg.period = PeriodChoice::Explicit(500.0);
        assert_eq!(cfg.resolve_period().unwrap(), 500.0);
    }

    #[test]
    fn build_produces_consistent_machinery() {
        let cfg = RunConfig::new(Protocol::Triple, base(), 1.0, 3600.0);
        let (sched, _resp, tracker) = cfg.build().unwrap();
        assert_eq!(sched.protocol(), Protocol::Triple);
        // Risk window: D + R + 2θ with θ = 34.
        assert!((tracker.risk_window() - (0.0 + 4.0 + 68.0)).abs() < 1e-12);
    }

    #[test]
    fn usable_nodes_rounds_down_for_triples() {
        let mut p = base();
        p.nodes = 10_368; // multiple of 2 and 3
        let cfg = RunConfig::new(Protocol::Triple, p, 1.0, 3600.0);
        assert_eq!(cfg.usable_nodes(), 10_368);
        p.nodes = 10_369;
        let cfg = RunConfig::new(Protocol::Triple, p, 1.0, 3600.0);
        assert_eq!(cfg.usable_nodes(), 10_368);
    }

    #[test]
    fn infeasible_explicit_period_fails_at_build() {
        let mut cfg = RunConfig::new(Protocol::DoubleNbl, base(), 0.0, 3600.0);
        cfg.period = PeriodChoice::Explicit(10.0); // < δ + θmax
        assert!(cfg.build().is_err());
    }

    /// 10¹⁰ nodes on Exa: a tracker with storage per node would need
    /// 160 GB and abort the process. Building must cost nothing that
    /// grows with the platform, and a run must still detect risk.
    #[test]
    fn huge_platform_builds_and_runs() {
        let mut p = dck_core::Scenario::exa().params;
        p.nodes = 10_000_000_000;
        let cfg = RunConfig::new(Protocol::DoubleNbl, p, 0.0, 3600.0);
        let (_sched, _resp, mut tracker) = cfg.build().unwrap();
        assert!(!tracker.record_failure(9_999_999_998, 10.0).fatal);
        assert!(tracker.record_failure(9_999_999_999, 11.0).fatal);
        let mc = crate::MonteCarloConfig {
            replications: 8,
            seed: 1,
            workers: 1,
            source: crate::montecarlo::SourceKind::Exponential,
        };
        let est = crate::estimate_waste(&cfg, 5.0 * 3600.0, &mc).unwrap();
        assert_eq!(est.completed + est.fatal + est.truncated, 8);
    }
}
