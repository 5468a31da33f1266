//! The `FaultScript` DSL: exact, deterministic failure injection.
//!
//! A script is a JSON document that pins down one protocol run
//! completely — platform, protocol, period, amount of work, and the
//! exact failure times — so a paper scenario reads as data:
//!
//! ```json
//! {
//!   "name": "nbl_buddy_inside_risk_window",
//!   "description": "buddy fails 10s into the victim's window: fatal",
//!   "protocol": "DoubleNbl",
//!   "platform": {"downtime": 0.0, "delta": 2.0, "theta_min": 4.0,
//!                "alpha": 10.0, "nodes": 8},
//!   "phi_ratio": 0.25,
//!   "mtbf": 3600.0,
//!   "period": {"Explicit": 100.0},
//!   "work": {"Periods": 10.0},
//!   "faults": [{"at": 250.0, "node": 0}, {"at": 260.0, "node": 1}],
//!   "expect": {"reason": "Fatal", "failures": 2, "survives": false}
//! }
//! ```
//!
//! Failures address a victim either directly (`"node": 3`) or
//! positionally (`"group": 1, "member": 0`) — positional addressing
//! keeps a scenario valid when the platform is resized, since "the
//! second pair" never renumbers. Compilation resolves both forms to a
//! time-ordered [`FailureTrace`] and executes it through the exact
//! `sim::run` code path Monte-Carlo replications use; nothing in the
//! simulator is mocked.
//!
//! Scripts use only serde features the vendored stack supports: every
//! enum is externally tagged with the Rust variant name, optional
//! fields are `Option`, and absent keys deserialize as `None`.

use dck_core::{PlatformParams, Protocol, RiskModel};
use dck_experiments::conformance::{Region, RegionCell};
use dck_failures::{FailureEvent, FailureTrace};
use dck_protocols::GroupLayout;
use dck_sim::{
    run_to_completion_traced, PeriodChoice, RunConfig, RunOutcome, StopReason, TimelineEvent,
};
use dck_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// How much useful work the scripted run must complete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkSpec {
    /// Whole checkpoint periods of useful work (resolved against the
    /// script's period, so `{"Periods": 10.0}` stays meaningful when
    /// the period changes).
    Periods(f64),
    /// Useful work in seconds at unit speed.
    Seconds(f64),
}

/// One injected failure. Exactly one addressing form must be used:
/// `node`, or `group` + `member`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Wall-clock failure time (seconds).
    pub at: f64,
    /// Direct victim node id in `0..usable_nodes`.
    pub node: Option<u64>,
    /// Positional addressing: buddy-group index.
    pub group: Option<u64>,
    /// Positional addressing: member index within the group
    /// (`0..group_size`).
    pub member: Option<u64>,
}

impl Fault {
    /// A fault addressing a node directly.
    pub fn on_node(at: f64, node: u64) -> Fault {
        Fault {
            at,
            node: Some(node),
            group: None,
            member: None,
        }
    }

    /// A fault addressing `member` of `group`.
    pub fn on_member(at: f64, group: u64, member: u64) -> Fault {
        Fault {
            at,
            node: None,
            group: Some(group),
            member: Some(member),
        }
    }
}

/// Optional assertions checked after the run; absent fields are not
/// checked.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Expectation {
    /// Expected stop reason.
    pub reason: Option<StopReason>,
    /// Expected number of processed failures.
    pub failures: Option<u64>,
    /// Expected survival (no fatal failure).
    pub survives: Option<bool>,
}

impl Expectation {
    /// Checks the outcome, returning every mismatch in one message.
    ///
    /// # Errors
    /// A semicolon-joined list of `field: expected X, got Y` clauses.
    pub fn check(&self, out: &RunOutcome) -> Result<(), String> {
        let mut mismatches = Vec::new();
        if let Some(reason) = self.reason {
            if out.reason != reason {
                mismatches.push(format!("reason: expected {reason:?}, got {:?}", out.reason));
            }
        }
        if let Some(failures) = self.failures {
            if out.failures != failures {
                mismatches.push(format!(
                    "failures: expected {failures}, got {}",
                    out.failures
                ));
            }
        }
        if let Some(survives) = self.survives {
            if out.survived() != survives {
                mismatches.push(format!(
                    "survives: expected {survives}, got {} (fatal_at {:?})",
                    out.survived(),
                    out.fatal_at
                ));
            }
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        }
    }
}

/// A deterministic fault-injection scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScript {
    /// Scenario identifier (also the golden-corpus file stem).
    pub name: String,
    /// Human-readable intent — what paper behaviour this pins down.
    pub description: String,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Platform parameters (Table I shape).
    pub platform: PlatformParams,
    /// Overhead ratio `φ/R ∈ [0, 1]`; `φ = ratio · θmin`.
    pub phi_ratio: f64,
    /// Platform MTBF (seconds) — only consulted when `period` is
    /// `Optimal`; the injected failures ignore it.
    pub mtbf: f64,
    /// Period selection (`"Optimal"` or `{"Explicit": seconds}`).
    pub period: PeriodChoice,
    /// Work the run must complete.
    pub work: WorkSpec,
    /// The injected failures, in any order (compilation sorts).
    pub faults: Vec<Fault>,
    /// Post-run assertions.
    pub expect: Expectation,
}

/// A script resolved against the simulator: ready to execute.
#[derive(Debug, Clone)]
pub struct CompiledScript {
    /// The run configuration (explicit resolved period).
    pub config: RunConfig,
    /// The injected failures as a validated, time-ordered trace over
    /// the usable nodes.
    pub trace: FailureTrace,
    /// Useful work the run must complete (seconds at unit speed).
    pub work: f64,
    /// The resolved checkpoint period (seconds).
    pub period: f64,
    /// The protocol's risk-window length at this operating point.
    pub risk_window: f64,
}

/// What a scripted run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// The measured outcome.
    pub outcome: RunOutcome,
    /// The full event timeline (failures, outage ends, completion).
    pub timeline: Vec<TimelineEvent>,
}

impl FaultScript {
    /// Parses a script from JSON.
    ///
    /// # Errors
    /// A serde message; semantic validation happens in
    /// [`compile`](Self::compile).
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid FaultScript: {e}"))
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    /// A serde message (practically unreachable for this plain struct).
    pub fn to_json(&self) -> Result<String, String> {
        let mut s =
            serde_json::to_string_pretty(self).map_err(|e| format!("script serialization: {e}"))?;
        s.push('\n');
        Ok(s)
    }

    /// Resolves the script against the model and simulator: validates
    /// the platform and operating point, resolves the period and the
    /// per-fault victim nodes, and assembles the failure trace.
    ///
    /// # Errors
    /// A message naming the offending field or fault index.
    pub fn compile(&self) -> Result<CompiledScript, String> {
        self.platform
            .validate()
            .map_err(|e| format!("script `{}`: platform: {e}", self.name))?;
        if !(0.0..=1.0).contains(&self.phi_ratio) {
            return Err(format!(
                "script `{}`: phi_ratio must lie in [0, 1], got {}",
                self.name, self.phi_ratio
            ));
        }
        let phi = self.phi_ratio * self.platform.theta_min;
        let mut config = RunConfig::new(self.protocol, self.platform, phi, self.mtbf);
        config.period = self.period;
        let period = config
            .resolve_period()
            .map_err(|e| format!("script `{}`: period: {e}", self.name))?;
        config.period = PeriodChoice::Explicit(period);
        let (sched, _, _) = config
            .build()
            .map_err(|e| format!("script `{}`: {e}", self.name))?;
        let risk_window = RiskModel::new(self.protocol, &self.platform, phi)
            .map_err(|e| format!("script `{}`: risk model: {e}", self.name))?
            .risk_window();

        let layout = GroupLayout::new(self.protocol, config.usable_nodes())
            .map_err(|e| format!("script `{}`: {e}", self.name))?;
        let mut events = Vec::with_capacity(self.faults.len());
        for (i, fault) in self.faults.iter().enumerate() {
            let node = resolve_victim(fault, &layout)
                .map_err(|e| format!("script `{}`: fault #{i}: {e}", self.name))?;
            if !(fault.at.is_finite() && fault.at >= 0.0) {
                return Err(format!(
                    "script `{}`: fault #{i}: time must be finite and >= 0, got {}",
                    self.name, fault.at
                ));
            }
            events.push(FailureEvent {
                at: SimTime::seconds(fault.at),
                node,
            });
        }
        events.sort_by_key(|e| e.at);

        let work = match self.work {
            WorkSpec::Periods(k) => {
                if !(k.is_finite() && k > 0.0) {
                    return Err(format!(
                        "script `{}`: work periods must be finite and > 0, got {k}",
                        self.name
                    ));
                }
                sched.work_at(k * period)
            }
            WorkSpec::Seconds(s) => {
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!(
                        "script `{}`: work seconds must be finite and > 0, got {s}",
                        self.name
                    ));
                }
                s
            }
        };

        Ok(CompiledScript {
            trace: FailureTrace::new(config.usable_nodes(), events),
            config,
            work,
            period,
            risk_window,
        })
    }

    /// Compiles and executes the script. The expectation is *not*
    /// checked here — harnesses decide how to report mismatches (see
    /// [`Expectation::check`]).
    ///
    /// # Errors
    /// Compilation or simulation errors as a message.
    pub fn run(&self) -> Result<ScriptOutcome, String> {
        self.compile()?.execute()
    }
}

impl CompiledScript {
    /// Executes the compiled script through the traced simulator.
    ///
    /// # Errors
    /// Simulation configuration errors as a message.
    pub fn execute(&self) -> Result<ScriptOutcome, String> {
        let (outcome, timeline) =
            run_to_completion_traced(&self.config, self.work, &mut self.trace.replay())
                .map_err(|e| e.to_string())?;
        Ok(ScriptOutcome { outcome, timeline })
    }
}

fn resolve_victim(fault: &Fault, layout: &GroupLayout) -> Result<u64, String> {
    match (fault.node, fault.group, fault.member) {
        (Some(node), None, None) => {
            if node >= layout.nodes() {
                return Err(format!(
                    "node {node} out of range (usable nodes: {})",
                    layout.nodes()
                ));
            }
            Ok(node)
        }
        (None, Some(group), Some(member)) => {
            if group >= layout.groups() {
                return Err(format!(
                    "group {group} out of range ({} groups)",
                    layout.groups()
                ));
            }
            if member >= layout.group_size() {
                return Err(format!(
                    "member {member} out of range (group size {})",
                    layout.group_size()
                ));
            }
            Ok(group * layout.group_size() + member)
        }
        _ => Err("exactly one of `node` or `group`+`member` must be given".into()),
    }
}

/// A failure-free [`FaultScript`] at the operating point of a
/// conformance region cell: a failing cell becomes a deterministic
/// repro script mechanically.
pub fn cell_repro_script(cell: &RegionCell, region: &Region) -> FaultScript {
    let mut platform = region.base;
    platform.alpha = cell.alpha;
    FaultScript {
        name: format!(
            "repro_{}_m{}_a{}_p{}",
            cell.protocol.id(),
            cell.mtbf as i64,
            cell.alpha as i64,
            (cell.phi_ratio * 100.0) as i64
        ),
        description: format!(
            "failure-free repro of conformance cell {}: {}",
            region.name,
            cell.coordinates()
        ),
        protocol: cell.protocol,
        platform,
        phi_ratio: cell.phi_ratio,
        mtbf: cell.mtbf,
        period: PeriodChoice::Explicit(cell.period),
        work: WorkSpec::Periods(10.0),
        faults: vec![],
        expect: Expectation {
            reason: Some(StopReason::WorkComplete),
            failures: Some(0),
            survives: Some(true),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_script() -> FaultScript {
        FaultScript {
            name: "unit".into(),
            description: "unit-test scenario".into(),
            protocol: Protocol::DoubleNbl,
            platform: PlatformParams::new(0.0, 2.0, 4.0, 10.0, 8).unwrap(),
            phi_ratio: 0.25,
            mtbf: 3_600.0,
            period: PeriodChoice::Explicit(100.0),
            work: WorkSpec::Periods(10.0),
            faults: vec![],
            expect: Expectation::default(),
        }
    }

    #[test]
    fn failure_free_script_completes_exactly() {
        // φ = 1 ⇒ θ = 34, P = 100, W = 97: ten periods in 1000 s.
        let out = base_script().run().unwrap();
        assert_eq!(out.outcome.reason, StopReason::WorkComplete);
        assert!((out.outcome.total_time - 1000.0).abs() < 1e-9);
        assert!((out.outcome.useful_work - 970.0).abs() < 1e-9);
    }

    #[test]
    fn node_and_group_addressing_agree() {
        let mut by_node = base_script();
        by_node.faults = vec![Fault::on_node(250.0, 2), Fault::on_node(260.0, 3)];
        let mut by_member = base_script();
        by_member.faults = vec![Fault::on_member(250.0, 1, 0), Fault::on_member(260.0, 1, 1)];
        let a = by_node.run().unwrap();
        let b = by_member.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.outcome.reason, StopReason::Fatal);
    }

    #[test]
    fn compile_sorts_faults_and_reports_risk_window() {
        let mut s = base_script();
        s.faults = vec![Fault::on_node(500.0, 4), Fault::on_node(250.0, 0)];
        let c = s.compile().unwrap();
        assert_eq!(c.trace.events()[0].node, 0);
        assert_eq!(c.trace.events()[1].node, 4);
        // NBL window at φ = 1: D + R + θ = 38.
        assert!((c.risk_window - 38.0).abs() < 1e-12);
        assert!((c.period - 100.0).abs() < 1e-12);
        assert!((c.work - 970.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_period_resolves_to_explicit() {
        let mut s = base_script();
        s.period = PeriodChoice::Optimal;
        let c = s.compile().unwrap();
        assert!(matches!(c.config.period, PeriodChoice::Explicit(_)));
        assert!(c.period > 0.0);
    }

    #[test]
    fn compile_rejects_bad_addressing() {
        let cases: Vec<(Fault, &str)> = vec![
            (Fault::on_node(1.0, 99), "out of range"),
            (Fault::on_member(1.0, 99, 0), "group 99 out of range"),
            (Fault::on_member(1.0, 0, 7), "member 7 out of range"),
            (
                Fault {
                    at: 1.0,
                    node: Some(0),
                    group: Some(0),
                    member: Some(0),
                },
                "exactly one",
            ),
            (
                Fault {
                    at: 1.0,
                    node: None,
                    group: Some(0),
                    member: None,
                },
                "exactly one",
            ),
            (Fault::on_node(f64::NAN, 0), "finite"),
            (Fault::on_node(-5.0, 0), "finite"),
        ];
        for (fault, needle) in cases {
            let mut s = base_script();
            s.faults = vec![fault];
            let err = s.compile().unwrap_err();
            assert!(err.contains(needle), "{fault:?}: {err}");
            assert!(err.contains("fault #0"), "{err}");
        }
    }

    #[test]
    fn compile_rejects_bad_operating_point() {
        let mut s = base_script();
        s.phi_ratio = 1.5;
        assert!(s.compile().unwrap_err().contains("phi_ratio"));
        let mut s = base_script();
        s.period = PeriodChoice::Explicit(5.0); // < δ + θ
        assert!(s.compile().is_err());
        let mut s = base_script();
        s.work = WorkSpec::Periods(0.0);
        assert!(s.compile().unwrap_err().contains("periods"));
        let mut s = base_script();
        s.work = WorkSpec::Seconds(f64::INFINITY);
        assert!(s.compile().unwrap_err().contains("seconds"));
    }

    #[test]
    fn expectation_reports_every_mismatch() {
        let mut s = base_script();
        s.faults = vec![Fault::on_node(250.0, 0), Fault::on_node(260.0, 1)];
        s.expect = Expectation {
            reason: Some(StopReason::WorkComplete),
            failures: Some(0),
            survives: Some(true),
        };
        let out = s.run().unwrap();
        let err = s.expect.check(&out.outcome).unwrap_err();
        assert!(err.contains("reason"), "{err}");
        assert!(err.contains("failures"), "{err}");
        assert!(err.contains("survives"), "{err}");
        // And a matching expectation passes.
        let ok = Expectation {
            reason: Some(StopReason::Fatal),
            failures: Some(2),
            survives: Some(false),
        };
        ok.check(&out.outcome).unwrap();
    }

    #[test]
    fn repro_script_compiles_to_the_cell_operating_point() {
        use dck_experiments::conformance::{run_conformance, ConformanceSpec};
        let mut spec = ConformanceSpec::coarse();
        spec.regions.truncate(1);
        let region = &mut spec.regions[0];
        region.protocols = vec![Protocol::DoubleNbl];
        region.mtbfs = vec![3_600.0];
        region.alphas = vec![10.0];
        region.phi_ratios = vec![0.25];
        region.replications = 8;
        (spec.prediction, spec.adaptation) = (None, None);
        let report = run_conformance(&spec).unwrap();
        let cell = &report.regions[0].cells[0];
        let script = cell_repro_script(cell, &spec.regions[0]);
        let compiled = script.compile().unwrap();
        assert!((compiled.period - cell.period).abs() < 1e-12);
        let out = compiled.execute().unwrap();
        script.expect.check(&out.outcome).unwrap();
    }

    #[test]
    fn json_roundtrip_preserves_script() {
        let mut s = base_script();
        s.faults = vec![Fault::on_node(250.0, 0), Fault::on_member(300.0, 2, 1)];
        s.expect.reason = Some(StopReason::WorkComplete);
        let back = FaultScript::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn json_with_absent_optional_fields_parses() {
        // Hand-written form: `node` only, no `group`/`member`, sparse
        // expectation.
        let json = r#"{
            "name": "hand",
            "description": "hand-written scenario",
            "protocol": "DoubleNbl",
            "platform": {"downtime": 0.0, "delta": 2.0, "theta_min": 4.0,
                         "alpha": 10.0, "nodes": 8},
            "phi_ratio": 0.25,
            "mtbf": 3600.0,
            "period": {"Explicit": 100.0},
            "work": {"Periods": 10.0},
            "faults": [{"at": 250.0, "node": 3}],
            "expect": {"reason": "WorkComplete"}
        }"#;
        let s = FaultScript::from_json(json).unwrap();
        assert_eq!(s.faults[0].node, Some(3));
        assert_eq!(s.faults[0].group, None);
        assert_eq!(s.expect.reason, Some(StopReason::WorkComplete));
        assert_eq!(s.expect.failures, None);
        let out = s.run().unwrap();
        s.expect.check(&out.outcome).unwrap();
    }
}
