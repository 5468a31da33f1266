//! Model↔simulator conformance: one judge over named regions.
//!
//! The paper's closed forms (first-order waste, Eqs. 5/7/8/14; success
//! probability, Eqs. 11/16) and the mechanistic Monte-Carlo simulator
//! are independent implementations of the same physics. A
//! [`ConformanceSpec`] is a list of named [`Region`]s, each a
//! protocol × α × φ/R × MTBF plane set on one base platform with its
//! own failure source, replication budget and [`Tolerance`], plus the
//! fault-prediction and adaptive-controller sections. Every cell is
//! judged by the same rule, [`Tolerance::admits`], and reported as
//! *pass*, *fail* or *degenerate* (too few replications completed for
//! the estimate to mean anything). A region either gates (its failures
//! fail the report) or is only recorded: recorded regions measure
//! where the model is known to drift, such as harsh MTBFs or
//! non-Exponential failures, and say by how much.
//!
//! Waste regions run through `run_sweep`; every waste cell also
//! carries the refined restart-aware waste (`dck_core::refined_waste`),
//! both models' distances in CI half-widths, and which model is
//! closer. Success regions run through `estimate_success`, judged on
//! the Wilson interval. V1, E5 and E1 of `dck experiments` are regions
//! of this report and only render it.
//!
//! The [`ConformanceReport`] serializes to the `conformance.json`
//! artifact. `dck validate --conformance` re-runs the judge on every
//! stored cell and re-derives the tallies and maxima, so an edited
//! verdict does not validate.

use dck_core::{
    optimal_period, predicted_optimal_period, proactive_cost, refined_waste, ControllerConfig,
    ModelError, PlatformParams, PredictorSpec, Protocol, RiskModel, Scenario,
};
use dck_failures::DistributionSpec;
use dck_sim::montecarlo::SourceKind;
use dck_sim::{
    estimate_predicted_waste, estimate_success, run_regret, run_sweep, MonteCarloConfig,
    PeriodChoice, RegretCase, RegretScenario, RegretSpec, RunConfig, SweepSpec,
};
use dck_simcore::stats::{wilson_interval, Tolerance};
use dck_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Schema tag of the `conformance.json` artifact. v4 replaced the one
/// waste grid with named regions, each with its own [`Tolerance`];
/// v3 added the adaptive-controller regret section; v2 the k-buddy
/// protocols and the fault-prediction section. Other tags are rejected
/// rather than silently reinterpreted.
pub const SCHEMA: &str = "dck-conformance/v4";

/// Verdict for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The tolerance admits the model.
    Pass,
    /// The estimate is sound but the tolerance does not admit the model.
    Fail,
    /// Too few completed replications to judge (< 80%).
    Degenerate,
}

/// What a region measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Measure {
    /// Waste at the model-optimal period against Eqs. 5/7/8/14.
    Waste,
    /// Probability of no fatal failure over the horizon against
    /// Eqs. 11/16.
    Success,
}

/// Which model lies closer to a waste cell's estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Closer {
    /// The paper's first-order model (ties go to it).
    FirstOrder,
    /// The refined restart-aware model.
    Refined,
}

/// One named region: a plane set on one base platform, its failure
/// source, budget and tolerance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Name, unique within a spec (`benign`, `v1-waste`, …).
    pub name: String,
    /// What the region measures.
    pub measure: Measure,
    /// Protocols under test.
    pub protocols: Vec<Protocol>,
    /// Slowdown factors `α` substituted into the base platform.
    pub alphas: Vec<f64>,
    /// Overhead ratios `φ/R ∈ [0, 1]`.
    pub phi_ratios: Vec<f64>,
    /// Platform MTBFs (seconds).
    pub mtbfs: Vec<f64>,
    /// Base platform; each plane replaces its `alpha`.
    pub base: PlatformParams,
    /// Failure process.
    pub source: SourceKind,
    /// Monte-Carlo replications per cell.
    pub replications: usize,
    /// Useful work per replication (waste) or the exploitation horizon
    /// (success), in multiples of the cell MTBF.
    pub work_in_mtbfs: f64,
    /// The judge's tolerance.
    pub tolerance: Tolerance,
    /// Whether a failing cell fails the report (else only recorded).
    pub gate: bool,
}

impl Region {
    /// Total cells.
    pub fn cell_count(&self) -> usize {
        self.protocols.len() * self.alphas.len() * self.mtbfs.len() * self.phi_ratios.len()
    }

    /// Cell coordinates `(protocol, α, MTBF, φ/R)` in report order:
    /// protocol-major, then α, MTBF and φ/R.
    fn coordinates(&self) -> impl Iterator<Item = (Protocol, f64, f64, f64)> + '_ {
        self.protocols.iter().flat_map(move |&p| {
            self.alphas.iter().flat_map(move |&a| {
                self.mtbfs
                    .iter()
                    .flat_map(move |&m| self.phi_ratios.iter().map(move |&r| (p, a, m, r)))
            })
        })
    }
}

/// Grid of fault-prediction cells: `dck_core::predict`'s closed form
/// against `dck_sim::predict`'s mechanistic estimate at the
/// model-optimal predicted period, at `φ = 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionGrid {
    /// Protocols under test.
    pub protocols: Vec<Protocol>,
    /// Platform MTBFs (seconds).
    pub mtbfs: Vec<f64>,
    /// Predictor precisions `p`.
    pub precisions: Vec<f64>,
    /// Predictor recalls `r`.
    pub recalls: Vec<f64>,
    /// Prediction lead window `w` (seconds), fixed across the grid.
    pub window: f64,
    /// Platform.
    pub base: PlatformParams,
    /// Monte-Carlo replications per cell.
    pub replications: usize,
    /// Useful work per replication, in multiples of the cell MTBF.
    pub work_in_mtbfs: f64,
    /// The judge's tolerance.
    pub tolerance: Tolerance,
}

impl PredictionGrid {
    /// Total prediction cells.
    pub fn cell_count(&self) -> usize {
        self.protocols.len() * self.mtbfs.len() * self.precisions.len() * self.recalls.len()
    }
}

/// Grid of adaptive-controller regret cells: for each stationary
/// misspecification factor (and optionally one drifting-MTBF ramp) the
/// regret harness ([`dck_sim::run_regret`]) races the online controller
/// against the misspecified and clairvoyant static tunings on paired
/// failure streams. A stationary cell passes when the adaptive arm's
/// waste lands within `tolerance` of the oracle's; a drift cell passes
/// when it strictly beats the static arm. These cells always gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptationGrid {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Platform; the controller runs at `φ = θmin`.
    pub base: PlatformParams,
    /// True platform MTBF (seconds).
    pub mtbf: f64,
    /// Stationary misspecification factors (believed = factor × true).
    pub factors: Vec<f64>,
    /// Drift cell: MTBF ramps to `end_factor × true` over the work
    /// horizon (`None` skips it).
    pub drift_end_factor: Option<f64>,
    /// Replications per arm.
    pub replications: usize,
    /// Useful work per replication in multiples of the true MTBF.
    pub work_in_mtbfs: f64,
    /// Stationary acceptance: regret ratio vs the oracle at most this.
    pub tolerance: f64,
}

impl AdaptationGrid {
    /// Total adaptation cells.
    pub fn cell_count(&self) -> usize {
        self.factors.len() + usize::from(self.drift_end_factor.is_some())
    }
}

/// The regions and sections of a conformance run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformanceSpec {
    /// Named regions, run in order.
    pub regions: Vec<Region>,
    /// Master seed. Region `i` adds `i` steps of an odd constant
    /// (region 0 uses it unchanged), and each `(protocol, α)` plane of
    /// a region mixes its indices in.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// Fault-prediction cells (`None` skips the section).
    #[serde(default)]
    pub prediction: Option<PredictionGrid>,
    /// Adaptive-controller regret cells (`None` skips the section).
    #[serde(default)]
    pub adaptation: Option<AdaptationGrid>,
}

/// The coarse grid's platform: the Table I Base shape at 60 nodes,
/// lcm(2, 3, 4, 5), so every group size divides evenly.
const SMALL_BASE: PlatformParams = PlatformParams {
    downtime: 0.0,
    delta: 2.0,
    theta_min: 4.0,
    alpha: 10.0,
    nodes: 60,
};

/// The benign grid's tolerance: `3·hw + 0.01`, the CI95 half-width
/// tripled plus an allowance for the first-order model's bias (it is
/// asymptotic in `P/M`, so a few waste-points off at harsh cells).
const BENIGN: Tolerance = Tolerance::new(3.0, 0.01);
/// V1 waste: `4·hw`.
const V1_WASTE: Tolerance = Tolerance::new(4.0, 0.0);
/// V1 success probability: the Wilson interval `± hw + 0.05`.
const V1_RISK: Tolerance = Tolerance::new(1.0, 0.05);

/// A region with one α (the base's), φ/R = 0, an Exponential source
/// and no MTBFs yet; callers fill in the rest.
fn region(name: &str, measure: Measure, base: PlatformParams, tolerance: Tolerance) -> Region {
    Region {
        name: name.to_string(),
        measure,
        protocols: Protocol::EVALUATED.to_vec(),
        alphas: vec![base.alpha],
        phi_ratios: vec![0.0],
        mtbfs: Vec::new(),
        base,
        source: SourceKind::Exponential,
        replications: 0,
        work_in_mtbfs: 0.0,
        tolerance,
        gate: true,
    }
}

/// The Base platform at 96 nodes (divisible by 2 and 3): waste is
/// node-count independent in the model, and a small platform keeps
/// runs cheap.
fn base96() -> PlatformParams {
    let mut params = Scenario::base().params;
    params.nodes = 96;
    params
}

/// E1's failure laws, all calibrated to the same mean. Each
/// non-Exponential law appears fresh-start (all nodes brand-new at
/// t = 0: infant mortality front-loads failures) and warmed (ten MTBFs
/// of burn-in: the stationary regime).
fn e1_sources() -> Vec<(&'static str, SourceKind)> {
    let unit = SimTime::seconds(1.0); // re-targeted to the node MTBF
    let weibull = |shape| DistributionSpec::Weibull { mean: unit, shape };
    let lognormal = DistributionSpec::LogNormal {
        mean: unit,
        sigma: 1.0,
    };
    vec![
        ("exponential", SourceKind::Exponential),
        ("weibull_k0.7", SourceKind::Renewal(weibull(0.7))),
        ("weibull_k0.7_warm", SourceKind::RenewalWarmed(weibull(0.7))),
        ("weibull_k0.5", SourceKind::Renewal(weibull(0.5))),
        ("weibull_k0.5_warm", SourceKind::RenewalWarmed(weibull(0.5))),
        ("lognormal_s1", SourceKind::Renewal(lognormal)),
        ("lognormal_s1_warm", SourceKind::RenewalWarmed(lognormal)),
    ]
}

/// Name of E1's region measuring `measure` under failure law `law`;
/// [`ConformanceSpec::e1`] and [`ConformanceReport::e1_regions`] both
/// go through it.
fn e1_region_name(measure: Measure, law: &str) -> String {
    let what = match measure {
        Measure::Waste => "waste",
        Measure::Success => "risk",
    };
    format!("e1-{what}-{law}")
}

impl ConformanceSpec {
    /// `regions` alone, at the default seed of `dck experiments`.
    fn of(regions: Vec<Region>) -> Self {
        ConformanceSpec {
            regions,
            seed: 0x0D0C_5EED,
            workers: 0,
            prediction: None,
            adaptation: None,
        }
    }

    /// The CI spec. The gating region `benign` is the v3 grid: the
    /// three evaluated protocols plus the `k = 4` and `k = 5` buddy
    /// instances over 3 MTBF × 2 α × 3 φ/R on the Base shape at 60
    /// nodes, judged at `3·hw + 0.01`, wide enough to cross every period-formula branch
    /// for every group size. V1's gating regions and E5's and E1's
    /// recorded regions follow at their `--fast` budgets, then a small
    /// fault-prediction grid and the adaptive-controller section.
    pub fn coarse() -> Self {
        let mut protocols = Protocol::EVALUATED.to_vec();
        protocols.push(Protocol::BuddyNbl { k: 4 });
        protocols.push(Protocol::BuddyNbl { k: 5 });
        let benign = Region {
            protocols,
            alphas: vec![0.0, 10.0],
            phi_ratios: vec![0.0, 0.5, 1.0],
            mtbfs: vec![1_800.0, 3_600.0, 7.0 * 3_600.0],
            replications: 24,
            work_in_mtbfs: 10.0,
            ..region("benign", Measure::Waste, SMALL_BASE, BENIGN)
        };
        let mut regions = vec![benign];
        for spec in [Self::v1(true), Self::e5(true), Self::e1(true)] {
            regions.extend(spec.regions);
        }
        ConformanceSpec {
            prediction: Some(PredictionGrid {
                protocols: vec![Protocol::DoubleNbl, Protocol::Triple],
                mtbfs: vec![3_600.0],
                precisions: vec![0.5, 0.9],
                recalls: vec![0.0, 0.7],
                window: 30.0,
                base: SMALL_BASE,
                replications: 24,
                work_in_mtbfs: 10.0,
                tolerance: BENIGN,
            }),
            adaptation: Some(AdaptationGrid {
                protocol: Protocol::DoubleNbl,
                base: SMALL_BASE,
                mtbf: 3_600.0,
                factors: vec![0.25, 4.0],
                drift_end_factor: Some(0.25),
                replications: 12,
                work_in_mtbfs: 60.0,
                tolerance: 0.10,
            }),
            seed: 0xC0F0,
            ..Self::of(regions)
        }
    }

    /// V1: waste at the optimal period (`v1-waste`, `4·hw`) and
    /// success probability at the paper's harsh corner, full Base, θ at
    /// its maximum (`v1-risk-1d` and `v1-risk-3d`, Wilson interval
    /// `± hw + 0.05`). All gate.
    pub fn v1(fast: bool) -> Self {
        let (waste_reps, work, risk_reps) = if fast {
            (40, 15.0, 120)
        } else {
            (200, 30.0, 400)
        };
        let base = Scenario::base().params;
        let risk = |name, mtbf: f64, days: f64| Region {
            mtbfs: vec![mtbf],
            replications: risk_reps,
            work_in_mtbfs: days * 86_400.0 / mtbf,
            ..region(name, Measure::Success, base, V1_RISK)
        };
        let waste = Region {
            phi_ratios: vec![0.0, 0.5, 1.0],
            mtbfs: vec![3_600.0, 7.0 * 3_600.0],
            replications: waste_reps,
            work_in_mtbfs: work,
            ..region("v1-waste", Measure::Waste, base96(), V1_WASTE)
        };
        Self::of(vec![
            waste,
            risk("v1-risk-1d", 60.0, 1.0),
            risk("v1-risk-3d", 120.0, 3.0),
        ])
    }

    /// E5: the first-order and refined models against the simulator at
    /// the blocking point `φ = R` down to minute-level MTBFs
    /// (`e5-refined`, recorded, `3·hw`).
    pub fn e5(fast: bool) -> Self {
        let refined_tolerance = Tolerance::new(3.0, 0.0);
        let e5 = Region {
            protocols: vec![Protocol::DoubleNbl, Protocol::Triple],
            phi_ratios: vec![1.0],
            mtbfs: vec![60.0, 120.0, 300.0, 1_800.0, 25_200.0],
            replications: if fast { 60 } else { 200 },
            work_in_mtbfs: 40.0,
            gate: false,
            ..region("e5-refined", Measure::Waste, base96(), refined_tolerance)
        };
        Self::of(vec![e5])
    }

    /// E1: the Exponential-based models under Weibull and LogNormal
    /// sources of the same MTBF, one waste region (96 nodes, M = 30
    /// min, `φ = 1 s`, judged like `benign`) and one success region
    /// (full Base, M = 60 s, one day, judged like V1) per law. All
    /// recorded.
    pub fn e1(fast: bool) -> Self {
        let (waste_reps, risk_reps) = if fast { (40, 100) } else { (150, 300) };
        let full_base = Scenario::base().params;
        let mut regions = Vec::new();
        for (label, source) in e1_sources() {
            regions.push(Region {
                protocols: vec![Protocol::DoubleNbl, Protocol::Triple],
                phi_ratios: vec![0.25],
                mtbfs: vec![1_800.0],
                source,
                replications: waste_reps,
                work_in_mtbfs: 25.0,
                gate: false,
                ..region(
                    &e1_region_name(Measure::Waste, label),
                    Measure::Waste,
                    base96(),
                    BENIGN,
                )
            });
            regions.push(Region {
                protocols: vec![Protocol::DoubleNbl, Protocol::Triple],
                mtbfs: vec![60.0],
                source,
                replications: risk_reps,
                work_in_mtbfs: 1_440.0,
                gate: false,
                ..region(
                    &e1_region_name(Measure::Success, label),
                    Measure::Success,
                    full_base,
                    V1_RISK,
                )
            });
        }
        Self::of(regions)
    }

    /// Stress regions, recorded and never asserted: where the
    /// first-order models are expected to drift, measured.
    ///
    /// * `stress-small-m`: M down to where `P*/M` approaches 1;
    /// * `stress-phi1-large-alpha`: `φ/R = 1` at α = 100;
    /// * `stress-k45`: the `k = 4` and `k = 5` buddy groups at
    ///   minute-level MTBFs;
    /// * E1's fresh-start Weibull regions, shapes 0.5 and 0.7;
    /// * prediction cells at the shortest useful lead time, `w = C_p`.
    pub fn stress() -> Self {
        let small_m = Region {
            protocols: vec![Protocol::DoubleNbl, Protocol::Triple],
            phi_ratios: vec![0.0, 1.0],
            mtbfs: vec![20.0, 40.0, 80.0],
            replications: 48,
            work_in_mtbfs: 40.0,
            gate: false,
            ..region("stress-small-m", Measure::Waste, SMALL_BASE, BENIGN)
        };
        let phi1 = Region {
            alphas: vec![100.0],
            phi_ratios: vec![1.0],
            mtbfs: vec![1_800.0, 3_600.0, 7.0 * 3_600.0],
            replications: 48,
            work_in_mtbfs: 10.0,
            gate: false,
            ..region(
                "stress-phi1-large-alpha",
                Measure::Waste,
                SMALL_BASE,
                BENIGN,
            )
        };
        let k45 = Region {
            protocols: vec![Protocol::BuddyNbl { k: 4 }, Protocol::BuddyNbl { k: 5 }],
            phi_ratios: vec![0.0, 1.0],
            mtbfs: vec![120.0, 300.0, 900.0],
            replications: 48,
            work_in_mtbfs: 20.0,
            gate: false,
            ..region("stress-k45", Measure::Waste, SMALL_BASE, BENIGN)
        };
        let mut regions = vec![small_m, phi1, k45];
        let fresh_weibull = ["weibull_k0.7", "weibull_k0.5"];
        regions.extend(Self::e1(true).regions.into_iter().filter(|r| {
            fresh_weibull
                .iter()
                .any(|law| r.name == e1_region_name(r.measure, law))
        }));
        ConformanceSpec {
            prediction: Some(PredictionGrid {
                protocols: vec![Protocol::DoubleNbl, Protocol::Triple],
                mtbfs: vec![600.0, 3_600.0],
                precisions: vec![0.5, 0.9],
                recalls: vec![0.7, 0.9],
                window: proactive_cost(&SMALL_BASE),
                base: SMALL_BASE,
                replications: 48,
                work_in_mtbfs: 10.0,
                tolerance: BENIGN,
            }),
            ..Self::of(regions)
        }
    }

    /// Total region cells.
    pub fn cell_count(&self) -> usize {
        self.regions.iter().map(Region::cell_count).sum()
    }

    /// Whether the prediction section gates: exactly when some region
    /// does, so a spec of recorded regions only records its prediction
    /// cells too.
    pub fn prediction_gates(&self) -> bool {
        self.regions.iter().any(|r| r.gate)
    }
}

/// One evaluated region cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionCell {
    /// Protocol.
    pub protocol: Protocol,
    /// Platform MTBF (seconds).
    pub mtbf: f64,
    /// Slowdown factor α.
    pub alpha: f64,
    /// Overhead ratio φ/R.
    pub phi_ratio: f64,
    /// Model-optimal period used by both sides.
    pub period: f64,
    /// First-order model: waste (Eqs. 5/7/8/14) or success probability
    /// (Eqs. 11/16).
    pub model: f64,
    /// Estimate the judge centres on: the mean simulated waste (`None`
    /// when no replication completed), or the centre of the Wilson
    /// interval of the success proportion (`None` when none ran).
    pub sim: Option<f64>,
    /// Half-width of that interval (CI95, or Wilson 95%).
    pub half_width: Option<f64>,
    /// The bound the judge admitted `|model − sim|` within (`None` when
    /// degenerate).
    pub tolerance: Option<f64>,
    /// Refined restart-aware waste (waste cells).
    pub refined: Option<f64>,
    /// `|model − sim|` in half-widths (sound cells).
    pub ci_units: Option<f64>,
    /// `|refined − sim|` in half-widths (sound waste cells).
    pub refined_ci_units: Option<f64>,
    /// The model closer to the estimate (sound waste cells).
    pub closer: Option<Closer>,
    /// Replications that completed their work (waste) or survived the
    /// horizon (success).
    pub completed: usize,
    /// Replications executed.
    pub replications_run: usize,
    /// Verdict.
    pub status: CellStatus,
}

/// Distance in half-widths; a zero-width interval counts as 10⁻¹².
fn ci_units(model: f64, sim: f64, half_width: f64) -> f64 {
    (model - sim).abs() / half_width.max(1e-12)
}

/// The one judge: a sound estimate passes when `tolerance` admits the
/// model. Returns the verdict and the admitted bound.
fn judge(
    tolerance: Tolerance,
    model: f64,
    sim: Option<f64>,
    half_width: Option<f64>,
    sound: bool,
) -> (CellStatus, Option<f64>) {
    match (sim, half_width) {
        (Some(s), Some(hw)) if sound => {
            let status = if tolerance.admits(model, s, hw) {
                CellStatus::Pass
            } else {
                CellStatus::Fail
            };
            (status, Some(tolerance.bound(hw)))
        }
        _ => (CellStatus::Degenerate, None),
    }
}

impl RegionCell {
    /// `(protocol, MTBF, α, φ/R)` rendered for failure messages.
    pub fn coordinates(&self) -> String {
        format!(
            "{} @ (MTBF={}s, alpha={}, phi/R={})",
            self.protocol, self.mtbf, self.alpha, self.phi_ratio
        )
    }

    /// A success cell's proportion `completed / replications_run` and
    /// its Wilson 95% interval.
    pub fn proportion(&self) -> (f64, (f64, f64)) {
        let p_hat = self.completed as f64 / self.replications_run.max(1) as f64;
        (
            p_hat,
            wilson_interval(self.completed, self.replications_run, 1.96),
        )
    }

    /// Sets the verdict and the distances from the measured fields. An
    /// estimate built from fewer than 80% completed replications is
    /// survivorship-biased (the harsh runs died fatally), so a waste
    /// cell below that is degenerate. A success cell needs one trial,
    /// and its estimate is a function of its tallies: the centre and
    /// half-width of their Wilson 95% interval.
    fn judged(mut self, region: &Region) -> Self {
        let sound = match region.measure {
            Measure::Waste => self.completed * 5 >= self.replications_run * 4,
            Measure::Success => {
                let trials = self.replications_run > 0;
                let (lo, hi) = wilson_interval(self.completed, self.replications_run, 1.96);
                self.sim = trials.then_some((lo + hi) / 2.0);
                self.half_width = trials.then_some((hi - lo) / 2.0);
                trials
            }
        };
        (self.status, self.tolerance) = judge(
            region.tolerance,
            self.model,
            self.sim,
            self.half_width,
            sound,
        );
        // Distances only for sound estimates: those the judge bounded.
        let measured = self
            .sim
            .zip(self.half_width)
            .filter(|_| self.tolerance.is_some());
        self.ci_units = measured.map(|(s, hw)| ci_units(self.model, s, hw));
        self.refined_ci_units = measured
            .zip(self.refined)
            .map(|((s, hw), r)| ci_units(r, s, hw));
        self.closer = self
            .ci_units
            .zip(self.refined_ci_units)
            .map(|(first, refined)| {
                if refined < first {
                    Closer::Refined
                } else {
                    Closer::FirstOrder
                }
            });
        self
    }
}

/// One evaluated fault-prediction cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionCell {
    /// Protocol.
    pub protocol: Protocol,
    /// Platform MTBF (seconds).
    pub mtbf: f64,
    /// Predictor precision.
    pub precision: f64,
    /// Predictor recall.
    pub recall: f64,
    /// Lead window (seconds).
    pub window: f64,
    /// Model-optimal predicted period used by both sides.
    pub period: f64,
    /// Closed-form predicted waste at that period.
    pub model_waste: f64,
    /// Monte-Carlo mean waste (`None` when no replication completed).
    pub sim_waste: Option<f64>,
    /// CI95 half-width of the estimate.
    pub half_width: Option<f64>,
    /// The bound the judge admitted (`None` when degenerate).
    pub tolerance: Option<f64>,
    /// Replications that completed their work.
    pub completed: usize,
    /// Replications executed.
    pub replications_run: usize,
    /// Verdict.
    pub status: CellStatus,
}

impl PredictionCell {
    /// Coordinates rendered for failure messages.
    pub fn coordinates(&self) -> String {
        format!(
            "{} predicted @ (MTBF={}s, p={}, r={}, w={}s)",
            self.protocol, self.mtbf, self.precision, self.recall, self.window
        )
    }

    fn judged(mut self, grid: &PredictionGrid) -> Self {
        let sound = self.completed * 5 >= self.replications_run * 4;
        (self.status, self.tolerance) = judge(
            grid.tolerance,
            self.model_waste,
            self.sim_waste,
            self.half_width,
            sound,
        );
        self
    }
}

/// One evaluated adaptive-controller regret cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptationCell {
    /// Protocol.
    pub protocol: Protocol,
    /// True platform MTBF (seconds).
    pub mtbf: f64,
    /// Misspecification factor (stationary) or drift end factor.
    pub factor: f64,
    /// Whether this is the drifting-MTBF cell.
    pub drift: bool,
    /// Mean waste of the adaptive arm (`None` when nothing completed).
    pub adaptive_waste: Option<f64>,
    /// Mean waste of the misspecified static arm.
    pub static_waste: Option<f64>,
    /// Mean waste of the oracle static arm.
    pub oracle_waste: Option<f64>,
    /// `(adaptive − oracle) / oracle`.
    pub regret_ratio: Option<f64>,
    /// Whether the adaptive arm strictly beat the static arm.
    pub beats_static: Option<bool>,
    /// Mean retunes applied per adaptive replication.
    pub retunes_mean: f64,
    /// The tolerance the cell was judged against (stationary cells).
    pub tolerance: Option<f64>,
    /// Adaptive-arm replications that completed their work.
    pub completed: usize,
    /// Replications executed per arm.
    pub replications_run: usize,
    /// Verdict.
    pub status: CellStatus,
}

impl AdaptationCell {
    /// Coordinates rendered for failure messages.
    pub fn coordinates(&self) -> String {
        format!(
            "{} adaptive @ (MTBF={}s, {} x{})",
            self.protocol,
            self.mtbf,
            if self.drift { "drift to" } else { "believed" },
            self.factor
        )
    }

    /// Sets the verdict: degenerate unless 80% of the adaptive arm and
    /// some of each static arm completed; then a drift cell must beat
    /// the static arm and a stationary one keep its regret within the
    /// grid's tolerance.
    fn judged(mut self, grid: &AdaptationGrid) -> Self {
        let sound = self.completed * 5 >= self.replications_run * 4
            && self.static_waste.is_some()
            && self.oracle_waste.is_some();
        let pass = if self.drift {
            self.beats_static == Some(true)
        } else {
            self.regret_ratio.is_some_and(|r| r <= grid.tolerance)
        };
        self.tolerance = (!self.drift).then_some(grid.tolerance);
        self.status = match (sound, pass) {
            (false, _) => CellStatus::Degenerate,
            (true, true) => CellStatus::Pass,
            (true, false) => CellStatus::Fail,
        };
        self
    }
}

/// One region's cells and what they measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionReport {
    /// The region's name.
    pub name: String,
    /// Every cell, in [`Region`] coordinate order.
    pub cells: Vec<RegionCell>,
    /// Cells that passed.
    pub passed: usize,
    /// Cells that failed.
    pub failed: usize,
    /// Degenerate cells.
    pub degenerate: usize,
    /// Largest `|model − sim|` over sound cells.
    pub max_abs_deviation: f64,
    /// Largest `|model − sim|` in half-widths over sound cells.
    pub max_ci_units: f64,
    /// Sound cells where the refined model is closer.
    pub refined_closer: usize,
}

impl RegionReport {
    /// Tallies, the largest gap and (for waste) how often the refined
    /// model is closer, on one line.
    pub fn summary(&self) -> String {
        let closer = if self.cells.iter().any(|c| c.refined.is_some()) {
            format!(
                "; refined model closer in {} of {} cells",
                self.refined_closer,
                self.cells.len()
            )
        } else {
            String::new()
        };
        format!(
            "{} passed, {} failed, {} degenerate; largest |model - sim| {:.4} = {:.2} hw{closer}",
            self.passed, self.failed, self.degenerate, self.max_abs_deviation, self.max_ci_units,
        )
    }

    fn tally(name: &str, cells: Vec<RegionCell>) -> Self {
        let count = |s| cells.iter().filter(|c| c.status == s).count();
        let sound = || cells.iter().filter(|c| c.status != CellStatus::Degenerate);
        RegionReport {
            name: name.to_string(),
            passed: count(CellStatus::Pass),
            failed: count(CellStatus::Fail),
            degenerate: count(CellStatus::Degenerate),
            max_abs_deviation: sound()
                .filter_map(|c| c.sim.map(|s| (c.model - s).abs()))
                .fold(0.0, f64::max),
            max_ci_units: sound().filter_map(|c| c.ci_units).fold(0.0, f64::max),
            refined_closer: sound()
                .filter(|c| c.closer == Some(Closer::Refined))
                .count(),
            cells,
        }
    }
}

/// The `conformance.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Schema tag; must equal [`SCHEMA`].
    #[serde(default)]
    pub schema: String,
    /// The spec that produced the report.
    pub spec: ConformanceSpec,
    /// One report per spec region, in spec order.
    pub regions: Vec<RegionReport>,
    /// Fault-prediction cells (empty when the spec carries none).
    #[serde(default)]
    pub prediction_cells: Vec<PredictionCell>,
    /// Adaptive-controller regret cells (empty when the spec carries
    /// none).
    #[serde(default)]
    pub adaptation_cells: Vec<AdaptationCell>,
    /// Gating cells (gating regions and sections) that passed.
    pub passed: usize,
    /// Gating cells that failed.
    pub failed: usize,
    /// Degenerate gating cells.
    pub degenerate: usize,
    /// Largest `|model − sim|` over sound gating region and prediction
    /// cells.
    pub max_abs_deviation: f64,
}

impl ConformanceReport {
    /// Tallies judged cells into a report.
    fn assemble(
        spec: &ConformanceSpec,
        regions: Vec<Vec<RegionCell>>,
        prediction_cells: Vec<PredictionCell>,
        adaptation_cells: Vec<AdaptationCell>,
    ) -> Self {
        let regions: Vec<RegionReport> = spec
            .regions
            .iter()
            .zip(regions)
            .map(|(r, cells)| RegionReport::tally(&r.name, cells))
            .collect();
        let gating = || {
            spec.regions
                .iter()
                .zip(&regions)
                .filter(|(r, _)| r.gate)
                .flat_map(|(_, report)| &report.cells)
        };
        let gating_pred = || prediction_cells.iter().filter(|_| spec.prediction_gates());
        let count = |s: CellStatus| {
            gating().filter(|c| c.status == s).count()
                + gating_pred().filter(|c| c.status == s).count()
                + adaptation_cells.iter().filter(|c| c.status == s).count()
        };
        let max_abs_deviation = gating()
            .filter(|c| c.status != CellStatus::Degenerate)
            .filter_map(|c| c.sim.map(|s| (c.model - s).abs()))
            .chain(
                gating_pred()
                    .filter(|c| c.status != CellStatus::Degenerate)
                    .filter_map(|c| c.sim_waste.map(|s| (c.model_waste - s).abs())),
            )
            .fold(0.0, f64::max);
        ConformanceReport {
            schema: SCHEMA.to_string(),
            passed: count(CellStatus::Pass),
            failed: count(CellStatus::Fail),
            degenerate: count(CellStatus::Degenerate),
            max_abs_deviation,
            spec: spec.clone(),
            regions,
            prediction_cells,
            adaptation_cells,
        }
    }

    /// True when no gating cell disagreed with its model.
    pub fn all_pass(&self) -> bool {
        self.failed == 0
    }

    /// The regions whose name starts with `prefix`, each with its spec.
    pub fn regions_named<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a Region, &'a RegionReport)> + 'a {
        self.spec
            .regions
            .iter()
            .zip(&self.regions)
            .filter(move |(r, _)| r.name.starts_with(prefix))
    }

    /// E1's regions measuring `measure`, one per failure law the report
    /// holds, in [`ConformanceSpec::e1`] order, each with its law's
    /// label.
    pub fn e1_regions(
        &self,
        measure: Measure,
    ) -> impl Iterator<Item = (&'static str, &RegionReport)> + '_ {
        e1_sources().into_iter().filter_map(move |(law, _)| {
            let name = e1_region_name(measure, law);
            Some((law, self.regions.iter().find(|r| r.name == name)?))
        })
    }

    /// One line per region whose name starts with `prefix`: its
    /// tolerance, whether it gates, and its [`RegionReport::summary`].
    pub fn summary(&self, prefix: &str) -> String {
        self.regions_named(prefix)
            .map(|(r, report)| {
                let Tolerance {
                    ci_slack: k,
                    bias_allowance: b,
                } = r.tolerance;
                let role = if r.gate { "gating" } else { "recorded" };
                format!("{} ({role}, {k}·hw + {b}): {}\n", r.name, report.summary())
            })
            .collect()
    }

    /// One message per failing gating cell, naming its region and
    /// coordinates.
    pub fn failures(&self) -> Vec<String> {
        let render = |coords: String,
                      model: f64,
                      sim: Option<f64>,
                      tol: Option<f64>,
                      hw: Option<f64>,
                      done: usize,
                      run: usize| {
            let sim = sim.unwrap_or(f64::NAN);
            format!(
                "{coords}: |model {model:.5} - sim {sim:.5}| = {:.5} > tolerance {:.5} \
                 (hw {:.5}, {done} / {run} completed)",
                (model - sim).abs(),
                tol.unwrap_or(f64::NAN),
                hw.unwrap_or(f64::NAN),
            )
        };
        let failing_regions = self
            .spec
            .regions
            .iter()
            .zip(&self.regions)
            .filter(|(r, _)| r.gate)
            .flat_map(|(r, report)| report.cells.iter().map(move |c| (r, c)))
            .filter(|(_, c)| c.status == CellStatus::Fail)
            .map(|(r, c)| {
                let coords = format!("{}: {}", r.name, c.coordinates());
                render(
                    coords,
                    c.model,
                    c.sim,
                    c.tolerance,
                    c.half_width,
                    c.completed,
                    c.replications_run,
                )
            });
        let pred_gates = self.spec.prediction_gates();
        let failing_pred = self
            .prediction_cells
            .iter()
            .filter(|c| pred_gates && c.status == CellStatus::Fail)
            .map(|c| {
                render(
                    c.coordinates(),
                    c.model_waste,
                    c.sim_waste,
                    c.tolerance,
                    c.half_width,
                    c.completed,
                    c.replications_run,
                )
            });
        let failing_adapt = self
            .adaptation_cells
            .iter()
            .filter(|c| c.status == CellStatus::Fail)
            .map(|c| {
                // Regret cells fail on a different axis than
                // model-vs-sim deviation: name the gate.
                let gate = if c.drift {
                    format!(
                        "adaptive {:.5} did not beat static {:.5}",
                        c.adaptive_waste.unwrap_or(f64::NAN),
                        c.static_waste.unwrap_or(f64::NAN)
                    )
                } else {
                    format!(
                        "regret ratio {:.4} > tolerance {:.4} (adaptive {:.5}, oracle {:.5})",
                        c.regret_ratio.unwrap_or(f64::NAN),
                        c.tolerance.unwrap_or(f64::NAN),
                        c.adaptive_waste.unwrap_or(f64::NAN),
                        c.oracle_waste.unwrap_or(f64::NAN)
                    )
                };
                format!(
                    "{}: {gate} ({} / {} completed)",
                    c.coordinates(),
                    c.completed,
                    c.replications_run
                )
            });
        failing_regions
            .chain(failing_pred)
            .chain(failing_adapt)
            .collect()
    }

    /// Re-judges a (possibly externally supplied) report: the schema
    /// tag is current, every region and section has the cells its spec
    /// asks for at its coordinates, every stored verdict, bound and
    /// distance is what the judge gives for the stored model and
    /// estimate under the spec's tolerance, and every tally and maximum
    /// is what the cells give.
    ///
    /// # Errors
    /// The first inconsistency found.
    pub fn check_consistent(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!(
                "schema {:?} but this tool reads {SCHEMA:?} — regenerate the artifact",
                self.schema
            ));
        }
        if self.regions.len() != self.spec.regions.len() {
            return Err(format!(
                "{} regions recorded but the spec has {}",
                self.regions.len(),
                self.spec.regions.len()
            ));
        }
        for (region, report) in self.spec.regions.iter().zip(&self.regions) {
            let name = &region.name;
            let coords = report
                .cells
                .iter()
                .map(|c| (c.protocol, c.alpha, c.mtbf, c.phi_ratio));
            if report.name != *name || coords.ne(region.coordinates()) {
                return Err(format!(
                    "region {:?}: its {} cells are not the planes of spec region {name:?}",
                    report.name,
                    report.cells.len()
                ));
            }
            for cell in &report.cells {
                rejudged(cell, cell.judged(region), || {
                    format!("region {name}: {}", cell.coordinates())
                })?;
            }
        }
        let prediction = self.spec.prediction.as_ref();
        let adaptation = self.spec.adaptation.as_ref();
        let expected = prediction.map_or(0, PredictionGrid::cell_count);
        if self.prediction_cells.len() != expected {
            return Err(format!(
                "{} prediction cells recorded but the spec's grid has {expected}",
                self.prediction_cells.len()
            ));
        }
        let expected = adaptation.map_or(0, AdaptationGrid::cell_count);
        if self.adaptation_cells.len() != expected {
            return Err(format!(
                "{} adaptation cells recorded but the spec's grid has {expected}",
                self.adaptation_cells.len()
            ));
        }
        if let Some(grid) = prediction {
            for c in &self.prediction_cells {
                rejudged(c, c.judged(grid), || c.coordinates())?;
            }
        }
        if let Some(grid) = adaptation {
            for c in &self.adaptation_cells {
                rejudged(c, c.judged(grid), || c.coordinates())?;
            }
        }
        let rebuilt = Self::assemble(
            &self.spec,
            self.regions.iter().map(|r| r.cells.clone()).collect(),
            self.prediction_cells.clone(),
            self.adaptation_cells.clone(),
        );
        for (got, want) in self.regions.iter().zip(&rebuilt.regions) {
            if got != want {
                return Err(format!(
                    "region {}: stored {} but its cells give {}",
                    got.name,
                    got.summary(),
                    want.summary()
                ));
            }
        }
        let tallies = |r: &Self| {
            format!(
                "gating tallies passed {}, failed {}, degenerate {}, max_abs_deviation {}",
                r.passed, r.failed, r.degenerate, r.max_abs_deviation
            )
        };
        if *self != rebuilt {
            return Err(format!(
                "stored {} but the cells give {}",
                tallies(self),
                tallies(&rebuilt)
            ));
        }
        Ok(())
    }

    /// Serializes to pretty JSON (the artifact format).
    ///
    /// # Errors
    /// A serde message (practically unreachable for this plain struct).
    pub fn to_json(&self) -> Result<String, String> {
        let mut s =
            serde_json::to_string_pretty(self).map_err(|e| format!("report serialization: {e}"))?;
        s.push('\n');
        Ok(s)
    }

    /// Parses and re-judges a report.
    ///
    /// # Errors
    /// Parse or consistency error as a message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let report: ConformanceReport =
            serde_json::from_str(json).map_err(|e| format!("invalid ConformanceReport: {e}"))?;
        report.check_consistent()?;
        Ok(report)
    }
}

/// A stored cell must equal its re-judged self.
fn rejudged<T: PartialEq + std::fmt::Debug>(
    stored: &T,
    judged: T,
    at: impl FnOnce() -> String,
) -> Result<(), String> {
    if *stored != judged {
        return Err(format!(
            "{}: stored {stored:?} but the judge gives {judged:?}",
            at()
        ));
    }
    Ok(())
}

/// Runs every region and section of `spec`.
///
/// # Errors
/// Invalid parameters or infeasible operating points from the model
/// layer.
pub fn run_conformance(spec: &ConformanceSpec) -> Result<ConformanceReport, ModelError> {
    let regions = spec
        .regions
        .iter()
        .enumerate()
        .map(|(i, region)| {
            let seed = spec
                .seed
                .wrapping_add((i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            run_region(region, seed, spec.workers)
        })
        .collect::<Result<_, _>>()?;
    let prediction_cells = run_prediction_cells(spec)?;
    let adaptation_cells = run_adaptation_cells(spec)?;
    Ok(ConformanceReport::assemble(
        spec,
        regions,
        prediction_cells,
        adaptation_cells,
    ))
}

/// Runs one region. Each `(protocol, α)` plane mixes its indices into
/// the region seed, and cell `(MTBF i, φ j)` of a plane adds
/// `(i << 32) + j`, as `run_sweep` does for waste.
fn run_region(region: &Region, seed: u64, workers: usize) -> Result<Vec<RegionCell>, ModelError> {
    let mut cells = Vec::with_capacity(region.cell_count());
    for (proto_i, &protocol) in region.protocols.iter().enumerate() {
        for (alpha_i, &alpha) in region.alphas.iter().enumerate() {
            let mut params = region.base;
            params.alpha = alpha;
            let plane_seed = seed
                .wrapping_add((proto_i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((alpha_i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
            let cell = |phi_ratio, mtbf, period, model, sim, half_width, completed, run| {
                RegionCell {
                    protocol,
                    mtbf,
                    alpha,
                    phi_ratio,
                    period,
                    model,
                    sim,
                    half_width,
                    tolerance: None,
                    refined: match region.measure {
                        // A point the refined model rejects records none:
                        // the first-order verdict does not depend on it.
                        Measure::Waste => {
                            let phi = phi_ratio * params.theta_min;
                            refined_waste(protocol, &params, phi, period, mtbf)
                                .ok()
                                .map(|r| r.total)
                        }
                        Measure::Success => None,
                    },
                    ci_units: None,
                    refined_ci_units: None,
                    closer: None,
                    completed,
                    replications_run: run,
                    status: CellStatus::Degenerate,
                }
                .judged(region)
            };
            match region.measure {
                Measure::Waste => {
                    let sweep = SweepSpec {
                        replications: region.replications,
                        work_in_mtbfs: region.work_in_mtbfs,
                        seed: plane_seed,
                        workers,
                        source: region.source,
                        ..SweepSpec::new(
                            protocol,
                            params,
                            region.phi_ratios.clone(),
                            region.mtbfs.clone(),
                        )
                    };
                    for c in run_sweep(&sweep)?.cells {
                        cells.push(cell(
                            c.phi_ratio,
                            c.mtbf,
                            c.period,
                            c.model_waste,
                            c.sim_waste,
                            c.half_width,
                            c.completed,
                            c.replications_run,
                        ));
                    }
                }
                Measure::Success => {
                    for (mi, &mtbf) in region.mtbfs.iter().enumerate() {
                        for (pi, &phi_ratio) in region.phi_ratios.iter().enumerate() {
                            let phi = phi_ratio * params.theta_min;
                            let horizon = region.work_in_mtbfs * mtbf;
                            let period = optimal_period(protocol, &params, phi, mtbf)?.period;
                            let model = RiskModel::new(protocol, &params, phi)?
                                .success_probability(mtbf, horizon)?
                                .probability;
                            let mut run_cfg = RunConfig::new(protocol, params, phi, mtbf);
                            run_cfg.period = PeriodChoice::Explicit(period);
                            let mc = MonteCarloConfig {
                                replications: region.replications,
                                seed: plane_seed
                                    .wrapping_add((mi as u64) << 32)
                                    .wrapping_add(pi as u64),
                                workers,
                                source: region.source,
                            };
                            let est = estimate_success(&run_cfg, horizon, &mc)?;
                            // The judge derives the estimate from the tallies.
                            cells.push(cell(
                                phi_ratio,
                                mtbf,
                                period,
                                model,
                                None,
                                None,
                                est.survived,
                                est.runs,
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(cells)
}

/// Runs the adaptive-controller regret section: one harness call with
/// the grid's stationary factors plus the optional drift ramp.
fn run_adaptation_cells(spec: &ConformanceSpec) -> Result<Vec<AdaptationCell>, ModelError> {
    let Some(grid) = &spec.adaptation else {
        return Ok(Vec::new());
    };
    let mut cases: Vec<RegretCase> = grid
        .factors
        .iter()
        .map(|&factor| RegretCase {
            name: format!("misspecified-x{factor}"),
            scenario: RegretScenario::Misspecified { factor },
        })
        .collect();
    if let Some(end_factor) = grid.drift_end_factor {
        cases.push(RegretCase {
            name: format!("drift-x{end_factor}"),
            scenario: RegretScenario::Drift { end_factor },
        });
    }
    let regret_spec = RegretSpec {
        protocol: grid.protocol,
        params: grid.base,
        phi: grid.base.theta_min,
        true_mtbf: grid.mtbf,
        work_in_mtbfs: grid.work_in_mtbfs,
        replications: grid.replications,
        seed: spec.seed.wrapping_add(0xADA7_0CE1),
        controller: ControllerConfig::default(),
        cases,
    };
    Ok(run_regret(&regret_spec)?
        .iter()
        .map(|r| {
            let factor = match r.scenario {
                RegretScenario::Misspecified { factor }
                | RegretScenario::Predicted { factor, .. } => factor,
                RegretScenario::Drift { end_factor } => end_factor,
            };
            let measured = r.adaptive.completed > 0;
            AdaptationCell {
                protocol: grid.protocol,
                mtbf: grid.mtbf,
                factor,
                drift: matches!(r.scenario, RegretScenario::Drift { .. }),
                adaptive_waste: measured.then_some(r.adaptive.mean_waste),
                static_waste: (r.static_arm.completed > 0).then_some(r.static_arm.mean_waste),
                oracle_waste: (r.oracle.completed > 0).then_some(r.oracle.mean_waste),
                regret_ratio: measured.then_some(r.regret_ratio),
                beats_static: measured.then_some(r.beats_static),
                retunes_mean: r.retunes_mean,
                tolerance: None,
                completed: r.adaptive.completed,
                replications_run: grid.replications,
                status: CellStatus::Degenerate,
            }
            .judged(grid)
        })
        .collect())
}

/// Runs the fault-prediction section: for each `(protocol, MTBF, p, r)`
/// both sides share the model-optimal predicted period. Runs at `φ = 0`
/// (the prediction model's fault-free term is the unpredicted one,
/// already covered by the waste regions).
fn run_prediction_cells(spec: &ConformanceSpec) -> Result<Vec<PredictionCell>, ModelError> {
    let Some(grid) = &spec.prediction else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(grid.cell_count());
    for (proto_i, &protocol) in grid.protocols.iter().enumerate() {
        for (mtbf_i, &mtbf) in grid.mtbfs.iter().enumerate() {
            for (p_i, &precision) in grid.precisions.iter().enumerate() {
                for (r_i, &recall) in grid.recalls.iter().enumerate() {
                    let predictor = PredictorSpec::new(precision, recall, grid.window);
                    let opt =
                        predicted_optimal_period(protocol, &grid.base, 0.0, &predictor, mtbf)?;
                    let mut cfg = RunConfig::new(protocol, grid.base, 0.0, mtbf);
                    cfg.period = PeriodChoice::Explicit(opt.period);
                    let mut mc = MonteCarloConfig::new(grid.replications, 0);
                    mc.workers = spec.workers;
                    // Decorrelate cells from each other and from the
                    // regions (which mix from spec.seed directly).
                    mc.seed = spec
                        .seed
                        .wrapping_add(0x51D1_C7ED)
                        .wrapping_add((proto_i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add((mtbf_i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
                        .wrapping_add((p_i as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                        .wrapping_add((r_i as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB));
                    let t_base = grid.work_in_mtbfs * mtbf;
                    let est = estimate_predicted_waste(&cfg, &predictor, t_base, &mc)?;
                    out.push(
                        PredictionCell {
                            protocol,
                            mtbf,
                            precision,
                            recall,
                            window: grid.window,
                            period: opt.period,
                            model_waste: opt.total,
                            sim_waste: est.ci95.map(|ci| ci.mean),
                            half_width: est.ci95.map(|ci| ci.half_width),
                            tolerance: None,
                            completed: est.completed,
                            replications_run: grid.replications,
                            status: CellStatus::Degenerate,
                        }
                        .judged(grid),
                    );
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One gating waste region of two cells, no sections.
    fn tiny_spec() -> ConformanceSpec {
        let mut spec = ConformanceSpec::coarse();
        spec.regions.truncate(1);
        let region = &mut spec.regions[0];
        region.protocols = vec![Protocol::DoubleNbl];
        region.mtbfs = vec![3_600.0];
        region.alphas = vec![10.0];
        region.phi_ratios = vec![0.25, 0.75];
        region.replications = 16;
        region.work_in_mtbfs = 8.0;
        (spec.prediction, spec.adaptation) = (None, None);
        spec
    }

    #[test]
    fn tiny_grid_passes_and_is_consistent() {
        let report = run_conformance(&tiny_spec()).unwrap();
        let cells = &report.regions[0].cells;
        assert_eq!(cells.len(), 2);
        report.check_consistent().unwrap();
        assert!(report.all_pass(), "{:?}", report.failures());
        assert!(report.max_abs_deviation < 0.1);
        for c in cells {
            assert_eq!(c.status, CellStatus::Pass);
            assert!(c.tolerance.unwrap() > 0.0);
            assert!(c.refined.unwrap() > 0.0 && c.closer.is_some());
            assert!(c.ci_units.unwrap() <= 3.0 + 0.01 / c.half_width.unwrap());
        }
        let region = &report.regions[0];
        assert_eq!(
            region.max_ci_units,
            cells
                .iter()
                .map(|c| c.ci_units.unwrap())
                .fold(0.0, f64::max)
        );
    }

    #[test]
    fn recorded_regions_do_not_gate() {
        let mut spec = tiny_spec();
        let mut strict = spec.regions[0].clone();
        strict.name = "strict".into();
        strict.tolerance = Tolerance::new(0.0, 0.0);
        strict.gate = false;
        spec.regions.push(strict);
        let report = run_conformance(&spec).unwrap();
        report.check_consistent().unwrap();
        assert!(report.regions[1].failed > 0);
        assert!(report.all_pass(), "{:?}", report.failures());
        assert_eq!(report.passed, 2, "only the gating region is tallied");
        // Region 1 draws its own streams.
        assert_ne!(
            report.regions[0].cells[0].sim,
            report.regions[1].cells[0].sim
        );
        // Gating it turns its failures into the report's.
        spec.regions[1].gate = true;
        let report = run_conformance(&spec).unwrap();
        assert!(!report.all_pass());
        assert!(
            report.failures()[0].starts_with("strict: "),
            "{:?}",
            report.failures()
        );
    }

    #[test]
    fn success_regions_judge_the_wilson_interval() {
        let mut spec = tiny_spec();
        let region = &mut spec.regions[0];
        region.measure = Measure::Success;
        region.base.nodes = 10_368;
        region.mtbfs = vec![60.0];
        region.phi_ratios = vec![0.0];
        region.replications = 60;
        region.work_in_mtbfs = 1_440.0;
        region.tolerance = Tolerance::new(1.0, 0.05);
        let report = run_conformance(&spec).unwrap();
        report.check_consistent().unwrap();
        let c = &report.regions[0].cells[0];
        let (lo, hi) = wilson_interval(c.completed, c.replications_run, 1.96);
        assert_eq!(
            (c.sim, c.half_width),
            (Some((lo + hi) / 2.0), Some((hi - lo) / 2.0))
        );
        assert!(c.refined.is_none() && c.closer.is_none());
        assert!(
            c.model < 0.999,
            "this regime is risky for pairs: {}",
            c.model
        );
        assert_eq!(c.status, CellStatus::Pass, "{c:?}");
    }

    #[test]
    fn prediction_cells_run_and_count_toward_the_tallies() {
        let mut spec = tiny_spec();
        spec.regions[0].phi_ratios = vec![0.25];
        spec.prediction = Some(PredictionGrid {
            protocols: vec![Protocol::DoubleNbl],
            precisions: vec![0.9],
            recalls: vec![0.0, 0.7],
            replications: 16,
            work_in_mtbfs: 8.0,
            ..ConformanceSpec::coarse().prediction.unwrap()
        });
        let report = run_conformance(&spec).unwrap();
        assert_eq!(report.prediction_cells.len(), 2);
        report.check_consistent().unwrap();
        assert_eq!(report.passed + report.failed + report.degenerate, 1 + 2);
        assert!(report.all_pass(), "{:?}", report.failures());
        for c in &report.prediction_cells {
            assert!(c.period > 0.0);
            assert!(c.model_waste > 0.0 && c.model_waste < 1.0);
        }
        // The r = 0 cell degenerates to the unpredicted model; the
        // r = 0.7 cell must not share its estimate.
        assert_ne!(
            report.prediction_cells[0].sim_waste,
            report.prediction_cells[1].sim_waste
        );
    }

    #[test]
    fn adaptation_cells_run_and_count_toward_the_tallies() {
        let mut spec = tiny_spec();
        spec.regions[0].phi_ratios = vec![0.25];
        spec.adaptation = Some(AdaptationGrid {
            factors: vec![4.0],
            replications: 8,
            ..ConformanceSpec::coarse().adaptation.unwrap()
        });
        let report = run_conformance(&spec).unwrap();
        assert_eq!(report.adaptation_cells.len(), 2);
        report.check_consistent().unwrap();
        assert_eq!(report.passed + report.failed + report.degenerate, 1 + 2);
        assert!(report.all_pass(), "{:?}", report.failures());
        let stationary = &report.adaptation_cells[0];
        assert!(!stationary.drift);
        assert!(stationary.regret_ratio.unwrap() <= 0.10);
        assert!(stationary.retunes_mean >= 1.0);
        let drift = &report.adaptation_cells[1];
        assert!(drift.drift);
        assert_eq!(drift.beats_static, Some(true));
        assert!(drift.tolerance.is_none());
        // A tampered count must be caught.
        let mut short = report;
        short.adaptation_cells.pop();
        assert!(short
            .check_consistent()
            .unwrap_err()
            .contains("adaptation cells"));
    }

    #[test]
    fn impossible_adaptation_gate_fails_and_names_the_cell() {
        let mut spec = tiny_spec();
        spec.regions[0].phi_ratios = vec![0.25];
        spec.adaptation = Some(AdaptationGrid {
            factors: vec![4.0],
            drift_end_factor: None,
            replications: 8,
            // Even a perfect controller pays some learning-phase waste;
            // a negative-regret demand cannot be met.
            tolerance: -1.0,
            ..ConformanceSpec::coarse().adaptation.unwrap()
        });
        let report = run_conformance(&spec).unwrap();
        assert!(report.failed > 0);
        let failures = report.failures();
        assert!(
            failures.iter().any(|f| f.contains("regret ratio")),
            "{failures:?}"
        );
    }

    #[test]
    fn reports_without_the_current_schema_are_rejected() {
        let report = run_conformance(&tiny_spec()).unwrap();
        assert_eq!(report.schema, SCHEMA);
        let mut stale = report.clone();
        stale.schema = String::new(); // what an untagged artifact deserializes to
        let err = ConformanceReport::from_json(&stale.to_json().unwrap()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let mut wrong = report;
        wrong.schema = "dck-conformance/v3".to_string();
        assert!(wrong.check_consistent().is_err());
    }

    #[test]
    fn report_json_roundtrip() {
        let report = run_conformance(&tiny_spec()).unwrap();
        let back = ConformanceReport::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn check_consistent_rejudges_every_stored_number() {
        let mut spec = tiny_spec();
        let mut success = spec.regions[0].clone();
        success.name = "success".into();
        success.measure = Measure::Success;
        success.phi_ratios = vec![0.0];
        success.work_in_mtbfs = 2.0;
        success.tolerance = V1_RISK;
        spec.regions.push(success);
        let report = run_conformance(&spec).unwrap();
        type Edit = fn(&mut ConformanceReport);
        let tamper = |edit: Edit| {
            let mut r = report.clone();
            edit(&mut r);
            ConformanceReport::from_json(&r.to_json().unwrap()).unwrap_err()
        };
        let cases: [(Edit, &str); 11] = [
            (|r| r.passed = 99, "stored gating tallies passed 99"),
            (|r| r.regions[0].failed = 1, "stored 2 passed, 1 failed"),
            (|r| r.regions[0].refined_closer += 1, "but its cells give"),
            (|r| r.regions[0].max_ci_units += 1.0, "but its cells give"),
            (|r| r.max_abs_deviation = 0.0, "max_abs_deviation 0 but"),
            (
                |r| r.regions[0].cells[0].status = CellStatus::Fail,
                "the judge gives",
            ),
            (|r| r.regions[0].cells[0].sim = Some(0.9), "the judge gives"),
            (
                // A success estimate moved onto its model, its distance
                // edited to match: the tallies say otherwise.
                |r| {
                    let c = &mut r.regions[1].cells[0];
                    (c.sim, c.ci_units) = (Some(c.model), Some(0.0));
                },
                "the judge gives",
            ),
            (
                |r| r.regions[1].cells[0].half_width = Some(1.0),
                "the judge gives",
            ),
            (|r| r.regions[0].cells[1].mtbf = 7.0, "not the planes"),
            (
                |r| r.spec.regions[0].tolerance.ci_slack = 0.0,
                "the judge gives",
            ),
        ];
        for (edit, expected) in cases {
            let err = tamper(edit);
            assert!(err.contains(expected), "{expected}: {err}");
        }
        let mut short = report;
        short.regions[0].cells.pop();
        let err = short.check_consistent().unwrap_err();
        assert!(err.contains("its 1 cells are not the planes"), "{err}");
    }

    #[test]
    fn zero_tolerance_fails_and_names_the_cell() {
        let mut spec = tiny_spec();
        // The estimator has statistical error and the model first-order
        // bias; with both allowances zeroed the cells must fail — the
        // negative control proving the harness *can* fail.
        spec.regions[0].tolerance = Tolerance::new(0.0, 0.0);
        let report = run_conformance(&spec).unwrap();
        assert!(report.failed > 0);
        let failures = report.failures();
        assert_eq!(failures.len(), report.failed);
        assert!(
            failures[0].contains("benign: ")
                && failures[0].contains("MTBF=3600s")
                && failures[0].contains("alpha=10")
                && failures[0].contains("phi/R="),
            "{}",
            failures[0]
        );
    }

    #[test]
    fn degenerate_cells_are_not_failures() {
        let mut spec = tiny_spec();
        // MTBF close to the period: most replications die fatally.
        let region = &mut spec.regions[0];
        region.mtbfs = vec![90.0];
        region.phi_ratios = vec![1.0];
        region.replications = 8;
        region.work_in_mtbfs = 200.0;
        match run_conformance(&spec) {
            Ok(report) => {
                report.check_consistent().unwrap();
                for c in &report.regions[0].cells {
                    if c.status == CellStatus::Degenerate {
                        assert!(c.tolerance.is_none() && c.ci_units.is_none());
                    }
                }
            }
            // The operating point may be infeasible outright — equally
            // explicit.
            Err(ModelError::Infeasible { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn planes_use_decorrelated_seeds() {
        let mut spec = tiny_spec();
        spec.regions[0].protocols = vec![Protocol::DoubleNbl, Protocol::DoubleBof];
        let report = run_conformance(&spec).unwrap();
        // Same (mtbf, α, φ) coordinates across protocols must not share
        // identical estimates.
        let cells = &report.regions[0].cells;
        assert_ne!(cells[0].sim, cells[2].sim);
    }

    #[test]
    fn every_spec_is_feasible_and_named_uniquely() {
        for spec in [
            ConformanceSpec::coarse(),
            ConformanceSpec::stress(),
            ConformanceSpec::v1(false),
            ConformanceSpec::e5(false),
            ConformanceSpec::e1(false),
        ] {
            let mut names: Vec<_> = spec.regions.iter().map(|r| r.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), spec.regions.len());
            for r in &spec.regions {
                for (protocol, alpha, mtbf, ratio) in r.coordinates() {
                    let mut params = r.base;
                    params.alpha = alpha;
                    optimal_period(protocol, &params, ratio * params.theta_min, mtbf)
                        .unwrap_or_else(|e| panic!("{}: {e}", r.name));
                }
            }
        }
        assert!(ConformanceSpec::stress().regions.iter().all(|r| !r.gate));
    }
}
