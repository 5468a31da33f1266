//! Pure request handlers: typed params in, typed answer out.
//!
//! Every method the server dispatches (other than `ping`/`shutdown`,
//! which are protocol-level) lives here as a pure function from its
//! typed parameter struct ([`PointParams`] for `waste`, `pstar` and
//! `risk`, [`SweepCellParams`] for `sweep_cell`) to a typed answer
//! ([`WasteAnswer`], [`PstarAnswer`], [`RiskAnswer`],
//! [`SweepCellAnswer`]) that derives `Serialize`, so unit tests and the
//! worker pool exercise exactly the same code and the server writes
//! each answer straight into its response line. The server decodes the
//! parameter structs straight from the request's `params` text
//! ([`decode_params`]); no tree is built.
//!
//! Each parameter is a [`Param`]: absent, or what decoding it gave,
//! error included. A handler judges its params one by one in a fixed
//! order, so the first bad one is reported, whatever order the request
//! put them in; the messages are those of the tree-reading handlers
//! these replaced. [`waste`], [`pstar`], [`risk`] and
//! [`parse_sweep_cell`] take the params as a [`Value`] tree (decoded
//! with `from_value`, the same semantics) and [`sweep_cell_payload`]
//! returns a tree, for callers that hold trees.
//!
//! Point queries (`waste`, `risk`, `pstar`) are answered directly from
//! the `dck-core` model — no simulation, microsecond-scale.
//! `sweep_cell` parsing also lives here; the compute + cache path is in
//! [`crate::server`] because it needs the shared cache.
//!
//! ## Platform parameters
//!
//! All point queries resolve their platform the same way: start from a
//! named scenario (`"scenario": "base"` is the default, `"exa"` the
//! other Table-I column), then apply optional per-field overrides
//! `downtime_s`, `delta_s`, `theta_min_s`, `alpha`, `nodes`. The
//! assembled set is re-validated by [`PlatformParams::new`], so a
//! nonsensical override is a typed `bad_params` error, not a NaN in
//! the response.

use crate::protocol::{codes, WireError};
use dck_core::{
    base_success_probability, optimal_period, Evaluation, ModelError, OverlapModel, PeriodSource,
    PlatformParams, Protocol, RiskModel, Scenario,
};
use dck_sim::{run_sweep_cell, sweep_spec_fingerprint, SweepCell, SweepSpec};
use serde::{DeError, Deserialize, Reader, Serialize, Value};

/// One request parameter: absent (or `null`), or what decoding its
/// value as `T` gave. A value that is not a `T` is kept as its error,
/// for the handler to report when it reaches this parameter.
#[derive(Debug, Clone, Default)]
pub enum Param<T> {
    /// Not in the request, or `null`.
    #[default]
    Absent,
    /// The decoded value, or why it is not a `T`.
    Given(Result<T, DeError>),
}

impl<T: Deserialize> Deserialize for Param<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(match v {
            Value::Null => Param::Absent,
            v => Param::Given(T::from_value(v)),
        })
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            return Ok(Param::Absent);
        }
        match T::read_json(r) {
            Err(e) if e.is_syntax() => Err(e),
            read => Ok(Param::Given(read)),
        }
    }
}

impl<T> Param<T> {
    /// The value, `None` when absent; `bad_params` saying `param `key`
    /// must be <kind>` when it is not a `T`.
    fn optional(&self, key: &str, kind: &str) -> Result<Option<&T>, WireError> {
        match self {
            Param::Absent => Ok(None),
            Param::Given(Ok(x)) => Ok(Some(x)),
            Param::Given(Err(_)) => Err(WireError::bad_params(format!(
                "param `{key}` must be {kind}"
            ))),
        }
    }

    /// As [`Param::optional`], with absence an error too.
    fn required(&self, key: &str, kind: &str) -> Result<&T, WireError> {
        self.optional(key, kind)?.ok_or_else(|| missing(key))
    }
}

fn missing(key: &str) -> WireError {
    WireError::bad_params(format!("missing required param `{key}`"))
}

const NUMBER: &str = "a number";
const STRING: &str = "a string";
const INDEX: &str = "a non-negative integer";

/// The params of the point queries `waste`, `pstar` and `risk`: each
/// reads the fields it needs, in its own order.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct PointParams {
    /// Protocol id (required).
    pub protocol: Param<String>,
    /// Named scenario, `base` by default.
    pub scenario: Param<String>,
    /// Downtime override (s).
    pub downtime_s: Param<f64>,
    /// Checkpoint transfer time override `δ` (s).
    pub delta_s: Param<f64>,
    /// Minimal overlapped transfer time override `θmin` (s).
    pub theta_min_s: Param<f64>,
    /// Slowdown factor override `α`.
    pub alpha: Param<f64>,
    /// Node count override.
    pub nodes: Param<u64>,
    /// Overhead ratio `φ/R` (required but by `risk`).
    pub phi_ratio: Param<f64>,
    /// Platform MTBF (s, required).
    pub mtbf_s: Param<f64>,
    /// Exploitation time (s, required by `risk`).
    pub life_s: Param<f64>,
}

/// The params of `sweep_cell`.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct SweepCellParams {
    /// The sweep spec (required).
    pub spec: Param<SweepSpec>,
    /// MTBF (row) index (required).
    pub mtbf_idx: Param<usize>,
    /// φ (column) index (required).
    pub phi_idx: Param<usize>,
}

/// Decodes a method's params from the request's `params` text (`None`
/// when the request had none), whole and with no tree. Params that are
/// not an object decode as all absent, as a tree lookup finds no key
/// in them.
///
/// # Errors
/// `bad_request` if `params` is not JSON; `parse_envelope` hands over
/// only well-formed text, so a server never sees this.
pub fn decode_params<T: Deserialize + Default>(params: Option<&str>) -> Result<T, WireError> {
    let Some(text) = params else {
        return Ok(T::default());
    };
    Reader::new(text)
        .and_then(|mut r| {
            // A `Param` field keeps its own error, so the only type
            // error is params that are not an object.
            let params = match T::read_json(&mut r) {
                Err(e) if !e.is_syntax() => T::default(),
                read => read?,
            };
            r.end()?;
            Ok(params)
        })
        .map_err(|e| WireError::new(codes::BAD_REQUEST, format!("request is not JSON: {e}")))
}

/// [`decode_params`] for params held as a tree.
fn params_from_value<T: Deserialize + Default>(params: &Value) -> T {
    // Decoding an object into `Param` fields cannot fail: every field
    // keeps its own error.
    match params {
        Value::Object(_) => T::from_value(params).unwrap_or_default(),
        _ => T::default(),
    }
}

/// Maps a model error onto the wire: domain errors (bad inputs,
/// infeasible operating points) are the client's fault; execution
/// errors are ours.
pub fn model_err(e: &ModelError) -> WireError {
    match e {
        ModelError::InvalidParameter { .. } | ModelError::Infeasible { .. } => {
            WireError::new(codes::BAD_PARAMS, e.to_string())
        }
        ModelError::Execution { .. } => WireError::new(codes::INTERNAL, e.to_string()),
    }
}

fn protocol(p: &Param<String>) -> Result<Protocol, WireError> {
    let name = p.required("protocol", STRING)?;
    Protocol::parse(name).ok_or_else(|| {
        let known: Vec<String> = Protocol::registry().iter().map(|p| p.id()).collect();
        WireError::bad_params(format!(
            "unknown protocol `{name}` (known: {})",
            known.join(", ")
        ))
    })
}

/// Resolves the platform parameter set for a point query (see the
/// module docs for the scenario + overrides scheme).
///
/// # Errors
/// `bad_params` for the first ill-typed field, in the order scenario,
/// `downtime_s`, `delta_s`, `theta_min_s`, `alpha`, `nodes`, then for a
/// set [`PlatformParams::new`] rejects.
pub fn platform_params(p: &PointParams) -> Result<PlatformParams, WireError> {
    let scenario = match p.scenario.optional("scenario", STRING)? {
        None => Scenario::base(),
        Some(name) => Scenario::by_name(name).ok_or_else(|| {
            WireError::bad_params(format!("unknown scenario `{name}` (known: base, exa)"))
        })?,
    };
    let base = scenario.params;
    let or_base = |param: &Param<f64>, key: &str, base: f64| {
        Ok::<_, WireError>(param.optional(key, NUMBER)?.map_or(base, |x| *x))
    };
    let downtime = or_base(&p.downtime_s, "downtime_s", base.downtime)?;
    let delta = or_base(&p.delta_s, "delta_s", base.delta)?;
    let theta_min = or_base(&p.theta_min_s, "theta_min_s", base.theta_min)?;
    let alpha = or_base(&p.alpha, "alpha", base.alpha)?;
    let nodes = p
        .nodes
        .optional("nodes", "a positive integer")?
        .map_or(base.nodes, |n| *n);
    PlatformParams::new(downtime, delta, theta_min, alpha, nodes).map_err(|e| model_err(&e))
}

fn phi_from_ratio(p: &PlatformParams, ratio: f64) -> Result<f64, WireError> {
    if !(ratio.is_finite() && (0.0..=1.0).contains(&ratio)) {
        return Err(WireError::bad_params(format!(
            "param `phi_ratio` must lie in [0, 1], got {ratio}"
        )));
    }
    Ok(OverlapModel::new(p).phi_from_ratio(ratio))
}

fn source_name(s: PeriodSource) -> &'static str {
    match s {
        PeriodSource::ClosedForm => "closed_form",
        PeriodSource::ClampedToMin => "clamped_to_min",
        PeriodSource::Saturated => "saturated",
    }
}

/// The `waste` answer: the waste decomposition at the optimal period.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WasteAnswer {
    /// Canonical protocol id.
    pub protocol: String,
    /// Requested overhead ratio `φ/R`.
    pub phi_ratio: f64,
    /// Overhead `φ` (s).
    pub phi_s: f64,
    /// Overlapped transfer time `θ(φ)` (s).
    pub theta_s: f64,
    /// Platform MTBF (s).
    pub mtbf_s: f64,
    /// Optimal period (s).
    pub period_s: f64,
    /// Where the period came from (`closed_form`, `clamped_to_min`,
    /// `saturated`).
    pub period_source: &'static str,
    /// The waste terms of Eqs. 4–5.
    pub waste: WasteParts,
    /// `1 − waste`.
    pub efficiency: f64,
    /// Risk-window length (s).
    pub risk_window_s: f64,
}

/// The terms of [`WasteAnswer::waste`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WasteParts {
    /// Fault-free waste `Cff/P`.
    pub fault_free: f64,
    /// Failure-induced waste `F/M`.
    pub failure_induced: f64,
    /// Total waste (Eq. 5).
    pub total: f64,
    /// Expected loss per failure `F` (s).
    pub failure_loss_s: f64,
}

/// The `pstar` answer: the optimal period and its waste.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PstarAnswer {
    /// Canonical protocol id.
    pub protocol: String,
    /// Requested overhead ratio `φ/R`.
    pub phi_ratio: f64,
    /// Platform MTBF (s).
    pub mtbf_s: f64,
    /// Optimal period (s).
    pub period_s: f64,
    /// Where the period came from.
    pub period_source: &'static str,
    /// Total waste at that period.
    pub waste_total: f64,
}

/// The `risk` answer: success probability over an exploitation time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RiskAnswer {
    /// Canonical protocol id.
    pub protocol: String,
    /// Platform MTBF (s).
    pub mtbf_s: f64,
    /// Exploitation time (s).
    pub life_s: f64,
    /// Overlapped transfer time used (s).
    pub theta_s: f64,
    /// Risk-window length (s).
    pub risk_window_s: f64,
    /// Per-node failure rate (1/s).
    pub lambda_per_s: f64,
    /// Success probability with checkpointing (Eqs. 11/16).
    pub probability: f64,
    /// Success probability without checkpointing (Eq. 12).
    pub base_probability: f64,
    /// Expected fatal failures per buddy group over `life_s`.
    pub fatal_rate_per_group: f64,
}

/// `waste`: full model evaluation at the optimal period.
///
/// Params: `protocol`, `phi_ratio`, `mtbf_s`, plus the platform
/// scheme. Returns the waste decomposition (Eqs. 4–5), the period and
/// its provenance, efficiency, and the risk-window length.
pub fn waste_answer(params: &PointParams) -> Result<WasteAnswer, WireError> {
    let protocol = protocol(&params.protocol)?;
    let p = platform_params(params)?;
    let ratio = *params.phi_ratio.required("phi_ratio", NUMBER)?;
    let mtbf = *params.mtbf_s.required("mtbf_s", NUMBER)?;
    let phi = phi_from_ratio(&p, ratio)?;
    let e: Evaluation =
        Evaluation::at_optimal_period(protocol, &p, phi, mtbf).map_err(|e| model_err(&e))?;
    Ok(WasteAnswer {
        protocol: protocol.id(),
        phi_ratio: ratio,
        phi_s: e.phi,
        theta_s: e.theta,
        mtbf_s: e.mtbf,
        period_s: e.period,
        period_source: source_name(e.period_source),
        waste: WasteParts {
            fault_free: e.waste.fault_free,
            failure_induced: e.waste.failure_induced,
            total: e.waste.total,
            failure_loss_s: e.waste.failure_loss,
        },
        efficiency: e.efficiency(),
        risk_window_s: e.risk_window,
    })
}

/// [`waste_answer`] from and to a tree.
pub fn waste(params: &Value) -> Result<Value, WireError> {
    waste_answer(&params_from_value(params)).map(|a| a.to_value())
}

/// `pstar`: just the optimal period and its waste (Eqs. 9/10/15).
///
/// Params: `protocol`, `phi_ratio`, `mtbf_s`, plus the platform
/// scheme.
pub fn pstar_answer(params: &PointParams) -> Result<PstarAnswer, WireError> {
    let protocol = protocol(&params.protocol)?;
    let p = platform_params(params)?;
    let ratio = *params.phi_ratio.required("phi_ratio", NUMBER)?;
    let mtbf = *params.mtbf_s.required("mtbf_s", NUMBER)?;
    let phi = phi_from_ratio(&p, ratio)?;
    let opt = optimal_period(protocol, &p, phi, mtbf).map_err(|e| model_err(&e))?;
    Ok(PstarAnswer {
        protocol: protocol.id(),
        phi_ratio: ratio,
        mtbf_s: mtbf,
        period_s: opt.period,
        period_source: source_name(opt.source),
        waste_total: opt.waste.total,
    })
}

/// [`pstar_answer`] from and to a tree.
pub fn pstar(params: &Value) -> Result<Value, WireError> {
    pstar_answer(&params_from_value(params)).map(|a| a.to_value())
}

/// `risk`: application success probability over an exploitation time
/// (Eqs. 11/16), with the no-checkpointing baseline (Eq. 12).
///
/// Params: `protocol`, `mtbf_s`, `life_s`, optional `phi_ratio`
/// (defaults to the fully-overlapped worst case `θmax`), plus the
/// platform scheme.
pub fn risk_answer(params: &PointParams) -> Result<RiskAnswer, WireError> {
    let protocol = protocol(&params.protocol)?;
    let p = platform_params(params)?;
    let mtbf = *params.mtbf_s.required("mtbf_s", NUMBER)?;
    let life = *params.life_s.required("life_s", NUMBER)?;
    let overlap = OverlapModel::new(&p);
    let theta = match params.phi_ratio.optional("phi_ratio", NUMBER)? {
        Some(&ratio) => {
            let phi = phi_from_ratio(&p, ratio)?;
            overlap.theta_of_phi(phi).map_err(|e| model_err(&e))?
        }
        None => overlap.theta_max(),
    };
    let model = RiskModel::with_theta(protocol, &p, theta).map_err(|e| model_err(&e))?;
    let sp = model
        .success_probability(mtbf, life)
        .map_err(|e| model_err(&e))?;
    let base = base_success_probability(&p, mtbf, life).map_err(|e| model_err(&e))?;
    Ok(RiskAnswer {
        protocol: protocol.id(),
        mtbf_s: mtbf,
        life_s: life,
        theta_s: theta,
        risk_window_s: sp.risk_window,
        lambda_per_s: sp.lambda,
        probability: sp.probability,
        base_probability: base,
        fatal_rate_per_group: model.fatal_rate_per_group(mtbf, life),
    })
}

/// [`risk_answer`] from and to a tree.
pub fn risk(params: &Value) -> Result<Value, WireError> {
    risk_answer(&params_from_value(params)).map(|a| a.to_value())
}

/// Most Monte-Carlo work one `sweep_cell` request may ask for, counted
/// as `replications × work_in_mtbfs`, with each replication counted as
/// at least one MTBF because a run has a fixed cost however little work
/// it does. A cell of 10⁶ such units takes about 0.1 s of one worker on
/// a 2-vCPU x86 host, so this cap keeps any single request near a
/// second; larger specs get a typed `bad_params` instead of holding a
/// worker for minutes.
pub const MAX_SWEEP_CELL_WORK: f64 = 1e7;

/// A parsed `sweep_cell` request: the spec plus grid coordinates,
/// with the cache key's fingerprint already computed.
#[derive(Debug, Clone)]
pub struct SweepCellQuery {
    /// Full sweep specification (worker count is irrelevant: the
    /// fingerprint is worker-normalized and the cell is computed
    /// sequentially).
    pub spec: SweepSpec,
    /// MTBF (row) index into `spec.mtbfs`.
    pub mtbf_idx: usize,
    /// φ (column) index into `spec.phi_ratios`.
    pub phi_idx: usize,
    /// `sweep_spec_fingerprint(&spec)`.
    pub fingerprint: u64,
}

/// Parses `sweep_cell` params held as a tree; see [`sweep_cell_query`].
pub fn parse_sweep_cell(params: &Value) -> Result<SweepCellQuery, WireError> {
    sweep_cell_query(params_from_value(params))
}

/// Checks `sweep_cell` params, `{"spec": <SweepSpec>, "mtbf_idx": i,
/// "phi_idx": j}`, in that order, and fingerprints the spec.
///
/// # Errors
/// `bad_params` for the first param that is missing or ill-typed, or a
/// spec over [`MAX_SWEEP_CELL_WORK`].
pub fn sweep_cell_query(params: SweepCellParams) -> Result<SweepCellQuery, WireError> {
    let spec = match params.spec {
        Param::Absent => return Err(missing("spec")),
        Param::Given(spec) => spec
            .map_err(|e| WireError::bad_params(format!("param `spec` is not a sweep spec: {e}")))?,
    };
    // A non-finite work size is left to the spec's own typed validation.
    let work = spec.replications as f64 * spec.work_in_mtbfs.max(1.0);
    if spec.work_in_mtbfs.is_finite() && work > MAX_SWEEP_CELL_WORK {
        return Err(WireError::bad_params(format!(
            "param `spec` asks for {} replications x {} MTBFs of work; this server computes \
             at most {MAX_SWEEP_CELL_WORK} replication-MTBFs per sweep_cell, counting each \
             replication as at least 1 MTBF",
            spec.replications, spec.work_in_mtbfs
        )));
    }
    let mtbf_idx = *params.mtbf_idx.required("mtbf_idx", INDEX)?;
    let phi_idx = *params.phi_idx.required("phi_idx", INDEX)?;
    let fingerprint = sweep_spec_fingerprint(&spec);
    Ok(SweepCellQuery {
        spec,
        mtbf_idx,
        phi_idx,
        fingerprint,
    })
}

/// Computes a sweep cell (cache miss path). The result is
/// bit-identical to the corresponding cell of `run_sweep` on the same
/// spec — that is the serving contract.
pub fn compute_sweep_cell(q: &SweepCellQuery) -> Result<SweepCell, WireError> {
    run_sweep_cell(&q.spec, q.mtbf_idx, q.phi_idx).map_err(|e| model_err(&e))
}

/// The `sweep_cell` answer: the cell, where it sits, and whether it
/// came from the cache.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCellAnswer {
    /// The cell, bit-identical to `run_sweep`'s.
    pub cell: SweepCell,
    /// The spec fingerprint, 16 hex digits.
    pub fingerprint: String,
    /// MTBF (row) index.
    pub mtbf_idx: usize,
    /// φ (column) index.
    pub phi_idx: usize,
    /// Whether the cell was served from the cache (timing metadata,
    /// not data).
    pub cached: bool,
}

/// Assembles the `sweep_cell` answer.
pub fn sweep_cell_answer(q: &SweepCellQuery, cell: &SweepCell, cached: bool) -> SweepCellAnswer {
    SweepCellAnswer {
        cell: *cell,
        fingerprint: format!("{:016x}", q.fingerprint),
        mtbf_idx: q.mtbf_idx,
        phi_idx: q.phi_idx,
        cached,
    }
}

/// [`sweep_cell_answer`] as a tree.
pub fn sweep_cell_payload(q: &SweepCellQuery, cell: &SweepCell, cached: bool) -> Value {
    sweep_cell_answer(q, cell, cached).to_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Map;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(*k, v.clone());
        }
        Value::Object(m)
    }

    #[test]
    fn waste_matches_direct_evaluation_bitwise() {
        let params = obj(&[
            ("protocol", Value::String("double-nbl".into())),
            ("phi_ratio", Value::F64(0.5)),
            ("mtbf_s", Value::F64(7.0 * 3600.0)),
        ]);
        let out = waste_answer(&params_from_value(&params)).unwrap();
        let p = Scenario::base().params;
        let phi = OverlapModel::new(&p).phi_from_ratio(0.5);
        let direct =
            Evaluation::at_optimal_period(Protocol::DoubleNbl, &p, phi, 7.0 * 3600.0).unwrap();
        assert_eq!(out.waste.total.to_bits(), direct.waste.total.to_bits());
        assert_eq!(out.period_s.to_bits(), direct.period.to_bits());
        assert_eq!(out.protocol, Protocol::DoubleNbl.id());
        assert_eq!(waste(&params).unwrap(), out.to_value());
    }

    #[test]
    fn scenario_and_overrides_change_the_platform() {
        let platform = |pairs: &[(&str, Value)]| platform_params(&params_from_value(&obj(pairs)));
        let base = platform(&[]).unwrap();
        assert_eq!(base, Scenario::base().params);
        let exa = platform(&[("scenario", Value::String("exa".into()))]).unwrap();
        assert_eq!(exa, Scenario::exa().params);
        let tweaked = platform(&[("nodes", Value::U64(128))]).unwrap();
        assert_eq!(tweaked.nodes, 128);
        assert_eq!(tweaked.delta, base.delta);
    }

    #[test]
    fn typed_errors_for_bad_point_queries() {
        let e = waste(&obj(&[])).unwrap_err();
        assert_eq!(e.code, codes::BAD_PARAMS);
        assert!(e.message.contains("protocol"), "{e:?}");

        let e = waste(&obj(&[
            ("protocol", Value::String("quadruple".into())),
            ("phi_ratio", Value::F64(0.0)),
            ("mtbf_s", Value::F64(3600.0)),
        ]))
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_PARAMS);
        assert!(e.message.contains("unknown protocol"), "{e:?}");

        let e = waste(&obj(&[
            ("protocol", Value::String("double-nbl".into())),
            ("phi_ratio", Value::F64(1.5)),
            ("mtbf_s", Value::F64(3600.0)),
        ]))
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_PARAMS);
        assert!(e.message.contains("phi_ratio"), "{e:?}");

        let e = risk(&obj(&[
            ("protocol", Value::String("triple".into())),
            ("mtbf_s", Value::F64(-1.0)),
            ("life_s", Value::F64(3600.0)),
        ]))
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_PARAMS);
    }

    #[test]
    fn risk_defaults_to_theta_max_and_accepts_phi_ratio() {
        let p = Scenario::base().params;
        let base_q = obj(&[
            ("protocol", Value::String("triple".into())),
            ("mtbf_s", Value::F64(7.0 * 3600.0)),
            ("life_s", Value::F64(14.0 * 86400.0)),
        ]);
        let out = risk_answer(&params_from_value(&base_q)).unwrap();
        assert_eq!(
            out.theta_s.to_bits(),
            OverlapModel::new(&p).theta_max().to_bits()
        );
        let (prob, base_prob) = (out.probability, out.base_probability);
        assert!((0.0..=1.0).contains(&prob));
        assert!(
            base_prob <= prob,
            "checkpointing can only help: {base_prob} vs {prob}"
        );
    }

    #[test]
    fn sweep_cell_parses_and_fingerprint_ignores_workers() {
        let p = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap();
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, p, vec![0.0, 1.0], vec![1800.0, 3600.0]);
        spec.replications = 8;
        let mut params = Map::new();
        params.insert("spec", spec.to_value());
        params.insert("mtbf_idx", Value::U64(1));
        params.insert("phi_idx", Value::U64(0));
        let q = parse_sweep_cell(&Value::Object(params)).unwrap();
        assert_eq!((q.mtbf_idx, q.phi_idx), (1, 0));

        let mut other = spec.clone();
        other.workers = 7;
        assert_eq!(q.fingerprint, sweep_spec_fingerprint(&other));

        let e = parse_sweep_cell(&obj(&[("spec", Value::Bool(true))])).unwrap_err();
        assert_eq!(e.code, codes::BAD_PARAMS);
    }

    fn cell_query(spec: Value) -> SweepCellQuery {
        let mut params = Map::new();
        params.insert("spec", spec);
        params.insert("mtbf_idx", Value::U64(1));
        params.insert("phi_idx", Value::U64(0));
        parse_sweep_cell(&Value::Object(params)).unwrap()
    }

    /// Specs written before the sweep had a single engine carry an
    /// `engine` key; it is ignored, so such a request gets the same
    /// fingerprint and the same cell bits as one without it.
    #[test]
    fn sweep_cell_ignores_a_legacy_engine_key() {
        let p = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap();
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, p, vec![0.0, 1.0], vec![1800.0, 3600.0]);
        spec.replications = 16;
        let plain = cell_query(spec.to_value());
        let Value::Object(mut legacy) = spec.to_value() else {
            panic!("a spec serializes to an object");
        };
        legacy.insert("engine", Value::String("GlobalPool".into()));
        let legacy = cell_query(Value::Object(legacy));
        assert_eq!(legacy.fingerprint, plain.fingerprint);
        // Debug prints every f64 in shortest round-trip form, so equal
        // strings mean equal bits.
        assert_eq!(
            format!("{:?}", compute_sweep_cell(&legacy).unwrap()),
            format!("{:?}", compute_sweep_cell(&plain).unwrap())
        );
    }

    #[test]
    fn sweep_cell_work_is_budgeted() {
        let p = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap();
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, p, vec![0.0], vec![3600.0]);
        let parse = |spec: &SweepSpec| {
            parse_sweep_cell(&obj(&[
                ("spec", spec.to_value()),
                ("mtbf_idx", Value::U64(0)),
                ("phi_idx", Value::U64(0)),
            ]))
        };
        spec.work_in_mtbfs = 10.0;
        spec.replications = 1_000_000;
        assert!(parse(&spec).is_ok());
        spec.replications += 1;
        let e = parse(&spec).unwrap_err();
        assert_eq!(e.code, codes::BAD_PARAMS, "{e:?}");
        assert!(
            e.message.contains("at most 10000000 replication-MTBFs"),
            "{e:?}"
        );
        // A tiny work size does not buy more replications.
        spec.work_in_mtbfs = 1e-6;
        spec.replications = 10_000_001;
        assert!(parse(&spec).is_err());
    }

    #[test]
    fn sweep_cell_rejects_non_positive_or_non_finite_work() {
        let p = PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap();
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, p, vec![0.0, 1.0], vec![1800.0, 3600.0]);
        for bad in [-5.0, 0.0, f64::INFINITY] {
            spec.work_in_mtbfs = bad;
            let e = compute_sweep_cell(&cell_query(spec.to_value())).unwrap_err();
            assert_eq!(e.code, codes::BAD_PARAMS, "{bad}: {e:?}");
            assert!(e.message.contains("work_in_mtbfs"), "{bad}: {e:?}");
        }
    }
}
