//! Pure request handlers: JSON params in, JSON payload out.
//!
//! Every method the server dispatches (other than `ping`/`shutdown`,
//! which are protocol-level) lives here as a pure function from a
//! `params` [`Value`] to a response payload, so unit tests and the
//! worker pool exercise exactly the same code. Point queries (`waste`,
//! `risk`, `pstar`) are answered directly from the `dck-core` model —
//! no simulation, microsecond-scale. `sweep_cell` parsing also lives
//! here; the compute + cache path is in [`crate::server`] because it
//! needs the shared cache.
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
use dck_sim::{run_sweep_cell, sweep_spec_fingerprint, SweepSpec};
use serde::{Deserialize, Map, Serialize, Value};

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

fn require(params: &Value, key: &str) -> Result<Value, WireError> {
    match params.get(key) {
        Some(v) if !v.is_null() => Ok(v.clone()),
        _ => Err(WireError::bad_params(format!(
            "missing required param `{key}`"
        ))),
    }
}

fn require_f64(params: &Value, key: &str) -> Result<f64, WireError> {
    require(params, key)?
        .as_f64()
        .ok_or_else(|| WireError::bad_params(format!("param `{key}` must be a number")))
}

fn require_usize(params: &Value, key: &str) -> Result<usize, WireError> {
    require(params, key)?
        .as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| {
            WireError::bad_params(format!("param `{key}` must be a non-negative integer"))
        })
}

fn optional_f64(params: &Value, key: &str) -> Result<Option<f64>, WireError> {
    match params.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| WireError::bad_params(format!("param `{key}` must be a number"))),
    }
}

fn require_protocol(params: &Value) -> Result<Protocol, WireError> {
    let name = require(params, "protocol")?;
    let name = name
        .as_str()
        .ok_or_else(|| WireError::bad_params("param `protocol` must be a string"))?
        .to_string();
    Protocol::parse(&name).ok_or_else(|| {
        let known: Vec<String> = Protocol::registry().iter().map(|p| p.id()).collect();
        WireError::bad_params(format!(
            "unknown protocol `{name}` (known: {})",
            known.join(", ")
        ))
    })
}

/// Resolves the platform parameter set for a point query (see the
/// module docs for the scenario + overrides scheme).
pub fn platform_params(params: &Value) -> Result<PlatformParams, WireError> {
    let scenario = match params.get("scenario") {
        None | Some(Value::Null) => Scenario::base(),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| WireError::bad_params("param `scenario` must be a string"))?;
            Scenario::by_name(name).ok_or_else(|| {
                WireError::bad_params(format!("unknown scenario `{name}` (known: base, exa)"))
            })?
        }
    };
    let base = scenario.params;
    let downtime = optional_f64(params, "downtime_s")?.unwrap_or(base.downtime);
    let delta = optional_f64(params, "delta_s")?.unwrap_or(base.delta);
    let theta_min = optional_f64(params, "theta_min_s")?.unwrap_or(base.theta_min);
    let alpha = optional_f64(params, "alpha")?.unwrap_or(base.alpha);
    let nodes = match params.get("nodes") {
        None | Some(Value::Null) => base.nodes,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| WireError::bad_params("param `nodes` must be a positive integer"))?,
    };
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

/// `waste`: full model evaluation at the optimal period.
///
/// Params: `protocol`, `phi_ratio`, `mtbf_s`, plus the platform
/// scheme. Returns the waste decomposition (Eqs. 4–5), the period and
/// its provenance, efficiency, and the risk-window length.
pub fn waste(params: &Value) -> Result<Value, WireError> {
    let protocol = require_protocol(params)?;
    let p = platform_params(params)?;
    let ratio = require_f64(params, "phi_ratio")?;
    let mtbf = require_f64(params, "mtbf_s")?;
    let phi = phi_from_ratio(&p, ratio)?;
    let e: Evaluation =
        Evaluation::at_optimal_period(protocol, &p, phi, mtbf).map_err(|e| model_err(&e))?;
    let mut w = Map::new();
    w.insert("fault_free", Value::F64(e.waste.fault_free));
    w.insert("failure_induced", Value::F64(e.waste.failure_induced));
    w.insert("total", Value::F64(e.waste.total));
    w.insert("failure_loss_s", Value::F64(e.waste.failure_loss));
    let mut out = Map::new();
    out.insert("protocol", Value::String(protocol.id().to_string()));
    out.insert("phi_ratio", Value::F64(ratio));
    out.insert("phi_s", Value::F64(e.phi));
    out.insert("theta_s", Value::F64(e.theta));
    out.insert("mtbf_s", Value::F64(e.mtbf));
    out.insert("period_s", Value::F64(e.period));
    out.insert(
        "period_source",
        Value::String(source_name(e.period_source).into()),
    );
    out.insert("waste", Value::Object(w));
    out.insert("efficiency", Value::F64(e.efficiency()));
    out.insert("risk_window_s", Value::F64(e.risk_window));
    Ok(Value::Object(out))
}

/// `pstar`: just the optimal period and its waste (Eqs. 9/10/15).
///
/// Params: `protocol`, `phi_ratio`, `mtbf_s`, plus the platform
/// scheme.
pub fn pstar(params: &Value) -> Result<Value, WireError> {
    let protocol = require_protocol(params)?;
    let p = platform_params(params)?;
    let ratio = require_f64(params, "phi_ratio")?;
    let mtbf = require_f64(params, "mtbf_s")?;
    let phi = phi_from_ratio(&p, ratio)?;
    let opt = optimal_period(protocol, &p, phi, mtbf).map_err(|e| model_err(&e))?;
    let mut out = Map::new();
    out.insert("protocol", Value::String(protocol.id().to_string()));
    out.insert("phi_ratio", Value::F64(ratio));
    out.insert("mtbf_s", Value::F64(mtbf));
    out.insert("period_s", Value::F64(opt.period));
    out.insert(
        "period_source",
        Value::String(source_name(opt.source).into()),
    );
    out.insert("waste_total", Value::F64(opt.waste.total));
    Ok(Value::Object(out))
}

/// `risk`: application success probability over an exploitation time
/// (Eqs. 11/16), with the no-checkpointing baseline (Eq. 12).
///
/// Params: `protocol`, `mtbf_s`, `life_s`, optional `phi_ratio`
/// (defaults to the fully-overlapped worst case `θmax`), plus the
/// platform scheme.
pub fn risk(params: &Value) -> Result<Value, WireError> {
    let protocol = require_protocol(params)?;
    let p = platform_params(params)?;
    let mtbf = require_f64(params, "mtbf_s")?;
    let life = require_f64(params, "life_s")?;
    let overlap = OverlapModel::new(&p);
    let theta = match optional_f64(params, "phi_ratio")? {
        Some(ratio) => {
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
    let mut out = Map::new();
    out.insert("protocol", Value::String(protocol.id().to_string()));
    out.insert("mtbf_s", Value::F64(mtbf));
    out.insert("life_s", Value::F64(life));
    out.insert("theta_s", Value::F64(theta));
    out.insert("risk_window_s", Value::F64(sp.risk_window));
    out.insert("lambda_per_s", Value::F64(sp.lambda));
    out.insert("probability", Value::F64(sp.probability));
    out.insert("base_probability", Value::F64(base));
    out.insert(
        "fatal_rate_per_group",
        Value::F64(model.fatal_rate_per_group(mtbf, life)),
    );
    Ok(Value::Object(out))
}

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

/// Parses `sweep_cell` params: `{"spec": <SweepSpec>, "mtbf_idx": i,
/// "phi_idx": j}`.
pub fn parse_sweep_cell(params: &Value) -> Result<SweepCellQuery, WireError> {
    let spec_v = require(params, "spec")?;
    let spec = SweepSpec::from_value(&spec_v)
        .map_err(|e| WireError::bad_params(format!("param `spec` is not a sweep spec: {e}")))?;
    let mtbf_idx = require_usize(params, "mtbf_idx")?;
    let phi_idx = require_usize(params, "phi_idx")?;
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
pub fn compute_sweep_cell(q: &SweepCellQuery) -> Result<dck_sim::SweepCell, WireError> {
    run_sweep_cell(&q.spec, q.mtbf_idx, q.phi_idx).map_err(|e| model_err(&e))
}

/// Assembles the `sweep_cell` response payload.
pub fn sweep_cell_payload(q: &SweepCellQuery, cell: &dck_sim::SweepCell, cached: bool) -> Value {
    let mut out = Map::new();
    out.insert("cell", cell.to_value());
    out.insert(
        "fingerprint",
        Value::String(format!("{:016x}", q.fingerprint)),
    );
    out.insert("mtbf_idx", Value::U64(q.mtbf_idx as u64));
    out.insert("phi_idx", Value::U64(q.phi_idx as u64));
    out.insert("cached", Value::Bool(cached));
    Value::Object(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let out = waste(&params).unwrap();
        let p = Scenario::base().params;
        let phi = OverlapModel::new(&p).phi_from_ratio(0.5);
        let direct =
            Evaluation::at_optimal_period(Protocol::DoubleNbl, &p, phi, 7.0 * 3600.0).unwrap();
        let total = out
            .get("waste")
            .unwrap()
            .get("total")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(total.to_bits(), direct.waste.total.to_bits());
        let period = out.get("period_s").unwrap().as_f64().unwrap();
        assert_eq!(period.to_bits(), direct.period.to_bits());
        assert_eq!(
            out.get("protocol").unwrap().as_str(),
            Some(Protocol::DoubleNbl.id().as_str())
        );
    }

    #[test]
    fn scenario_and_overrides_change_the_platform() {
        let base = platform_params(&obj(&[])).unwrap();
        assert_eq!(base, Scenario::base().params);
        let exa = platform_params(&obj(&[("scenario", Value::String("exa".into()))])).unwrap();
        assert_eq!(exa, Scenario::exa().params);
        let tweaked = platform_params(&obj(&[("nodes", Value::U64(128))])).unwrap();
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
        let out = risk(&base_q).unwrap();
        let theta = out.get("theta_s").unwrap().as_f64().unwrap();
        assert_eq!(theta.to_bits(), OverlapModel::new(&p).theta_max().to_bits());
        let prob = out.get("probability").unwrap().as_f64().unwrap();
        let base_prob = out.get("base_probability").unwrap().as_f64().unwrap();
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
