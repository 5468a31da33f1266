//! The server writes each typed answer and its envelope straight into
//! the response line. Those bytes must equal what printing the answer's
//! `to_value` tree inside a `{"v","id","ok"|"err"}` tree gives.

use dck_serve::queries::{PstarAnswer, RiskAnswer, SweepCellAnswer, WasteAnswer, WasteParts};
use dck_serve::{err_line, ok_line, WireError};
use dck_sim::SweepCell;
use proptest::prelude::*;
use serde::{Map, Serialize, Value};

/// The response line as a tree, printed.
fn tree_line(id: &Value, key: &str, body: Value) -> String {
    let mut envelope = Map::new();
    envelope.insert("v", Value::U64(1));
    envelope.insert("id", id.clone());
    envelope.insert(key, body);
    serde_json::to_string(&Value::Object(envelope)).unwrap()
}

fn assert_ok_parity(id: &Value, answer: &impl Serialize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        serde_json::to_string(answer).unwrap(),
        serde_json::to_string(&answer.to_value()).unwrap()
    );
    prop_assert_eq!(ok_line(id, answer), tree_line(id, "ok", answer.to_value()));
    Ok(())
}

/// Text mixing plain characters with every class the escaper treats
/// specially.
fn text() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '😀',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..10).prop_map(String::from_iter)
}

fn id() -> impl Strategy<Value = Value> {
    (0u8..4, text(), any::<i64>()).prop_map(|(kind, s, n)| match kind {
        0 => Value::Null,
        1 => Value::String(s),
        2 => Value::I64(n),
        _ => Value::Array(vec![Value::F64(n as f64 / 3.0), Value::Bool(n % 2 == 0)]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn answers_and_envelopes_write_the_tree_bytes(
        id in id(),
        protocol in text(),
        xs in prop::collection::vec(prop::num::f64::ANY, 12),
        counts in (any::<usize>(), any::<usize>(), any::<u64>(), any::<bool>()),
        source in prop::sample::select(vec!["closed_form", "clamped_to_min", "saturated"]),
    ) {
        let waste = WasteAnswer {
            protocol: protocol.clone(),
            phi_ratio: xs[0],
            phi_s: xs[1],
            theta_s: xs[2],
            mtbf_s: xs[3],
            period_s: xs[4],
            period_source: source,
            waste: WasteParts {
                fault_free: xs[5],
                failure_induced: xs[6],
                total: xs[7],
                failure_loss_s: xs[8],
            },
            efficiency: xs[9],
            risk_window_s: xs[10],
        };
        assert_ok_parity(&id, &waste)?;
        let pstar = PstarAnswer {
            protocol: protocol.clone(),
            phi_ratio: xs[0],
            mtbf_s: xs[1],
            period_s: xs[2],
            period_source: source,
            waste_total: xs[3],
        };
        assert_ok_parity(&id, &pstar)?;
        let risk = RiskAnswer {
            protocol: protocol.clone(),
            mtbf_s: xs[3],
            life_s: xs[4],
            theta_s: xs[5],
            risk_window_s: xs[6],
            lambda_per_s: xs[7],
            probability: xs[8],
            base_probability: xs[9],
            fatal_rate_per_group: xs[10],
        };
        assert_ok_parity(&id, &risk)?;
        let (completed, fatal, fingerprint, estimated) = counts;
        let cell = SweepCellAnswer {
            cell: SweepCell {
                phi_ratio: xs[0],
                mtbf: xs[1],
                period: xs[2],
                model_waste: xs[3],
                sim_waste: estimated.then_some(xs[4]),
                half_width: estimated.then_some(xs[11]),
                completed,
                fatal,
                truncated: completed / 3,
                replications_run: fatal / 5,
            },
            fingerprint: format!("{fingerprint:016x}"),
            mtbf_idx: completed % 7,
            phi_idx: fatal % 11,
            cached: estimated,
        };
        assert_ok_parity(&id, &cell)?;

        let err = WireError::new("bad_params", protocol);
        let mut body = Map::new();
        body.insert("code", Value::String(err.code.to_string()));
        body.insert("message", Value::String(err.message.clone()));
        prop_assert_eq!(err_line(Some(&id), &err), tree_line(&id, "err", Value::Object(body.clone())));
        prop_assert_eq!(err_line(None, &err), tree_line(&Value::Null, "err", Value::Object(body)));
    }
}
