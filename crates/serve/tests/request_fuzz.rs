//! The server's request decoder on hostile bytes: arbitrary lines, and
//! truncations, byte flips and edits of lines shaped like the
//! benchmark's serve mix. Every line must get a typed answer or a typed
//! error, never a panic, and the answer must be the one the tree path
//! (`parse_request`, then the `&Value` handlers) gives.

#[allow(dead_code)]
#[path = "../../../vendor/serde/tests/support/mutate.rs"]
mod mutate;

use dck_core::{Protocol, Scenario};
use dck_serve::protocol::{err_line, ok_line, parse_envelope, parse_request, WireError};
use dck_serve::queries::{self, decode_params};
use dck_sim::SweepSpec;
use proptest::prelude::*;
use serde::{Serialize, Value};

/// What the server decodes from `line` and the point handlers or the
/// `sweep_cell` parser answer (the cell itself is not computed).
fn typed(line: &str) -> String {
    let req = match parse_envelope(line) {
        Ok(req) => req,
        Err(e) => return err_line(None, &e),
    };
    let text = req.params;
    let answer: Result<String, WireError> = match &*req.method {
        "waste" => decode_params(text)
            .and_then(|p| queries::waste_answer(&p))
            .map(|a| ok_line(&req.id, a)),
        "risk" => decode_params(text)
            .and_then(|p| queries::risk_answer(&p))
            .map(|a| ok_line(&req.id, a)),
        "pstar" => decode_params(text)
            .and_then(|p| queries::pstar_answer(&p))
            .map(|a| ok_line(&req.id, a)),
        "sweep_cell" => decode_params(text)
            .and_then(queries::sweep_cell_query)
            .map(|q| ok_line(&req.id, (q.fingerprint, q.mtbf_idx, q.phi_idx))),
        other => Ok(ok_line(&req.id, other)),
    };
    answer.unwrap_or_else(|e| err_line(Some(&req.id), &e))
}

/// The same through a whole parsed tree.
fn tree(line: &str) -> String {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(e) => return err_line(None, &e),
    };
    let answer: Result<String, WireError> = match req.method.as_str() {
        "waste" => queries::waste(&req.params).map(|a| ok_line(&req.id, a)),
        "risk" => queries::risk(&req.params).map(|a| ok_line(&req.id, a)),
        "pstar" => queries::pstar(&req.params).map(|a| ok_line(&req.id, a)),
        "sweep_cell" => queries::parse_sweep_cell(&req.params)
            .map(|q| ok_line(&req.id, (q.fingerprint, q.mtbf_idx, q.phi_idx))),
        other => Ok(ok_line(&req.id, other)),
    };
    answer.unwrap_or_else(|e| err_line(Some(&req.id), &e))
}

/// One line of each kind the benchmark's mix sends.
fn mix_lines() -> Vec<String> {
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        Scenario::base().params,
        vec![0.0, 0.5, 1.0],
        vec![1_800.0, 3_600.0],
    );
    spec.replications = 16;
    spec.work_in_mtbfs = 2.0;
    let spec = spec.to_value();
    let mut spec_text = String::new();
    spec.write_json(&mut spec_text);
    vec![
        r#"{"v":1,"id":"r0","method":"waste","params":{"protocol":"double-nbl","mtbf_s":1800.0,"phi_ratio":0.25}}"#.to_string(),
        r#"{"v":1,"id":"r1","method":"risk","params":{"protocol":"triple","mtbf_s":3600.0,"life_s":1209600.0,"phi_ratio":0.5}}"#.to_string(),
        r#"{"v":1,"id":"r2","method":"pstar","params":{"protocol":"double-bof","mtbf_s":25200.0,"phi_ratio":1.0}}"#.to_string(),
        format!(r#"{{"v":1,"id":"r3","method":"sweep_cell","params":{{"spec":{spec_text},"mtbf_idx":1,"phi_idx":2}}}}"#),
    ]
}

/// `line`'s answer: the same both ways, one line, and an object with an
/// `ok` or a typed `err`.
fn check(line: &str) {
    let answer = typed(line);
    assert_eq!(answer, tree(line), "{line}");
    assert!(!answer.contains('\n'), "{answer}");
    let v: Value = serde_json::from_str(&answer).expect("the answer is JSON");
    let typed_error = v["err"]["code"].as_str().is_some() && v["err"]["message"].as_str().is_some();
    assert!(v.get("ok").is_some() || typed_error, "{line} -> {answer}");
}

#[test]
fn mix_lines_decode_alike_under_edits_cuts_and_flips() {
    for line in mix_lines() {
        check(&line);
        for seed in 0..64 {
            for variant in mutate::variants(&line, seed, 16) {
                check(&variant);
            }
        }
    }
}

fn json_bytes() -> impl Strategy<Value = Vec<u8>> {
    let alphabet = b"{}[],:\" \\0123456789.-+eEtrufalsn".to_vec();
    prop::collection::vec(prop::sample::select(alphabet), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_get_typed_answers(
        bytes in json_bytes(),
        raw in prop::collection::vec(any::<u8>(), 0..24),
        x in prop::num::f64::ANY,
        y in prop::num::f64::ANY,
    ) {
        let (mut xs, mut ys) = (String::new(), String::new());
        serde::write_f64(&mut xs, x);
        serde::write_f64(&mut ys, y);
        for method in ["waste", "risk", "pstar"] {
            check(&format!(
                r#"{{"v":1,"id":0,"method":"{method}","params":{{"protocol":"triple","mtbf_s":{xs},"phi_ratio":{ys},"life_s":{xs},"nodes":{ys},"alpha":{xs}}}}}"#
            ));
        }
        for line in [String::from_utf8_lossy(&bytes), String::from_utf8_lossy(&raw)] {
            check(&line);
            check(&format!(r#"{{"v":1,"id":1,"method":"waste","params":{line}}}"#));
            check(&format!(r#"{{"v":1,"method":"sweep_cell","params":{{"spec":{line}}}}}"#));
        }
    }
}
