//! Lossless round-trip guarantees for the fault-script pipeline:
//! script JSON -> compiled trace -> JSONL -> trace, over the whole corpus.

use dck_failures::FailureTrace;
use dck_simcore::SimTime;
use dck_testkit::golden::{default_corpus_dir, load_cases};
use dck_testkit::script::FaultScript;

#[allow(dead_code)]
#[path = "../../../vendor/serde/tests/support/mutate.rs"]
mod mutate;

#[test]
fn corpus_scripts_roundtrip_through_json() {
    let cases = load_cases(&default_corpus_dir()).expect("corpus must load");
    for case in &cases {
        let json = case.script.to_json().unwrap();
        let back = FaultScript::from_json(&json)
            .unwrap_or_else(|err| panic!("{}: reparse failed: {err}", case.name));
        let again = back.to_json().unwrap();
        assert_eq!(json, again, "{}: JSON round-trip is not stable", case.name);
    }
}

/// Every corpus script, and edited and broken copies of it, reads as
/// its parsed tree does: the same script or the same error message.
#[test]
fn corpus_scripts_read_as_their_tree_does() {
    let cases = load_cases(&default_corpus_dir()).expect("corpus must load");
    for (seed, case) in cases.iter().enumerate() {
        let json = case.script.to_json().unwrap();
        for doc in std::iter::once(json.clone()).chain(mutate::variants(&json, seed as u64, 24)) {
            let (read, oracle) = mutate::both_ways::<FaultScript>(&doc);
            assert_eq!(read, oracle, "{}: {doc}", case.name);
        }
    }
}

#[test]
fn compiled_traces_roundtrip_through_jsonl() {
    let cases = load_cases(&default_corpus_dir()).expect("corpus must load");
    for case in &cases {
        let compiled = case
            .script
            .compile()
            .unwrap_or_else(|err| panic!("{}: compile failed: {err}", case.name));
        let jsonl = compiled.trace.to_jsonl().unwrap();
        let back = FailureTrace::from_jsonl(&jsonl)
            .unwrap_or_else(|err| panic!("{}: JSONL reparse failed: {err}", case.name));
        assert_eq!(
            compiled.trace, back,
            "{}: trace JSONL round-trip is lossy",
            case.name
        );
    }
}

#[test]
fn truncated_traces_still_roundtrip() {
    let cases = load_cases(&default_corpus_dir()).expect("corpus must load");
    for case in &cases {
        let compiled = case.script.compile().expect("compile");
        // Cut the trace just after its first event (or keep it empty).
        let horizon = compiled
            .trace
            .events()
            .first()
            .map(|e| e.at + SimTime::seconds(1e-6))
            .unwrap_or(SimTime::seconds(0.0));
        let prefix = compiled.trace.truncated(horizon);
        let back = FailureTrace::from_jsonl(&prefix.to_jsonl().unwrap())
            .unwrap_or_else(|err| panic!("{}: truncated reparse failed: {err}", case.name));
        assert_eq!(
            prefix, back,
            "{}: truncated trace round-trip is lossy",
            case.name
        );
        assert!(back.events().len() <= compiled.trace.events().len());
    }
}
