//! File decoders against hostile nesting: a 2 MB file of `[` once
//! overflowed the main thread's stack in the recursive JSON parser and
//! aborted `dck`. Each decoder must now exit 1 with a typed error that
//! names the file and the nesting cap.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dck");

fn deep_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dck-deep-{name}-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(2 << 20)).unwrap();
    path
}

fn assert_typed_rejection(args: &[&str], path: &Path, what: &str) {
    let out = Command::new(BIN)
        .args(args)
        .arg(path)
        .output()
        .expect("run dck");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("invalid {what}: nesting deeper than 128 levels")),
        "{args:?}: {stderr}"
    );
    assert!(
        stderr.contains(path.to_str().unwrap()),
        "names the file: {stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn validate_trace_rejects_deep_nesting() {
    let path = deep_file("trace");
    assert_typed_rejection(&["validate", "--trace"], &path, "TimelineEvent");
}

#[test]
fn inject_script_rejects_deep_nesting() {
    let path = deep_file("script");
    assert_typed_rejection(&["inject", "--script"], &path, "FaultScript");
}
