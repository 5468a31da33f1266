//! Baseline exactness: the repo's own `analyze.toml` must match the
//! current scan exactly — no live deny findings, no stale entries, no
//! entry without a written justification, no anchor off its line. This is the same check `dck
//! lint` and the CI `analyze` job enforce, run here so `cargo test`
//! alone catches drift.

use dck_analyze::scan_with_config_file;
use std::path::Path;

#[test]
fn repo_scan_is_clean_against_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    assert!(
        root.join("analyze.toml").is_file(),
        "workspace baseline missing at {}",
        root.display()
    );
    let report = scan_with_config_file(root).unwrap();
    assert!(
        report.is_clean(),
        "workspace lint drifted from analyze.toml:\n{}",
        report.to_human()
    );
    assert_eq!(report.deny_count(), 0);
    assert!(report.stale_allows.is_empty(), "{:?}", report.stale_allows);
    assert!(
        report.unjustified_allows.is_empty(),
        "{:?}",
        report.unjustified_allows
    );
    // Every anchored entry names the line its finding sits on.
    assert!(
        report.drifted_allows.is_empty(),
        "{:?}",
        report.drifted_allows
    );
}
