//! The content-hash baseline key: an entry is keyed by (path, lint,
//! normalized snippet hash) with the `line` as an anchor. An entry
//! shifted by a small edit elsewhere (±[`dck_analyze::LINE_FUZZ`]) is
//! still recognised, so its finding stays suppressed, but the scan
//! fails naming the finding's current line; a large shift goes stale.

use dck_analyze::{scan, snippet_hash, AnalyzeConfig, LINE_FUZZ};
use std::path::PathBuf;

/// A throwaway workspace with one crate whose lib.rs carries one
/// deliberate `unwrap()` preceded by `pad` filler lines.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(name: &str, pad: usize) -> TempWs {
        let root = std::env::temp_dir().join(format!("dck-rekey-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src = root.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        let mut text = String::from("//! Temp fixture.\n#![forbid(unsafe_code)]\n");
        for i in 0..pad {
            text.push_str(&format!("/// Filler {i}.\npub fn filler_{i}() {{}}\n"));
        }
        text.push_str("/// The baselined violation.\npub fn boom(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n");
        std::fs::write(src.join("lib.rs"), text).unwrap();
        TempWs { root }
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The entry as `dck lint baseline` would emit it for the unpadded
/// layout: hash of the offending line, anchored where it first lived.
fn entry(anchor_line: u32) -> AnalyzeConfig {
    AnalyzeConfig::from_toml(&format!(
        "[[allow]]\n\
         lint = \"panic-safety\"\n\
         path = \"crates/x/src/lib.rs\"\n\
         line = {anchor_line}\n\
         snippet_hash = \"{}\"\n\
         justification = \"temp fixture exercises the fuzzy key\"\n",
        snippet_hash("x.unwrap()")
    ))
    .unwrap()
}

#[test]
fn small_shifts_are_recognised_but_fail_naming_the_new_line() {
    // Unpadded, the unwrap sits on line 5; each pad entry adds 2 lines.
    let anchor = 5;
    for pad in [0usize, 1, 4] {
        let ws = TempWs::new(&format!("small-{pad}"), pad);
        let shift = 2 * pad as u32;
        assert!(shift <= LINE_FUZZ, "test premise");
        let report = scan(&ws.root, &entry(anchor)).unwrap();
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.deny_count(), 0);
        assert!(report.stale_allows.is_empty());
        if shift == 0 {
            assert!(report.is_clean(), "{}", report.to_human());
        } else {
            assert!(
                !report.is_clean(),
                "a {shift}-line drift must fail the scan"
            );
            assert_eq!(
                report.drifted_allows,
                [format!(
                    "[panic-safety] crates/x/src/lib.rs:5 now sits on line {}",
                    5 + shift
                )]
            );
            assert!(report.to_human().contains("update its `line`"));
        }
    }
}

#[test]
fn identical_sites_each_keep_their_exact_anchor() {
    // Two identical violations four lines apart, each with its own
    // entry: both entries also recognise the other site, but each has a
    // finding on its anchor, so neither has drifted.
    let ws = TempWs::new("twins", 0);
    let lib = ws.root.join("crates/x/src/lib.rs");
    let text = std::fs::read_to_string(&lib).unwrap();
    std::fs::write(
        &lib,
        format!(
            "{text}/// Its twin.\npub fn boom2(x: Option<u64>) -> u64 {{\n    x.unwrap()\n}}\n"
        ),
    )
    .unwrap();
    let mut cfg = entry(5);
    cfg.allow.extend(entry(9).allow);
    let report = scan(&ws.root, &cfg).unwrap();
    assert_eq!(report.suppressed, 2);
    assert!(report.is_clean(), "{}", report.to_human());
}

#[test]
fn large_shifts_go_stale_instead_of_matching_blindly() {
    // 6 pad entries shift the line by 12 > LINE_FUZZ: the entry stops
    // matching, the finding comes back live, and the entry reports
    // stale — both sides of the drift are surfaced.
    let ws = TempWs::new("large", 6);
    let report = scan(&ws.root, &entry(5)).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.deny_count(), 1);
    assert_eq!(report.stale_allows.len(), 1);
}

#[test]
fn content_change_rekeys_even_on_the_same_line() {
    // Same line number, different content: the hash no longer matches,
    // so the entry cannot silently bless a new violation.
    let ws = TempWs::new("content", 0);
    let cfg = AnalyzeConfig::from_toml(&format!(
        "[[allow]]\n\
         lint = \"panic-safety\"\n\
         path = \"crates/x/src/lib.rs\"\n\
         line = 5\n\
         snippet_hash = \"{}\"\n\
         justification = \"hash of content that is not on line 5\"\n",
        snippet_hash("y.expect(\"other\")")
    ))
    .unwrap();
    let report = scan(&ws.root, &cfg).unwrap();
    assert_eq!(report.deny_count(), 1);
    assert_eq!(report.stale_allows.len(), 1);
}
