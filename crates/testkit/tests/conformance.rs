//! Model↔simulator conformance over the coarse spec's regions and
//! sections. The report is written to `target/conformance.json`
//! (override the path via `DCK_CONFORMANCE_OUT`) so `dck validate
//! --conformance` and CI can consume it; the ignored stress test writes
//! `conformance-stress.json` beside it.

use std::path::{Path, PathBuf};

use dck_experiments::conformance::{run_conformance, ConformanceReport, ConformanceSpec};

fn output_path() -> PathBuf {
    match std::env::var("DCK_CONFORMANCE_OUT") {
        Ok(path) if !path.is_empty() => PathBuf::from(path),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/conformance.json"),
    }
}

/// Writes `report` to `path` before anything is asserted, so a failing
/// run still leaves its report behind, and checks that it reads back.
fn persist(report: &ConformanceReport, path: &Path) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, report.to_json().unwrap()).expect("write the conformance report");
    eprintln!("conformance report written to {}", path.display());
    let text = std::fs::read_to_string(path).expect("re-read the conformance report");
    let parsed = ConformanceReport::from_json(&text).expect("the report must re-judge cleanly");
    assert_eq!(&parsed, report);
}

#[test]
fn coarse_grid_model_matches_simulation() {
    let spec = ConformanceSpec::coarse();
    let benign = &spec.regions[0];
    assert_eq!(benign.name, "benign");
    assert!(
        benign.cell_count() >= 27,
        "the benign region must cover at least 27 (MTBF, alpha, phi) cells, got {}",
        benign.cell_count()
    );

    let report = run_conformance(&spec).expect("conformance sweep must run");
    persist(&report, &output_path());

    assert_eq!(
        report.degenerate, 0,
        "gating cells with too few completed replications"
    );
    assert!(
        report.all_pass(),
        "{} conformance cell(s) out of tolerance:\n{}",
        report.failed,
        report.failures().join("\n")
    );
    assert!(
        report.passed >= 27,
        "expected >= 27 passing cells, got {}",
        report.passed
    );
}

/// The stress regions are recorded, never asserted: this only checks
/// that they run and that their report re-judges cleanly. CI's
/// conformance job runs it with `--include-ignored`.
#[test]
#[ignore = "stress regions: run by the CI conformance job"]
fn stress_regions_are_recorded() {
    let report = run_conformance(&ConformanceSpec::stress()).expect("stress regions must run");
    persist(
        &report,
        &output_path().with_file_name("conformance-stress.json"),
    );
    assert!(report.spec.regions.iter().all(|r| !r.gate));
    eprint!("{}", report.summary(""));
}

/// FNV-1a over exact bit patterns.
struct Bits(u64);

impl Bits {
    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn num(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// `None` hashes as a word no `to_bits` of a finite estimate takes.
    fn opt(&mut self, x: Option<f64>) -> &mut Self {
        self.word(x.map_or(u64::MAX, f64::to_bits))
    }

    fn count(&mut self, n: usize) -> &mut Self {
        self.word(n as u64)
    }
}

/// The coarse spec's waste grid, prediction and adaptation cells keep
/// the exact bits of every number they carry: the seeds, the sweep
/// engine and the judge's bound are all pinned by this one digest.
#[test]
fn coarse_cells_keep_their_bits() {
    // The v3 grid is the coarse spec's first region, `benign`; the
    // other regions do not touch its seeds.
    let mut spec = ConformanceSpec::coarse();
    spec.regions.truncate(1);
    let report = run_conformance(&spec).unwrap();
    let mut h = Bits(0xcbf2_9ce4_8422_2325);
    for c in &report.regions[0].cells {
        h.num(c.mtbf)
            .num(c.alpha)
            .num(c.phi_ratio)
            .num(c.period)
            .num(c.model)
            .opt(c.sim)
            .opt(c.half_width)
            .opt(c.tolerance)
            .count(c.completed)
            .count(c.replications_run);
    }
    for c in &report.prediction_cells {
        h.num(c.mtbf)
            .num(c.precision)
            .num(c.recall)
            .num(c.window)
            .num(c.period)
            .num(c.model_waste)
            .opt(c.sim_waste)
            .opt(c.half_width)
            .opt(c.tolerance)
            .count(c.completed)
            .count(c.replications_run);
    }
    for c in &report.adaptation_cells {
        h.num(c.mtbf)
            .num(c.factor)
            .opt(c.adaptive_waste)
            .opt(c.static_waste)
            .opt(c.oracle_waste)
            .opt(c.regret_ratio)
            .num(c.retunes_mean)
            .opt(c.tolerance)
            .count(c.completed)
            .count(c.replications_run);
    }
    assert_eq!(
        (
            report.regions[0].cells.len(),
            report.prediction_cells.len(),
            report.adaptation_cells.len()
        ),
        (90, 8, 3)
    );
    assert_eq!(
        h.0, 0x9489_b17c_4bb1_d21f,
        "coarse conformance digest {:#018x}",
        h.0
    );
}
