//! End-to-end experiment generation: every artifact writes, parses, and
//! carries plausible data.

use dck::experiments::figures::{Size, FIGURES};
use dck::experiments::output::OutputDir;
use dck::experiments::table::Figure;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_out(tag: &str) -> (OutputDir, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dck-e2e-{tag}-{}", std::process::id()));
    (OutputDir::create(&dir).unwrap(), dir)
}

/// The registry's figure `name` at `size`, with the CLI's default seed.
fn build(name: &str, size: Size, dir: &Path) -> Figure {
    let e = FIGURES.iter().find(|e| e.name == name).expect(name);
    (e.build)(e.name, size, 0x0D0C_5EED, dir).expect(name)
}

fn csv_lines(path: PathBuf) -> Vec<String> {
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn table1_writes_all_formats() {
    let (out, dir) = temp_out("t1");
    build("table1", [0, 0], &dir).write(&out).unwrap();
    let csv = csv_lines(dir.join("table1.csv"));
    assert_eq!(csv.len(), 3); // header + 2 scenarios
    assert!(csv[0].starts_with("scenario,"));
    let json = fs::read_to_string(dir.join("table1.json")).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["rows"].as_array().unwrap().len(), 2);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn waste_surfaces_write_per_protocol_csvs() {
    let (out, dir) = temp_out("fig4");
    build("fig4", [5, 4], &dir).write(&out).unwrap();
    for proto in ["double-bof", "double-nbl", "triple"] {
        let lines = csv_lines(dir.join(format!("fig4_{proto}.csv")));
        assert_eq!(lines.len(), 1 + 5 * 4, "{proto}");
        assert_eq!(lines[0], "mtbf_s,phi_over_r,waste,period_s");
        // Every data row parses into 4 finite numbers.
        for line in &lines[1..] {
            let fields: Vec<f64> = line.split(',').map(|f| f.parse().unwrap()).collect();
            assert_eq!(fields.len(), 4);
            assert!(fields.iter().all(|x| x.is_finite()));
        }
    }
    assert!(dir.join("fig4.json").exists());
    assert!(dir.join("fig4_triple.txt").exists());
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn waste_ratio_csv_roundtrips() {
    let (out, dir) = temp_out("fig5");
    build("fig5", [9, 0], &dir).write(&out).unwrap();
    let lines = csv_lines(dir.join("fig5_waste_ratio.csv"));
    assert_eq!(lines.len(), 10);
    // Endpoint sanity straight from the file.
    let last: Vec<f64> = lines[9].split(',').map(|f| f.parse().unwrap()).collect();
    assert!((last[0] - 1.0).abs() < 1e-9); // phi/R = 1
    assert!((last[4] - 1.0).abs() < 1e-9); // BoF/NBL converged
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn risk_surface_writes_previews() {
    let (out, dir) = temp_out("fig6");
    build("fig6", [4, 4], &dir).write(&out).unwrap();
    let lines = csv_lines(dir.join("fig6_risk.csv"));
    assert_eq!(lines.len(), 1 + 16);
    assert!(fs::read_to_string(dir.join("fig6a_preview.txt"))
        .unwrap()
        .contains("DOUBLENBL/DOUBLEBOF"));
    assert!(dir.join("fig6b_preview.txt").exists());
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn exa_figures_generate_too() {
    let (out, dir) = temp_out("exa");
    let fig7 = build("fig7", [4, 4], &dir);
    assert!(fig7.summary.starts_with("fig7: 3 surfaces over 4×4 grid"));
    fig7.write(&out).unwrap();
    let fig8 = build("fig8", [5, 0], &dir);
    assert!(fig8.summary.starts_with("fig8: 5 points"));
    fig8.write(&out).unwrap();
    let fig9 = build("fig9", [3, 3], &dir);
    assert!(fig9.summary.starts_with("fig9: 9 grid points"));
    fig9.write(&out).unwrap();
    for f in ["fig7_triple.csv", "fig8_waste_ratio.csv", "fig9_risk.csv"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }
    for f in ["fig7.json", "fig8.json", "fig9.json"] {
        let json = fs::read_to_string(dir.join(f)).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["scenario"].as_str(), Some("Exa"), "{f}");
    }
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn period_check_report_writes_and_validates() {
    let (out, dir) = temp_out("period");
    let report = build("period-check", [0, 0], &dir);
    let rows = &report.tables[0];
    let rel_err = rows.f64s("rel_err").unwrap();
    let closed_form = serde_json::Value::String("ClosedForm".into());
    let max_interior = (0..rows.rows.len())
        .filter(|&i| rows.rows[i].last() == Some(&closed_form))
        .map(|i| rel_err[i])
        .fold(0.0, f64::max);
    assert!(max_interior > 0.0 && max_interior < 1e-3);
    report.write(&out).unwrap();
    let txt = fs::read_to_string(dir.join("period_check.txt")).unwrap();
    assert!(txt.contains("Young/Daly"));
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn json_figures_deserialize_back() {
    let (out, dir) = temp_out("json");
    let fig = build("fig5", [5, 0], &dir);
    fig.write(&out).unwrap();
    let json = fs::read_to_string(dir.join("fig5.json")).unwrap();
    let back: serde_json::Value = serde_json::from_str(&json).unwrap();
    // serde_json prints the shortest round-trippable decimal, which can
    // differ from the original by one ulp; compare within tolerance.
    assert_eq!(back["scenario"].as_str(), Some("Base"));
    let points = back["points"].as_array().unwrap();
    let t = &fig.tables[0];
    assert_eq!(points.len(), t.rows.len());
    for key in ["phi_ratio", "waste_nbl", "triple_over_nbl"] {
        let computed = t.f64s(key).unwrap();
        for (p, x) in points.iter().zip(computed) {
            let read = p[key].as_f64().unwrap();
            assert!((read - x).abs() < 1e-12, "{key}: {read} vs {x}");
        }
    }
    fs::remove_dir_all(dir).unwrap();
}
