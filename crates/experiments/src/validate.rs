//! V1 — model-vs-simulation validation.
//!
//! The paper evaluates its protocols by instantiating the analytical
//! model; this experiment closes the loop the paper leaves implicit: it
//! runs the *mechanistic* discrete-event simulator (which knows nothing
//! about Eqs. 5–16, only the per-offset failure response and the risk
//! windows) and checks that
//!
//! * the empirical waste matches `1 − (1 − F/M)(1 − Cff/P)` at the
//!   optimal period (Eqs. 5, 7, 8, 14): region `v1-waste`, judged at
//!   `4·hw`, and
//! * the empirical success probability matches Eqs. 11/16: regions
//!   `v1-risk-1d` and `v1-risk-3d`, judged on the Wilson interval
//!   `± hw + 0.05`.
//!
//! The regions are [`ConformanceSpec::v1`](crate::conformance::ConformanceSpec::v1);
//! this module renders them.

use crate::conformance::{CellStatus, ConformanceReport};
use crate::output::{fmt_f64, fmt_opt, write_table, OutputDir};

/// Renders the V1 regions of `report` as CSV, JSON and ASCII under
/// `out` and returns the ASCII.
///
/// # Errors
/// I/O errors.
pub fn write(report: &ConformanceReport, out: &OutputDir) -> std::io::Result<String> {
    let within = |s| (s == CellStatus::Pass).to_string();
    let waste: Vec<Vec<String>> = report
        .regions_named("v1-waste")
        .flat_map(|(_, r)| &r.cells)
        .map(|c| {
            vec![
                c.protocol.id(),
                fmt_f64(c.phi_ratio),
                fmt_f64(c.mtbf),
                fmt_f64(c.model),
                fmt_opt(c.sim),
                fmt_opt(c.half_width),
                fmt_opt(c.ci_units),
                within(c.status),
            ]
        })
        .collect();
    let risk: Vec<Vec<String>> = report
        .regions_named("v1-risk-")
        .flat_map(|(spec, r)| r.cells.iter().map(move |c| (spec, c)))
        .map(|(spec, c)| {
            let (p_hat, (lo, hi)) = c.proportion();
            vec![
                c.protocol.id(),
                fmt_f64(c.mtbf),
                fmt_f64(spec.work_in_mtbfs * c.mtbf),
                fmt_f64(c.model),
                fmt_f64(p_hat),
                fmt_f64(lo),
                fmt_f64(hi),
                within(c.status),
            ]
        })
        .collect();
    let headers = [
        "protocol",
        "phi_over_r",
        "mtbf_s",
        "model_waste",
        "sim_waste",
        "ci95_half_width",
        "z",
        "within",
    ];
    let waste = write_table(out, "validate_waste.csv", &headers, &waste)?;
    let headers = [
        "protocol",
        "mtbf_s",
        "horizon_s",
        "model_p",
        "sim_p",
        "wilson_lo",
        "wilson_hi",
        "within",
    ];
    let risk = write_table(out, "validate_risk.csv", &headers, &risk)?;
    out.write_json(
        "validate.json",
        &report.regions_named("v1-").collect::<Vec<_>>(),
    )?;
    let text = format!(
        "Waste: model (Eqs. 5/7/8/14) vs simulation\n{waste}\n\
         Risk: model (Eqs. 11/16) vs simulation\n{risk}\n{}",
        report.summary("v1-")
    );
    out.write_text("validate.txt", &text)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{run_conformance, ConformanceSpec};
    use dck_core::Protocol;

    #[test]
    fn fast_regions_pass_and_render_every_point() {
        let report = run_conformance(&ConformanceSpec::v1(true)).unwrap();
        assert!(report.all_pass(), "{:?}", report.failures());
        assert_eq!(report.degenerate, 0);
        // The one-day corner is genuinely risky for the double protocol.
        let (_, risk_1d) = report.regions_named("v1-risk-1d").next().unwrap();
        let double = risk_1d
            .cells
            .iter()
            .find(|c| c.protocol == Protocol::DoubleNbl);
        assert!(double.unwrap().model < 0.999);
        let dir = std::env::temp_dir().join(format!("dck-v1-{}", std::process::id()));
        let text = write(&report, &OutputDir::create(&dir).unwrap()).unwrap();
        assert!(!text.contains("false"), "{text}");
        let waste = std::fs::read_to_string(dir.join("validate_waste.csv")).unwrap();
        let risk = std::fs::read_to_string(dir.join("validate_risk.csv")).unwrap();
        // 3 protocols × 3 φ/R × 2 MTBFs, and 3 protocols × 2 horizons.
        assert_eq!(waste.lines().count(), 1 + 18);
        assert_eq!(risk.lines().count(), 1 + 6);
        assert!(
            risk.contains(",86400,") && risk.contains(",259200,"),
            "{risk}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
