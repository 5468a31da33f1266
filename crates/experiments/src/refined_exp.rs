//! E5 — higher-order model accuracy (the Daly-\[7\] refinement).
//!
//! Compares three waste estimates at the first-order-optimal period on
//! a harsh MTBF sweep: the paper's first-order Eq. 5, our refined
//! restart-aware model (`dck_core::refined`), and the mechanistic
//! Monte-Carlo simulator as ground truth. The refined model should sit
//! inside the Monte-Carlo interval where the first-order model drifts
//! out of it.
//!
//! The points are the recorded region `e5-refined` of
//! [`ConformanceSpec::e5`](crate::conformance::ConformanceSpec::e5),
//! judged at `3·hw`; this module renders it.

use crate::conformance::ConformanceReport;
use crate::output::{fmt_f64, fmt_opt, write_table, OutputDir};

/// Renders the E5 region of `report` as CSV, JSON and ASCII under
/// `out` and returns the ASCII.
///
/// # Errors
/// I/O errors.
pub fn write(report: &ConformanceReport, out: &OutputDir) -> std::io::Result<String> {
    let rows: Vec<Vec<String>> = report
        .regions_named("e5-")
        .flat_map(|(_, r)| &r.cells)
        .map(|c| {
            vec![
                c.protocol.id(),
                fmt_f64(c.mtbf),
                fmt_f64(c.period),
                fmt_f64(c.model),
                fmt_opt(c.refined),
                fmt_opt(c.sim),
                fmt_opt(c.half_width),
            ]
        })
        .collect();
    let headers = [
        "protocol",
        "mtbf_s",
        "period_s",
        "first_order_waste",
        "refined_waste",
        "sim_waste",
        "ci95_half_width",
    ];
    let table = write_table(out, "refined_model.csv", &headers, &rows)?;
    out.write_json(
        "refined_model.json",
        &report.regions_named("e5-").collect::<Vec<_>>(),
    )?;
    let text = format!(
        "Model accuracy vs Monte-Carlo ground truth (Base shape, phi = R)\n{table}\n{}",
        report.summary("e5-")
    );
    out.write_text("refined_model.txt", &text)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use crate::conformance::{run_conformance, Closer, ConformanceSpec};
    use dck_core::Protocol;

    #[test]
    fn refined_never_worse_and_strictly_better_when_harsh() {
        let report = run_conformance(&ConformanceSpec::e5(true)).unwrap();
        let (region, e5) = report.regions_named("e5-refined").next().unwrap();
        assert_eq!(e5.cells.len(), 10);
        for c in &e5.cells {
            // Refined is at least as accurate, up to two half-widths of
            // Monte-Carlo noise.
            let (first, refined) = (c.ci_units.unwrap(), c.refined_ci_units.unwrap());
            assert!(refined <= first + 2.0, "{c:?}");
        }
        // At the harshest point the refined model sits inside the
        // region's tolerance and the first-order one does not.
        let harsh = e5
            .cells
            .iter()
            .find(|c| c.protocol == Protocol::DoubleNbl && c.mtbf == 60.0)
            .unwrap();
        let (sim, hw) = (harsh.sim.unwrap(), harsh.half_width.unwrap());
        assert!(
            region.tolerance.admits(harsh.refined.unwrap(), sim, hw),
            "{harsh:?}"
        );
        assert!(!region.tolerance.admits(harsh.model, sim, hw), "{harsh:?}");
        let refined_error = (harsh.refined.unwrap() - sim).abs();
        let first_order_error = (harsh.model - sim).abs();
        assert!(
            refined_error < 0.3 * first_order_error,
            "refined {refined_error} vs first-order {first_order_error}"
        );
        assert_eq!(harsh.closer, Some(Closer::Refined));
        assert!(e5.refined_closer >= 8, "{}", e5.refined_closer);
    }
}
