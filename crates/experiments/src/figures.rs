//! The closed-form figures and tables: Table I, Figs. 4–9, V2 and
//! E2–E4, as the rows of one [`FIGURES`] registry.
//!
//! An entry holds its grid sizes at `--fast` and at full size and its
//! builder. A builder walks its grid axes, evaluates the model at each
//! point into a [`Table`] row, and renders the figure's files from its
//! tables: CSV, JSON, text tables or heatmaps, and a gnuplot script
//! filled in from one of the templates at the end of this module.

use crate::output::ascii_heatmap;
use crate::table::{obj, Col, Figure, Fmt, Table};
use dck_core::{
    daly_period, numeric_optimal_period, optimal_operating_point, optimal_period, young_period,
    CentralizedModel, GlobalStore, HierarchicalModel, ModelError, PeriodSource, PlatformParams,
    Protocol, RiskModel, Scenario,
};
use dck_failures::{AggregatedExponential, MtbfSpec};
use dck_sim::hierarchical::{run_hierarchical, HierarchicalRunConfig};
use dck_sim::{PeriodChoice, RunConfig};
use dck_simcore::{OnlineStats, RngFactory, SimTime};
use serde::{Serialize, Value};
use std::path::Path;

/// A table's columns, one per line: JSON key, CSV header, CSV
/// [`Fmt`], text header, text [`Fmt`].
macro_rules! cols {
    ($($key:literal $csv:literal $cf:ident $text:literal $tf:ident),* $(,)?) => {
        &[$(Col { key: $key, csv: ($csv, Fmt::$cf), text: ($text, Fmt::$tf) }),*]
    };
}

/// A table row: each value as JSON.
macro_rules! cells {
    ($($x:expr),* $(,)?) => {
        vec![$(Serialize::to_value(&$x)),*]
    };
}

/// The MTBF pinned by Figs. 5 and 8: 7 hours.
pub const M_7H: f64 = 7.0 * 3600.0;

/// Grid sizes: one or two axis lengths, or a replication count.
pub type Size = [usize; 2];

type Res<T> = Result<T, ModelError>;

/// A builder: `build(name, size, seed, dir)` is the figure `name` at a
/// grid size and seed; `dir` only names where the summary says the
/// files go.
pub type Build = fn(&str, Size, u64, &Path) -> Res<Figure>;

/// One closed-form experiment of `dck experiments`.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Its name, as [`crate::ALL`] lists it.
    pub name: &'static str,
    /// Grid sizes at `--fast`.
    pub fast: Size,
    /// Grid sizes at full size.
    pub full: Size,
    /// Its builder.
    pub build: Build,
}

const fn entry(name: &'static str, fast: Size, full: Size, build: Build) -> Experiment {
    Experiment {
        name,
        fast,
        full,
        build,
    }
}

/// Every closed-form experiment, in the order `all` runs them.
pub const FIGURES: &[Experiment] = &[
    entry("table1", [0, 0], [0, 0], table1),
    entry("fig4", [9, 9], [33, 21], waste_surface),
    entry("fig5", [11, 0], [41, 0], waste_ratio),
    entry("fig6", [10, 10], [30, 30], risk_surface),
    entry("fig7", [9, 9], [33, 21], waste_surface),
    entry("fig8", [11, 0], [41, 0], waste_ratio),
    entry("fig9", [10, 10], [30, 30], risk_surface),
    entry("period-check", [0, 0], [0, 0], period_check),
    entry("phi-choice", [8, 0], [17, 0], phi_choice),
    entry("blocking-gain", [8, 0], [17, 0], blocking_gain),
    entry("hierarchical", [12, 0], [40, 0], hierarchical),
];

fn figure(tables: Vec<Table>, files: Vec<(String, String)>, summary: String) -> Res<Figure> {
    Ok(Figure {
        tables,
        files,
        summary,
    })
}

/// Figs. 4–6 are drawn on `Base`, Figs. 7–9 on `Exa`.
fn scenario(name: &str) -> Scenario {
    match name {
        "fig4" | "fig5" | "fig6" => Scenario::base(),
        _ => Scenario::exa(),
    }
}

/// A gnuplot template with `{fig}` (the figure number) and
/// `{scenario}` filled in.
fn gnuplot(template: &str, name: &str, scenario: &str) -> String {
    let fig = name.trim_start_matches("fig");
    template
        .replace("{fig}", fig)
        .replace("{scenario}", scenario)
}

/// Pretty-printed JSON, as `OutputDir::write_json` prints it.
fn pretty(doc: &Value) -> String {
    serde_json::to_string_pretty(doc).unwrap_or_default()
}

/// The waste at the optimal period P* (Eqs. 9/10/15).
fn waste_at_pstar(p: Protocol, params: &PlatformParams, phi: f64, m: f64) -> Res<f64> {
    Ok(optimal_period(p, params, phi, m)?.waste.total)
}

/// A report of `parts` (JSON key, text title, table): `{stem}.csv` of
/// the first table, `{stem}.json` with one key per table, and
/// `{stem}.txt` with each table under its title. The summary is the
/// text, then `tail` if there is one.
fn report(stem: &str, parts: Vec<(&str, &str, Table)>, tail: Option<String>) -> Res<Figure> {
    let csv = parts.first().map(|(_, _, t)| t.csv());
    let doc = obj(parts.iter().map(|(key, _, t)| (*key, t.json())));
    let mut texts = Vec::new();
    for (_, title, t) in &parts {
        texts.push(format!("{title}{}", t.text()));
    }
    let text = texts.join("\n");
    let summary = tail.map_or(text.clone(), |tail| format!("{text}\n{tail}"));
    let files = vec![
        (format!("{stem}.csv"), csv.unwrap_or_default()),
        (format!("{stem}.json"), pretty(&doc)),
        (format!("{stem}.txt"), text),
    ];
    let tables = parts.into_iter().map(|(_, _, t)| t).collect();
    figure(tables, files, summary)
}

const TABLE1: &[Col] = cols![
    "scenario" "scenario" Plain "Scenario" Plain,
    "downtime" "D"        Plain "D"        Plain,
    "delta"    "delta"    Plain "delta"    Plain,
    "phi_max"  "phi_max"  Plain ""         Plain,
    ""         ""         Plain "phi"      Plain,
    "recovery" "R"        Plain "R"        Plain,
    "alpha"    "alpha"    Plain "alpha"    Plain,
    "nodes"    "n"        Plain "n"        Plain,
];

/// T1 — Table I: the evaluation scenarios.
fn table1(_: &str, _: Size, _: u64, _: &Path) -> Res<Figure> {
    let mut t = Table::new(TABLE1);
    for s in Scenario::all() {
        let (p, d, r) = (s.params, s.params.downtime, s.params.recovery());
        let phi = format!("0 <= phi <= {}", s.phi_max);
        let row = cells![s.name, d, p.delta, s.phi_max, phi, r, p.alpha, p.nodes];
        t.push(row);
    }
    report("table1", vec![("rows", "", t)], None)
}

const SURFACE: &[Col] = cols![
    "mtbf"      "mtbf_s"     G "" G,
    "phi_ratio" "phi_over_r" G "" G,
    "waste"     "waste"      G "" G,
    "period"    "period_s"   G "" G,
];

/// F4 / F7 — waste at the model-optimal period over log-spaced
/// `M ∈ [15 s, 1 day]` × `φ/R ∈ [0, 1]`: one table per evaluated
/// protocol (DOUBLEBOF, DOUBLENBL and TRIPLE: subfigures a–c).
fn waste_surface(name: &str, [m_n, phi_n]: Size, _: u64, dir: &Path) -> Res<Figure> {
    let s = scenario(name);
    // "From 15s, where no progress happens for any protocol, up to
    // 1 day, where the waste is almost 0 for all".
    let mtbfs = Scenario::mtbf_sweep(15.0, 86_400.0, m_n);
    let phis: Vec<f64> = (0..phi_n).map(|i| i as f64 / (phi_n - 1) as f64).collect();
    let (mut tables, mut files, mut surfaces) = (Vec::new(), Vec::new(), Vec::new());
    for protocol in Protocol::EVALUATED {
        let mut t = Table::new(SURFACE);
        for &m in &mtbfs {
            for &ratio in &phis {
                let phi = ratio * s.params.theta_min;
                let e = optimal_period(protocol, &s.params, phi, m)?;
                t.push(cells![m, ratio, e.waste.total, e.period]);
            }
        }
        let (id, heatmap) = (protocol.id(), ascii_heatmap(&t.matrix("waste", phi_n)));
        let title = format!("{protocol} waste surface, scenario {}", s.name);
        let axes = "(rows: MTBF 15s->1day, cols: phi/R 0->1)";
        files.push((format!("{name}_{id}.csv"), t.csv()));
        let text = format!("{title} {axes}\n{heatmap}");
        files.push((format!("{name}_{id}.txt"), text));
        let points = t.json();
        surfaces.push(obj([("protocol", protocol.to_value()), ("points", points)]));
        tables.push(t);
    }
    let doc = obj([
        ("scenario", s.name.to_value()),
        ("mtbf_grid", mtbfs.to_value()),
        ("phi_grid", phis.to_value()),
        ("surfaces", Value::Array(surfaces)),
    ]);
    let gp = gnuplot(WASTE_SURFACE_GP, name, &s.name);
    files.push((format!("{name}.json"), pretty(&doc)));
    files.push((format!("{name}.gp"), gp));
    let (grid, dir) = (format!("{m_n}×{phi_n} grid"), dir.display());
    let summary = format!("{name}: 3 surfaces over {grid} written to {dir}");
    figure(tables, files, summary)
}

const RATIO: &[Col] = cols![
    "phi_ratio"       "phi_over_r"       G "" G,
    "waste_nbl"       "waste_double_nbl" G "" G,
    "waste_bof"       "waste_double_bof" G "" G,
    "waste_triple"    "waste_triple"     G "" G,
    "bof_over_nbl"    "bof_over_nbl"     G "" G,
    "triple_over_nbl" "triple_over_nbl"  G "" G,
];

/// F5 / F8 — the waste of DOUBLEBOF and TRIPLE relative to DOUBLENBL
/// at `M = 7 h`, over `n` samples of `φ/R ∈ [0, 1]`.
fn waste_ratio(name: &str, [n, _]: Size, _: u64, _: &Path) -> Res<Figure> {
    let s = scenario(name);
    let mut t = Table::new(RATIO);
    let (mut bof_nbl, mut tri_nbl) = (f64::NAN, f64::NAN);
    for i in 0..n {
        let ratio = i as f64 / (n - 1) as f64;
        let phi = ratio * s.params.theta_min;
        let waste = |p| waste_at_pstar(p, &s.params, phi, M_7H);
        let nbl = waste(Protocol::DoubleNbl)?;
        let (bof, tri) = (waste(Protocol::DoubleBof)?, waste(Protocol::Triple)?);
        (bof_nbl, tri_nbl) = (bof / nbl, tri / nbl);
        t.push(cells![ratio, nbl, bof, tri, bof_nbl, tri_nbl]);
    }
    let doc = obj([
        ("scenario", s.name.to_value()),
        ("mtbf", M_7H.to_value()),
        ("points", t.json()),
    ]);
    let gp = gnuplot(WASTE_RATIO_GP, name, &s.name);
    let files = vec![
        (format!("{name}_waste_ratio.csv"), t.csv()),
        (format!("{name}.json"), pretty(&doc)),
        (format!("{name}.gp"), gp),
    ];
    let last = format!("BoF/NBL={bof_nbl:.4}, Triple/NBL={tri_nbl:.4}");
    let summary = format!("{name}: {n} points; at phi/R=1: {last}");
    figure(vec![t], files, summary)
}

const RISK: &[Col] = cols![
    "mtbf"         "mtbf_s"          G "" G,
    "exploitation" "exploitation_s"  G "" G,
    "p_nbl"        "p_double_nbl"    G "" G,
    "p_bof"        "p_double_bof"    G "" G,
    "p_triple"     "p_triple"        G "" G,
    ""             "nbl_over_bof"    G "" G,
    ""             "bof_over_triple" G "" G,
    ""             "nbl_over_triple" G "" G,
];

/// F6 / F9 — success probabilities (Eqs. 11/16) and their ratios over
/// MTBF × platform exploitation time, with the transfer stretch at its
/// maximum `θ = (α+1)·R`: `M ∈ (0, 30] min` × 1–30 days on `Base`,
/// `M ∈ (0, 60] min` × up to 60 weeks on `Exa`.
///
/// Subfigure (a) is `DOUBLENBL / DOUBLEBOF` (≤ 1: BoF is safer). The
/// caption of (b) says `DOUBLEBOF / TRIPLE` but the text compares TRIPLE
/// with DOUBLENBL, so the CSV holds all three ratios (EXPERIMENTS.md).
fn risk_surface(name: &str, [m_n, t_n]: Size, _: u64, dir: &Path) -> Res<Figure> {
    let s = scenario(name);
    let (m_max_min, t_unit, t_max_units, unit) = match s.name.as_str() {
        "Base" => (30.0, 86_400.0, 30.0, "days"),
        _ => (60.0, 7.0 * 86_400.0, 60.0, "weeks"),
    };
    let mtbf = |i: usize| 60.0 * m_max_min * i as f64 / m_n as f64;
    let life = |i: usize| t_unit * t_max_units * i as f64 / t_n as f64;
    let mtbfs: Vec<f64> = (1..=m_n).map(mtbf).collect();
    let lives: Vec<f64> = (1..=t_n).map(life).collect();
    let theta = s.params.theta_max();
    let model = |p| RiskModel::with_theta(p, &s.params, theta);
    let nbl = model(Protocol::DoubleNbl)?;
    let (bof, tri) = (model(Protocol::DoubleBof)?, model(Protocol::Triple)?);
    let mut t = Table::new(RISK);
    for &m in &mtbfs {
        for &life in &lives {
            let p = |rm: &RiskModel| Res::Ok(rm.success_probability(m, life)?.probability);
            let (n, b, t3) = (p(&nbl)?, p(&bof)?, p(&tri)?);
            let (nb, bt, nt) = (safe_ratio(n, b), safe_ratio(b, t3), safe_ratio(n, t3));
            t.push(cells![m, life, n, b, t3, nb, bt, nt]);
        }
    }
    let fig = name.trim_start_matches("fig");
    let preview = |sub: &str, ratio: &str, key: &str| {
        let title = format!("Fig {fig}{sub}: {ratio} success ratio");
        let heatmap = ascii_heatmap(&t.matrix(key, t_n));
        let text = format!("{title} (rows: MTBF asc, cols: T asc)\n{heatmap}");
        (format!("{name}{sub}_preview.txt"), text)
    };
    let doc = obj([
        ("scenario", s.name.to_value()),
        ("mtbf_grid", mtbfs.to_value()),
        ("exploitation_grid", lives.to_value()),
        ("points", t.json()),
        ("theta", theta.to_value()),
    ]);
    let axis = RISK_SURFACE_GP.replace("{unit}", unit);
    let gp = gnuplot(&axis.replace("{secs}", &t_unit.to_string()), name, &s.name);
    let files = vec![
        (format!("{name}_risk.csv"), t.csv()),
        preview("a", "DOUBLENBL/DOUBLEBOF", "nbl_over_bof"),
        preview("b", "DOUBLEBOF/TRIPLE", "bof_over_triple"),
        (format!("{name}.json"), pretty(&doc)),
        (format!("{name}.gp"), gp),
    ];
    let (points, dir) = (t.rows.len(), dir.display());
    let summary = format!("{name}: {points} grid points written to {dir}");
    figure(vec![t], files, summary)
}

/// `a / b` for probabilities: 1 when both are 0, ∞ when only `b` is.
fn safe_ratio(a: f64, b: f64) -> f64 {
    // Exact zeros, told apart without a float `==`.
    use std::num::FpCategory::Zero;
    match (a.classify(), b.classify()) {
        (Zero, Zero) => 1.0,
        (_, Zero) => f64::INFINITY,
        _ => a / b,
    }
}

const PERIODS: &[Col] = cols![
    "scenario"    "scenario"      Plain "scenario" Plain,
    "protocol"    "protocol"      Id    "protocol" Paper,
    "phi_ratio"   "phi_over_r"    G     "phi/R"    G,
    "mtbf"        "mtbf_s"        G     "M_s"      G,
    "closed_form" "closed_form_s" G     "closed"   G,
    "numeric"     "numeric_s"     G     "numeric"  G,
    "rel_err"     "rel_err"       E3    "rel_err"  E2,
    "waste"       "waste"         G     ""         G,
    "source"      "source"        Plain "source"   Plain,
];

const BASELINE: &[Col] = cols![
    "scenario"          "" Plain "scenario"      Plain,
    "mtbf"              "" G     "M_s"           G,
    "centralized_c"     "" G     "C_s"           G,
    "young"             "" G     "young"         G,
    "daly"              "" G     "daly"          G,
    "centralized_waste" "" G     "central_waste" G,
    "buddy_waste"       "" G     "buddy_waste"   G,
];

/// V2 — the closed-form periods (Eqs. 9/10/15) against a golden-section
/// minimizer of the exact waste, and buddy checkpointing against the
/// centralized Young/Daly baseline.
fn period_check(_: &str, _: Size, _: u64, _: &Path) -> Res<Figure> {
    let (mut rows, mut baseline) = (Table::new(PERIODS), Table::new(BASELINE));
    let mut max_interior = 0.0_f64;
    for s in Scenario::all() {
        let (name, params) = (s.name.as_str(), &s.params);
        for protocol in Protocol::EVALUATED {
            for phi_ratio in [0.0, 0.25, 0.5, 0.75, 1.0] {
                for mtbf in [600.0, 3_600.0, 7.0 * 3_600.0, 86_400.0] {
                    let phi = phi_ratio * params.theta_min;
                    let closed = optimal_period(protocol, params, phi, mtbf)?;
                    let numeric = numeric_optimal_period(protocol, params, phi, mtbf)?.period;
                    let (period, waste) = (closed.period, closed.waste.total);
                    let rel_err = (period - numeric).abs() / period.max(1e-9);
                    if closed.source == PeriodSource::ClosedForm {
                        max_interior = max_interior.max(rel_err);
                    }
                    let row = cells![name, protocol, phi_ratio, mtbf, period, numeric, rel_err];
                    rows.push([row, cells![waste, format!("{:?}", closed.source)]].concat());
                }
            }
        }
        // Centralized checkpointing of the whole application through
        // shared stable storage, charged only 100 node images' worth of
        // time: optimistic, and it still loses clearly.
        let c = params.delta * 100.0;
        let central = CentralizedModel::new(c, params.downtime, c)?;
        for mtbf in [3_600.0, 7.0 * 3_600.0, 86_400.0] {
            let phi = 0.25 * params.theta_min;
            let buddy = waste_at_pstar(Protocol::DoubleNbl, params, phi, mtbf)?;
            let young = young_period(mtbf, c);
            let daly = daly_period(mtbf, c, params.downtime, c);
            let central = central.waste_at_daly(mtbf)?;
            baseline.push(cells![name, mtbf, c, young, daly, central, buddy]);
        }
    }
    let title1 = "Closed-form (Eqs. 9/10/15) vs numeric optimum\n";
    let title2 = "Young/Daly centralized baseline vs buddy checkpointing\n";
    let parts = vec![("rows", title1, rows), ("baseline", title2, baseline)];
    let tail = format!("max interior closed-form vs numeric rel. err: {max_interior:.2e}");
    report("period_check", parts, Some(tail))
}

const PHI_CHOICE: &[Col] = cols![
    "scenario"           "scenario"           Plain "scenario"     Plain,
    "protocol"           "protocol"           Id    "protocol"     Paper,
    "mtbf"               "mtbf_s"             G     "M_s"          G,
    "phi_star"           "phi_star"           G     "phi*"         G,
    "phi_ratio"          "phi_star_over_r"    G     "phi*/R"       F2,
    "waste_opt"          "waste_opt"          G     "waste*"       F4,
    "waste_full_overlap" "waste_full_overlap" G     "waste(phi=0)" F4,
    "waste_blocking"     "waste_blocking"     G     "waste(phi=R)" F4,
];

/// E3 — the waste-optimal overhead φ* per scenario, protocol and MTBF,
/// against the two fixed policies the paper evaluates: full overlap
/// (`φ = 0`) and fully blocking (`φ = R`).
fn phi_choice(_: &str, [n, _]: Size, _: u64, _: &Path) -> Res<Figure> {
    let mut t = Table::new(PHI_CHOICE);
    // The largest relative gain of tuning over the better fixed policy.
    let mut max_gain = 0.0_f64;
    for s in Scenario::all() {
        let (name, params) = (s.name.as_str(), &s.params);
        for protocol in Protocol::EVALUATED {
            for m in Scenario::mtbf_sweep(60.0, 86_400.0, n) {
                let op = optimal_operating_point(protocol, params, m)?;
                let full = waste_at_pstar(protocol, params, 0.0, m)?;
                let blocking = waste_at_pstar(protocol, params, params.theta_min, m)?;
                let (phi, opt) = (op.phi, op.waste.total);
                if opt > 0.0 && opt < 1.0 {
                    max_gain = max_gain.max(1.0 - opt / full.min(blocking));
                }
                let ratio = phi / params.theta_min;
                t.push(cells![name, protocol, m, phi, ratio, opt, full, blocking]);
            }
        }
    }
    let gain = 100.0 * max_gain;
    let tail = format!("max gain of tuning phi over the better fixed policy: {gain:.1}%");
    report("phi_choice", vec![("rows", "", t)], Some(tail))
}

const BLOCKING: &[Col] = cols![
    "scenario"          "scenario"          Plain "scenario"        Plain,
    "mtbf"              "mtbf_s"            G     "M_s"             G,
    "waste_blocking"    "waste_blocking"    G     "W blocking"      F4,
    "waste_nbl_half"    "waste_nbl_half"    G     "W nbl (phi=R/2)" F4,
    "waste_nbl_full"    "waste_nbl_full"    G     "W nbl (phi=0)"   F4,
    "gain_full_overlap" "gain_full_overlap" G     "gain"            Pct,
    "risk_blocking"     "risk_blocking_s"   G     "risk blk (s)"    F0,
    "risk_nbl_full"     "risk_nbl_full_s"   G     "risk nbl (s)"    F0,
];

/// E2 — the original blocking double checkpointing \[1\] against
/// DOUBLENBL \[2\] at full and half overlap across the MTBF axis, with
/// the risk window each pays (`D + 2R` against `D + R + θ`).
fn blocking_gain(_: &str, [n, _]: Size, _: u64, _: &Path) -> Res<Figure> {
    let (blk, nbl) = (Protocol::DoubleBlocking, Protocol::DoubleNbl);
    let mut t = Table::new(BLOCKING);
    let mut max_gain = 0.0_f64;
    for s in Scenario::all() {
        let (name, params, r) = (s.name.as_str(), &s.params, s.params.theta_min);
        let risk = |p, phi| Res::Ok(RiskModel::new(p, params, phi)?.risk_window());
        let (risk_blk, risk_nbl) = (risk(blk, r)?, risk(nbl, 0.0)?);
        for m in Scenario::mtbf_sweep(60.0, 86_400.0, n) {
            let blocking = waste_at_pstar(blk, params, r, m)?;
            let half = waste_at_pstar(nbl, params, 0.5 * r, m)?;
            let full = waste_at_pstar(nbl, params, 0.0, m)?;
            let inside = blocking > 0.0 && blocking < 1.0;
            let gain = if inside { 1.0 - full / blocking } else { 0.0 };
            max_gain = max_gain.max(gain);
            let row = cells![name, m, blocking, half, full, gain, risk_blk, risk_nbl];
            t.push(row);
        }
    }
    let title = "Blocking [1] vs non-blocking [2] double checkpointing\n";
    let gain = 100.0 * max_gain;
    let tail = format!("max gain of full overlap over the blocking protocol: {gain:.1}%");
    report("blocking_gain", vec![("rows", title, t)], Some(tail))
}

const TWO_LEVEL: &[Col] = cols![
    "protocol"           "protocol"           Id    "protocol"      Paper,
    "mtbf"               "mtbf_s"             G     "M_s"           G,
    "level1_waste"       "level1_waste"       G     "L1 waste"      F4,
    "level1_success_30d" "level1_success_30d" G     "L1 P(30d)"     F6,
    "k_star"             "k_star"             Plain "K*"            Plain,
    "segment"            "segment_s"          G     "segment_s"     F0,
    "two_level_waste"    "two_level_waste"    G     "2-level waste" F4,
    "rollbacks_per_30d"  "rollbacks_per_30d"  G     "rollbacks/30d" F2,
];

const SPOT_CHECKS: &[Col] = cols![
    "protocol"       "" Id    "protocol"        Paper,
    "mtbf"           "" G     "M_s"             G,
    "k"              "" Plain "K"               Plain,
    "model_waste"    "" G     "model"           F4,
    "sim_waste"      "" G     ""                G,
    "std_error"      "" G     ""                G,
    ""               "" G     "sim (mean ± se)" Plain,
    "mean_rollbacks" "" G     "rollbacks/run"   F2,
];

/// E4 — two-level checkpointing (§VIII future work) on `Base` at
/// `φ = R`, with a global store of `Cg = Rg = 10 min`: level-1 waste and
/// 30-day success probability against the optimally tuned two-level
/// waste, and a Monte-Carlo spot check of the two-level model with
/// `reps` runs per protocol.
fn hierarchical(_: &str, [reps, _]: Size, seed: u64, _: &Path) -> Res<Figure> {
    let params = Scenario::base().params;
    let (phi, month) = (params.theta_min, 30.0 * 86_400.0);
    let store = GlobalStore::new(600.0, 600.0)?;
    let mut rows = Table::new(TWO_LEVEL);
    for protocol in Protocol::EVALUATED {
        for mtbf in [60.0, 300.0, 1_800.0] {
            let level1 = waste_at_pstar(protocol, &params, phi, mtbf)?;
            let risk = RiskModel::new(protocol, &params, phi)?;
            let success = risk.success_probability(mtbf, month)?.probability;
            let model = HierarchicalModel::new(protocol, &params, phi, store)?;
            let best = model.optimal(mtbf, 10_000_000)?;
            let (k, seg, w2) = (best.periods_per_global, best.segment, best.waste);
            let lost = best.fatal_rate * month;
            rows.push(cells![protocol, mtbf, level1, success, k, seg, w2, lost]);
        }
    }

    // The spot check runs on a small platform: waste does not depend on
    // n, and model and simulator both take the fatal rate at that n. A
    // small pinned K makes each run span many segments, since the
    // model's per-segment amortization only compares with runs that
    // hold several (K* can exceed the whole run).
    let mut spots = Table::new(SPOT_CHECKS);
    let mut small = params;
    small.nodes = 96;
    let (m, k) = (300.0, 100);
    for protocol in [Protocol::DoubleNbl, Protocol::Triple] {
        let model = HierarchicalModel::new(protocol, &small, phi, store)?;
        let model_waste = model.evaluate(k, m)?.waste;
        let mut inner = RunConfig::new(protocol, small, phi, m);
        inner.period = PeriodChoice::Optimal;
        let nodes = inner.usable_nodes();
        let cfg = HierarchicalRunConfig {
            inner,
            store,
            periods_per_global: k,
            max_rollbacks: 100_000,
        };
        let mtbf = SimTime::seconds(m * small.nodes as f64);
        let spec = MtbfSpec::Individual { mtbf, nodes };
        let (mut waste, mut rollbacks) = (OnlineStats::new(), OnlineStats::new());
        for i in 0..reps {
            let rng = RngFactory::new(seed).component_stream("hier", i as u64);
            let mut source = AggregatedExponential::new(spec, rng);
            let out = run_hierarchical(&cfg, 300.0 * m, &mut source)?;
            if out.completed {
                waste.push(out.waste());
                rollbacks.push(out.fatal_rollbacks as f64);
            }
        }
        let (sim, se, lost) = (waste.mean(), waste.std_error(), rollbacks.mean());
        let text = format!("{sim:.4} ± {se:.4}");
        spots.push(cells![protocol, m, k, model_waste, sim, se, text, lost]);
    }
    let two_level = "Two-level checkpointing on Base (phi = R, Cg = Rg = 10 min)\n";
    let spot = "Monte-Carlo spot check (96 nodes, M = 5 min)\n";
    let parts = vec![("rows", two_level, rows), ("spot_checks", spot, spots)];
    report("hierarchical", parts, None)
}

/// Figs. 4 and 7: the three waste surfaces over log-MTBF × φ/R.
const WASTE_SURFACE_GP: &str = "\
# Figure {fig} ({scenario}): waste at the optimal period.
# Render with: gnuplot fig{fig}.gp
set terminal pngcairo size 1500,520 enhanced
set output 'fig{fig}.png'
set multiplot layout 1,3
set logscale x
set xlabel 'M (s)'
set ylabel 'phi/R'
set zlabel 'Waste'
set zrange [0:1]
set cbrange [0:1]
set xtics ('1min' 60, '10min' 600, '1h' 3600, '4h' 14400, '1day' 86400)
set datafile separator ','
set hidden3d
set dgrid3d 33,21
set title 'DOUBLEBOF'
splot 'fig{fig}_double-bof.csv' skip 1 using 1:2:3 with lines notitle
set title 'DOUBLENBL'
splot 'fig{fig}_double-nbl.csv' skip 1 using 1:2:3 with lines notitle
set title 'TRIPLE'
splot 'fig{fig}_triple.csv' skip 1 using 1:2:3 with lines notitle
unset multiplot
";

/// Figs. 5 and 8: the two ratio curves over φ/R.
const WASTE_RATIO_GP: &str = "\
# Figure {fig} ({scenario}): waste relative to DOUBLENBL at M = 7h.
set terminal pngcairo size 800,560 enhanced
set output 'fig{fig}.png'
set datafile separator ','
set xlabel 'phi/R'
set ylabel 'Waste Ratio'
set key top left
set grid
plot 'fig{fig}_waste_ratio.csv' skip 1 using 1:5 with lines lw 2 title 'DoubleBoF/DoubleNBL', \\
     '' skip 1 using 1:6 with lines lw 2 title 'Triple/DoubleNBL', 1 with lines dt 2 lc 'gray' notitle
";

/// Figs. 6 and 9: the two success-probability ratio surfaces.
const RISK_SURFACE_GP: &str = "\
# Figure {fig} ({scenario}): relative success probabilities, theta = (alpha+1)R.
set terminal pngcairo size 1100,520 enhanced
set output 'fig{fig}.png'
set multiplot layout 1,2
set datafile separator ','
set xlabel 'M (minutes)'
set ylabel 'Platform Exploitation ({unit})'
set zrange [0:1]
set cbrange [0:1]
set dgrid3d 30,30
set hidden3d
set title 'DOUBLENBL / DOUBLEBOF success probability'
splot 'fig{fig}_risk.csv' skip 1 using ($1/60):($2/{secs}):6 with lines notitle
set title 'DOUBLEBOF / TRIPLE success probability'
splot 'fig{fig}_risk.csv' skip 1 using ($1/60):($2/{secs}):7 with lines notitle
unset multiplot
";

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::from_str;

    /// The registry's figure `name` at `size`, with the E4 seed.
    fn build(name: &str, size: Size) -> Figure {
        let e = FIGURES.iter().find(|e| e.name == name).expect(name);
        (e.build)(e.name, size, 0xE4, Path::new(".")).expect(name)
    }

    fn col(t: &Table, key: &str) -> Vec<f64> {
        t.f64s(key).expect(key)
    }

    fn file<'f>(fig: &'f Figure, name: &str) -> &'f str {
        let found = fig.files.iter().find(|(n, _)| n == name);
        found.map(|(_, text)| text.as_str()).expect(name)
    }

    fn json(fig: &Figure, name: &str) -> Value {
        from_str(file(fig, name)).unwrap()
    }

    // T1 — Table I.

    #[test]
    fn matches_paper_table1() {
        let fig = build("table1", [0, 0]);
        let t = &fig.tables[0];
        assert_eq!(t.rows.len(), 2);
        let (base, exa) = (&t.rows[0], &t.rows[1]);
        assert_eq!(base[0], "Base".to_value());
        assert_eq!(col(t, "downtime"), [0.0, 60.0]);
        let (delta, recovery) = (col(t, "delta"), col(t, "recovery"));
        assert!((delta[0] - 2.0).abs() < 1e-12);
        assert!((recovery[0] - 4.0).abs() < 1e-12);
        assert_eq!(col(t, "alpha")[0], 10.0);
        assert_eq!(col(t, "nodes")[0], (324 * 32) as f64);

        assert_eq!(exa[0], "Exa".to_value());
        assert!((delta[1] - 30.0).abs() < 1e-9);
        assert!((recovery[1] - 60.0).abs() < 1e-9);
        assert_eq!(col(t, "nodes")[1], 1_000_000.0);
    }

    #[test]
    fn ascii_contains_both_scenarios() {
        let text = build("table1", [0, 0]).summary;
        assert!(text.contains("Base"));
        assert!(text.contains("Exa"));
        assert!(text.contains("1000000"));
        assert!(text.contains("| 0 <= phi <= 4  |"), "{text}");
    }

    // F4 / F7 — waste surfaces.

    const SMALL_SURFACE: Size = [7, 5];

    #[test]
    fn surfaces_cover_grid_for_all_protocols() {
        let fig = build("fig4", SMALL_SURFACE);
        assert!(fig.files.iter().any(|(n, _)| n == "fig4.json"));
        assert_eq!(fig.tables.len(), 3);
        for t in &fig.tables {
            assert_eq!(t.rows.len(), 7 * 5);
            for w in col(t, "waste") {
                assert!((0.0..=1.0).contains(&w), "waste {w}");
            }
            assert!(col(t, "period").iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn no_progress_at_15s_and_tiny_waste_at_1day() {
        // The paper's axis endpoints: waste ≈ 1 at M = 15 s, ≈ 0 at 1 day.
        let fig = build("fig4", SMALL_SURFACE);
        for (t, p) in fig.tables.iter().zip(Protocol::EVALUATED) {
            let z = t.matrix("waste", 5);
            let first_row_max = z[0].iter().cloned().fold(0.0, f64::max);
            // At M = 15 s the double protocols are saturated; TRIPLE at
            // φ ≈ 0 can still progress a little, but most of the row is
            // heavy waste.
            assert!(first_row_max > 0.9, "{p}: {first_row_max}");
            let last_row_max = z.last().unwrap().iter().cloned().fold(0.0, f64::max);
            assert!(last_row_max < 0.1, "{p}: {last_row_max}");
        }
    }

    #[test]
    fn waste_decreases_with_mtbf() {
        let fig = build("fig4", SMALL_SURFACE);
        for (t, p) in fig.tables.iter().zip(Protocol::EVALUATED) {
            let z = t.matrix("waste", 5);
            // At fixed φ/R, waste is non-increasing in M.
            for c in 0..5 {
                for w in z.windows(2) {
                    assert!(w[1][c] <= w[0][c] + 1e-9, "{p}: col {c}");
                }
            }
        }
    }

    #[test]
    fn triple_benefits_most_from_low_phi() {
        // §VI: "TRIPLE takes a higher benefit of a low value of φ".
        let fig = build("fig4", SMALL_SURFACE);
        let z: Vec<Vec<Vec<f64>>> = fig.tables.iter().map(|t| t.matrix("waste", 5)).collect();
        // At the largest MTBF row, TRIPLE's φ=0 waste is far below the
        // doubles'.
        let last = 7 - 1;
        let (bof, nbl, tri) = (z[0][last][0], z[1][last][0], z[2][last][0]);
        assert!(tri < nbl && tri < bof, "tri {tri}, nbl {nbl}, bof {bof}");
        assert!(tri < 0.5 * nbl, "tri {tri} vs nbl {nbl}");
    }

    #[test]
    fn exa_surface_runs() {
        let fig = build("fig7", SMALL_SURFACE);
        assert!(fig.files.iter().any(|(n, _)| n == "fig7.json"));
        assert_eq!(fig.tables.len(), 3);
        assert_eq!(json(&fig, "fig7.json")["scenario"], "Exa".to_value());
    }

    // F5 / F8 — waste ratios.

    #[test]
    fn base_shape_matches_figure5() {
        let fig = build("fig5", [21, 0]);
        assert!(fig.files.iter().any(|(n, _)| n == "fig5.json"));
        let t = &fig.tables[0];
        let (phi, bof, tri) = (
            col(t, "phi_ratio"),
            col(t, "bof_over_nbl"),
            col(t, "triple_over_nbl"),
        );

        // (i) BoF never beats NBL, and they converge at φ/R = 1.
        for (r, p) in bof.iter().zip(&phi) {
            assert!(*r >= 1.0 - 1e-9, "at {p}");
        }
        assert!((bof[20] - 1.0).abs() < 1e-9);

        // (ii) TRIPLE wins by a lot at low φ/R…
        assert!(tri[0] < 0.5, "{}", tri[0]);
        // …and loses by a bounded margin (≤ ~15 %) at the blocking end.
        assert!(tri[20] > 1.0);
        assert!(tri[20] < 1.20, "{}", tri[20]);

        // (iii) The crossover sits near φ = δ (φ/R = 0.5 in Base).
        let cross = (0..20)
            .find(|&i| tri[i] <= 1.0 && tri[i + 1] > 1.0)
            .expect("crossover exists");
        assert!((phi[cross] - 0.5).abs() < 0.11, "{}", phi[cross]);
    }

    #[test]
    fn exa_shape_matches_figure8() {
        let fig = build("fig8", [21, 0]);
        assert!(fig.files.iter().any(|(n, _)| n == "fig8.json"));
        let t = &fig.tables[0];
        let (phi, tri) = (col(t, "phi_ratio"), col(t, "triple_over_nbl"));
        // §VI-B: "the gain of TRIPLE increases up to 25% of that of
        // DOUBLENBL when φ/R = 1/10" — i.e. TRIPLE's waste is about
        // 25% lower around φ/R = 0.1.
        let near_tenth = (0..phi.len())
            .min_by(|&a, &b| {
                (phi[a] - 0.1)
                    .abs()
                    .partial_cmp(&(phi[b] - 0.1).abs())
                    .unwrap()
            })
            .unwrap();
        assert!(
            tri[near_tenth] < 0.85,
            "triple/nbl at phi/R=0.1: {}",
            tri[near_tenth]
        );
        // Exa crossover near φ = δ ⇒ φ/R = 0.5 as well.
        assert!(*tri.last().unwrap() > 1.0);
    }

    #[test]
    fn ratios_monotone_toward_blocking_end() {
        // TRIPLE's relative position degrades as φ/R grows.
        let fig = build("fig5", [21, 0]);
        for w in col(&fig.tables[0], "triple_over_nbl").windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    // F6 / F9 — success-probability ratios.

    const SMALL_RISK: Size = [6, 6];

    #[test]
    fn probabilities_and_ratios_in_range() {
        for name in ["fig6", "fig9"] {
            let fig = build(name, SMALL_RISK);
            let t = &fig.tables[0];
            for key in ["p_nbl", "p_bof", "p_triple"] {
                assert!(col(t, key).iter().all(|p| (0.0..=1.0).contains(p)), "{key}");
            }
            for r in col(t, "nbl_over_bof") {
                assert!(r <= 1.0 + 1e-12, "BoF is the safer double");
            }
            for r in col(t, "nbl_over_triple") {
                assert!(r <= 1.0 + 1e-12, "TRIPLE safest");
            }
            for r in col(t, "bof_over_triple") {
                assert!(r <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn base_ratios_near_one_except_harsh_corner() {
        // §VI: differences are "measurable for long periods (above 10
        // days) and very low MTBF (M ≤ 60 s); otherwise all protocols
        // have a success probability almost equal to 1".
        let fig = build("fig6", [30, 30]);
        assert!(fig.files.iter().any(|(n, _)| n == "fig6.json"));
        let t = &fig.tables[0];
        let (m, life) = (col(t, "mtbf"), col(t, "exploitation"));
        let at = |mtbf: f64, days: f64| {
            (0..m.len())
                .find(|&i| m[i] == mtbf && (life[i] - days * 86_400.0).abs() < 1.0)
                .unwrap()
        };
        let (nbl_bof, nbl_tri) = (col(t, "nbl_over_bof"), col(t, "nbl_over_triple"));
        // Mild corner: largest MTBF (30 min), shortest T (1 day).
        let mild = at(1800.0, 1.0);
        assert!(nbl_bof[mild] > 0.999);
        assert!(nbl_tri[mild] > 0.999);
        // Harsh corner: M = 60 s, T = 30 days.
        let harsh = at(60.0, 30.0);
        assert!(nbl_bof[harsh] < 1.0);
        // TRIPLE's advantage is orders of magnitude in this corner.
        assert!(nbl_tri[harsh] < 0.7, "nbl/triple {}", nbl_tri[harsh]);
        let p_triple = col(t, "p_triple")[harsh];
        assert!(p_triple > 0.99, "triple stays near 1: {p_triple}");
    }

    #[test]
    fn theta_is_pinned_at_max() {
        let theta = |name| {
            json(&build(name, SMALL_RISK), &format!("{name}.json"))["theta"]
                .as_f64()
                .unwrap()
        };
        assert!((theta("fig6") - 44.0).abs() < 1e-12);
        assert!((theta("fig9") - 660.0).abs() < 1e-9);
    }

    #[test]
    fn exa_axes_match_paper() {
        let fig = build("fig9", SMALL_RISK);
        let doc = json(&fig, "fig9.json");
        let last = |key: &str| {
            doc[key]
                .as_array()
                .unwrap()
                .last()
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!((last("mtbf_grid") - 3600.0).abs() < 1e-9); // 60 min
        assert!((last("exploitation_grid") - 60.0 * 7.0 * 86_400.0).abs() < 1e-3);
        // 60 weeks
    }

    #[test]
    fn ratios_degrade_with_longer_exploitation() {
        let fig = build("fig6", SMALL_RISK);
        // Within the lowest-MTBF row, NBL/TRIPLE falls as T grows.
        let row = fig.tables[0].matrix("nbl_over_triple", 6);
        for w in row[0].windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn safe_ratio_edge_cases() {
        assert_eq!(safe_ratio(0.0, 0.0), 1.0);
        assert_eq!(safe_ratio(0.5, 0.0), f64::INFINITY);
        assert_eq!(safe_ratio(0.25, 0.5), 0.5);
    }

    // V2 — period check.

    #[test]
    fn closed_forms_agree_with_numeric_everywhere() {
        let fig = build("period-check", [0, 0]);
        let t = &fig.tables[0];
        assert!(!t.rows.is_empty());
        let (rel_err, waste) = (col(t, "rel_err"), col(t, "waste"));
        let interior = |i: usize| t.rows[i][8] == "ClosedForm".to_value();
        let max_err = (0..t.rows.len())
            .filter(|&i| interior(i))
            .map(|i| rel_err[i])
            .fold(0.0, f64::max);
        assert!(max_err < 1e-3, "max interior rel err {max_err}");
        assert!(fig.summary.ends_with(&format!("rel. err: {max_err:.2e}")));
        // Clamped/saturated rows agree too (both end up at Pmin).
        for i in (0..t.rows.len()).filter(|&i| !interior(i)) {
            assert!(rel_err[i] < 1e-3 || waste[i] >= 1.0, "{:?}", t.rows[i]);
        }
    }

    #[test]
    fn buddy_always_beats_centralized_baseline() {
        let fig = build("period-check", [0, 0]);
        let b = &fig.tables[1];
        let (buddy, central) = (col(b, "buddy_waste"), col(b, "centralized_waste"));
        for (i, (buddy, central)) in buddy.iter().zip(&central).enumerate() {
            assert!(
                buddy < central,
                "{:?}: buddy {buddy} vs central {central}",
                b.rows[i]
            );
        }
    }

    #[test]
    fn daly_period_at_least_young() {
        let fig = build("period-check", [0, 0]);
        let b = &fig.tables[1];
        for (daly, young) in col(b, "daly").iter().zip(col(b, "young")) {
            assert!(*daly >= young);
        }
    }

    // E3 — φ*.

    /// The largest relative gain of tuning φ over the better of the two
    /// fixed policies, as the summary prints it.
    fn max_gain_over_fixed(t: &Table) -> f64 {
        let (opt, full, blocking) = (
            col(t, "waste_opt"),
            col(t, "waste_full_overlap"),
            col(t, "waste_blocking"),
        );
        (0..opt.len())
            .filter(|&i| opt[i] > 0.0 && opt[i] < 1.0)
            .map(|i| 1.0 - opt[i] / full[i].min(blocking[i]))
            .fold(0.0, f64::max)
    }

    #[test]
    fn tuned_never_worse_than_fixed_policies() {
        let fig = build("phi-choice", [8, 0]);
        let t = &fig.tables[0];
        assert_eq!(t.rows.len(), 2 * 3 * 8);
        let (opt, full, blocking) = (
            col(t, "waste_opt"),
            col(t, "waste_full_overlap"),
            col(t, "waste_blocking"),
        );
        for (i, ratio) in col(t, "phi_ratio").into_iter().enumerate() {
            assert!(opt[i] <= full[i] + 1e-9, "{:?}", t.rows[i]);
            assert!(opt[i] <= blocking[i] + 1e-9, "{:?}", t.rows[i]);
            assert!((0.0..=1.0).contains(&ratio));
        }
    }

    #[test]
    fn full_overlap_wins_at_high_mtbf() {
        let fig = build("phi-choice", [8, 0]);
        let t = &fig.tables[0];
        let (m, opt, full) = (
            col(t, "mtbf"),
            col(t, "waste_opt"),
            col(t, "waste_full_overlap"),
        );
        for i in (0..m.len()).filter(|&i| m[i] > 80_000.0) {
            // At a 1-day MTBF the tuned waste essentially equals the
            // full-overlap waste.
            assert!(
                opt[i] >= full[i] - 1e-9 && (full[i] - opt[i]) < 5e-3,
                "{:?}",
                t.rows[i]
            );
        }
    }

    #[test]
    fn tuning_gain_exists_somewhere() {
        // In the low-MTBF regime, tuning beats both fixed policies by a
        // measurable margin for the double protocols on Exa.
        let fig = build("phi-choice", [12, 0]);
        let gain = max_gain_over_fixed(&fig.tables[0]);
        assert!(gain > 0.01, "max gain {gain}");
        assert!(fig.summary.ends_with(&format!("{:.1}%", 100.0 * gain)));
    }

    // E2 — blocking vs non-blocking.

    #[test]
    fn non_blocking_wins_except_in_the_saturation_regime() {
        let fig = build("blocking-gain", [10, 0]);
        let t = &fig.tables[0];
        assert_eq!(t.rows.len(), 20);
        let (m, blocking, half, full) = (
            col(t, "mtbf"),
            col(t, "waste_blocking"),
            col(t, "waste_nbl_half"),
            col(t, "waste_nbl_full"),
        );
        let (risk_blocking, risk_full) = (col(t, "risk_blocking"), col(t, "risk_nbl_full"));
        for i in 0..t.rows.len() {
            // The risk price of full overlap always applies: the window
            // grows from D+2R to D+R+(1+α)R.
            assert!(risk_full[i] > risk_blocking[i]);
            // The crossover sits near the hour scale on Base and a few
            // hours on Exa (its A-term carries θmax = 660 s); above
            // ~4 h overlap dominates on both: eliminating φ beats
            // shortening θ.
            if m[i] >= 15_000.0 {
                assert!(full[i] <= blocking[i] + 1e-12, "{:?}", t.rows[i]);
                assert!(full[i] <= half[i] + 1e-12);
            }
        }
        // Below that, stretching θ to 11R can *lose* to blocking (the
        // φ-choice regime map): the sweep must contain such a point.
        assert!(
            (0..t.rows.len()).any(|i| full[i] > blocking[i]),
            "expected a low-MTBF point where blocking wins"
        );
        // And the gain is substantial somewhere on the axis.
        let max_gain = col(t, "gain_full_overlap").into_iter().fold(0.0, f64::max);
        assert!(max_gain > 0.3, "max gain {max_gain}");
        assert!(fig.summary.ends_with(&format!("{:.1}%", 100.0 * max_gain)));
    }

    #[test]
    fn gain_grows_with_mtbf_on_base() {
        // At large MTBF the fault-free δ+φ term dominates: eliminating φ
        // entirely is worth the most there.
        let fig = build("blocking-gain", [12, 0]);
        let t = &fig.tables[0];
        // Rows are grouped by scenario, Base first.
        assert!(t.rows[..12].iter().all(|r| r[0] == "Base".to_value()));
        let base = &col(t, "gain_full_overlap")[..12];
        let first_positive = base.iter().find(|&&g| g > 0.0).expect("some gain");
        assert!(base[11] >= first_positive * 0.8);
    }

    // E4 — two-level checkpointing.

    #[test]
    fn two_level_waste_bounded_and_insurance_cheap_for_triple() {
        let fig = build("hierarchical", [10, 0]);
        let t = &fig.tables[0];
        assert_eq!(t.rows.len(), 9);
        let (level1, two_level) = (col(t, "level1_waste"), col(t, "two_level_waste"));
        for i in 0..9 {
            assert!(two_level[i] >= level1[i] - 1e-12, "{:?}", t.rows[i]);
            assert!(two_level[i] <= 1.0);
        }
        // TRIPLE's fatal rate is tiny, so its insurance premium at the
        // harshest point is far below DOUBLE's.
        let m = col(t, "mtbf");
        let row = |p: Protocol| {
            (0..9)
                .find(|&i| t.rows[i][0] == p.to_value() && m[i] == 60.0)
                .unwrap()
        };
        let (dbl, tri) = (row(Protocol::DoubleNbl), row(Protocol::Triple));
        let dbl_premium = two_level[dbl] - level1[dbl];
        let tri_premium = two_level[tri] - level1[tri];
        assert!(
            tri_premium < 0.5 * dbl_premium,
            "triple premium {tri_premium} vs double {dbl_premium}"
        );
        // And the level-1 cliff it removes is real for the double.
        assert!(col(t, "level1_success_30d")[dbl] < 0.9);
    }

    #[test]
    fn spot_checks_within_tolerance() {
        let fig = build("hierarchical", [10, 0]);
        let s = &fig.tables[1];
        let (model, sim, se) = (
            col(s, "model_waste"),
            col(s, "sim_waste"),
            col(s, "std_error"),
        );
        for i in 0..s.rows.len() {
            let tol = (4.0 * se[i]).max(0.05);
            assert!(
                (sim[i] - model[i]).abs() < tol,
                "{:?}: sim {} vs model {}",
                s.rows[i][0],
                sim[i],
                model[i]
            );
        }
    }

    // The gnuplot scripts.

    #[test]
    fn surface_script_references_all_protocol_csvs() {
        let s = gnuplot(WASTE_SURFACE_GP, "fig4", "Base");
        for f in [
            "fig4_double-bof.csv",
            "fig4_double-nbl.csv",
            "fig4_triple.csv",
        ] {
            assert!(s.contains(f), "{f} missing");
        }
        assert!(s.contains("logscale x"));
        assert!(s.contains("set output 'fig4.png'"));
    }

    #[test]
    fn ratio_script_plots_both_series() {
        let s = gnuplot(WASTE_RATIO_GP, "fig5", "Base");
        assert!(s.contains("using 1:5"));
        assert!(s.contains("using 1:6"));
        assert!(s.contains("DoubleBoF/DoubleNBL"));
    }

    #[test]
    fn risk_script_scales_time_axis() {
        let s = file(&build("fig9", [3, 3]), "fig9.gp").to_string();
        assert!(s.contains("($2/604800)"));
        assert!(s.contains("fig9_risk.csv"));
        assert!(s.contains("Platform Exploitation (weeks)"));
    }
}
