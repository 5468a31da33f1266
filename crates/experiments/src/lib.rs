//! # dck-experiments — regenerating the paper's evaluation
//!
//! One module per artifact of the paper's §VI, plus three validation
//! experiments (V1–V3) and five extensions (E1–E5) that go beyond it:
//!
//! | Id | Paper artifact | Module |
//! |---|---|---|
//! | T1 | Table I (scenario parameters) | [`table1`] |
//! | F4 | Fig. 4a–c — waste surface, `Base` | [`waste_surface`] |
//! | F5 | Fig. 5 — waste ratios at `M = 7 h`, `Base` | [`waste_ratio`] |
//! | F6 | Fig. 6a–b — success-probability ratios, `Base` | [`risk_surface`] |
//! | F7 | Fig. 7a–c — waste surface, `Exa` | [`waste_surface`] |
//! | F8 | Fig. 8 — waste ratios at `M = 7 h`, `Exa` | [`waste_ratio`] |
//! | F9 | Fig. 9a–b — success-probability ratios, `Exa` | [`risk_surface`] |
//! | V1 | model vs Monte-Carlo simulation (waste & risk) | [`validate`] |
//! | V2 | closed-form vs numeric optimal periods; Young/Daly | [`period_check`] |
//! | E1 | robustness to non-Exponential failures (Weibull/LogNormal) | [`robustness`] |
//! | E2 | blocking \[1\] vs non-blocking \[2\] double checkpointing | [`blocking_gain`] |
//! | E3 | optimal overhead choice φ* across the MTBF axis | [`phi_choice`] |
//! | E4 | hierarchical two-level checkpointing (§VIII future work) | [`hierarchical_exp`] |
//! | E5 | higher-order (Daly-style) model accuracy vs simulation | [`refined_exp`] |
//! | V3 | Figure 5 regenerated from the simulator (not the model) | [`fig5_sim`] |
//!
//! Every experiment is a pure function from parameters to a typed,
//! serializable result; [`output`] renders results to CSV (gnuplot
//! ready), JSON and ASCII previews under a results directory. The
//! `dck-experiments` binary wires them to a tiny CLI
//! (`dck-experiments all --out results`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking_gain;
pub mod fig5_sim;
pub mod gnuplot;
pub mod hierarchical_exp;
pub mod output;
pub mod period_check;
pub mod phi_choice;
pub mod refined_exp;
pub mod risk_surface;
pub mod robustness;
pub mod table1;
pub mod validate;
pub mod waste_ratio;
pub mod waste_surface;

pub use output::OutputDir;
