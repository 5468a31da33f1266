//! The benchmark's contract: its workloads, the end-to-end metrics with
//! the share by which each may worsen before a change counts as a
//! regression, and the per-layer metrics with the end-to-end metric and
//! workload each one should move.
//!
//! `BENCHMARK.json` at the repository root mirrors these tables; the
//! self-check tests hold the two equal, and every run refuses to print
//! a metric set that differs from them.

/// Seconds one measured run lasts unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// One workload: a named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric, reported with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs a change to this layer
    /// should move; every other pair is predicted flat.
    pub moves: &'static [(&'static str, &'static str)],
}

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep-base",
        why: "Fig. 4 grid on Base (n=10368) with early stopping: time goes to per-failure work and pool rounds, and the 166 KB risk tracker stays in cache",
    },
    Workload {
        name: "sweep-exa",
        why: "same protocols on Exa (n=1e6): each 8-replication unit rebuilds a 16 MB risk tracker, so per-unit set-up dominates; per-event gains should stay flat here",
    },
    Workload {
        name: "adapt-regret",
        why: "dck adapt's regret spec: the only path through the adaptive and predicted loops, the drifting source, the MTBF estimator and per-retune period solves",
    },
    Workload {
        name: "serve-mix",
        why: "dck loadgen's mix on an in-process server: waste, risk, pstar and sweep_cell on one warmed spec; one client alternates 128 requests in flight (throughput) with one at a time (latency)",
    },
];

/// Names of the workloads, in run order.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

/// The end-to-end metrics. `throughput` counts simulated runs for the
/// sweeps, arm-runs for `adapt-regret` and requests for `serve-mix`;
/// `latency_ms` is the median time from asking to answer: one whole
/// pass (time to the solution) for the sweeps and `adapt-regret`, the
/// round trip of a request sent on its own for `serve-mix`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const SB: &str = "sweep-base";
const SE: &str = "sweep-exa";
const AR: &str = "adapt-regret";
const SM: &str = "serve-mix";
const TP: &str = "throughput";
const LAT: &str = "latency_ms";
const RSS: &str = "peak_rss_mb";
const SETUP: &str = "setup_s";

macro_rules! layer {
    ($name:expr, $unit:expr, $better:ident, [$(($m:expr, $w:expr)),* $(,)?]) => {
        Layer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            moves: &[$(($m, $w)),*],
        }
    };
}

/// The per-layer metrics.
pub const LAYERS: &[Layer] = &[
    // Per-failure simulation layers: they carry sweep-base and should
    // stay flat on sweep-exa, where per-unit set-up dominates.
    layer!("simcore.rng.stream_ns", "ns", Lower, [(TP, SB)]),
    layer!("simcore.rng.fill_ns_per_gap", "ns", Lower, [(TP, SB)]),
    layer!("failures.next_failure_ns", "ns", Lower, [(TP, SB)]),
    layer!("protocols.schedule_ns", "ns", Lower, [(TP, SB)]),
    layer!("protocols.outage_ns", "ns", Lower, [(TP, SB)]),
    layer!("protocols.risk_record_ns.base", "ns", Lower, [(TP, SB)]),
    layer!("simcore.stats.push_ns", "ns", Lower, [(TP, SB)]),
    layer!("sim.run_us_per_rep", "us", Lower, [(TP, SB), (TP, AR)]),
    // Pool dispatch: about 50 rounds per protocol on sweep-base.
    layer!("simcore.par.unit_overhead_us", "us", Lower, [(TP, SB)]),
    layer!("simcore.par.spawn_us", "us", Lower, [(TP, SB)]),
    layer!("sweep.rounds", "count", Lower, [(TP, SB)]),
    layer!("sweep.units", "count", Lower, [(TP, SB), (TP, SE)]),
    layer!("par.pool_spawns", "count", Lower, [(TP, SB)]),
    // Per-unit set-up: carries sweep-exa and its memory.
    layer!("sim.build_us.base", "us", Lower, [(TP, SB)]),
    layer!("sim.build_us.exa", "us", Lower, [(TP, SE), (RSS, SE)]),
    layer!("protocols.risk_record_ns.exa_cold", "ns", Lower, [(TP, SE)]),
    layer!("sim.builds_per_rep", "ratio", Lower, [(TP, SE), (RSS, SE)]),
    // Adaptive control and prediction.
    layer!("core.optimal_period_us", "us", Lower, [(TP, AR), (LAT, SM)]),
    layer!("core.predict.period_us", "us", Lower, [(TP, AR)]),
    layer!("core.estimate.record_ns", "ns", Lower, [(TP, AR)]),
    layer!("core.control.retune_us", "us", Lower, [(TP, AR)]),
    layer!("failures.drift.next_failure_ns", "ns", Lower, [(TP, AR)]),
    layer!("sim.adapt.run_us_per_rep", "us", Lower, [(TP, AR)]),
    layer!("sim.predict.run_us_per_rep", "us", Lower, [(TP, AR)]),
    layer!(
        "sim.adapt_predicted.run_us_per_rep",
        "us",
        Lower,
        [(TP, AR)]
    ),
    layer!("adapt.retunes_per_rep", "count", Lower, [(TP, AR)]),
    layer!("adapt.consults_per_rep", "count", Lower, [(TP, AR)]),
    layer!("opt.period_probes_per_rep", "count", Lower, [(TP, AR)]),
    // The request path.
    layer!(
        "serve.protocol.parse_us.analytic",
        "us",
        Lower,
        [(TP, SM), (LAT, SM)]
    ),
    layer!(
        "serve.protocol.parse_us.sweep_cell",
        "us",
        Lower,
        [(TP, SM), (LAT, SM)]
    ),
    layer!("serve.queries.waste_us", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!("serve.queries.risk_us", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!("serve.queries.pstar_us", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!(
        "serve.queries.parse_sweep_cell_us",
        "us",
        Lower,
        [(TP, SM), (LAT, SM)]
    ),
    // Cells are computed only while set-up warms the cache.
    layer!(
        "serve.queries.compute_sweep_cell_us",
        "us",
        Lower,
        [(SETUP, SM)]
    ),
    layer!("serve.cache.get_ns", "ns", Lower, [(TP, SM), (LAT, SM)]),
    layer!(
        "serve.protocol.encode_us",
        "us",
        Lower,
        [(TP, SM), (LAT, SM)]
    ),
    layer!("serve.rtt_p50_us.waste", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!("serve.rtt_p50_us.risk", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!("serve.rtt_p50_us.pstar", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!(
        "serve.rtt_p50_us.sweep_cell",
        "us",
        Lower,
        [(TP, SM), (LAT, SM)]
    ),
    layer!("serve.rtt_p99_us", "us", Lower, [(TP, SM)]),
    layer!("serve.rtt_p999_us", "us", Lower, [(TP, SM)]),
    layer!("serve.transport_us", "us", Lower, [(TP, SM), (LAT, SM)]),
    layer!("serve.samples", "count", Higher, [(TP, SM)]),
    layer!("serve.bytes_in_per_req", "B", Lower, [(TP, SM)]),
    layer!("serve.bytes_out_per_req", "B", Lower, [(TP, SM)]),
    layer!("serve.cache_hit_ratio", "ratio", Higher, [(TP, SM)]),
    layer!("serve.worker_panics", "count", Lower, [(TP, SM)]),
    // Every workload.
    layer!(
        "failures.events_per_rep",
        "count",
        Lower,
        [(TP, SB), (TP, SE), (TP, AR)]
    ),
    layer!(
        "attr.unexplained_share",
        "share",
        Lower,
        [(TP, SB), (TP, SE), (TP, AR), (TP, SM)]
    ),
    layer!(
        "attr.replication_covered_share",
        "share",
        Higher,
        [(TP, SB), (TP, SE), (TP, AR)]
    ),
    layer!(
        "trace.overhead_share",
        "share",
        Lower,
        [(TP, SB), (TP, SE), (TP, AR), (TP, SM)]
    ),
];

/// Whether `name` is a legal metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn names_are_legal_unique_and_within_limits() {
        let mut all: Vec<&str> = workload_names().collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(LAYERS.iter().map(|m| m.name));
        for n in &all {
            assert!(valid_name(n), "illegal name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && LAYERS.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_layer_names_an_existing_metric_and_workload() {
        for l in LAYERS {
            assert!(!l.moves.is_empty(), "{} predicts nothing", l.name);
            for (metric, workload) in l.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{}: no metric {metric}",
                    l.name
                );
                assert!(
                    workload_names().any(|w| w == *workload),
                    "{}: no workload {workload}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        let setup = end_to_end("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
    }
}
