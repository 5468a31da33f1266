//! Platform-level failure event streams.
//!
//! A failure process answers one question forever: *when and where does
//! the next failure strike?* Two implementations are provided:
//!
//! * [`AggregatedExponential`] — exploits the memorylessness of the
//!   Exponential law: the superposition of `n` independent Poisson
//!   processes with rate `λ` is a single Poisson process with rate
//!   `nλ`, with the victim chosen uniformly. O(1) per event and valid
//!   even while nodes are being replaced (the replacement inherits the
//!   memoryless clock). Each event is drawn when it is asked for, so a
//!   run pays for exactly the failures it consumes. This is the
//!   paper-faithful source.
//! * [`PerNodeRenewal`] — keeps one pending arrival per node in a
//!   [`dck_simcore::EventQueue`] and resamples a node's next arrival
//!   whenever one fires. Correct for *any* inter-arrival law (Weibull,
//!   LogNormal, ...), at O(log n) per event and O(n) memory.
//!
//! Both yield identical *distributions* in the Exponential case (tested
//! below), so experiments can switch sources without re-deriving
//! anything. [`Source`] holds either, or a [`DriftingExponential`], as
//! one concrete type.

use crate::distribution::{DistributionSpec, InterArrival};
use crate::drift::DriftingExponential;
use crate::mtbf::MtbfSpec;
use dck_simcore::{exponential_event, EventQueue, SimTime};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Index of a platform node, dense in `0..n`.
pub type NodeId = u64;

/// One failure: node `node` dies at absolute time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Absolute virtual time of the failure.
    pub at: SimTime,
    /// The node that fails.
    pub node: NodeId,
}

/// An infinite, ordered stream of failures over an `n`-node platform.
pub trait FailureSource {
    /// Returns the next failure (times are non-decreasing call-to-call).
    fn next_failure(&mut self) -> FailureEvent;

    /// Number of nodes the source covers.
    fn nodes(&self) -> u64;

    /// The calibrated platform MTBF of the stream (mean spacing between
    /// successive events, over all nodes).
    fn platform_mtbf(&self) -> SimTime;
}

/// O(1)-per-event Poisson failure source (Exponential law only).
///
/// Each [`next_failure`](FailureSource::next_failure) draws one event
/// with [`exponential_event`]: a uniform deviate for the gap, then a
/// bounded draw for the victim. Nothing is buffered, so a replication
/// pays for exactly the events it consumes, and the source is a few
/// words plus its generator.
#[derive(Debug)]
pub struct AggregatedExponential {
    now: SimTime,
    platform_mean: f64,
    nodes: u64,
    rng: StdRng,
}

impl AggregatedExponential {
    /// Builds the source from an MTBF specification and an RNG stream.
    pub fn new(mtbf: MtbfSpec, rng: StdRng) -> Self {
        let platform_mean = mtbf.platform_mtbf().as_secs();
        assert!(
            platform_mean > 0.0 && platform_mean.is_finite(),
            "platform MTBF must be positive"
        );
        AggregatedExponential {
            now: SimTime::ZERO,
            platform_mean,
            nodes: mtbf.nodes(),
            rng,
        }
    }
}

impl FailureSource for AggregatedExponential {
    #[inline]
    fn next_failure(&mut self) -> FailureEvent {
        let (gap, node) = exponential_event(&mut self.rng, self.platform_mean, self.nodes);
        self.now += SimTime::seconds(gap);
        FailureEvent { at: self.now, node }
    }

    fn nodes(&self) -> u64 {
        self.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        SimTime::seconds(self.platform_mean)
    }
}

/// Heap-based per-node renewal failure source (any inter-arrival law).
///
/// Each node runs an independent renewal process with the supplied
/// *per-node* distribution (mean = individual MTBF). When a node's
/// arrival fires, its next arrival is sampled immediately — modeling a
/// replacement node drawn from the same hardware population.
pub struct PerNodeRenewal {
    queue: EventQueue<NodeId>,
    dist: Box<dyn InterArrival>,
    nodes: u64,
    rng: StdRng,
}

impl PerNodeRenewal {
    /// Builds the source. `per_node_spec.mean()` must equal the
    /// individual-node MTBF; the platform MTBF is derived from it.
    pub fn new(per_node_spec: DistributionSpec, nodes: u64, mut rng: StdRng) -> Self {
        assert!(nodes > 0, "platform must have nodes");
        let dist = per_node_spec.build();
        let mut queue = EventQueue::with_capacity(nodes as usize);
        for node in 0..nodes {
            let t = dist.sample(&mut rng);
            queue.push(t, node);
        }
        PerNodeRenewal {
            queue,
            dist,
            nodes,
            rng,
        }
    }

    /// Convenience: Exponential per-node renewal from an [`MtbfSpec`].
    pub fn exponential(mtbf: MtbfSpec, rng: StdRng) -> Self {
        Self::new(
            DistributionSpec::Exponential {
                mean: mtbf.individual_mtbf(),
            },
            mtbf.nodes(),
            rng,
        )
    }

    /// Builds a *warmed-up* renewal source: the process runs for
    /// `warmup` before time zero, so observations start from (an
    /// approximation of) the stationary regime rather than a fresh
    /// start. This matters for non-memoryless laws — a fresh-start
    /// Weibull with shape `k < 1` front-loads failures (infant
    /// mortality), inflating early-window failure counts well above the
    /// long-run rate. A warmup of several individual MTBFs washes that
    /// transient out. (Exponential sources are memoryless and
    /// unaffected.)
    pub fn with_warmup(
        per_node_spec: DistributionSpec,
        nodes: u64,
        rng: StdRng,
        warmup: SimTime,
    ) -> Self {
        let mut source = Self::new(per_node_spec, nodes, rng);
        // Advance past the warmup horizon: consume every arrival before
        // it (each pop resamples that node's next arrival)…
        while source.queue.peek().map(|e| e.at < warmup).unwrap_or(false) {
            let _ = source.next_failure();
        }
        // …then shift the pending arrivals back so time restarts at 0.
        let mut shifted = EventQueue::with_capacity(nodes as usize);
        while let Some(e) = source.queue.pop() {
            shifted.push(e.at - warmup, e.payload);
        }
        source.queue = shifted;
        source
    }
}

impl FailureSource for PerNodeRenewal {
    fn next_failure(&mut self) -> FailureEvent {
        let ev = self
            .queue
            .pop()
            .expect("renewal queue is never empty (one arrival per node)");
        let node = ev.payload;
        let next = ev.at + self.dist.sample(&mut self.rng);
        self.queue.push(next, node);
        FailureEvent { at: ev.at, node }
    }

    fn nodes(&self) -> u64 {
        self.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        self.dist.mean() / self.nodes as f64
    }
}

/// Every failure process the simulators draw from, as one concrete
/// type: code generic over the source is monomorphized once for all of
/// them, and a replication's source lives on the stack with no box.
pub enum Source {
    /// A stationary Exponential platform.
    AggregatedExponential(AggregatedExponential),
    /// Per-node renewal under any inter-arrival law.
    PerNodeRenewal(PerNodeRenewal),
    /// An Exponential platform whose MTBF drifts over a horizon.
    DriftingExponential(DriftingExponential),
}

impl FailureSource for Source {
    // Left to the inliner, this match stayed an out-of-line call per
    // failure in the Monte-Carlo runner, and the 64-node `dck bench`
    // sweep ran about 15 % slower than with the exponential arm inlined.
    #[inline(always)]
    fn next_failure(&mut self) -> FailureEvent {
        match self {
            Source::AggregatedExponential(s) => s.next_failure(),
            Source::PerNodeRenewal(s) => s.next_failure(),
            Source::DriftingExponential(s) => s.next_failure(),
        }
    }

    fn nodes(&self) -> u64 {
        match self {
            Source::AggregatedExponential(s) => s.nodes(),
            Source::PerNodeRenewal(s) => s.nodes(),
            Source::DriftingExponential(s) => s.nodes(),
        }
    }

    fn platform_mtbf(&self) -> SimTime {
        match self {
            Source::AggregatedExponential(s) => s.platform_mtbf(),
            Source::PerNodeRenewal(s) => s.platform_mtbf(),
            Source::DriftingExponential(s) => s.platform_mtbf(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_simcore::{OnlineStats, RngFactory};

    fn mtbf_1h_64nodes() -> MtbfSpec {
        MtbfSpec::Platform {
            mtbf: SimTime::hours(1.0),
            nodes: 64,
        }
    }

    #[test]
    fn aggregated_times_are_nondecreasing() {
        let mut src = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(1).stream(0));
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let ev = src.next_failure();
            assert!(ev.at >= last);
            assert!(ev.node < 64);
            last = ev.at;
        }
    }

    #[test]
    fn aggregated_platform_mtbf_calibrated() {
        let mut src = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(2).stream(0));
        let mut stats = OnlineStats::new();
        let mut last = SimTime::ZERO;
        for _ in 0..30_000 {
            let ev = src.next_failure();
            stats.push((ev.at - last).as_secs());
            last = ev.at;
        }
        let se = stats.std_error();
        assert!(
            (stats.mean() - 3600.0).abs() < 5.0 * se,
            "mean {} se {se}",
            stats.mean()
        );
    }

    #[test]
    fn aggregated_victims_uniform() {
        let mut src = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(3).stream(0));
        let mut counts = vec![0u64; 64];
        let n = 64_000;
        for _ in 0..n {
            counts[src.next_failure().node as usize] += 1;
        }
        let expected = n as f64 / 64.0;
        // Chi-squared-ish sanity: every node within ±20% of expectation.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.2 * expected,
                "node {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn renewal_times_are_nondecreasing_and_cover_nodes() {
        let mut src = PerNodeRenewal::exponential(mtbf_1h_64nodes(), RngFactory::new(4).stream(0));
        let mut last = SimTime::ZERO;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let ev = src.next_failure();
            assert!(ev.at >= last);
            last = ev.at;
            seen.insert(ev.node);
        }
        // With 5000 events over 64 nodes, all nodes fail at least once
        // with overwhelming probability.
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn renewal_matches_aggregated_rate_for_exponential() {
        // Both sources should produce the same platform-level event
        // rate when the law is Exponential.
        let spec = mtbf_1h_64nodes();
        let horizon = SimTime::hours(2000.0);

        let mut agg = AggregatedExponential::new(spec, RngFactory::new(5).stream(0));
        let mut n_agg = 0u64;
        while agg.next_failure().at < horizon {
            n_agg += 1;
        }

        let mut ren = PerNodeRenewal::exponential(spec, RngFactory::new(5).stream(1));
        let mut n_ren = 0u64;
        while ren.next_failure().at < horizon {
            n_ren += 1;
        }

        let expected = horizon / SimTime::hours(1.0); // 2000 failures
        let tol = 5.0 * expected.sqrt(); // ~5 sigma for Poisson counts
        assert!(
            (n_agg as f64 - expected).abs() < tol,
            "aggregated count {n_agg} vs {expected}"
        );
        assert!(
            (n_ren as f64 - expected).abs() < tol,
            "renewal count {n_ren} vs {expected}"
        );
    }

    #[test]
    fn renewal_supports_weibull() {
        let spec = DistributionSpec::Weibull {
            mean: SimTime::hours(64.0), // individual MTBF
            shape: 0.7,
        };
        let mut src = PerNodeRenewal::new(spec, 64, RngFactory::new(6).stream(0));
        assert_eq!(src.nodes(), 64);
        assert!((src.platform_mtbf().as_hours() - 1.0).abs() < 1e-12);
        let mut last = SimTime::ZERO;
        for _ in 0..2000 {
            let ev = src.next_failure();
            assert!(ev.at >= last);
            last = ev.at;
        }
    }

    #[test]
    fn warmup_removes_weibull_infant_mortality() {
        // Fresh-start Weibull k = 0.5 front-loads failures: the first
        // window sees far more than rate × window. A warmed-up source
        // approaches the long-run rate. A single run of this process
        // has heavy-tailed count noise, so the assertion averages a
        // fixed seed ensemble: the ensemble means are deterministic
        // (seeded RNG) and far better separated than any single draw.
        let nodes = 64;
        let mean = SimTime::hours(64.0); // individual MTBF ⇒ platform 1 h
        let spec = DistributionSpec::Weibull { mean, shape: 0.5 };
        let window = SimTime::hours(50.0); // expect ~50 under stationarity
        const SEEDS: [u64; 8] = [21, 22, 23, 24, 25, 26, 27, 28];

        let count_in_window = |mut src: PerNodeRenewal| -> u64 {
            let mut n = 0;
            while src.next_failure().at < window {
                n += 1;
            }
            n
        };
        let mut fresh_mean = 0.0;
        let mut warmed_mean = 0.0;
        for seed in SEEDS {
            fresh_mean += count_in_window(PerNodeRenewal::new(
                spec,
                nodes,
                RngFactory::new(seed).stream(0),
            )) as f64;
            warmed_mean += count_in_window(PerNodeRenewal::with_warmup(
                spec,
                nodes,
                RngFactory::new(seed).stream(0),
                SimTime::hours(64.0 * 10.0), // ten individual MTBFs
            )) as f64;
        }
        fresh_mean /= SEEDS.len() as f64;
        warmed_mean /= SEEDS.len() as f64;

        // Fresh start massively over-produces early failures (the
        // k = 0.5 burn-in factor is ≫ 2× over this window)…
        assert!(fresh_mean > 80.0, "fresh mean {fresh_mean}");
        // …while the warmed-up ensemble sits near the stationary 50.
        // Band = ±60 % of the expectation, several ensemble standard
        // errors wide (σ/√8 ≈ 4 counts), so it tolerates RNG changes
        // without ever overlapping the fresh-start regime.
        assert!(
            (20.0..=80.0).contains(&warmed_mean),
            "warmed mean {warmed_mean} (expected near 50)"
        );
        assert!(warmed_mean < 0.6 * fresh_mean);
    }

    #[test]
    fn warmup_is_noop_for_exponential_statistics() {
        // Memoryless: warmed and fresh sources have the same rate.
        let spec = DistributionSpec::Exponential {
            mean: SimTime::hours(64.0),
        };
        let horizon = SimTime::hours(500.0);
        let count = |src: &mut PerNodeRenewal| {
            let mut n = 0u64;
            while src.next_failure().at < horizon {
                n += 1;
            }
            n as f64
        };
        let mut fresh = PerNodeRenewal::new(spec, 64, RngFactory::new(8).stream(0));
        let mut warmed = PerNodeRenewal::with_warmup(
            spec,
            64,
            RngFactory::new(8).stream(1),
            SimTime::hours(640.0),
        );
        let (a, b) = (count(&mut fresh), count(&mut warmed));
        // Both ≈ 500 (platform MTBF 1 h); 5σ Poisson band.
        let tol = 5.0 * 500.0_f64.sqrt();
        assert!((a - 500.0).abs() < tol, "fresh {a}");
        assert!((b - 500.0).abs() < tol, "warmed {b}");
    }

    #[test]
    fn batching_preserves_the_scalar_event_stream() {
        // The per-event source must emit exactly the events of an
        // independent scalar draw loop: one uniform → gap, one bounded
        // draw → victim, per event, in order. This pins the seeded
        // streams: every (seed, stream) pair keeps its failures.
        use rand::Rng;
        let spec = mtbf_1h_64nodes();
        let mut src = AggregatedExponential::new(spec, RngFactory::new(41).stream(0));
        let mut rng = RngFactory::new(41).stream(0);
        let mean = spec.platform_mtbf().as_secs();
        let mut now = SimTime::ZERO;
        for i in 0..500 {
            let u: f64 = rng.gen();
            let gap = -mean * (1.0 - u).ln();
            now += SimTime::seconds(gap);
            let node = rng.gen_range(0..64u64);
            let ev = src.next_failure();
            assert_eq!(ev.at, now, "event {i} time");
            assert_eq!(ev.node, node, "event {i} victim");
        }
    }

    #[test]
    fn source_stays_small() {
        // Every replication builds and moves one `Source`, so an event
        // buffer held inline would show up here first.
        let size = size_of::<Source>();
        assert!(size <= 128, "Source is {size} bytes");
    }

    #[test]
    fn sources_are_reproducible() {
        let a: Vec<FailureEvent> = {
            let mut s = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(9).stream(7));
            (0..100).map(|_| s.next_failure()).collect()
        };
        let b: Vec<FailureEvent> = {
            let mut s = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(9).stream(7));
            (0..100).map(|_| s.next_failure()).collect()
        };
        assert_eq!(a, b);
    }
}
