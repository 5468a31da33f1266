//! Recorded failure traces: capture, persist, replay.
//!
//! A trace pins down the *exact* failure history of a run, which gives
//! three things the raw stochastic sources cannot: (i) bit-for-bit
//! reproducible experiments across machines and crate versions, (ii) a
//! medium for sharing adversarial or regression scenarios as JSON, and
//! (iii) a place to compute empirical statistics (observed MTBF,
//! per-node counts) to validate the generators themselves.

use crate::process::{FailureEvent, FailureSource, NodeId};
use dck_simcore::{OnlineStats, SimTime};
use serde::{Deserialize, Serialize};

/// First line of the JSONL encoding: the platform size. Kept separate
/// from the event lines so a stream consumer knows the node range
/// before the first event arrives.
#[derive(Debug, Serialize, Deserialize)]
struct TraceHeader {
    nodes: u64,
}

/// An ordered, finite failure history over an `n`-node platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureTrace {
    nodes: u64,
    events: Vec<FailureEvent>,
}

impl FailureTrace {
    /// Builds a trace from pre-sorted events.
    ///
    /// # Panics
    /// Panics if events are not in non-decreasing time order or name a
    /// node outside `0..nodes`.
    pub fn new(nodes: u64, events: Vec<FailureEvent>) -> Self {
        let mut last = SimTime::seconds(f64::NEG_INFINITY);
        for ev in &events {
            assert!(ev.at >= last, "trace events must be time-ordered");
            assert!(ev.node < nodes, "node {} out of range", ev.node);
            last = ev.at;
        }
        FailureTrace { nodes, events }
    }

    /// Records all failures of `source` strictly before `horizon`.
    pub fn record(source: &mut dyn FailureSource, horizon: SimTime) -> Self {
        let mut events = Vec::new();
        loop {
            let ev = source.next_failure();
            if ev.at >= horizon {
                break;
            }
            events.push(ev);
        }
        FailureTrace {
            nodes: source.nodes(),
            events,
        }
    }

    /// Number of nodes the trace covers.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// The recorded events, time-ordered.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Number of recorded failures.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no failures were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last recorded failure (None if empty).
    pub fn span(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.at)
    }

    /// Empirical platform MTBF: mean gap between successive events.
    /// Returns `None` with fewer than 2 events.
    pub fn empirical_platform_mtbf(&self) -> Option<SimTime> {
        if self.events.len() < 2 {
            return None;
        }
        let mut stats = OnlineStats::new();
        for w in self.events.windows(2) {
            stats.push((w[1].at - w[0].at).as_secs());
        }
        Some(SimTime::seconds(stats.mean()))
    }

    /// Keeps only events on nodes satisfying `keep`, renumbering nothing.
    pub fn filter_nodes(&self, keep: impl Fn(NodeId) -> bool) -> FailureTrace {
        FailureTrace {
            nodes: self.nodes,
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| keep(e.node))
                .collect(),
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    /// A serde message (practically unreachable for this plain struct).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| format!("trace serialization: {e}"))
    }

    /// Parses a trace from JSON, re-validating ordering.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let raw: FailureTrace = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let mut last = SimTime::seconds(f64::NEG_INFINITY);
        for ev in &raw.events {
            if ev.at < last {
                return Err("trace events out of order".into());
            }
            if ev.node >= raw.nodes {
                return Err(format!("node {} out of range", ev.node));
            }
            last = ev.at;
        }
        Ok(raw)
    }

    /// Serializes to JSONL: a `{"nodes":N}` header line followed by one
    /// event object per line. The line-oriented form diffs cleanly,
    /// appends cheaply, and survives partial reads detectably —
    /// [`from_jsonl`](Self::from_jsonl) rejects a file cut mid-line.
    ///
    /// # Errors
    /// A serde message (practically unreachable for this plain struct).
    pub fn to_jsonl(&self) -> Result<String, String> {
        let mut out = serde_json::to_string(&TraceHeader { nodes: self.nodes })
            .map_err(|e| format!("trace header serialization: {e}"))?;
        out.push('\n');
        for ev in &self.events {
            out.push_str(
                &serde_json::to_string(ev)
                    .map_err(|e| format!("trace event serialization: {e}"))?,
            );
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses the JSONL form produced by [`to_jsonl`](Self::to_jsonl),
    /// re-validating ordering and node range. A header with no events
    /// is a valid empty trace; a missing header, a malformed (e.g.
    /// truncated) line, disorder, or an out-of-range node is an error
    /// naming the line.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .filter(|l| !l.trim().is_empty())
            .ok_or_else(|| r#"empty input: missing {"nodes":N} header"#.to_string())?;
        let header: TraceHeader =
            serde_json::from_str(header).map_err(|e| format!("line 1: invalid header: {e}"))?;
        let mut events = Vec::new();
        let mut last = SimTime::seconds(f64::NEG_INFINITY);
        for (i, line) in lines.enumerate() {
            let ev: FailureEvent = serde_json::from_str(line)
                .map_err(|e| format!("line {}: invalid event (truncated file?): {e}", i + 2))?;
            if ev.at < last {
                return Err(format!("line {}: events out of order", i + 2));
            }
            if ev.node >= header.nodes {
                return Err(format!("line {}: node {} out of range", i + 2, ev.node));
            }
            last = ev.at;
            events.push(ev);
        }
        Ok(FailureTrace {
            nodes: header.nodes,
            events,
        })
    }

    /// The prefix of the trace strictly before `horizon`.
    pub fn truncated(&self, horizon: SimTime) -> FailureTrace {
        FailureTrace {
            nodes: self.nodes,
            events: self
                .events
                .iter()
                .copied()
                .take_while(|e| e.at < horizon)
                .collect(),
        }
    }

    /// A replaying [`FailureSource`] over this trace. After the trace
    /// is exhausted the replayer reports failures at `SimTime::INFINITY`
    /// (i.e. never again), letting simulations run to their horizon.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay {
            trace: self,
            next: 0,
        }
    }

    /// Like [`replay`](Self::replay) but consuming the trace — the
    /// owned form a `Box<dyn FailureSource>` plumbing layer needs.
    pub fn into_replay(self) -> OwnedTraceReplay {
        OwnedTraceReplay {
            trace: self,
            next: 0,
        }
    }
}

/// Replays a [`FailureTrace`] as a [`FailureSource`].
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a FailureTrace,
    next: usize,
}

impl FailureSource for TraceReplay<'_> {
    fn next_failure(&mut self) -> FailureEvent {
        match self.trace.events.get(self.next) {
            Some(ev) => {
                self.next += 1;
                *ev
            }
            None => FailureEvent {
                at: SimTime::INFINITY,
                node: 0,
            },
        }
    }

    fn nodes(&self) -> u64 {
        self.trace.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        self.trace
            .empirical_platform_mtbf()
            .unwrap_or(SimTime::INFINITY)
    }
}

/// Owning counterpart of [`TraceReplay`] (see
/// [`FailureTrace::into_replay`]).
#[derive(Debug, Clone)]
pub struct OwnedTraceReplay {
    trace: FailureTrace,
    next: usize,
}

impl OwnedTraceReplay {
    /// The trace being replayed.
    pub fn trace(&self) -> &FailureTrace {
        &self.trace
    }
}

impl FailureSource for OwnedTraceReplay {
    fn next_failure(&mut self) -> FailureEvent {
        match self.trace.events.get(self.next) {
            Some(ev) => {
                self.next += 1;
                *ev
            }
            None => FailureEvent {
                at: SimTime::INFINITY,
                node: 0,
            },
        }
    }

    fn nodes(&self) -> u64 {
        self.trace.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        self.trace
            .empirical_platform_mtbf()
            .unwrap_or(SimTime::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtbf::MtbfSpec;
    use crate::process::AggregatedExponential;
    use dck_simcore::RngFactory;

    fn small_trace() -> FailureTrace {
        FailureTrace::new(
            4,
            vec![
                FailureEvent {
                    at: SimTime::seconds(10.0),
                    node: 1,
                },
                FailureEvent {
                    at: SimTime::seconds(25.0),
                    node: 3,
                },
                FailureEvent {
                    at: SimTime::seconds(25.0),
                    node: 0,
                },
                FailureEvent {
                    at: SimTime::seconds(40.0),
                    node: 1,
                },
            ],
        )
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let spec = MtbfSpec::Platform {
            mtbf: SimTime::minutes(10.0),
            nodes: 8,
        };
        let mut src = AggregatedExponential::new(spec, RngFactory::new(42).stream(0));
        let trace = FailureTrace::record(&mut src, SimTime::hours(10.0));
        assert!(!trace.is_empty());
        assert!(trace.span().unwrap() < SimTime::hours(10.0));

        let mut replay = trace.replay();
        for ev in trace.events() {
            assert_eq!(replay.next_failure(), *ev);
        }
        // Exhausted: reports "never".
        assert_eq!(replay.next_failure().at, SimTime::INFINITY);
    }

    #[test]
    fn json_roundtrip() {
        let trace = small_trace();
        let json = trace.to_json().unwrap();
        let back = FailureTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn from_json_rejects_out_of_order() {
        let bad = r#"{"nodes":2,"events":[{"at":5.0,"node":0},{"at":1.0,"node":1}]}"#;
        assert!(FailureTrace::from_json(bad).is_err());
    }

    #[test]
    fn from_json_rejects_bad_node() {
        let bad = r#"{"nodes":2,"events":[{"at":5.0,"node":7}]}"#;
        assert!(FailureTrace::from_json(bad).is_err());
    }

    #[test]
    fn empirical_mtbf_of_even_spacing() {
        let trace = FailureTrace::new(
            1,
            (1..=10)
                .map(|i| FailureEvent {
                    at: SimTime::seconds(i as f64 * 5.0),
                    node: 0,
                })
                .collect(),
        );
        assert_eq!(
            trace.empirical_platform_mtbf().unwrap(),
            SimTime::seconds(5.0)
        );
    }

    #[test]
    fn filter_keeps_matching_nodes() {
        let trace = small_trace();
        let only1 = trace.filter_nodes(|n| n == 1);
        assert_eq!(only1.len(), 2);
        assert!(only1.events().iter().all(|e| e.node == 1));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn constructor_rejects_disorder() {
        let _ = FailureTrace::new(
            2,
            vec![
                FailureEvent {
                    at: SimTime::seconds(5.0),
                    node: 0,
                },
                FailureEvent {
                    at: SimTime::seconds(1.0),
                    node: 1,
                },
            ],
        );
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        for trace in [small_trace(), FailureTrace::new(3, vec![])] {
            let jsonl = trace.to_jsonl().unwrap();
            let back = FailureTrace::from_jsonl(&jsonl).unwrap();
            assert_eq!(trace, back);
            // And stable under a second round trip.
            assert_eq!(back.to_jsonl().unwrap(), jsonl);
        }
    }

    #[test]
    fn jsonl_of_recorded_trace_roundtrips() {
        let spec = MtbfSpec::Platform {
            mtbf: SimTime::minutes(10.0),
            nodes: 8,
        };
        let mut src = AggregatedExponential::new(spec, RngFactory::new(7).stream(0));
        let trace = FailureTrace::record(&mut src, SimTime::hours(20.0));
        assert!(trace.len() > 10);
        let back = FailureTrace::from_jsonl(&trace.to_jsonl().unwrap()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn from_jsonl_rejects_truncated_input() {
        let jsonl = small_trace().to_jsonl().unwrap();
        // Cut the file mid-way through the last event line.
        let cut = &jsonl[..jsonl.len() - 8];
        let err = FailureTrace::from_jsonl(cut).unwrap_err();
        assert!(err.contains("invalid event"), "{err}");
        // Cutting at a line boundary silently shortens the trace — that
        // *is* detectable only by count, so it parses (by design: JSONL
        // appends are valid prefixes) but keeps fewer events.
        let boundary = &jsonl[..jsonl.rfind("{\"at\"").unwrap()];
        let short = FailureTrace::from_jsonl(boundary).unwrap();
        assert_eq!(short.len(), small_trace().len() - 1);
    }

    #[test]
    fn from_jsonl_rejects_missing_header_disorder_and_bad_node() {
        assert!(FailureTrace::from_jsonl("").unwrap_err().contains("header"));
        assert!(FailureTrace::from_jsonl("\n")
            .unwrap_err()
            .contains("header"));
        let err = FailureTrace::from_jsonl(
            "{\"nodes\":2}\n{\"at\":5.0,\"node\":0}\n{\"at\":1.0,\"node\":1}\n",
        )
        .unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        let err = FailureTrace::from_jsonl("{\"nodes\":2}\n{\"at\":5.0,\"node\":7}\n").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn owned_replay_matches_borrowed() {
        let trace = small_trace();
        let mut owned = trace.clone().into_replay();
        let mut borrowed = trace.replay();
        assert_eq!(owned.nodes(), borrowed.nodes());
        assert_eq!(owned.platform_mtbf(), borrowed.platform_mtbf());
        for _ in 0..trace.len() + 2 {
            assert_eq!(owned.next_failure(), borrowed.next_failure());
        }
        assert_eq!(owned.trace(), &trace);
    }

    #[test]
    fn truncated_keeps_strict_prefix() {
        let trace = small_trace();
        let t = trace.truncated(SimTime::seconds(25.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.nodes(), trace.nodes());
        let all = trace.truncated(SimTime::INFINITY);
        assert_eq!(all, trace);
        let none = trace.truncated(SimTime::seconds(0.0));
        assert!(none.is_empty());
        // An empty truncation still round-trips through JSONL.
        assert_eq!(
            FailureTrace::from_jsonl(&none.to_jsonl().unwrap()).unwrap(),
            none
        );
    }

    #[test]
    fn empty_trace_statistics() {
        let t = FailureTrace::new(3, vec![]);
        assert!(t.is_empty());
        assert!(t.span().is_none());
        assert!(t.empirical_platform_mtbf().is_none());
    }
}
