//! Spans recorded from the benchmark's own code, around its calls into
//! each layer, plus the tools the traced runs share.
//!
//! Spans stop at request and replication granularity. Layers called
//! once per failure event are too fine to span: their inputs are
//! recorded (see [`Recording`]) and replayed in bulk through the same
//! public function, and [`ns_per_call`] turns the replay into a unit
//! cost that is multiplied by the traced count.

use dck_failures::{FailureEvent, FailureSource};
use dck_simcore::SimTime;
use serde::{Map, Value};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Replication or request id, if the span covers one.
    pub id: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread. Nothing is written until
/// the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: Option<u64>) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn end(&mut self, idx: usize) {
        debug_assert_eq!(self.open.last(), Some(&idx), "spans must nest");
        self.open.pop();
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns): each span's duration minus the time its
    /// children cover.
    pub self_ns: u64,
}

/// Self time per span name, largest first. Children of one span never
/// overlap (they were recorded on the same thread), so the covered
/// time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut by_name: Vec<SelfTime> = Vec::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = s.duration_ns().saturating_sub(covered);
        match by_name.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += s.duration_ns();
                t.self_ns += own;
            }
            None => by_name.push(SelfTime {
                name: s.name,
                count: 1,
                total_ns: s.duration_ns(),
                self_ns: own,
            }),
        }
    }
    by_name.sort_by_key(|t| std::cmp::Reverse(t.self_ns));
    by_name
}

/// Mean duration (µs) of the spans named `name`, or `None` if there
/// are none.
pub fn mean_us(spans: &[Span], name: &str) -> Option<f64> {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
    (n > 0).then(|| total as f64 / n as f64 / 1e3)
}

/// Writes spans as JSON lines: `name`, `start_ns`, `end_ns`, `parent`
/// (an index into the file's lines, or `null`) and `id`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut m = Map::new();
        m.insert("name", Value::String(s.name.to_string()));
        m.insert("start_ns", Value::U64(s.start_ns));
        m.insert("end_ns", Value::U64(s.end_ns));
        m.insert(
            "parent",
            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
        );
        m.insert("id", s.id.map_or(Value::Null, Value::U64));
        let line = serde_json::to_string(&Value::Object(m)).unwrap_or_default();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// A failure source that records every event it hands out. Wrapped
/// around a replication's real source, it captures the inputs the
/// per-event layers saw: victims, times and the number of draws.
pub struct Recording {
    inner: Box<dyn FailureSource>,
    /// Events drawn so far, in order.
    pub events: Vec<FailureEvent>,
}

impl Recording {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn FailureSource>) -> Recording {
        Recording {
            inner,
            events: Vec::new(),
        }
    }
}

impl FailureSource for Recording {
    fn next_failure(&mut self) -> FailureEvent {
        let e = self.inner.next_failure();
        self.events.push(e);
        e
    }

    fn nodes(&self) -> u64 {
        self.inner.nodes()
    }

    fn platform_mtbf(&self) -> SimTime {
        self.inner.platform_mtbf()
    }
}

/// Shortest time a bulk replay runs before its unit cost is read.
const MIN_REPLAY: Duration = Duration::from_millis(3);

/// Unit cost of a bulk replay: runs `replay`, which makes `calls` calls
/// into the layer, until at least [`MIN_REPLAY`] has passed, and
/// returns the mean ns per call. `None` when there is nothing to
/// replay.
pub fn ns_per_call(calls: usize, mut replay: impl FnMut()) -> Option<f64> {
    if calls == 0 {
        return None;
    }
    let start = Instant::now();
    let mut rounds = 0u64;
    loop {
        replay();
        rounds += 1;
        let elapsed = start.elapsed();
        if elapsed >= MIN_REPLAY {
            return Some(elapsed.as_nanos() as f64 / (rounds as f64 * calls as f64));
        }
    }
}

/// Like [`ns_per_call`], for a layer that consumes its inputs: each
/// round `prepare` builds them outside the timed region and only `run`
/// is timed.
pub fn ns_per_call_prepared<T>(
    calls: usize,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T),
) -> Option<f64> {
    if calls == 0 {
        return None;
    }
    let mut timed = Duration::ZERO;
    let mut rounds = 0u64;
    while timed < MIN_REPLAY {
        let inputs = prepare();
        let start = Instant::now();
        run(inputs);
        timed += start.elapsed();
        rounds += 1;
    }
    Some(timed.as_nanos() as f64 / (rounds as f64 * calls as f64))
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("chunk", 0, 100, None),
            span("build", 0, 10, Some(0)),
            span("replication", 10, 60, Some(0)),
            span("replication", 60, 90, Some(0)),
        ];
        let t = self_times(&spans);
        let get = |n: &str| t.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(get("chunk").self_ns, 10);
        assert_eq!(get("chunk").total_ns, 100);
        assert_eq!(get("replication").count, 2);
        assert_eq!(get("replication").self_ns, 80);
        assert_eq!(t[0].name, "replication", "largest self time first");
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("pass", None);
        let inner = t.begin("replication", Some(7));
        t.end(inner);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, Some(7));
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn replay_cost_is_per_call() {
        let ns = ns_per_call(1000, || {
            for i in 0..1000u64 {
                std::hint::black_box(i);
            }
        })
        .unwrap();
        assert!(ns > 0.0 && ns < 1e4, "{ns}");
        assert_eq!(ns_per_call(0, || ()), None);
    }
}
