//! `serve-mix`: one client on one connection against an in-process
//! `dck_serve::serve` with 2 workers and a 256-cell cache.
//!
//! The traffic is `dck loadgen`'s mix, the repository's only statement
//! of what serve's callers send: requests rotate `waste` → `risk` →
//! `pstar` → `sweep_cell`, the analytic parameters are drawn from
//! loadgen's grids (the five paper protocols, three MTBFs, four φ/R,
//! `risk` with φ/R half the time), and every `sweep_cell` asks for a
//! cell of one shared spec of loadgen's shape. Set-up warms that spec's
//! six cells, so in steady state every `sweep_cell` is a cache hit, as
//! under loadgen once its first touches have missed. The benchmark
//! generates the mix itself: `run_loadgen` is code under test. It
//! builds a ring of [`RING`] requests with the answer each must get,
//! computed in process, so the client does no JSON work while it
//! measures and every answer is checked byte for byte.
//!
//! A measured run alternates two kinds of window. In a throughput
//! window the client keeps [`WINDOW`] requests in flight, so the worker
//! always has the next request buffered and the rate is the request
//! path's cost; `throughput` is the median over those windows. In a
//! latency window it sends one request at a time, as serve's callers
//! do; `latency_ms` is the median of those round trips. Throughput is
//! not taken from one-at-a-time traffic: there every request is two
//! thread wake-ups on an idle core, whose cost depends on what the rest
//! of the host is doing. On a 2-vCPU virtual machine that gave 20 k
//! req/s on a quiet host and 28 k req/s beside a busy loop, and ten runs
//! spread by 40–50 % of their median, while the median round trip
//! spread by under 10 %. The traced copy sends one request at a time,
//! so each round trip can be split into its layers.
//!
//! One client, not two: on a 2-core machine two clients and two workers
//! are four threads on two cores, and where the scheduler puts them
//! moved per-trial throughput by ±25 % within one run.

use super::{Opts, Run, WORKERS};
use crate::stats::{median, percentile, NsHistogram};
use crate::trace::{ns_per_call, ns_per_call_prepared, timed, Span, Tracer};
use dck_core::{Protocol, Scenario};
use dck_serve::queries::{self, SweepCellQuery};
use dck_serve::{ok_line, parse_request, serve, CellCache, CellKey, ServeConfig, ServeSummary};
use dck_sim::{SweepCell, SweepSpec};
use dck_simcore::{derive_seed, SplitMix64};
use serde::{Map, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CACHE_CELLS: usize = 256;
/// Set-up (server start, bind, six small cells) takes about 1 ms, where
/// one scheduling delay moves a single sample by half: `setup_s` is the
/// median of this many.
const SETUP_REPEATS: usize = 25;
/// Distinct requests the client cycles through: 256 of each method,
/// more than the analytic grids have points.
const RING: u64 = 1024;
/// Requests the measured client keeps in flight in a throughput window;
/// it tops them up in one write whenever half have been answered. About
/// 3 ms of the worker's work: on a busy host a vCPU is taken away for
/// milliseconds at a time, and with 16 in flight the worker then ran
/// dry and throughput fell by more than half. The answers in flight
/// (under 50 KB) fit the default loopback socket buffers, so the
/// client's write never waits on a worker that waits on the client.
const WINDOW: usize = 128;
/// Pairs of a throughput window and a latency window in a measured run.
const PAIRS: usize = 100;
/// loadgen's analytic grids.
const MTBFS: [f64; 3] = [1_800.0, 3_600.0, 25_200.0];
const PHI_RATIOS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
const LIFE_S: f64 = 14.0 * 86_400.0;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Request classes of the mix, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `waste` query.
    Waste,
    /// `risk` query.
    Risk,
    /// `pstar` query.
    Pstar,
    /// `sweep_cell` on the warmed spec.
    SweepCell,
}

impl Class {
    const ALL: [Class; 4] = [Class::Waste, Class::Risk, Class::Pstar, Class::SweepCell];

    /// The request method.
    fn name(self) -> &'static str {
        match self {
            Class::Waste => "waste",
            Class::Risk => "risk",
            Class::Pstar => "pstar",
            Class::SweepCell => "sweep_cell",
        }
    }
}

/// The shared spec of loadgen's shape; every `sweep_cell` lands on one
/// of its six cells.
fn shared_spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        Scenario::base().params,
        vec![0.0, 0.5, 1.0],
        vec![1_800.0, 3_600.0],
    );
    spec.replications = 16;
    spec.work_in_mtbfs = 2.0;
    spec.seed = derive_seed(seed, 0x517);
    spec
}

fn request_line(id: &str, method: &str, params: Map) -> String {
    let mut req = Map::new();
    req.insert("v", Value::U64(1));
    req.insert("id", Value::String(id.to_string()));
    req.insert("method", Value::String(method.to_string()));
    req.insert("params", Value::Object(params));
    serde_json::to_string(&Value::Object(req)).unwrap_or_default()
}

fn sweep_cell_params(spec: &Value, mtbf_idx: u64, phi_idx: u64) -> Map {
    let mut params = Map::new();
    params.insert("spec", spec.clone());
    params.insert("mtbf_idx", Value::U64(mtbf_idx));
    params.insert("phi_idx", Value::U64(phi_idx));
    params
}

/// The requests that warm the shared spec's six cells.
fn warm_lines(seed: u64) -> Vec<String> {
    let spec = shared_spec(seed).to_value();
    (0..2u64)
        .flat_map(|mi| (0..3u64).map(move |pi| (mi, pi)))
        .map(|(mi, pi)| {
            let params = sweep_cell_params(&spec, mi, pi);
            request_line(&format!("warm-{mi}-{pi}"), "sweep_cell", params)
        })
        .collect()
}

/// The client's deterministic request stream. Request `n` depends only
/// on `(seed, salt, n)`.
struct Mix {
    stream: u64,
    spec: Value,
}

impl Mix {
    fn new(seed: u64, salt: u64) -> Mix {
        Mix {
            stream: derive_seed(seed, salt),
            spec: shared_spec(seed).to_value(),
        }
    }

    fn id(n: u64) -> String {
        format!("r{n}")
    }

    /// Request `n` of the stream.
    fn request(&self, n: u64) -> (Class, String) {
        let mut rng = SplitMix64::new(derive_seed(self.stream, n));
        let mut pick = |len: usize| (rng.next_u64() % len as u64) as usize;
        let class = Class::ALL[(n % 4) as usize];
        let params = match class {
            Class::SweepCell => sweep_cell_params(&self.spec, pick(2) as u64, pick(3) as u64),
            analytic => {
                let mut params = Map::new();
                let protocol = Protocol::ALL[pick(Protocol::ALL.len())];
                params.insert("protocol", Value::String(protocol.id()));
                params.insert("mtbf_s", Value::F64(MTBFS[pick(MTBFS.len())]));
                if analytic == Class::Risk {
                    params.insert("life_s", Value::F64(LIFE_S));
                }
                if analytic != Class::Risk || pick(2) == 0 {
                    params.insert("phi_ratio", Value::F64(PHI_RATIOS[pick(PHI_RATIOS.len())]));
                }
                params
            }
        };
        (class, request_line(&Mix::id(n), class.name(), params))
    }
}

/// The answer the server must give to `request`, computed in process
/// through the same public handlers (`cells` memoises the six shared
/// cells, which every `sweep_cell` re-reads).
///
/// # Errors
/// Any handler error, rendered.
fn expected_line(
    request: &str,
    class: Class,
    cells: &mut BTreeMap<CellKey, SweepCell>,
) -> Result<String, String> {
    let req = parse_request(request).map_err(|e| e.message)?;
    let payload = match class {
        Class::Waste => queries::waste(&req.params),
        Class::Risk => queries::risk(&req.params),
        Class::Pstar => queries::pstar(&req.params),
        Class::SweepCell => queries::parse_sweep_cell(&req.params).and_then(|q| {
            let cell = match cells.get(&cell_key(&q)) {
                Some(cell) => *cell,
                None => queries::compute_sweep_cell(&q)?,
            };
            cells.insert(cell_key(&q), cell);
            Ok(queries::sweep_cell_payload(&q, &cell, true))
        }),
    }
    .map_err(|e| e.message)?;
    Ok(ok_line(&req.id, payload))
}

fn cell_key(q: &SweepCellQuery) -> CellKey {
    CellKey {
        fingerprint: q.fingerprint,
        mtbf_idx: q.mtbf_idx,
        phi_idx: q.phi_idx,
    }
}

/// The first requests of a mix with the answers they must get. Request
/// `n` of a run is entry `n % len` of the ring.
struct Ring {
    requests: Vec<(Class, String)>,
    answers: Vec<String>,
}

impl Ring {
    /// # Errors
    /// Any in-process handler error.
    fn new(mix: &Mix, len: u64) -> Result<Ring, String> {
        let requests: Vec<(Class, String)> = (0..len).map(|n| mix.request(n)).collect();
        let mut cells = BTreeMap::new();
        let answers = requests
            .iter()
            .map(|(class, line)| expected_line(line, *class, &mut cells))
            .collect::<Result<_, _>>()?;
        Ok(Ring { requests, answers })
    }

    fn slot(&self, n: u64) -> usize {
        (n % self.requests.len() as u64) as usize
    }

    fn class(&self, n: u64) -> Class {
        self.requests[self.slot(n)].0
    }

    fn request(&self, n: u64) -> &str {
        &self.requests[self.slot(n)].1
    }

    fn answer(&self, n: u64) -> &str {
        &self.answers[self.slot(n)]
    }
}

/// A running in-process server.
struct Session {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Session {
    fn start() -> Result<Session, String> {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: WORKERS,
                cache_cells: CACHE_CELLS,
            };
            serve(&cfg, |addr| {
                let _ = tx.send(addr);
            })
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(addr) => Ok(Session { addr, handle }),
            Err(_) => Err(match handle.join() {
                Ok(Err(e)) => format!("server failed to start: {e}"),
                _ => "server did not report its address".to_string(),
            }),
        }
    }

    /// Starts a server and warms the shared spec's cells, stopping it
    /// again if the warm-up fails.
    fn start_warm(seed: u64) -> Result<Session, String> {
        let session = Session::start()?;
        match session.warm(seed) {
            Ok(()) => Ok(session),
            Err(e) => {
                let _ = session.stop();
                Err(e)
            }
        }
    }

    fn warm(&self, seed: u64) -> Result<(), String> {
        let mut client = Client::connect(self.addr)?;
        for line in warm_lines(seed) {
            let (_, resp) = client.call(&line)?;
            if !resp.contains("\"ok\":") {
                return Err(format!("warming the cache failed: {resp}"));
            }
        }
        Ok(())
    }

    /// Sends `shutdown`, waits for the server to drain, and returns its
    /// summary.
    fn stop(self) -> Result<ServeSummary, String> {
        let acked = Client::connect(self.addr).and_then(|mut c| {
            c.call(r#"{"v":1,"id":"stop","method":"shutdown"}"#)
                .map(|_| ())
        });
        let joined = self.handle.join();
        acked?;
        match joined {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One blocking connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    framed: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
            line: String::new(),
            framed: Vec::new(),
        })
    }

    /// Sends request lines in one write and returns when it was sent.
    fn send<'a>(&mut self, requests: impl Iterator<Item = &'a str>) -> Result<Instant, String> {
        self.framed.clear();
        for request in requests {
            self.framed.extend_from_slice(request.as_bytes());
            self.framed.push(b'\n');
        }
        let start = Instant::now();
        self.writer
            .write_all(&self.framed)
            .map_err(|e| format!("send: {e}"))?;
        Ok(start)
    }

    /// Reads the next answer, without its newline.
    fn receive(&mut self) -> Result<&str, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// Sends one request line and returns the round-trip time in ns and
    /// the answer without its newline.
    fn call(&mut self, request: &str) -> Result<(u64, &str), String> {
        let start = self.send(std::iter::once(request))?;
        self.receive()?;
        let ns = start.elapsed().as_nanos() as u64;
        Ok((ns, self.line.trim_end_matches('\n')))
    }
}

/// What the measured client saw.
#[derive(Default)]
struct Measured {
    /// Requests sent, and answered.
    sent: u64,
    /// Answers that differ from the ring's.
    wrong: u64,
    /// Answers that arrived in each window.
    per_window: Vec<u64>,
    /// Round trips sent and answered within one latency window.
    latencies: NsHistogram,
}

/// Whether window `w` measures throughput. Window 0 is the warm-up and
/// runs like a throughput window; after it the two kinds alternate.
fn throughput_window(w: usize) -> bool {
    w % 2 == 1 || w == 0
}

/// Drives the measured client on the calling thread. Window `w` ends at
/// `deadlines[w]`. In a throughput window the client keeps [`WINDOW`]
/// requests in flight; in a latency window it sends one request at a
/// time, after the previous window's requests have been answered. After
/// the last deadline it sends nothing more and reads the answers still
/// in flight.
fn drive(addr: SocketAddr, ring: &Ring, deadlines: &[Instant]) -> Result<Measured, String> {
    let mut client = Client::connect(addr)?;
    let mut log = Measured {
        per_window: vec![0; deadlines.len() + 1],
        ..Measured::default()
    };
    let window_at = |t: Instant| deadlines.partition_point(|d| *d <= t);
    // (request number, sent at, window it was sent in)
    let mut in_flight: VecDeque<(u64, Instant, usize)> = VecDeque::with_capacity(WINDOW);
    loop {
        let w = window_at(Instant::now());
        let limit = if throughput_window(w) { WINDOW } else { 1 };
        if w < deadlines.len() && in_flight.len() <= limit / 2 {
            let first = log.sent;
            log.sent += (limit - in_flight.len()) as u64;
            let sent_at = client.send((first..log.sent).map(|n| ring.request(n)))?;
            in_flight.extend((first..log.sent).map(|n| (n, sent_at, w)));
        }
        let Some((n, sent_at, sent_in)) = in_flight.pop_front() else {
            break;
        };
        if client.receive()? != ring.answer(n) {
            log.wrong += 1;
        }
        let now = Instant::now();
        let w = window_at(now);
        log.per_window[w] += 1;
        if sent_in == w && !throughput_window(w) && w < deadlines.len() {
            log.latencies.record((now - sent_at).as_nanos() as u64);
        }
    }
    Ok(log)
}

/// One answered request of a traced copy.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    ns: u64,
    bytes_in: usize,
    bytes_out: usize,
}

/// What the traced copy's client saw.
#[derive(Default)]
struct ClosedLoop {
    /// Answers that differ from the ring's.
    wrong: u64,
    /// Every answered request.
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

/// Sends `requests` requests one at a time, each when the previous
/// answer arrived, with a span per request when traced.
fn closed_loop(
    addr: SocketAddr,
    ring: &Ring,
    requests: u64,
    mut tracer: Option<Tracer>,
) -> Result<ClosedLoop, String> {
    let mut client = Client::connect(addr)?;
    let mut log = ClosedLoop::default();
    let root = tracer.as_mut().map(|t| t.begin("client", None));
    for n in 0..requests {
        let request = ring.request(n);
        let span = tracer.as_mut().map(|t| t.begin("request", Some(n)));
        let (ns, answer) = client.call(request)?;
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.end(s);
        }
        if answer != ring.answer(n) {
            log.wrong += 1;
        }
        log.samples.push(Sample {
            class: ring.class(n),
            ns,
            bytes_in: request.len() + 1,
            bytes_out: answer.len() + 1,
        });
    }
    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
        t.end(r);
    }
    log.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    Ok(log)
}

/// Runs the measured serving workload.
///
/// # Errors
/// A server that fails to start or stop, or a connection error.
pub fn measure(opts: &Opts) -> Result<Run, String> {
    let mut setups = Vec::new();
    let mut session = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let s = Session::start_warm(opts.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            s.stop()?;
        } else {
            session = Some(s);
        }
    }
    let session = session.ok_or("set-up never ran")?;
    let ring = Ring::new(&Mix::new(opts.seed, 0), RING);

    let warmup = (opts.seconds / 10.0).min(1.0);
    let window_s = (opts.seconds - warmup) / (2 * PAIRS) as f64;
    let start = Instant::now() + Duration::from_secs_f64(warmup);
    let deadlines: Vec<Instant> = (0..=2 * PAIRS)
        .map(|k| start + Duration::from_secs_f64(window_s * k as f64))
        .collect();
    let log = ring.and_then(|ring| drive(session.addr, &ring, &deadlines));
    let summary = session.stop()?;
    let log = log?;

    let rates: Vec<f64> = (1..=2 * PAIRS)
        .filter(|&w| throughput_window(w))
        .map(|w| log.per_window[w] as f64 / window_s)
        .collect();
    let rtts = &log.latencies;
    let p50 = rtts
        .percentile(500_000)
        .map_err(|e| format!("median latency: {e}"))?;

    let mut run = Run {
        attempted: log.sent,
        failed: log.wrong + summary.worker_panics,
        ..Run::default()
    };
    run.set("throughput", median(&rates));
    run.set("latency_ms", p50 as f64 / 1e6);
    run.set("setup_s", median(&setups));
    let tail = |ppm| {
        rtts.percentile(ppm)
            .map_or("n/a".to_string(), |ns| format!("{:.1} us", ns as f64 / 1e3))
    };
    run.notes.push(format!(
        "1 client, {warmup:.2} s warm-up, then {PAIRS} pairs of {window_s:.3} s windows: \
         {WINDOW} requests in flight, then one at a time; throughput per window {:?} /s; \
         {} one-at-a-time round trips: p50 {:.2} us, p99 {}, p999 {}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        rtts.len(),
        p50 as f64 / 1e3,
        tail(990_000),
        tail(999_000),
    ));
    run.notes.push(format!(
        "server: {} requests, {} errors, cache {} hits / {} misses, {} worker panics",
        summary.requests,
        summary.errors,
        summary.cache_hits,
        summary.cache_misses,
        summary.worker_panics,
    ));
    Ok(run)
}

/// Unit cost of every in-process layer, replayed over the traced copy's
/// requests.
struct InProcess {
    parse_analytic_us: f64,
    parse_sweep_cell_us: f64,
    handler_us: [f64; 3],
    parse_query_us: f64,
    compute_us: f64,
    get_ns: f64,
    encode_us: f64,
}

impl InProcess {
    /// In-process time of one steady-state request of `class` (µs).
    fn per_request_us(&self, class: Class) -> f64 {
        let analytic = |handler_us: f64| self.parse_analytic_us + handler_us + self.encode_us;
        match class {
            Class::Waste => analytic(self.handler_us[0]),
            Class::Risk => analytic(self.handler_us[1]),
            Class::Pstar => analytic(self.handler_us[2]),
            Class::SweepCell => {
                self.parse_sweep_cell_us + self.parse_query_us + self.get_ns / 1e3 + self.encode_us
            }
        }
    }
}

fn replay_in_process(requests: &[(Class, String)], seed: u64) -> Result<InProcess, String> {
    let lines = |sweep_cell: bool| -> Vec<&str> {
        requests
            .iter()
            .filter(|(c, _)| (*c == Class::SweepCell) == sweep_cell)
            .map(|(_, l)| l.as_str())
            .collect()
    };
    let parse_us = |ls: &[&str]| {
        ns_per_call(ls.len(), || {
            for l in ls {
                black_box(parse_request(l).ok());
            }
        })
        .map(|ns| ns / 1e3)
        .ok_or("no requests to replay")
    };
    let parse_analytic_us = parse_us(&lines(false))?;
    let parse_sweep_cell_us = parse_us(&lines(true))?;

    let params = |class: Class| -> Vec<Value> {
        requests
            .iter()
            .filter(|(c, _)| *c == class)
            .filter_map(|(_, l)| parse_request(l).ok().map(|r| r.params))
            .collect()
    };
    let mut handler_us = [0.0; 3];
    for (slot, class) in handler_us
        .iter_mut()
        .zip([Class::Waste, Class::Risk, Class::Pstar])
    {
        let ps = params(class);
        let handler = match class {
            Class::Waste => queries::waste,
            Class::Risk => queries::risk,
            _ => queries::pstar,
        };
        *slot = ns_per_call(ps.len(), || {
            for p in &ps {
                black_box(handler(p).ok());
            }
        })
        .ok_or_else(|| format!("no {} requests to replay", class.name()))?
            / 1e3;
    }

    let cell_params = params(Class::SweepCell);
    let parse_query_us = ns_per_call(cell_params.len(), || {
        for p in &cell_params {
            black_box(queries::parse_sweep_cell(p).ok());
        }
    })
    .ok_or("no sweep_cell requests to replay")?
        / 1e3;

    // The six cells set-up computes and caches.
    let warmed: Vec<SweepCellQuery> = warm_lines(seed)
        .iter()
        .filter_map(|l| parse_request(l).ok())
        .filter_map(|r| queries::parse_sweep_cell(&r.params).ok())
        .collect();
    let mut cache = CellCache::new(CACHE_CELLS);
    for q in &warmed {
        let cell = queries::compute_sweep_cell(q).map_err(|e| e.message)?;
        cache.insert(cell_key(q), cell);
    }
    let compute_us = ns_per_call(warmed.len(), || {
        for q in &warmed {
            black_box(queries::compute_sweep_cell(q).ok());
        }
    })
    .ok_or("no cell to compute")?
        / 1e3;

    let keys: Vec<CellKey> = cell_params
        .iter()
        .filter_map(|p| queries::parse_sweep_cell(p).ok())
        .map(|q| cell_key(&q))
        .collect();
    let get_ns = ns_per_call(keys.len(), || {
        for k in &keys {
            black_box(cache.get(k));
        }
    })
    .ok_or("no cache keys to replay")?;

    let payloads: Vec<(Value, Value)> = requests
        .iter()
        .take(2048)
        .filter_map(|(class, l)| {
            let req = parse_request(l).ok()?;
            let payload = match class {
                Class::Waste => queries::waste(&req.params).ok()?,
                Class::Risk => queries::risk(&req.params).ok()?,
                Class::Pstar => queries::pstar(&req.params).ok()?,
                Class::SweepCell => {
                    let q = queries::parse_sweep_cell(&req.params).ok()?;
                    let cell = cache.get(&cell_key(&q))?;
                    queries::sweep_cell_payload(&q, &cell, true)
                }
            };
            Some((req.id, payload))
        })
        .collect();
    let encode_us = ns_per_call_prepared(
        payloads.len(),
        || payloads.clone(),
        |ps| {
            for (id, payload) in ps {
                black_box(ok_line(&id, payload));
            }
        },
    )
    .ok_or("no answers to encode")?
        / 1e3;

    Ok(InProcess {
        parse_analytic_us,
        parse_sweep_cell_us,
        handler_us,
        parse_query_us,
        compute_us,
        get_ns,
        encode_us,
    })
}

/// The traced copy of `serve-mix`: a fixed number of requests sent one
/// at a time, once untraced and once with a span per request, then
/// every in-process layer replayed over the ring's requests. Transport
/// is what the round trip adds to the in-process time: socket,
/// scheduling and the server's per-request bookkeeping.
///
/// # Errors
/// A server that fails to start or stop, or a connection error.
pub fn trace(opts: &Opts) -> Result<Run, String> {
    // p999 needs 10 samples beyond it: at least 10 000 round trips.
    let requests = if opts.quick { 12_000 } else { 16_000 };
    let ring = Ring::new(&Mix::new(opts.seed, 1), RING)?;
    let session = Session::start_warm(opts.seed)?;
    let copies = (|| {
        // Bring the connection, caches and the scheduler to steady
        // state, so neither copy pays for going first.
        closed_loop(session.addr, &ring, requests / 4, None)?;
        let (plain_s, plain) = timed(|| closed_loop(session.addr, &ring, requests, None));
        let tracer = Tracer::new(Instant::now());
        let (traced_s, traced) = timed(|| closed_loop(session.addr, &ring, requests, Some(tracer)));
        Ok::<_, String>((plain_s, plain?, traced_s, traced?))
    })();
    let summary = session.stop()?;
    let (plain_s, plain, traced_s, log) = copies?;

    let mut run = Run {
        attempted: 2 * requests,
        failed: plain.wrong + log.wrong + summary.worker_panics,
        ..Run::default()
    };

    let ip = replay_in_process(&ring.requests, opts.seed)?;
    let samples = &log.samples;
    let us = |ns: u64| ns as f64 / 1e3;
    for class in Class::ALL {
        let mut rtts: Vec<u64> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ns)
            .collect();
        rtts.sort_unstable();
        let p50 =
            percentile(&rtts, 500_000).map_err(|e| format!("{} median: {e}", class.name()))?;
        run.set(&format!("serve.rtt_p50_us.{}", class.name()), us(p50));
    }
    let mut all: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    all.sort_unstable();
    let tail = |ppm| {
        percentile(&all, ppm)
            .map(us)
            .map_err(|e| format!("pooled tail: {e}"))
    };
    run.set("serve.rtt_p99_us", tail(990_000)?);
    run.set("serve.rtt_p999_us", tail(999_000)?);

    let n = samples.len().max(1) as f64;
    let rtt_sum_ns: f64 = samples.iter().map(|s| s.ns as f64).sum();
    let in_process_us = samples
        .iter()
        .map(|s| ip.per_request_us(s.class))
        .sum::<f64>()
        / n;
    run.set("serve.transport_us", rtt_sum_ns / n / 1e3 - in_process_us);
    run.set("serve.protocol.parse_us.analytic", ip.parse_analytic_us);
    run.set("serve.protocol.parse_us.sweep_cell", ip.parse_sweep_cell_us);
    run.set("serve.queries.waste_us", ip.handler_us[0]);
    run.set("serve.queries.risk_us", ip.handler_us[1]);
    run.set("serve.queries.pstar_us", ip.handler_us[2]);
    run.set("serve.queries.parse_sweep_cell_us", ip.parse_query_us);
    run.set("serve.queries.compute_sweep_cell_us", ip.compute_us);
    run.set("serve.cache.get_ns", ip.get_ns);
    run.set("serve.protocol.encode_us", ip.encode_us);
    run.set("serve.samples", samples.len() as f64);
    run.set(
        "serve.bytes_in_per_req",
        samples.iter().map(|s| s.bytes_in as f64).sum::<f64>() / n,
    );
    run.set(
        "serve.bytes_out_per_req",
        samples.iter().map(|s| s.bytes_out as f64).sum::<f64>() / n,
    );
    run.set(
        "serve.cache_hit_ratio",
        summary.cache_hits as f64 / (summary.cache_hits + summary.cache_misses).max(1) as f64,
    );
    run.set("serve.worker_panics", summary.worker_panics as f64);
    run.set("trace.overhead_share", traced_s / plain_s - 1.0);
    // The client's time in the untraced copy against the traced round
    // trips (in-process layers plus transport): the remainder is the
    // client's own work between requests.
    run.set("attr.unexplained_share", 1.0 - rtt_sum_ns / (plain_s * 1e9));

    run.notes.push(format!(
        "traced copy: 1 client x {requests} requests, one at a time; untraced {:.1} ms, \
         traced {:.1} ms; a span per client and round trip; in-process layers replayed from the \
         ring's {RING} requests",
        plain_s * 1e3,
        traced_s * 1e3
    ));
    run.notes.extend(super::self_time_notes(&log.spans));
    run.spans = log.spans;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_analytic_query_of_the_mix_succeeds() {
        for protocol in Protocol::ALL {
            for mtbf in MTBFS {
                for phi in PHI_RATIOS.map(Some).into_iter().chain([None]) {
                    let mut p = Map::new();
                    p.insert("protocol", Value::String(protocol.id()));
                    p.insert("mtbf_s", Value::F64(mtbf));
                    p.insert("life_s", Value::F64(LIFE_S));
                    if let Some(phi) = phi {
                        p.insert("phi_ratio", Value::F64(phi));
                    }
                    let p = Value::Object(p);
                    let risk = queries::risk(&p);
                    assert!(
                        risk.is_ok(),
                        "risk {} {mtbf} {phi:?}: {risk:?}",
                        protocol.id()
                    );
                    if phi.is_some() {
                        assert!(queries::waste(&p).is_ok() && queries::pstar(&p).is_ok());
                    }
                }
            }
        }
    }

    #[test]
    fn mix_is_deterministic_and_rotates_the_four_methods() {
        let a = Mix::new(9, 0);
        for n in 0..400 {
            let (class, line) = a.request(n);
            assert_eq!((class, line.clone()), Mix::new(9, 0).request(n));
            assert_eq!(class, Class::ALL[(n % 4) as usize]);
            let req = parse_request(&line).unwrap();
            assert_eq!(req.method, class.name());
        }
        assert_ne!(Mix::new(10, 0).request(0).1, a.request(0).1);
        assert_ne!(Mix::new(9, 1).request(0).1, a.request(0).1);
    }

    #[test]
    fn every_answer_is_checked_and_one_wrong_payload_is_caught() {
        let mut ring = Ring::new(&Mix::new(4, 0), 64).unwrap();
        let session = Session::start_warm(4).unwrap();
        let start = Instant::now();
        let deadlines = [50, 100, 150].map(|ms| start + Duration::from_millis(ms));
        let measured = drive(session.addr, &ring, &deadlines).unwrap();
        let closed = closed_loop(session.addr, &ring, 200, None).unwrap();
        // One answer the ring expects, one digit off: a server that
        // gave it would be wrong there and nowhere else.
        let answer = &mut ring.answers[5];
        let pos = answer.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if answer.as_bytes()[pos] == b'1' {
            "2"
        } else {
            "1"
        };
        answer.replace_range(pos..=pos, flipped);
        let caught = closed_loop(session.addr, &ring, 200, None).unwrap();
        let summary = session.stop().unwrap();

        assert_eq!(summary.worker_panics, 0);
        assert_eq!(summary.cache_misses, 6, "only set-up's warm-up misses");
        assert!(
            measured.per_window[1] > WINDOW as u64,
            "{:?}",
            measured.per_window
        );
        assert_eq!(measured.per_window.iter().sum::<u64>(), measured.sent);
        assert!(!measured.latencies.is_empty());
        assert_eq!((measured.wrong, closed.wrong), (0, 0));
        // Requests 5, 69, 133 and 197 land on the changed entry.
        assert_eq!(caught.wrong, 4);
    }
}
