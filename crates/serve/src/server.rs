//! The serving loop: accept thread + scoped worker pool.
//!
//! ## Concurrency shape
//!
//! `serve` binds a `TcpListener`, spawns `workers` scoped threads, and
//! feeds accepted connections through an `mpsc` channel guarded by a
//! mutex (a multi-consumer queue built from std parts — the
//! vendored-deps constraint leaves no crossbeam). Each worker owns one
//! connection at a time and answers its requests strictly in order, so
//! per-connection responses are sequential even though the pool is
//! concurrent.
//!
//! ## Pipelining and the flush rule
//!
//! A client may send many request lines in one write. The worker
//! answers them in order into a `BufWriter` and sends what it has
//! gathered in one `write` when the `BufReader` holds no complete
//! request line, which is before any read that could block. An answer
//! therefore waits at most for the requests already in the same read
//! buffer, and a lone request still goes out in exactly one write. The
//! writer is also flushed before the `oversized` error closes the
//! connection, on drain and shutdown, and before a `sweep_cell` cache
//! miss is computed, so a slow cell never holds answers that are
//! already finished.
//!
//! ## Why concurrency cannot perturb results
//!
//! Workers share exactly one piece of mutable state: the
//! [`CellCache`]. Point queries are pure functions of their params.
//! `sweep_cell` misses are computed *outside* the cache lock by
//! [`dck_sim::run_sweep_cell`], which is deterministic in `(spec,
//! coords)` alone — so when two workers race on the same miss, both
//! compute the same bits and the second insert is a no-op in value
//! terms. Responses are therefore bit-identical regardless of cache
//! state, worker interleaving, or request arrival order; the
//! `cached` flag in the payload is the only field that reflects
//! timing, and it is metadata, not data.
//!
//! ## Shutdown
//!
//! No signal handler is possible without `unsafe`, so shutdown is a
//! protocol request. On `shutdown` the handling worker acknowledges,
//! flips the shared flag, and pokes the accept loop awake with a
//! dummy connection. The accept loop stops handing out work; workers
//! notice the flag at their next read timeout (connections are read
//! with a short timeout for exactly this reason), finish the request
//! in flight, and drain. `serve` then joins the scope and returns the
//! session's [`ServeSummary`].

use crate::cache::{CellCache, CellKey};
use crate::protocol::{self, codes, Envelope, WireError, MAX_LINE_BYTES};
use crate::queries::{self, decode_params, SweepCellParams};
use serde::Serialize;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// How long a worker blocks in `read` before re-checking the shutdown
/// flag. Bounds drain latency; invisible to clients otherwise.
const READ_TICK: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4717` (`:0` for an ephemeral
    /// port, reported through `on_bound`).
    pub addr: String,
    /// Worker threads; 0 picks a small automatic default.
    pub workers: usize,
    /// Sweep-cell cache capacity in cells; 0 disables the cache.
    pub cache_cells: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache_cells: 256,
        }
    }
}

/// What a serving session did, reported after shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted and handed to workers.
    pub connections: u64,
    /// Request lines answered (including error responses).
    pub requests: u64,
    /// Requests answered with an `err` envelope.
    pub errors: u64,
    /// `sweep_cell` answers served from cache.
    pub cache_hits: u64,
    /// `sweep_cell` answers computed on demand.
    pub cache_misses: u64,
    /// Connections dropped because the handler panicked. The panic is
    /// contained in the worker (the thread survives and returns to the
    /// queue); a non-zero count means a compute bug slipped past the
    /// request validators.
    pub worker_panics: u64,
}

struct ServerCtx {
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// `DCK_SERVE_PANIC_ID`, read once at start-up (see [`dispatch`]).
    panic_id: Option<String>,
    cache: Mutex<CellCache>,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    worker_panics: AtomicU64,
}

impl ServerCtx {
    fn new(addr: SocketAddr, cache_cells: usize) -> Self {
        ServerCtx {
            shutdown: AtomicBool::new(false),
            addr,
            panic_id: std::env::var("DCK_SERVE_PANIC_ID").ok(),
            cache: Mutex::new(CellCache::new(cache_cells)),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
        }
    }
}

fn resolved_workers(n: usize) -> usize {
    if n > 0 {
        n
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(2, 8)
    }
}

/// Runs the server until a `shutdown` request arrives.
///
/// `on_bound` is invoked once with the actual bound address (useful
/// with port 0) before the first connection is accepted.
///
/// # Errors
/// Only binding and accept-loop failures surface here; per-connection
/// I/O errors (a client vanishing mid-request) are contained in the
/// worker that saw them.
pub fn serve(cfg: &ServeConfig, on_bound: impl FnOnce(SocketAddr)) -> io::Result<ServeSummary> {
    let listener = TcpListener::bind(cfg.addr.as_str())?;
    let addr = listener.local_addr()?;
    let ctx = ServerCtx::new(addr, cfg.cache_cells);
    on_bound(addr);
    let workers = resolved_workers(cfg.workers);
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        let ctx_ref = &ctx;
        let rx_ref = &rx;
        for _ in 0..workers {
            scope.spawn(move || worker_loop(rx_ref, ctx_ref));
        }
        for conn in listener.incoming() {
            if ctx.shutdown.load(Ordering::Relaxed) {
                break;
            }
            if let Ok(stream) = conn {
                ctx.connections.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    break;
                }
            }
        }
        drop(tx);
    });
    Ok(ctx.summary())
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<TcpStream>>, ctx: &ServerCtx) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            match guard.recv() {
                Ok(s) => s,
                Err(_) => return,
            }
        };
        // A connection-level I/O error (peer reset, broken pipe) ends
        // that conversation only; the worker returns to the queue. The
        // same goes for a panic anywhere in the compute path: the
        // connection is dropped, the count is recorded, and the worker
        // keeps serving — one poisoned request must not take a worker
        // (and eventually the whole pool) down with it.
        if catch_unwind(AssertUnwindSafe(|| {
            let _ = handle_connection(stream, ctx);
        }))
        .is_err()
        {
            ctx.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Outcome of reading one line with the timeout-aware retry loop.
enum LineRead {
    /// A complete line (trailing newline stripped by caller).
    Line,
    /// Clean end of stream with no pending partial line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// Shutdown was requested while the connection sat idle.
    Drain,
}

fn read_request_line(
    reader: &mut io::Take<BufReader<TcpStream>>,
    line: &mut String,
    ctx: &ServerCtx,
) -> io::Result<LineRead> {
    line.clear();
    reader.set_limit(MAX_LINE_BYTES as u64 + 1);
    loop {
        match reader.read_line(line) {
            Ok(0) => {
                // EOF — either the stream really ended, or `Take`
                // exhausted its budget mid-line (oversized).
                if line.len() > MAX_LINE_BYTES || reader.limit() == 0 {
                    return Ok(LineRead::Oversized);
                }
                return if line.is_empty() {
                    Ok(LineRead::Eof)
                } else {
                    Ok(LineRead::Line) // final line without newline
                };
            }
            Ok(_) => {
                if line.len() > MAX_LINE_BYTES {
                    return Ok(LineRead::Oversized);
                }
                return Ok(LineRead::Line);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick. Keep any partial line already buffered and
                // retry; bail out only to drain an idle connection.
                if ctx.shutdown.load(Ordering::Relaxed) && line.is_empty() {
                    return Ok(LineRead::Drain);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &ServerCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TICK))?;
    // Without this, Nagle holds the response until the client's delayed
    // ACK fires and every request-response turn eats a ~40ms stall.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_LINE_BYTES as u64 + 1);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        // The flush rule (module docs): send the gathered answers
        // before a read that could block, that is whenever the reader
        // holds no complete request line.
        if !reader.get_ref().buffer().contains(&b'\n') {
            writer.flush()?;
        }
        match read_request_line(&mut reader, &mut line, ctx)? {
            LineRead::Eof | LineRead::Drain => return writer.flush(),
            LineRead::Oversized => {
                // The stream can no longer be framed: answer and close.
                ctx.requests.fetch_add(1, Ordering::Relaxed);
                ctx.errors.fetch_add(1, Ordering::Relaxed);
                let err = WireError::new(
                    codes::OVERSIZED,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                send_line(&mut writer, protocol::err_line(None, &err))?;
                writer.flush()?;
                // Drain the rest of the offending line before closing:
                // closing with unread receive data can RST the
                // connection and destroy the error response in flight.
                discard_rest_of_line(&mut reader);
                return Ok(());
            }
            LineRead::Line => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let (response, control) = answer_line(trimmed, ctx, &mut writer);
                send_line(&mut writer, response)?;
                match control {
                    Control::Continue => {
                        // Drain semantics: finish the in-flight request
                        // (just done), then stop taking new ones.
                        if ctx.shutdown.load(Ordering::Relaxed) {
                            return writer.flush();
                        }
                    }
                    Control::Shutdown => {
                        writer.flush()?;
                        ctx.shutdown.store(true, Ordering::Relaxed);
                        wake_acceptor(ctx.addr);
                        return Ok(());
                    }
                }
            }
        }
    }
}

/// Reads and discards input up to and including the next newline, with
/// byte and time budgets so a hostile endless line cannot pin the
/// worker. Best-effort: any failure just means the close may be
/// abrupt.
fn discard_rest_of_line(reader: &mut io::Take<BufReader<TcpStream>>) {
    const DRAIN_BYTE_BUDGET: u64 = 16 * 1024 * 1024;
    const DRAIN_TICK_BUDGET: u32 = 20; // ~2s of READ_TICK timeouts
                                       // `get_mut` bypasses the `Take` budget, so count drained bytes by
                                       // hand.
    let inner = reader.get_mut();
    let mut idle_ticks = 0u32;
    let mut drained = 0u64;
    loop {
        match inner.fill_buf() {
            Ok([]) => return, // EOF
            Ok(buf) => {
                idle_ticks = 0;
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    inner.consume(pos + 1);
                    return;
                }
                let n = buf.len();
                drained += n as u64;
                inner.consume(n);
                if drained > DRAIN_BYTE_BUDGET {
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                idle_ticks += 1;
                if idle_ticks > DRAIN_TICK_BUDGET {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Appends one answer line and its newline to the connection's write
/// buffer in one `write_all`, so an answer longer than the buffer is
/// still one write. It does not flush: `handle_connection` sends the
/// buffer by the flush rule in the module docs, so an answer waits at
/// most for the requests already in the same read buffer.
fn send_line(writer: &mut BufWriter<TcpStream>, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Unblocks `listener.incoming()` after the shutdown flag flips; the
/// accept loop re-checks the flag before dispatching the connection.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

enum Control {
    Continue,
    Shutdown,
}

/// Answers one request line. `pending` holds the connection's answers
/// not yet sent; a `sweep_cell` miss flushes it before computing.
fn answer_line(line: &str, ctx: &ServerCtx, pending: &mut dyn Write) -> (String, Control) {
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    if dck_obs::enabled() {
        dck_obs::incr("serve.requests");
    }
    let req = match protocol::parse_envelope(line) {
        Ok(r) => r,
        Err(e) => {
            ctx.errors.fetch_add(1, Ordering::Relaxed);
            return (protocol::err_line(None, &e), Control::Continue);
        }
    };
    let (result, control) = dispatch(&req, ctx, pending);
    match result {
        Ok(response) => (response, control),
        Err(e) => {
            ctx.errors.fetch_add(1, Ordering::Relaxed);
            if dck_obs::enabled() {
                dck_obs::incr("serve.errors");
            }
            (protocol::err_line(Some(&req.id), &e), Control::Continue)
        }
    }
}

/// The `ping` answer.
#[derive(Serialize)]
struct Pong {
    pong: bool,
}

/// The `shutdown` answer.
#[derive(Serialize)]
struct Draining {
    draining: bool,
}

/// The success line for `req` carrying `answer`, written straight from
/// the typed answer.
fn reply<T: Serialize>(req: &Envelope, answer: Result<T, WireError>) -> Result<String, WireError> {
    answer.map(|a| protocol::ok_line(&req.id, a))
}

/// Answers `req`: its success line, or the error to put in its error
/// line.
fn dispatch(
    req: &Envelope,
    ctx: &ServerCtx,
    pending: &mut dyn Write,
) -> (Result<String, WireError>, Control) {
    // Fault injection for the containment e2e, mirroring the sweep
    // engine's DCK_SWEEP_PANIC_UNIT: a request whose id matches
    // DCK_SERVE_PANIC_ID panics inside the worker, exercising the
    // catch_unwind in `worker_loop` and the `worker_panics` counter.
    // The variable is read once, when the server starts.
    if ctx
        .panic_id
        .as_deref()
        .is_some_and(|id| req.id.as_str() == Some(id))
    {
        panic!("injected serve panic (DCK_SERVE_PANIC_ID matched the request id)");
    }
    match &*req.method {
        "ping" => (reply(req, Ok(Pong { pong: true })), Control::Continue),
        "shutdown" => (
            reply(req, Ok(Draining { draining: true })),
            Control::Shutdown,
        ),
        "waste" => {
            let answer = decode_params(req.params).and_then(|p| queries::waste_answer(&p));
            (reply(req, answer), Control::Continue)
        }
        "risk" => {
            let answer = decode_params(req.params).and_then(|p| queries::risk_answer(&p));
            (reply(req, answer), Control::Continue)
        }
        "pstar" => {
            let answer = decode_params(req.params).and_then(|p| queries::pstar_answer(&p));
            (reply(req, answer), Control::Continue)
        }
        "sweep_cell" => {
            let answer = decode_params(req.params).and_then(|p| sweep_cell(p, ctx, pending));
            (reply(req, answer), Control::Continue)
        }
        other => (
            Err(WireError::new(
                codes::UNKNOWN_METHOD,
                format!(
                    "unknown method `{other}` (known: ping, waste, risk, pstar, sweep_cell, shutdown)"
                ),
            )),
            Control::Continue,
        ),
    }
}

fn sweep_cell(
    params: SweepCellParams,
    ctx: &ServerCtx,
    pending: &mut dyn Write,
) -> Result<queries::SweepCellAnswer, WireError> {
    let q = queries::sweep_cell_query(params)?;
    let key = CellKey {
        fingerprint: q.fingerprint,
        mtbf_idx: q.mtbf_idx,
        phi_idx: q.phi_idx,
    };
    // A poisoned cache mutex (a panic mid-insert, which the panic-
    // safety policy should make unreachable) degrades to cache-off
    // behaviour rather than killing the worker.
    let hit = ctx.cache.lock().ok().and_then(|mut c| c.get(&key));
    if let Some(cell) = hit {
        ctx.cache_hits.fetch_add(1, Ordering::Relaxed);
        if dck_obs::enabled() {
            dck_obs::incr("serve.cache_hits");
        }
        return Ok(queries::sweep_cell_answer(&q, &cell, true));
    }
    ctx.cache_misses.fetch_add(1, Ordering::Relaxed);
    if dck_obs::enabled() {
        dck_obs::incr("serve.cache_misses");
    }
    // A cell can take a while: send the answers already finished
    // first. A failed flush keeps them buffered, and the next flush
    // reports the broken connection.
    let _ = pending.flush();
    // Computed outside the lock: concurrent misses of the same key do
    // redundant work but produce identical bits, so last-write-wins
    // insertion is harmless.
    let cell = queries::compute_sweep_cell(&q)?;
    if let Ok(mut c) = ctx.cache.lock() {
        c.insert(key, cell);
    }
    Ok(queries::sweep_cell_answer(&q, &cell, false))
}
