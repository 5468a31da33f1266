//! Load generator paired with the server.
//!
//! Drives `threads × concurrency` blocking client connections (one OS
//! thread per connection — the protocol is synchronous per
//! connection, so this is the natural shape without an async runtime)
//! for a fixed duration against a running `dck serve`, measuring
//! per-request round-trip latency.
//!
//! The request **mix is deterministic**: each client derives a
//! SplitMix64 stream from `(seed, client index)` and rotates through
//! `waste` → `risk` → `pstar` → `sweep_cell` with parameters drawn
//! from small fixed grids. All clients share one sweep spec, so
//! `sweep_cell` traffic exercises the server's cell cache (first
//! touches miss and compute, the rest hit). What remains
//! nondeterministic is only *timing* — which is the thing being
//! measured.
//!
//! Latencies feed the `dck-obs` histogram machinery
//! (`serve.client_latency_us`) when metrics are enabled *and* are kept
//! raw, because exact p999 needs the sorted sample set, not
//! power-of-two buckets. The result is a validated
//! [`ServeBenchReport`] (`BENCH_serve.json`).

use dck_bench::{latency_ladder, Report, ServeBenchConfig, ServeBenchReport, SERVE_SCHEMA};
use dck_core::{Protocol, Scenario};
use dck_sim::SweepSpec;
use serde::{Map, Reader, Serialize, Value};
use serde_json::to_string;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load shape for one `run_loadgen` call.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Client threads.
    pub threads: usize,
    /// Connections per thread.
    pub concurrency: usize,
    /// How long to drive load.
    pub duration: Duration,
    /// Seed of the deterministic request mix.
    pub seed: u64,
}

/// What a loadgen run produced.
#[derive(Debug, Clone)]
pub struct LoadgenOutcome {
    /// The validated report (ready for `BENCH_serve.json`).
    pub report: ServeBenchReport,
    /// Raw latency samples (microseconds), sorted ascending — kept so
    /// callers can do their own tail analysis.
    pub latencies_us: Vec<u64>,
}

/// Methods exercised, in rotation order.
const METHODS: [&str; 4] = ["waste", "risk", "pstar", "sweep_cell"];

const PHI_GRID: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
const MTBF_GRID: [f64; 3] = [1800.0, 3600.0, 25_200.0];

/// Per-request socket timeout: a server answering a cold `sweep_cell`
/// miss needs real compute time, but anything past this is a hang.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The one sweep spec all clients query cells of (small on purpose:
/// a cold cell costs milliseconds, so cache misses perturb the
/// latency distribution without dominating the run).
fn shared_sweep_spec() -> SweepSpec {
    let params = Scenario::base().params;
    let mut spec = SweepSpec::new(
        Protocol::DoubleNbl,
        params,
        vec![0.0, 0.5, 1.0],
        vec![1800.0, 3600.0],
    );
    spec.replications = 16;
    spec.work_in_mtbfs = 2.0;
    spec.seed = 0xD0C5;
    spec
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> Option<T> {
        if xs.is_empty() {
            return None;
        }
        xs.get(self.next() as usize % xs.len()).copied()
    }
}

struct ClientStats {
    latencies_us: Vec<u64>,
    ok: u64,
    errors: u64,
}

fn build_request(
    client: usize,
    n: u64,
    rng: &mut SplitMix64,
    spec_value: &Value,
) -> Option<String> {
    let method = *METHODS.get((n as usize) % METHODS.len())?;
    let mut params = Map::new();
    match method {
        "sweep_cell" => {
            params.insert("spec", spec_value.clone());
            params.insert("mtbf_idx", Value::U64(rng.next() % 2));
            params.insert("phi_idx", Value::U64(rng.next() % 3));
        }
        _ => {
            let protocol = rng.pick(&Protocol::ALL)?;
            params.insert("protocol", Value::String(protocol.id().to_string()));
            params.insert("mtbf_s", Value::F64(rng.pick(&MTBF_GRID)?));
            if method == "risk" {
                params.insert("life_s", Value::F64(14.0 * 86_400.0));
            }
            if method != "risk" || rng.next().is_multiple_of(2) {
                params.insert("phi_ratio", Value::F64(rng.pick(&PHI_GRID)?));
            }
        }
    }
    let mut req = Map::new();
    req.insert("v", Value::U64(crate::protocol::PROTOCOL_VERSION));
    req.insert("id", Value::String(format!("c{client}-{n}")));
    req.insert("method", Value::String(method.to_string()));
    req.insert("params", Value::Object(params));
    to_string(&Value::Object(req)).ok()
}

/// True when `line` is one JSON object with an `ok` key and no `err`
/// key: a successful answer. Reads the line through the bounded reader
/// and builds no tree, only noting which top-level keys it meets.
fn is_ok_answer(line: &str) -> bool {
    let Ok(mut r) = Reader::new(line) else {
        return false;
    };
    if r.peek() != Some(b'{') {
        return false;
    }
    let (mut ok, mut err) = (false, false);
    let read = r.object(|r, key| {
        match &*key {
            "ok" => ok = true,
            "err" => err = true,
            _ => {}
        }
        r.skip()
    });
    read.and_then(|()| r.end()).is_ok() && ok && !err
}

fn client_loop(cfg: &LoadgenConfig, client: usize, deadline: Instant) -> ClientStats {
    let mut stats = ClientStats {
        latencies_us: Vec::new(),
        ok: 0,
        errors: 0,
    };
    let stream = match TcpStream::connect(cfg.addr.as_str()) {
        Ok(s) => s,
        Err(_) => {
            stats.errors += 1;
            return stats;
        }
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).is_err() {
        stats.errors += 1;
        return stats;
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => {
            stats.errors += 1;
            return stats;
        }
    };
    let mut writer = stream;
    let mut rng = SplitMix64(cfg.seed ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let spec_value = shared_sweep_spec().to_value();
    let metrics = dck_obs::enabled();
    let mut line = String::new();
    let mut n = 0u64;
    while Instant::now() < deadline {
        let Some(request) = build_request(client, n, &mut rng, &spec_value) else {
            stats.errors += 1;
            break;
        };
        n += 1;
        let mut framed = request.into_bytes();
        framed.push(b'\n');
        let t0 = Instant::now();
        if writer
            .write_all(&framed)
            .and_then(|()| writer.flush())
            .is_err()
        {
            stats.errors += 1;
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n_read) if n_read > 0 => {}
            _ => {
                stats.errors += 1;
                break;
            }
        }
        let us = (t0.elapsed().as_micros() as u64).max(1);
        if is_ok_answer(line.trim()) {
            stats.ok += 1;
            stats.latencies_us.push(us);
            if metrics {
                dck_obs::observe("serve.client_latency_us", us);
            }
        } else {
            stats.errors += 1;
        }
    }
    stats
}

/// Drives load at the configured shape and assembles the validated
/// report.
///
/// # Errors
/// Fails when the shape is degenerate (zero connections or duration),
/// when no request succeeds (server unreachable or all-error), or when
/// the assembled report does not validate.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenOutcome, String> {
    if cfg.threads == 0 || cfg.concurrency == 0 {
        return Err("load shape needs at least one thread and one connection".to_string());
    }
    if cfg.duration.is_zero() {
        return Err("duration must be positive".to_string());
    }
    let clients = cfg.threads * cfg.concurrency;
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut per_client: Vec<ClientStats> = Vec::with_capacity(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client_loop(cfg, c, deadline)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(s) => per_client.push(s),
                Err(_) => per_client.push(ClientStats {
                    latencies_us: Vec::new(),
                    ok: 0,
                    errors: 1,
                }),
            }
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = Vec::new();
    let mut ok = 0u64;
    let mut errors = 0u64;
    for s in per_client {
        ok += s.ok;
        errors += s.errors;
        latencies.extend(s.latencies_us);
    }
    if ok == 0 {
        return Err(format!(
            "no request succeeded against {} ({errors} errors) — is `dck serve` running there?",
            cfg.addr
        ));
    }
    latencies.sort_unstable();
    // Shared exact-integer nearest-rank ladder (dck-bench) — the old
    // local float-ceil formula overshot ranks at awkward sample counts.
    let latency = latency_ladder(&latencies)
        .ok_or_else(|| "no latency samples despite successful requests".to_string())?;
    let report = ServeBenchReport {
        schema: SERVE_SCHEMA.to_string(),
        config: ServeBenchConfig {
            addr: cfg.addr.clone(),
            threads: cfg.threads,
            concurrency: cfg.concurrency,
            duration_s: cfg.duration.as_secs_f64(),
            seed: cfg.seed,
            methods: METHODS.iter().map(|m| m.to_string()).collect(),
        },
        elapsed_s,
        ok_requests: ok,
        errors,
        req_per_sec: ok as f64 / elapsed_s,
        latency,
    };
    report
        .validate()
        .map_err(|e| format!("loadgen assembled an invalid report: {e}"))?;
    Ok(LoadgenOutcome {
        report,
        latencies_us: latencies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        let l = latency_ladder(&xs).unwrap();
        assert_eq!(l.p50_us, 50);
        assert_eq!(l.p90_us, 90);
        assert_eq!(l.p99_us, 99);
        assert_eq!(l.p999_us, 100, "p999 under 1000 samples is the max");
        assert_eq!(l.max_us, 100);
        let one = latency_ladder(&[7]).unwrap();
        assert_eq!((one.p50_us, one.p999_us, one.max_us), (7, 7, 7));
        assert!(latency_ladder(&[]).is_none());
    }

    #[test]
    fn request_mix_is_deterministic_and_well_formed() {
        let spec = shared_sweep_spec().to_value();
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for n in 0..32 {
            let ra = build_request(3, n, &mut a, &spec).unwrap();
            let rb = build_request(3, n, &mut b, &spec).unwrap();
            assert_eq!(ra, rb, "same seed, same request");
            let v: Value = serde_json::from_str(&ra).unwrap();
            let req = crate::protocol::parse_request(&ra).unwrap();
            assert!(METHODS.contains(&req.method.as_str()));
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(1));
        }
        let sequence = |seed: u64| -> Vec<String> {
            let mut rng = SplitMix64(seed);
            (0..32)
                .map(|n| build_request(3, n, &mut rng, &spec).unwrap())
                .collect()
        };
        assert_ne!(
            sequence(42),
            sequence(43),
            "different seeds should change the mix"
        );
    }

    /// What the client counted as a success before it classified answers
    /// without a tree.
    fn ok_by_tree(line: &str) -> bool {
        serde_json::from_str::<Value>(line)
            .map(|v| v.get("ok").is_some() && v.get("err").is_none())
            .unwrap_or(false)
    }

    #[test]
    fn answers_classify_as_the_tree_did() {
        let answers = [
            // Answer lines pinned by tests/wire_bytes.rs (the cell's id is
            // its request's).
            r#"{"v":1,"id":"p","ok":{"pong":true}}"#,
            r#"{"v":1,"id":"s","ok":{"protocol":"double-bof","phi_ratio":1.0,"mtbf_s":1800.0,"period_s":540.0,"period_source":"closed_form","waste_total":0.375}}"#,
            r#"{"v":1,"id":"w","ok":{"protocol":"double-nbl","phi_ratio":0.5,"phi_s":2.0,"theta_s":24.0,"mtbf_s":25200.0,"period_s":448.74937325861526,"period_source":"closed_form","waste":{"fault_free":0.008913661474229605,"failure_induced":0.010014868517036018,"total":0.018839260843595773,"failure_loss_s":252.37468662930763},"efficiency":0.9811607391564042,"risk_window_s":28.0}}"#,
            r#"{"v":1,"id":"c","ok":{"cell":{"phi_ratio":0.0,"mtbf":3600.0,"period":119.19731540601072,"model_waste":0.04616592094611416,"sim_waste":0.04750999523345271,"half_width":0.00556211463360554,"completed":16,"fatal":0,"truncated":0,"replications_run":16},"fingerprint":"613649a962017982","mtbf_idx":1,"phi_idx":0,"cached":false}}"#,
            r#"{"v":1,"id":"q","ok":{"draining":true}}"#,
            r#"{"v":1,"id":-7,"err":{"code":"unknown_method","message":"unknown method `frobnicate` (known: ping, waste, risk, pstar, sweep_cell, shutdown)"}}"#,
            r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request is not JSON: expected `"` at byte 16"}}"#,
            // Both keys, duplicate keys, nested `ok` only, empty object.
            r#"{"v":1,"ok":{},"err":{"code":"x"}}"#,
            r#"{"ok":1,"ok":2}"#,
            r#"{"v":1,"id":{"ok":true}}"#,
            r#"{}"#,
            // Malformed or not an object.
            r#"{"v":1,"id":"w","ok":{"protocol":"double-nbl""#,
            r#"{"v":1,"ok":true} trailing"#,
            r#"[{"ok":true}]"#,
            r#""ok""#,
            "",
            "not json",
        ];
        for line in answers {
            assert_eq!(is_ok_answer(line), ok_by_tree(line), "{line}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(is_ok_answer(&deep), ok_by_tree(&deep));
        assert!(is_ok_answer(answers[0]) && !is_ok_answer(answers[5]));
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".to_string(),
            threads: 0,
            concurrency: 1,
            duration: Duration::from_millis(10),
            seed: 1,
        };
        assert!(run_loadgen(&cfg).unwrap_err().contains("at least one"));
        let cfg = LoadgenConfig {
            threads: 1,
            duration: Duration::ZERO,
            ..cfg
        };
        assert!(run_loadgen(&cfg).unwrap_err().contains("duration"));
    }
}
