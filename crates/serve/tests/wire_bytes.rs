//! The exact bytes `dck serve` puts on the wire, pinned as constants.
//!
//! Every other serve test compares answers with lines built by the same
//! encoder the server uses, so a change to that encoder (float
//! formatting, key order, escaping, integer ids) would pass them all.
//! These constants were captured from the server once and never
//! regenerated: an answer that moves by one byte fails here.

use dck_serve::{serve, ServeConfig, ServeSummary};
use dck_sim::{sweep_spec_fingerprint, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A small sweep spec; its cells take milliseconds to compute.
const SPEC: &str = r#"{"protocol":"DoubleNbl","params":{"downtime":0.0,"delta":2.0,"theta_min":4.0,"alpha":10.0,"nodes":48},"phi_ratios":[0.0,1.0],"mtbfs":[1800.0,3600.0],"work_in_mtbfs":10.0,"replications":16,"seed":32343,"workers":0,"source":"Exponential","early_stop":null}"#;

/// `sweep_spec_fingerprint` of [`SPEC`]: the key of the serve cache and
/// of checkpoint snapshot files.
const SPEC_FINGERPRINT: u64 = 0x6136_49a9_6201_7982;

const PING: (&str, &str) = (
    r#"{"v":1,"id":"p","method":"ping"}"#,
    r#"{"v":1,"id":"p","ok":{"pong":true}}"#,
);

const WASTE: (&str, &str) = (
    r#"{"v":1,"id":"w","method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":25200}}"#,
    r#"{"v":1,"id":"w","ok":{"protocol":"double-nbl","phi_ratio":0.5,"phi_s":2.0,"theta_s":24.0,"mtbf_s":25200.0,"period_s":448.74937325861526,"period_source":"closed_form","waste":{"fault_free":0.008913661474229605,"failure_induced":0.010014868517036018,"total":0.018839260843595773,"failure_loss_s":252.37468662930763},"efficiency":0.9811607391564042,"risk_window_s":28.0}}"#,
);

/// Tiny probabilities print as long plain decimals, never with an
/// exponent.
const RISK: (&str, &str) = (
    r#"{"v":1,"id":"r","method":"risk","params":{"protocol":"triple","mtbf_s":3600,"life_s":1209600,"phi_ratio":0.25}}"#,
    r#"{"v":1,"id":"r","ok":{"protocol":"triple","mtbf_s":3600.0,"life_s":1209600.0,"theta_s":34.0,"risk_window_s":72.0,"lambda_per_s":0.000000026791838134430727,"probability":0.9999999974994722,"base_probability":0.00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004573013321965393,"fatal_rate_per_group":0.0000000000007235450113465089}}"#,
);

const PSTAR: (&str, &str) = (
    r#"{"v":1,"id":"s","method":"pstar","params":{"protocol":"double-bof","phi_ratio":1,"mtbf_s":1800,"scenario":"exa"}}"#,
    r#"{"v":1,"id":"s","ok":{"protocol":"double-bof","phi_ratio":1.0,"mtbf_s":1800.0,"period_s":540.0,"period_source":"closed_form","waste_total":0.375}}"#,
);

/// The `sweep_cell` answer body for [`SPEC`] at `(mtbf_idx 1, phi_idx
/// 0)`, up to its `cached` flag.
const CELL_BODY: &str = r#""ok":{"cell":{"phi_ratio":0.0,"mtbf":3600.0,"period":119.19731540601072,"model_waste":0.04616592094611416,"sim_waste":0.04750999523345271,"half_width":0.00556211463360554,"completed":16,"fatal":0,"truncated":0,"replications_run":16},"fingerprint":"613649a962017982","mtbf_idx":1,"phi_idx":0,"cached":"#;

/// A negative integer id is echoed as written.
const UNKNOWN_METHOD: (&str, &str) = (
    r#"{"v":1,"id":-7,"method":"frobnicate"}"#,
    r#"{"v":1,"id":-7,"err":{"code":"unknown_method","message":"unknown method `frobnicate` (known: ping, waste, risk, pstar, sweep_cell, shutdown)"}}"#,
);

/// The parser's message carries a quote, so this also pins escaping.
const MALFORMED: (&str, &str) = (
    r#"{"v":1,"id":"x","#,
    r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request is not JSON: expected `\"` at byte 16"}}"#,
);

const BAD_PARAMS: (&str, &str) = (
    r#"{"v":1,"id":"b","method":"waste","params":{"protocol":"double-nbl","phi_ratio":1.5,"mtbf_s":3600}}"#,
    r#"{"v":1,"id":"b","err":{"code":"bad_params","message":"param `phi_ratio` must lie in [0, 1], got 1.5"}}"#,
);

/// One line of 10 000 `[` bytes: far under the line cap, far over the
/// parser's nesting cap.
const DEEP_ANSWER: &str = r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request is not JSON: nesting deeper than 128 levels at byte 128"}}"#;

/// The answer to a 65 384-byte `waste` line whose params hold 6 645
/// distinct keys and no `protocol`.
const MANY_KEYS_ANSWER: &str =
    r#"{"v":1,"id":"k","err":{"code":"bad_params","message":"missing required param `protocol`"}}"#;

/// [`SPEC`] with `"replications": 1e15`, over the per-request budget.
const HUGE_ANSWER: &str = r#"{"v":1,"id":"h","err":{"code":"bad_params","message":"param `spec` asks for 1000000000000000 replications x 10 MTBFs of work; this server computes at most 10000000 replication-MTBFs per sweep_cell, counting each replication as at least 1 MTBF"}}"#;

fn sweep_cell_request(id: &str) -> String {
    format!(
        r#"{{"v":1,"id":"{id}","method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":1,"phi_idx":0}}}}"#
    )
}

fn sweep_cell_answer(id: &str, cached: bool) -> String {
    format!(r#"{{"v":1,"id":"{id}",{CELL_BODY}{cached}}}}}"#)
}

fn start() -> (SocketAddr, JoinHandle<ServeSummary>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_cells: 4,
    };
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let server = std::thread::spawn(move || {
        serve(&cfg, |addr| {
            addr_tx.send(addr).unwrap();
        })
        .expect("serve")
    });
    (addr_rx.recv().expect("bound address"), server)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends one request line and returns the answer line, newline
    /// included.
    fn exchange(&mut self, request: &str) -> String {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut answer = String::new();
        self.reader.read_line(&mut answer).unwrap();
        answer
    }
}

#[test]
fn every_method_answers_with_pinned_bytes() {
    let (addr, server) = start();
    let mut conn = Conn::open(addr);
    for (request, want) in [
        PING,
        WASTE,
        RISK,
        PSTAR,
        UNKNOWN_METHOD,
        MALFORMED,
        BAD_PARAMS,
    ] {
        assert_eq!(conn.exchange(request), format!("{want}\n"), "{request}");
    }
    // The same cell twice on a fresh cache: computed, then served from
    // the cache with the same bytes but for the flag.
    for (id, cached) in [("c1", false), ("c2", true)] {
        assert_eq!(
            conn.exchange(&sweep_cell_request(id)),
            format!("{}\n", sweep_cell_answer(id, cached)),
            "sweep_cell {id}"
        );
    }
    assert_eq!(
        conn.exchange(r#"{"v":1,"id":"q","method":"shutdown"}"#),
        "{\"v\":1,\"id\":\"q\",\"ok\":{\"draining\":true}}\n"
    );
    let summary = server.join().expect("server thread");
    assert_eq!((summary.cache_misses, summary.cache_hits), (1, 1));
}

/// Each of these requests once ended the whole server: the recursive
/// parser overflowed its stack on the deep line, and the sweep pool
/// sized an allocation by the huge spec's replication count. Both now
/// get a typed error, and the same connection still gets a `pong`. The
/// line of 6 645 keys, under the line cap, held a worker for 78 ms
/// while the parser searched the keys read so far at every key.
#[test]
fn hostile_requests_get_typed_errors_and_the_server_lives() {
    let (addr, server) = start();
    let mut conn = Conn::open(addr);
    assert_eq!(
        conn.exchange(&"[".repeat(10_000)),
        format!("{DEEP_ANSWER}\n")
    );
    let huge = sweep_cell_request("h").replace(r#""replications":16"#, r#""replications":1e15"#);
    assert_eq!(conn.exchange(&huge), format!("{HUGE_ANSWER}\n"));
    let keys: Vec<String> = (0..6_645).map(|i| format!("\"k{i}\":0")).collect();
    let many = format!(
        r#"{{"v":1,"id":"k","method":"waste","params":{{{}}}}}"#,
        keys.join(",")
    );
    assert_eq!(many.len(), 65_384);
    assert!(many.len() < dck_serve::MAX_LINE_BYTES);
    assert_eq!(conn.exchange(&many), format!("{MANY_KEYS_ANSWER}\n"));
    assert_eq!(conn.exchange(PING.0), format!("{}\n", PING.1));
    conn.exchange(r#"{"v":1,"id":"q","method":"shutdown"}"#);
    let summary = server.join().expect("server thread");
    assert_eq!((summary.cache_misses, summary.cache_hits), (0, 0));
}

/// Request lines that exercise how a request is decoded, with the
/// answers the server gave when each field was read out of a whole
/// parsed tree: these pin field matching, precedence and every
/// parameter error message.
fn decoding_pins() -> Vec<(String, &'static str)> {
    vec![
        // Key order, duplicates (the last wins), `"v":1.0`, unknown and
        // escaped keys, and `null` for an optional param.
        (
            r#"{"params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":25200},"id":"w","method":"waste","v":1}"#.to_string(),
            r#"{"v":1,"id":"w","ok":{"protocol":"double-nbl","phi_ratio":0.5,"phi_s":2.0,"theta_s":24.0,"mtbf_s":25200.0,"period_s":448.74937325861526,"period_source":"closed_form","waste":{"fault_free":0.008913661474229605,"failure_induced":0.010014868517036018,"total":0.018839260843595773,"failure_loss_s":252.37468662930763},"efficiency":0.9811607391564042,"risk_window_s":28.0}}"#,
        ),
        (
            r#"{"v":1,"id":"s","method":"waste","method":"pstar","params":{"protocol":"double-bof","phi_ratio":0.25,"phi_ratio":1,"mtbf_s":1800,"scenario":"exa"}}"#.to_string(),
            r#"{"v":1,"id":"s","ok":{"protocol":"double-bof","phi_ratio":1.0,"mtbf_s":1800.0,"period_s":540.0,"period_source":"closed_form","waste_total":0.375}}"#,
        ),
        (
            r#"{"v":1.0,"id":"p","method":"ping"}"#.to_string(),
            r#"{"v":1,"id":"p","ok":{"pong":true}}"#,
        ),
        (
            r#"{"v":1,"id":"r","method":"risk","params":{"protocol":"triple","colour":{"r":[1,"x",null]},"mtbf_s":3600,"life_s":1209600,"phi_ratio":0.25}}"#.to_string(),
            r#"{"v":1,"id":"r","ok":{"protocol":"triple","mtbf_s":3600.0,"life_s":1209600.0,"theta_s":34.0,"risk_window_s":72.0,"lambda_per_s":0.000000026791838134430727,"probability":0.9999999974994722,"base_probability":0.00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004573013321965393,"fatal_rate_per_group":0.0000000000007235450113465089}}"#,
        ),
        (
            r#"{"v":1,"id":"s","method":"pstar","params":{"protocol":"double-bof","phi_ratio":1,"mtbf_s":1800,"scenario":"exa","nodes":null,"alpha":null,"downtime_s":null}}"#.to_string(),
            r#"{"v":1,"id":"s","ok":{"protocol":"double-bof","phi_ratio":1.0,"mtbf_s":1800.0,"period_s":540.0,"period_source":"closed_form","waste_total":0.375}}"#,
        ),
        (
            r#"{"v":1,"id":"t","method":"risk","params":{"protocol":"triple","mtbf_s":3600,"life_s":1209600,"phi_ratio":null}}"#.to_string(),
            r#"{"v":1,"id":"t","ok":{"protocol":"triple","mtbf_s":3600.0,"life_s":1209600.0,"theta_s":44.0,"risk_window_s":92.0,"lambda_per_s":0.000000026791838134430727,"probability":0.999999995917122,"base_probability":0.00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004573013321965393,"fatal_rate_per_group":0.0000000000011813435524762442}}"#,
        ),
        (
            r#"{"v":1,"id":"u","method":"pstar","params":{"protocol":"double-bof","phi\u005fratio":1,"mtbf_s":1800,"scenario":"exa"}}"#.to_string(),
            r#"{"v":1,"id":"u","ok":{"protocol":"double-bof","phi_ratio":1.0,"mtbf_s":1800.0,"period_s":540.0,"period_source":"closed_form","waste_total":0.375}}"#,
        ),
        // Every message of the required params, in the order they are
        // checked, whatever order the line puts them in.
        (
            r#"{"v":1,"id":1,"method":"waste"}"#.to_string(),
            r#"{"v":1,"id":1,"err":{"code":"bad_params","message":"missing required param `protocol`"}}"#,
        ),
        (
            r#"{"v":1,"id":2,"method":"waste","params":[1,2]}"#.to_string(),
            r#"{"v":1,"id":2,"err":{"code":"bad_params","message":"missing required param `protocol`"}}"#,
        ),
        (
            r#"{"v":1,"id":3,"method":"waste","params":{"protocol":null,"phi_ratio":0.5,"mtbf_s":3600}}"#.to_string(),
            r#"{"v":1,"id":3,"err":{"code":"bad_params","message":"missing required param `protocol`"}}"#,
        ),
        (
            r#"{"v":1,"id":4,"method":"waste","params":{"protocol":"double-nbl","mtbf_s":3600}}"#.to_string(),
            r#"{"v":1,"id":4,"err":{"code":"bad_params","message":"missing required param `phi_ratio`"}}"#,
        ),
        (
            r#"{"v":1,"id":5,"method":"pstar","params":{"protocol":"double-nbl","phi_ratio":0.5}}"#.to_string(),
            r#"{"v":1,"id":5,"err":{"code":"bad_params","message":"missing required param `mtbf_s`"}}"#,
        ),
        (
            r#"{"v":1,"id":6,"method":"risk","params":{"protocol":"triple","mtbf_s":3600}}"#.to_string(),
            r#"{"v":1,"id":6,"err":{"code":"bad_params","message":"missing required param `life_s`"}}"#,
        ),
        (
            r#"{"v":1,"id":7,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":"0.5","mtbf_s":3600}}"#.to_string(),
            r#"{"v":1,"id":7,"err":{"code":"bad_params","message":"param `phi_ratio` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":8,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":true}}"#.to_string(),
            r#"{"v":1,"id":8,"err":{"code":"bad_params","message":"param `mtbf_s` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":9,"method":"risk","params":{"protocol":"triple","mtbf_s":3600,"life_s":[86400]}}"#.to_string(),
            r#"{"v":1,"id":9,"err":{"code":"bad_params","message":"param `life_s` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":10,"method":"risk","params":{"protocol":"triple","mtbf_s":3600,"life_s":86400,"phi_ratio":{}}}"#.to_string(),
            r#"{"v":1,"id":10,"err":{"code":"bad_params","message":"param `phi_ratio` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":11,"method":"waste","params":{"protocol":7,"phi_ratio":0.5,"mtbf_s":3600}}"#.to_string(),
            r#"{"v":1,"id":11,"err":{"code":"bad_params","message":"param `protocol` must be a string"}}"#,
        ),
        (
            r#"{"v":1,"id":12,"method":"waste","params":{"protocol":"quadruple","phi_ratio":0.5,"mtbf_s":3600}}"#.to_string(),
            r#"{"v":1,"id":12,"err":{"code":"bad_params","message":"unknown protocol `quadruple` (known: double-blocking, double-nbl, double-bof, triple, triple-bof, buddy4-nbl, buddy4-bof, buddy5-nbl, buddy5-bof)"}}"#,
        ),
        (
            r#"{"v":1,"id":13,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"scenario":1}}"#.to_string(),
            r#"{"v":1,"id":13,"err":{"code":"bad_params","message":"param `scenario` must be a string"}}"#,
        ),
        (
            r#"{"v":1,"id":14,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"scenario":"moon"}}"#.to_string(),
            r#"{"v":1,"id":14,"err":{"code":"bad_params","message":"unknown scenario `moon` (known: base, exa)"}}"#,
        ),
        (
            r#"{"v":1,"id":15,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"downtime_s":"1"}}"#.to_string(),
            r#"{"v":1,"id":15,"err":{"code":"bad_params","message":"param `downtime_s` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":16,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"delta_s":false}}"#.to_string(),
            r#"{"v":1,"id":16,"err":{"code":"bad_params","message":"param `delta_s` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":17,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"theta_min_s":[]}}"#.to_string(),
            r#"{"v":1,"id":17,"err":{"code":"bad_params","message":"param `theta_min_s` must be a number"}}"#,
        ),
        (
            r#"{"v":1,"id":18,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"alpha":"ten"}}"#.to_string(),
            r#"{"v":1,"id":18,"err":{"code":"bad_params","message":"param `alpha` must be a number"}}"#,
        ),
        // `platform_params` is checked before `phi_ratio`, and in its own
        // order: scenario, downtime_s, delta_s, theta_min_s, alpha, nodes.
        (
            r#"{"v":1,"id":19,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"nodes":1.5}}"#.to_string(),
            r#"{"v":1,"id":19,"err":{"code":"bad_params","message":"param `nodes` must be a positive integer"}}"#,
        ),
        (
            r#"{"v":1,"id":20,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"nodes":-4}}"#.to_string(),
            r#"{"v":1,"id":20,"err":{"code":"bad_params","message":"param `nodes` must be a positive integer"}}"#,
        ),
        (
            r#"{"v":1,"id":21,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"nodes":"48"}}"#.to_string(),
            r#"{"v":1,"id":21,"err":{"code":"bad_params","message":"param `nodes` must be a positive integer"}}"#,
        ),
        (
            r#"{"v":1,"id":22,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"nodes":0}}"#.to_string(),
            r#"{"v":1,"id":22,"err":{"code":"bad_params","message":"invalid parameter `nodes`: must be >= 1"}}"#,
        ),
        (
            r#"{"v":1,"id":23,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":0.5,"mtbf_s":3600,"nodes":48.0}}"#.to_string(),
            r#"{"v":1,"id":23,"ok":{"protocol":"double-nbl","phi_ratio":0.5,"phi_s":2.0,"theta_s":24.0,"mtbf_s":3600.0,"period_s":169.0443728729235,"period_source":"closed_form","waste":{"fault_free":0.023662426214015053,"failure_induced":0.031256162899017156,"total":0.054178992464700926,"failure_loss_s":112.52218643646175},"efficiency":0.9458210075352991,"risk_window_s":28.0}}"#,
        ),
        (
            r#"{"v":1,"id":24,"method":"waste","params":{"protocol":5,"scenario":"moon","phi_ratio":"x","nodes":-1}}"#.to_string(),
            r#"{"v":1,"id":24,"err":{"code":"bad_params","message":"param `protocol` must be a string"}}"#,
        ),
        (
            r#"{"v":1,"id":25,"method":"waste","params":{"protocol":"double-nbl","scenario":"exa","phi_ratio":"x","nodes":-1,"alpha":"y"}}"#.to_string(),
            r#"{"v":1,"id":25,"err":{"code":"bad_params","message":"param `alpha` must be a number"}}"#,
        ),
        // `sweep_cell`: the spec first (whatever its place in the line), then
        // its work budget, then the indices, then the compute.
        (
            r#"{"v":1,"id":30,"method":"sweep_cell"}"#.to_string(),
            r#"{"v":1,"id":30,"err":{"code":"bad_params","message":"missing required param `spec`"}}"#,
        ),
        (
            r#"{"v":1,"id":31,"method":"sweep_cell","params":{"spec":null,"mtbf_idx":0,"phi_idx":0}}"#.to_string(),
            r#"{"v":1,"id":31,"err":{"code":"bad_params","message":"missing required param `spec`"}}"#,
        ),
        (
            r#"{"v":1,"id":32,"method":"sweep_cell","params":{"spec":true,"mtbf_idx":0,"phi_idx":0}}"#.to_string(),
            r#"{"v":1,"id":32,"err":{"code":"bad_params","message":"param `spec` is not a sweep spec: expected object for SweepSpec"}}"#,
        ),
        (
            r#"{"v":1,"id":33,"method":"sweep_cell","params":{"spec":{"protocol":"DoubleNbl"},"mtbf_idx":0,"phi_idx":0}}"#.to_string(),
            r#"{"v":1,"id":33,"err":{"code":"bad_params","message":"param `spec` is not a sweep spec: SweepSpec.params: expected object for PlatformParams"}}"#,
        ),
        (
            format!(r#"{{"v":1,"id":34,"method":"sweep_cell","params":{{"spec":{SPEC},"phi_idx":0}}}}"#),
            r#"{"v":1,"id":34,"err":{"code":"bad_params","message":"missing required param `mtbf_idx`"}}"#,
        ),
        (
            format!(r#"{{"v":1,"id":35,"method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":-1,"phi_idx":0}}}}"#),
            r#"{"v":1,"id":35,"err":{"code":"bad_params","message":"param `mtbf_idx` must be a non-negative integer"}}"#,
        ),
        (
            format!(r#"{{"v":1,"id":36,"method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":1,"phi_idx":0.5}}}}"#),
            r#"{"v":1,"id":36,"err":{"code":"bad_params","message":"param `phi_idx` must be a non-negative integer"}}"#,
        ),
        (
            format!(r#"{{"v":1,"id":37,"method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":1}}}}"#),
            r#"{"v":1,"id":37,"err":{"code":"bad_params","message":"missing required param `phi_idx`"}}"#,
        ),
        (
            format!(r#"{{"v":1,"id":38,"method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":"1","phi_idx":0}}}}"#),
            r#"{"v":1,"id":38,"err":{"code":"bad_params","message":"param `mtbf_idx` must be a non-negative integer"}}"#,
        ),
        (
            format!(r#"{{"v":1,"id":39,"method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":7,"phi_idx":0}}}}"#),
            r#"{"v":1,"id":39,"err":{"code":"bad_params","message":"invalid parameter `mtbf_idx`: index 7 out of range (2 MTBFs)"}}"#,
        ),
        (
            r#"{"v":1,"id":41,"method":"sweep_cell","params":{"spec":{"protocol":"DoubleNbl","params":{"downtime":0.0,"delta":2.0,"theta_min":4.0,"alpha":10.0,"nodes":48},"phi_ratios":[0.0,"x"],"mtbfs":[1800.0],"work_in_mtbfs":10.0,"replications":16,"seed":1,"workers":0,"source":"Exponential","early_stop":null},"mtbf_idx":0,"phi_idx":0}}"#.to_string(),
            r#"{"v":1,"id":41,"err":{"code":"bad_params","message":"param `spec` is not a sweep spec: SweepSpec.phi_ratios: expected number, found String(\"x\")"}}"#,
        ),
        (
            r#"{"v":1,"id":40,"method":"sweep_cell","params":{"mtbf_idx":-1,"phi_idx":"x","spec":{"protocol":"Quintuple"}}}"#.to_string(),
            r#"{"v":1,"id":40,"err":{"code":"bad_params","message":"param `spec` is not a sweep spec: SweepSpec.protocol: unknown Protocol variant `Quintuple`"}}"#,
        ),
        // A syntax error anywhere in the line wins over an ill-typed param.
        (
            r#"{"v":1,"id":"e","method":"waste","params":{"protocol":5,"phi_ratio":}}"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request is not JSON: unexpected character `}` at byte 68"}}"#,
        ),
        (
            r#"{"v":1,"id":"e","method":"waste","params":{"protocol":5,"phi_ratio":0.5,"mtbf_s":3600}} x"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request is not JSON: trailing characters at byte 88"}}"#,
        ),
        (
            r#"{"v":1,"id":"e","method":"waste","params":{"protocol":"double-nbl","phi_ratio":"x","mtbf_s":[1,]}}"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request is not JSON: unexpected character `]` at byte 95"}}"#,
        ),
        // The envelope: duplicates, ill-typed `v` and `method`, no fields.
        (
            r#"{"v":2,"method":"ping","v":1,"id":"p"}"#.to_string(),
            r#"{"v":1,"id":"p","ok":{"pong":true}}"#,
        ),
        (
            r#"{"v":1,"method":"ping","id":"a","id":"p"}"#.to_string(),
            r#"{"v":1,"id":"p","ok":{"pong":true}}"#,
        ),
        (
            r#"{"v":1,"id":"p","method":7,"method":"ping"}"#.to_string(),
            r#"{"v":1,"id":"p","ok":{"pong":true}}"#,
        ),
        (
            r#"{"v":null,"id":"n","method":"ping"}"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"unsupported_version","message":"this server speaks v1; re-send with \"v\":1"}}"#,
        ),
        (
            r#"{"id":"x","v":1,"v":"1","method":"ping"}"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"unsupported_version","message":"this server speaks v1; re-send with \"v\":1"}}"#,
        ),
        (
            r#"{"v":1,"id":"m","method":["ping"]}"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"`method` must be a string"}}"#,
        ),
        (
            r#"{"id":5,"params":{}}"#.to_string(),
            r#"{"v":1,"id":null,"err":{"code":"bad_request","message":"request must be an object with `v` and `method` fields"}}"#,
        ),
    ]
}

#[test]
fn decoding_answers_with_pinned_bytes() {
    let (addr, server) = start();
    let mut conn = Conn::open(addr);
    for (request, want) in decoding_pins() {
        assert_eq!(conn.exchange(&request), format!("{want}\n"), "{request}");
    }
    conn.exchange(r#"{"v":1,"id":"q","method":"shutdown"}"#);
    server.join().expect("server thread");
}

#[test]
fn sweep_spec_fingerprint_is_pinned() {
    let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
    assert_eq!(serde_json::to_string(&spec).unwrap(), SPEC);
    assert_eq!(sweep_spec_fingerprint(&spec), SPEC_FINGERPRINT);
    assert!(CELL_BODY.contains(&format!("\"{SPEC_FINGERPRINT:016x}\"")));
}
