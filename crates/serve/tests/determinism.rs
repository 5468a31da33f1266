//! The serving contract under fire: N concurrent clients hammering
//! `sweep_cell` in shuffled orders must each receive bits identical to
//! a direct `run_sweep` of the same spec — whatever the cache held,
//! whichever worker answered, whoever asked first.

use dck_serve::{serve, ServeConfig};
use dck_sim::{run_sweep, sweep_spec_fingerprint, SweepCell, SweepSpec};
use serde::{Deserialize, Map, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;

fn test_spec() -> SweepSpec {
    let params = dck_core::PlatformParams::new(0.0, 2.0, 4.0, 10.0, 48).unwrap();
    let mut spec = SweepSpec::new(
        dck_core::Protocol::DoubleNbl,
        params,
        vec![0.0, 0.5, 1.0],
        vec![1800.0, 3600.0],
    );
    spec.replications = 48;
    spec.work_in_mtbfs = 10.0;
    spec.seed = 0x7E57;
    spec
}

fn assert_cells_bit_identical(got: &SweepCell, want: &SweepCell, ctx: &str) {
    assert_eq!(
        got.phi_ratio.to_bits(),
        want.phi_ratio.to_bits(),
        "{ctx}: phi_ratio"
    );
    assert_eq!(got.mtbf.to_bits(), want.mtbf.to_bits(), "{ctx}: mtbf");
    assert_eq!(got.period.to_bits(), want.period.to_bits(), "{ctx}: period");
    assert_eq!(
        got.model_waste.to_bits(),
        want.model_waste.to_bits(),
        "{ctx}: model_waste"
    );
    assert_eq!(
        got.sim_waste.map(f64::to_bits),
        want.sim_waste.map(f64::to_bits),
        "{ctx}: sim_waste"
    );
    assert_eq!(
        got.half_width.map(f64::to_bits),
        want.half_width.map(f64::to_bits),
        "{ctx}: half_width"
    );
    assert_eq!(got.completed, want.completed, "{ctx}: completed");
    assert_eq!(got.fatal, want.fatal, "{ctx}: fatal");
    assert_eq!(got.truncated, want.truncated, "{ctx}: truncated");
    assert_eq!(
        got.replications_run, want.replications_run,
        "{ctx}: replications_run"
    );
}

fn request_line(id: &str, method: &str, params: Value) -> String {
    let mut req = Map::new();
    req.insert("v", Value::U64(1));
    req.insert("id", Value::String(id.to_string()));
    req.insert("method", Value::String(method.to_string()));
    req.insert("params", params);
    serde_json::to_string(&Value::Object(req)).unwrap()
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Value {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    serde_json::from_str(response.trim()).unwrap()
}

#[test]
fn concurrent_sweep_cell_responses_are_bit_identical_to_run_sweep() {
    let spec = test_spec();
    let reference = run_sweep(&spec).expect("reference sweep");
    let fp = format!("{:016x}", sweep_spec_fingerprint(&spec));
    let rows = spec.mtbfs.len();
    let cols = spec.phi_ratios.len();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        cache_cells: 3, // smaller than the 6-cell grid: force evictions mid-test
    };
    let (addr_tx, addr_rx) = mpsc::channel::<SocketAddr>();
    let server = std::thread::spawn(move || {
        serve(&cfg, |addr| {
            addr_tx.send(addr).unwrap();
        })
        .expect("serve")
    });
    let addr = addr_rx.recv().expect("bound address");

    const CLIENTS: usize = 8;
    const PASSES: usize = 3; // revisit every cell: hit, miss-after-evict, hit
    let spec_ref = &spec;
    let reference_ref = &reference;
    let fp_ref = &fp;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let cells = rows * cols;
                for pass in 0..PASSES {
                    for k in 0..cells {
                        // Each client walks the grid from a different
                        // offset so concurrent arrival order differs.
                        let cell_idx = (k + client * (1 + pass)) % cells;
                        let (mi, pi) = (cell_idx / cols, cell_idx % cols);
                        let mut params = Map::new();
                        params.insert("spec", spec_ref.to_value());
                        params.insert("mtbf_idx", Value::U64(mi as u64));
                        params.insert("phi_idx", Value::U64(pi as u64));
                        let id = format!("c{client}-p{pass}-k{k}");
                        let v = roundtrip(
                            &mut reader,
                            &mut writer,
                            &request_line(&id, "sweep_cell", Value::Object(params)),
                        );
                        assert_eq!(v.get("id").and_then(Value::as_str), Some(id.as_str()));
                        let ok = v.get("ok").unwrap_or_else(|| {
                            panic!("cell ({mi},{pi}) errored: {v:?}");
                        });
                        assert_eq!(
                            ok.get("fingerprint").and_then(Value::as_str),
                            Some(fp_ref.as_str())
                        );
                        let got = SweepCell::from_value(ok.get("cell").unwrap()).unwrap();
                        let want = &reference_ref.cells[cell_idx];
                        assert_cells_bit_identical(
                            &got,
                            want,
                            &format!("client {client} pass {pass} cell ({mi},{pi})"),
                        );
                    }
                }
                // Point queries must be identical across clients too:
                // compare the full response line against a fixed id.
                let mut params = Map::new();
                params.insert("protocol", Value::String("triple".into()));
                params.insert("phi_ratio", Value::F64(0.5));
                params.insert("mtbf_s", Value::F64(25_200.0));
                let v = roundtrip(
                    &mut reader,
                    &mut writer,
                    &request_line("shared", "waste", Value::Object(params)),
                );
                let direct = {
                    let p = dck_core::Scenario::base().params;
                    let phi = dck_core::OverlapModel::new(&p).phi_from_ratio(0.5);
                    dck_core::Evaluation::at_optimal_period(
                        dck_core::Protocol::Triple,
                        &p,
                        phi,
                        25_200.0,
                    )
                    .unwrap()
                };
                let total = v
                    .get("ok")
                    .unwrap()
                    .get("waste")
                    .unwrap()
                    .get("total")
                    .unwrap()
                    .as_f64()
                    .unwrap();
                assert_eq!(total.to_bits(), direct.waste.total.to_bits());
            });
        }
    });

    // Shut the server down over the wire and check the session ledger.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let v = roundtrip(
        &mut reader,
        &mut writer,
        &request_line("bye", "shutdown", Value::Null),
    );
    assert_eq!(
        v.get("ok")
            .and_then(|o| o.get("draining"))
            .and_then(Value::as_bool),
        Some(true)
    );
    let summary = server.join().expect("server thread");
    let sweep_requests = (CLIENTS * PASSES * rows * cols) as u64;
    assert_eq!(summary.requests, sweep_requests + CLIENTS as u64 + 1);
    assert_eq!(summary.errors, 0, "no request may error: {summary:?}");
    assert_eq!(summary.cache_hits + summary.cache_misses, sweep_requests);
    assert!(summary.cache_hits > 0, "revisits must hit: {summary:?}");
    assert!(
        summary.cache_misses >= (rows * cols) as u64,
        "every cell misses at least once: {summary:?}"
    );
}
