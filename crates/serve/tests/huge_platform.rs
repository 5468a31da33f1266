//! One `sweep_cell` request for a 10¹⁰-node platform must get an
//! answer and leave the server up. Building the run must cost nothing
//! that grows with the node count: an allocation failure aborts the
//! process, which `catch_unwind` in the worker cannot contain. A
//! per-node renewal source does keep state per node, so the same
//! platform with a Weibull source is a typed `bad_params` error.

use dck_failures::DistributionSpec;
use dck_serve::{serve, ServeConfig};
use dck_sim::montecarlo::SourceKind;
use dck_sim::SweepSpec;
use dck_simcore::SimTime;
use serde::{Map, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;

fn request(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Value {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    serde_json::from_str(response.trim()).unwrap()
}

fn sweep_cell(id: &str, spec: &SweepSpec) -> String {
    let mut query = Map::new();
    query.insert("spec", spec.to_value());
    query.insert("mtbf_idx", Value::U64(0));
    query.insert("phi_idx", Value::U64(0));
    let mut req = Map::new();
    req.insert("v", Value::U64(1));
    req.insert("id", Value::String(id.into()));
    req.insert("method", Value::String("sweep_cell".into()));
    req.insert("params", Value::Object(query));
    serde_json::to_string(&Value::Object(req)).unwrap()
}

#[test]
fn huge_platform_sweep_cell_is_answered_and_server_stays_up() {
    let mut params = dck_core::Scenario::exa().params;
    params.nodes = 10_000_000_000;
    let mut spec = SweepSpec::new(
        dck_core::Protocol::DoubleNbl,
        params,
        vec![0.0],
        vec![3600.0],
    );
    spec.replications = 8;
    spec.work_in_mtbfs = 5.0;

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
    let addr = addr_rx.recv().expect("bound address");
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let v = request(&mut reader, &mut writer, &sweep_cell("huge", &spec));
    let cell = v
        .get("ok")
        .and_then(|ok| ok.get("cell"))
        .unwrap_or_else(|| panic!("sweep_cell errored: {v:?}"));
    assert_eq!(
        cell.get("replications_run").and_then(Value::as_u64),
        Some(8)
    );

    spec.source = SourceKind::Renewal(DistributionSpec::Weibull {
        mean: SimTime::hours(1.0),
        shape: 0.7,
    });
    let v = request(&mut reader, &mut writer, &sweep_cell("renewal", &spec));
    let code = v.get("err").and_then(|e| e.get("code"));
    assert_eq!(code, Some(&Value::String("bad_params".into())), "{v:?}");

    let pong = request(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"p","method":"ping"}"#,
    );
    assert!(pong.get("ok").is_some(), "{pong:?}");
    let bye = request(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"s","method":"shutdown"}"#,
    );
    assert!(bye.get("ok").is_some(), "{bye:?}");
    let summary = server.join().expect("server thread");
    assert_eq!(summary.errors, 1, "{summary:?}");
    assert_eq!(summary.worker_panics, 0, "{summary:?}");
}
