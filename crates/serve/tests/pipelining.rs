//! A client may send many request lines in one write. The server must
//! answer every one of them, in order, without waiting for more input,
//! and each answer must be byte-identical to the answer the same
//! request gets when sent alone.

use dck_serve::{serve, ServeConfig, ServeSummary, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longer than any answer here takes: a read that runs into it means an
/// answer was left in the server's buffer.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

const SPEC: &str = r#"{"protocol":"DoubleNbl","params":{"downtime":0.0,"delta":2.0,"theta_min":4.0,"alpha":10.0,"nodes":48},"phi_ratios":[0.0,1.0],"mtbfs":[1800.0,3600.0],"work_in_mtbfs":10.0,"replications":16,"seed":99,"workers":0,"source":"Exponential","early_stop":null}"#;

fn start() -> (SocketAddr, JoinHandle<ServeSummary>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_cells: 8,
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

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// Writes `lines` in one `write_all`, each with its newline.
fn send_burst(writer: &mut TcpStream, lines: &[String]) {
    let mut burst = String::new();
    for line in lines {
        burst.push_str(line);
        burst.push('\n');
    }
    writer.write_all(burst.as_bytes()).unwrap();
}

/// Reads one answer line, newline included; empty at end of stream.
fn read_answer(reader: &mut BufReader<TcpStream>) -> String {
    let mut answer = String::new();
    reader
        .read_line(&mut answer)
        .expect("answer within the read timeout");
    answer
}

fn stop(addr: SocketAddr, server: JoinHandle<ServeSummary>) -> ServeSummary {
    let (mut reader, mut writer) = connect(addr);
    send_burst(
        &mut writer,
        &[r#"{"v":1,"id":"stop","method":"shutdown"}"#.to_string()],
    );
    assert!(read_answer(&mut reader).contains("draining"));
    server.join().expect("server thread")
}

fn sweep_cell(id: &str, mtbf_idx: u64) -> String {
    format!(
        r#"{{"v":1,"id":"{id}","method":"sweep_cell","params":{{"spec":{SPEC},"mtbf_idx":{mtbf_idx},"phi_idx":1}}}}"#
    )
}

/// The mixed burst: every method, an empty and a blank line (no
/// answer), malformed JSON, an unknown method, bad params, a wrong
/// version, a `sweep_cell` miss between other requests, its hit, and a
/// second miss last.
fn burst() -> Vec<String> {
    let mut lines: Vec<String> = [
        r#"{"v":1,"id":1,"method":"ping"}"#,
        r#"{"v":1,"id":2,"method":"waste","params":{"protocol":"triple","phi_ratio":0.25,"mtbf_s":3600}}"#,
        "",
        r#"{"v":1,"id":3,"method":"risk","params":{"protocol":"double-nbl","mtbf_s":25200,"life_s":86400}}"#,
        r#"{"v":1,"id":4,"#,
        "   ",
        r#"{"v":1,"id":5,"method":"no_such_method"}"#,
    ]
    .map(String::from)
    .to_vec();
    lines.push(sweep_cell("6", 0));
    lines.extend(
        [
            r#"{"v":1,"id":7,"method":"pstar","params":{"protocol":"double-bof","phi_ratio":0.5,"mtbf_s":1800}}"#,
            r#"{"v":1,"id":8,"method":"waste","params":{"protocol":"double-nbl","phi_ratio":2,"mtbf_s":3600}}"#,
            r#"{"v":2,"id":9,"method":"ping"}"#,
        ]
        .map(String::from),
    );
    lines.extend([sweep_cell("10", 0), sweep_cell("11", 1)]);
    lines
}

#[test]
fn a_burst_in_one_write_is_answered_in_order_like_single_requests() {
    let lines = burst();
    let requests: Vec<&String> = lines.iter().filter(|l| !l.trim().is_empty()).collect();

    // Each request alone on a fresh connection, in burst order, on a
    // server of its own so its cache goes through the same misses.
    let (addr, server) = start();
    let alone: Vec<String> = requests
        .iter()
        .map(|request| {
            let (mut reader, mut writer) = connect(addr);
            send_burst(&mut writer, std::slice::from_ref(request));
            read_answer(&mut reader)
        })
        .collect();
    stop(addr, server);

    // The whole burst in one write. The write half stays open, so no
    // end of stream can push a stuck answer out.
    let (addr, server) = start();
    let (mut reader, mut writer) = connect(addr);
    send_burst(&mut writer, &lines);
    for (i, want) in alone.iter().enumerate() {
        let got = read_answer(&mut reader);
        assert!(got.ends_with('\n'), "answer {i} incomplete: {got:?}");
        assert_eq!(&got, want, "answer {i} to {}", requests[i]);
    }
    drop((reader, writer));
    let summary = stop(addr, server);
    assert_eq!(summary.requests, requests.len() as u64 + 1);
    assert_eq!((summary.cache_misses, summary.cache_hits), (2, 1));
}

#[test]
fn a_lone_answer_arrives_in_one_piece() {
    let (addr, server) = start();
    let (_, mut writer) = connect(addr);
    let mut raw = writer.try_clone().unwrap();
    send_burst(
        &mut writer,
        &[r#"{"v":1,"id":"solo","method":"ping"}"#.to_string()],
    );
    let want = "{\"v\":1,\"id\":\"solo\",\"ok\":{\"pong\":true}}\n";
    let mut buf = [0u8; 256];
    let n = raw.read(&mut buf).unwrap();
    assert_eq!(std::str::from_utf8(&buf[..n]).unwrap(), want);
    drop((writer, raw));
    stop(addr, server);
}

#[test]
fn an_oversized_line_after_a_burst_gets_every_earlier_answer_then_closes() {
    let (addr, server) = start();
    let (mut reader, mut writer) = connect(addr);
    let mut lines = vec![
        r#"{"v":1,"id":"a","method":"ping"}"#.to_string(),
        r#"{"v":1,"id":"b","method":"pstar","params":{"protocol":"triple","phi_ratio":0,"mtbf_s":3600}}"#.to_string(),
        r#"{"v":1,"id":"c","method":"ping"}"#.to_string(),
    ];
    lines.push(format!(
        r#"{{"v":1,"id":"big","method":"ping","pad":"{}"}}"#,
        "x".repeat(MAX_LINE_BYTES)
    ));
    send_burst(&mut writer, &lines);

    assert_eq!(
        read_answer(&mut reader),
        "{\"v\":1,\"id\":\"a\",\"ok\":{\"pong\":true}}\n"
    );
    let pstar = read_answer(&mut reader);
    assert!(
        pstar.starts_with("{\"v\":1,\"id\":\"b\",\"ok\":{\"protocol\":\"triple\""),
        "{pstar}"
    );
    assert_eq!(
        read_answer(&mut reader),
        "{\"v\":1,\"id\":\"c\",\"ok\":{\"pong\":true}}\n"
    );
    assert_eq!(
        read_answer(&mut reader),
        format!(
            "{{\"v\":1,\"id\":null,\"err\":{{\"code\":\"oversized\",\
             \"message\":\"request line exceeds {MAX_LINE_BYTES} bytes\"}}}}\n"
        )
    );
    assert_eq!(read_answer(&mut reader), "", "the connection closes");
    drop((reader, writer));
    let summary = stop(addr, server);
    assert_eq!((summary.requests, summary.errors), (5, 1));
}
