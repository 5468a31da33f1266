//! End-to-end serve/loadgen: start the real `dck` binary serving on an
//! ephemeral port, drive it with the real `dck loadgen`, and require a
//! well-formed, schema-valid `BENCH_serve.json` with zero protocol
//! errors. A second test feeds the server garbage — broken JSON,
//! unknown methods, wrong protocol versions, an oversized line — and
//! requires typed error responses with no worker death.

use dck_bench::Report;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_dck");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dck-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns `dck serve` on an ephemeral port and returns the child, the
/// address it printed on its first stdout line, and the stdout reader
/// — which must stay alive until the child exits, or its final
/// summary `println!` hits a broken pipe.
fn spawn_server(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dck serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listening line")
        .to_string();
    assert!(
        line.contains("listening"),
        "first stdout line should announce the address, got: {line:?}"
    );
    (child, addr, reader)
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn send_raw(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    assert!(
        !response.is_empty(),
        "server closed instead of answering {line:?}"
    );
    response.trim().to_string()
}

/// Sends `shutdown`, waits for a clean exit, and returns the child's
/// stderr (callers assert it is empty). Consumes the stdout reader so
/// the pipe stays open until the summary line is written.
fn shutdown_and_reap(
    addr: &str,
    mut child: Child,
    mut stdout: BufReader<std::process::ChildStdout>,
) -> String {
    let (mut reader, mut writer) = connect(addr);
    let resp = send_raw(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"bye","method":"shutdown"}"#,
    );
    assert!(resp.contains("\"draining\":true"), "shutdown ack: {resp}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "serve exited with {status}");
                break;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => {
                let _ = child.kill();
                panic!("serve did not drain within 30s of shutdown");
            }
        }
    }
    use std::io::Read as _;
    let mut summary = String::new();
    let _ = stdout.read_to_string(&mut summary);
    assert!(
        summary.contains("drained"),
        "exit summary should report the drain: {summary:?}"
    );
    let mut err = String::new();
    if let Some(mut stderr) = child.stderr.take() {
        let _ = stderr.read_to_string(&mut err);
    }
    err
}

#[test]
fn loadgen_against_serve_emits_valid_report_with_zero_errors() {
    let dir = scratch("smoke");
    let (child, addr, server_out) = spawn_server(&[]);
    let report_path = dir.join("BENCH_serve.json");
    let metrics_path = dir.join("loadgen_metrics.json");

    let out = Command::new(BIN)
        .args(["loadgen", "--addr", &addr])
        .args(["--threads", "2", "--concurrency", "2", "--duration", "1s"])
        .args(["--seed", "7"])
        .arg("--out")
        .arg(&report_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("run dck loadgen");
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("req/s"), "summary line missing: {stdout}");

    // The artifact must exist, carry the serve schema, parse, validate
    // via the CLI, and report zero protocol errors.
    let text = std::fs::read_to_string(&report_path).expect("report written");
    let report = dck_bench::ServeBenchReport::from_json(&text).expect("parse report");
    report.validate().expect("report validates");
    assert_eq!(report.schema, dck_bench::SERVE_SCHEMA);
    assert_eq!(report.errors, 0, "protocol errors under clean load: {text}");
    assert!(report.ok_requests > 0);
    assert!(report.latency.p50_us >= 1);

    let validate = Command::new(BIN)
        .args(["validate", "--bench"])
        .arg(&report_path)
        .output()
        .expect("run dck validate");
    assert!(
        validate.status.success(),
        "validate --bench rejected the artifact: {}",
        String::from_utf8_lossy(&validate.stderr)
    );
    assert!(
        String::from_utf8_lossy(&validate.stdout).contains("serve load"),
        "validate should recognize the serve schema"
    );

    // Client-side metrics snapshot exists and the latency histogram
    // saw every successful request.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    assert!(metrics.contains("serve.client_latency_us"), "{metrics}");

    let stderr = shutdown_and_reap(&addr, child, server_out);
    assert!(stderr.is_empty(), "serve wrote to stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_errors_and_kill_no_worker() {
    let (child, addr, server_out) = spawn_server(&["--cache-cells", "8"]);
    let (mut reader, mut writer) = connect(&addr);

    let resp = send_raw(&mut reader, &mut writer, "this is not json");
    assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");

    let resp = send_raw(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"m1","method":"frobnicate"}"#,
    );
    assert!(resp.contains("\"code\":\"unknown_method\""), "{resp}");
    assert!(
        resp.contains("\"id\":\"m1\""),
        "id echoed on errors: {resp}"
    );

    let resp = send_raw(
        &mut reader,
        &mut writer,
        r#"{"v":9,"id":"m2","method":"ping"}"#,
    );
    assert!(resp.contains("\"code\":\"unsupported_version\""), "{resp}");

    let resp = send_raw(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"m3","method":"waste","params":{"phi_ratio":0.5}}"#,
    );
    assert!(resp.contains("\"code\":\"bad_params\""), "{resp}");
    assert!(
        resp.contains("protocol"),
        "error names the missing param: {resp}"
    );

    let resp = send_raw(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"m4","method":"sweep_cell","params":{"spec":{"bogus":true},"mtbf_idx":0,"phi_idx":0}}"#,
    );
    assert!(resp.contains("\"code\":\"bad_params\""), "{resp}");

    // Same connection still serves good requests after all that.
    let resp = send_raw(
        &mut reader,
        &mut writer,
        r#"{"v":1,"id":"ok1","method":"ping"}"#,
    );
    assert!(resp.contains("\"pong\":true"), "{resp}");

    // An oversized line gets a typed error and the connection is
    // closed (the stream can no longer be framed)...
    let huge = format!(
        r#"{{"v":1,"id":"big","method":"ping","params":{{"pad":"{}"}}}}"#,
        "x".repeat(70 * 1024)
    );
    let resp = send_raw(&mut reader, &mut writer, &huge);
    assert!(resp.contains("\"code\":\"oversized\""), "{resp}");
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection should be closed after an oversized line");

    // ...but the pool survives: fresh connections keep being served.
    let (mut reader2, mut writer2) = connect(&addr);
    let resp = send_raw(
        &mut reader2,
        &mut writer2,
        r#"{"v":1,"id":"ok2","method":"ping"}"#,
    );
    assert!(resp.contains("\"pong\":true"), "{resp}");

    let stderr = shutdown_and_reap(&addr, child, server_out);
    assert!(stderr.is_empty(), "serve wrote to stderr: {stderr}");
}
