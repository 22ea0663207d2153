//! Daemon lifecycle tests: bsimd end to end over real TCP — submit /
//! status / fetch, content-addressed cache hits with byte-identical
//! responses, concurrent-submit deduplication, preflight rejection on
//! the wire, hostile requests, and graceful shutdown with store
//! integrity.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use silicon_bridge::svc::{client, proto, Daemon, DaemonConfig, ResultStore, COUNTERS};

const SWEEP: &str = r#"{"kind":"sweep","platforms":["Rocket 1"],"kernels":["EM5","STc"]}"#;

fn ephemeral_daemon(cfg: DaemonConfig) -> Daemon {
    let (daemon, report) = Daemon::spawn(cfg).expect("bind ephemeral port");
    assert!(report.is_clean(), "unexpected store findings: {report}");
    daemon
}

fn submit_and_wait(addr: &str, body: &str) -> (String, String) {
    let (status, response) = client::submit(addr, body).unwrap();
    assert_eq!(status, 202, "{response}");
    let job = client::job_id(&response).expect("submit returns a job id");
    let (status, result) = client::wait(addr, &job, Duration::from_secs(120)).unwrap();
    assert_eq!(status, 200, "{result}");
    (job, result)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bsim-svc-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.json", std::process::id()))
}

/// Satellite: the same sweep submitted twice yields (a) byte-identical
/// result documents between the simulated and cache-served responses
/// and (b) `host.svc.cache.hits` > 0 — in fact a 100% hit rate, zero
/// re-simulated cells — on the second request.
#[test]
fn second_request_is_cache_served_byte_identical() {
    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();

    let (_, first) = submit_and_wait(&addr, SWEEP);
    let (job2, second) = submit_and_wait(&addr, SWEEP);
    assert_eq!(
        first, second,
        "cache-served response must be byte-identical"
    );
    assert!(first.contains("\"schema\": \"bsim-bench-v1\""), "{first}");

    // Zero re-simulated cells on the second request.
    let (status, job_status) = client::status(&addr, &job2).unwrap();
    assert_eq!(status, 200);
    assert!(job_status.contains("\"hits\":2"), "{job_status}");
    assert!(job_status.contains("\"simulated\":0"), "{job_status}");

    // Global counters ride the telemetry export, every one present.
    let (status, metrics) = client::metrics(&addr).unwrap();
    assert_eq!(status, 200);
    for name in COUNTERS {
        assert!(
            metrics.contains(&format!("\"{name}\"")),
            "{name} missing: {metrics}"
        );
    }
    assert!(metrics.contains("\"host.svc.cache.hits\": 2"), "{metrics}");
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 2"),
        "{metrics}"
    );
    assert!(metrics.contains("\"host.svc.cells.total\": 4"), "{metrics}");

    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// Satellite: identical cells in concurrently submitted requests are
/// deduplicated — two responses, but each distinct cell simulated only
/// once, whether the duplicate coalesced onto the in-flight claim or
/// arrived after the store was populated.
#[test]
fn concurrent_identical_submits_simulate_each_cell_once() {
    let daemon = ephemeral_daemon(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let addr = daemon.addr();

    let results: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || submit_and_wait(&addr, SWEEP))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_ne!(results[0].0, results[1].0, "two jobs, two ids");
    assert_eq!(results[0].1, results[1].1, "one simulation, two responses");

    let (_, metrics) = client::metrics(&addr).unwrap();
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 2"),
        "each of the 2 distinct cells must simulate exactly once: {metrics}"
    );
    assert!(metrics.contains("\"host.svc.cells.total\": 4"), "{metrics}");

    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// Preflight rejections happen on the wire, before any worker time:
/// SV001 for dangling names, SV002 for an over-budget request.
#[test]
fn preflight_rejects_on_the_wire() {
    let daemon = ephemeral_daemon(DaemonConfig {
        budget: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.addr();

    let (status, body) = client::submit(
        &addr,
        r#"{"kind":"sweep","platforms":["Pentium"],"kernels":["EM5"]}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("SV001"), "{body}");

    let (status, body) = client::submit(&addr, SWEEP).unwrap();
    assert_eq!(status, 400, "2 cells > budget 1: {body}");
    assert!(body.contains("SV002"), "{body}");

    let (_, metrics) = client::metrics(&addr).unwrap();
    assert!(
        metrics.contains("\"host.svc.requests.rejected\": 2"),
        "{metrics}"
    );
    assert!(metrics.contains("\"host.svc.cells.total\": 0"), "{metrics}");

    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// Satellite: `/shutdown` drains accepted work and flushes the store
/// atomically — the file on disk afterwards is a complete store that
/// opens clean and holds every simulated cell.
#[test]
fn shutdown_drains_inflight_work_and_flushes_store() {
    let path = tmp("drain");
    std::fs::remove_file(&path).ok();
    let daemon = ephemeral_daemon(DaemonConfig {
        store_path: Some(path.clone()),
        ..DaemonConfig::default()
    });
    let addr = daemon.addr();

    // Enqueue, then shut down immediately: the job must still complete
    // (drain) and its cells must reach the flushed store.
    let (status, response) = client::submit(&addr, SWEEP).unwrap();
    assert_eq!(status, 202, "{response}");
    let (status, body) = client::shutdown(&addr).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("\"entries\":2"), "{body}");
    daemon.join();

    let (store, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "flushed store must verify: {report}");
    assert_eq!(store.len(), 2);
    std::fs::remove_file(&path).ok();
}

/// Tentpole: a 4× oversubscribed burst. Deterministic 503 shedding at
/// the connection layer (one pool worker, one backlog slot, six
/// overflow connections), then a burst of eight submits against a
/// one-worker/one-slot job queue where shed submits honor Retry-After
/// and resubmit — and every admitted request completes byte-identical
/// to the same sweep on an unloaded sequential daemon.
#[test]
fn oversubscribed_bursts_shed_and_admitted_work_is_byte_identical() {
    use silicon_bridge::svc::proto;
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};

    // -- Connection layer: pin the single pool worker with an idle
    // connection, park another in the one-slot backlog, and every
    // further connection is shed 503 + Retry-After by the accept loop
    // without a byte read.
    let daemon = ephemeral_daemon(DaemonConfig {
        conn_workers: 1,
        conn_backlog: 1,
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.addr();
    let pinned = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let parked = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..6 {
        let conn = TcpStream::connect(&addr).unwrap();
        let (status, headers, body) = proto::read_response_full(&mut BufReader::new(conn)).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(
            headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
            "{headers:?}"
        );
    }
    drop(pinned);
    drop(parked);
    std::thread::sleep(Duration::from_millis(300));
    // The freed pool serves normally, the six sheds are on the books,
    // and the pool cap held: one worker never ran two connections.
    let (_, first) = submit_and_wait(&addr, SWEEP);
    let (_, metrics) = client::metrics(&addr).unwrap();
    assert!(
        metrics.contains("\"host.guard.conns.shed\": 6"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\"host.guard.conns.peak\": 1"),
        "{metrics}"
    );
    client::shutdown(&addr).unwrap();
    daemon.join();

    // -- Queue layer: eight distinct single-cell sweeps (4× the
    // worker+queue capacity) in one concurrent burst. A 429 carries
    // Retry-After and the client resubmits until admitted.
    const KERNELS: [&str; 8] = ["Cca", "CCh", "ED1", "EI", "EM5", "MD", "ML2", "DP1d"];
    let body_for =
        |k: &str| format!(r#"{{"kind":"sweep","platforms":["Rocket 1"],"kernels":["{k}"]}}"#);
    let busy = ephemeral_daemon(DaemonConfig {
        workers: 1,
        queue_cap: 1,
        ..DaemonConfig::default()
    });
    let busy_addr = busy.addr();
    let sheds = AtomicU64::new(0);
    let burst: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = KERNELS
            .iter()
            .map(|k| {
                let addr = busy_addr.clone();
                let body = body_for(k);
                let sheds = &sheds;
                scope.spawn(move || {
                    for _ in 0..600 {
                        let (status, headers, response) = proto::roundtrip_with(
                            &addr,
                            "POST",
                            "/submit",
                            &body,
                            proto::WireTimeouts::default(),
                        )
                        .unwrap();
                        if status == 202 {
                            let job = client::job_id(&response).expect("ticket");
                            let (status, result) =
                                client::wait(&addr, &job, Duration::from_secs(120)).unwrap();
                            assert_eq!(status, 200, "{result}");
                            return (body, result);
                        }
                        assert_eq!(status, 429, "{response}");
                        assert!(
                            headers.iter().any(|(k, _)| k == "retry-after"),
                            "{headers:?}"
                        );
                        sheds.fetch_add(1, Ordering::Relaxed);
                        // Honor Retry-After in spirit, scaled down to
                        // keep the test quick.
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    panic!("submit for {body} was never admitted");
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (_, busy_metrics) = client::metrics(&busy_addr).unwrap();
    let observed = sheds.load(Ordering::Relaxed);
    assert!(
        busy_metrics.contains(&format!("\"host.guard.requests.shed\": {observed}")),
        "client saw {observed} sheds: {busy_metrics}"
    );
    client::shutdown(&busy_addr).unwrap();
    busy.join();

    // -- Byte-identity: every burst response matches the same request
    // served sequentially on a fresh, unloaded daemon (and the SWEEP
    // from the connection-layer phase agrees too).
    let calm = ephemeral_daemon(DaemonConfig::default());
    let calm_addr = calm.addr();
    let (_, calm_sweep) = submit_and_wait(&calm_addr, SWEEP);
    assert_eq!(first, calm_sweep, "cross-daemon sweep differs");
    for (body, burst_result) in &burst {
        let (_, calm_result) = submit_and_wait(&calm_addr, body);
        assert_eq!(
            burst_result, &calm_result,
            "burst-admitted result differs for {body}"
        );
    }
    client::shutdown(&calm_addr).unwrap();
    calm.join();
}

/// Satellite regression: a store torn mid-write (truncated file) is
/// detected and quarantined on restart — never served — and the daemon
/// still starts, empty.
#[test]
fn truncated_store_is_quarantined_on_restart() {
    let path = tmp("torn");
    // A plausible torn write: valid prefix of a real store, cut short.
    std::fs::write(
        &path,
        "{\"version\": 1,\n  \"cells\": {\n    \"00ff\": {\"cy",
    )
    .unwrap();

    let (daemon, report) = Daemon::spawn(DaemonConfig {
        store_path: Some(path.clone()),
        ..DaemonConfig::default()
    })
    .unwrap();
    assert!(
        report.has_code("SV004"),
        "torn store must be flagged: {report}"
    );
    assert!(
        !path.exists(),
        "torn file must be renamed aside, not reused"
    );
    let quarantined = PathBuf::from(format!("{}.quarantined", path.display()));
    assert!(quarantined.exists());

    // The daemon is healthy and its cache is empty — nothing stale served.
    let addr = daemon.addr();
    let (status, metrics) = client::metrics(&addr).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("\"host.svc.cache.entries\": 0"),
        "{metrics}"
    );

    // A version-mismatched store is likewise ignored, with SV003.
    let stale = tmp("stale");
    std::fs::write(&stale, r#"{"version":99,"cells":{}}"#).unwrap();
    let (daemon2, report2) = Daemon::spawn(DaemonConfig {
        store_path: Some(stale.clone()),
        ..DaemonConfig::default()
    })
    .unwrap();
    assert!(report2.has_code("SV003"), "{report2}");

    client::shutdown(&addr).unwrap();
    daemon.join();
    client::shutdown(&daemon2.addr()).unwrap();
    daemon2.join();

    std::fs::remove_file(&quarantined).ok();
    std::fs::remove_file(&stale).ok();
    std::fs::remove_file(format!("{}.quarantined", stale.display())).ok();
}

/// Writes `wire` to the daemon as is and returns the status it answers
/// with — `None` when it closed the connection instead: the daemon stops
/// reading a message it refuses, so a large one can be reset under the
/// writer. Not answering within the socket timeout is a failure.
fn raw_status(addr: &str, wire: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let timeout = Some(Duration::from_secs(30));
    stream.set_read_timeout(timeout).unwrap();
    stream.set_write_timeout(timeout).unwrap();
    let _ = stream.write_all(wire);
    match proto::read_response_full(&mut BufReader::new(stream)) {
        Ok((status, _, _)) => Some(status),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("the daemon did not answer within the socket timeout: {e}")
        }
        Err(_) => None,
    }
}

fn submit_wire(body: &str) -> Vec<u8> {
    format!(
        "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn assert_serving(addr: &str, after: &str) {
    let (status, _) = client::metrics(addr).unwrap_or_else(|e| panic!("after {after}: {e}"));
    assert_eq!(status, 200, "after {after}");
}

/// ROADMAP 7 (c): bytes from the network are bounded before they are
/// believed. Each of these aborted the daemon process (stack overflow in
/// the JSON parser, a terabyte `vec!`) or grew a line buffer without
/// limit; now each is a 4xx and the daemon serves the next request.
#[test]
fn hostile_requests_get_a_4xx_and_the_daemon_keeps_serving() {
    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();

    let nested = submit_wire(&"[".repeat(200_000));
    assert_eq!(raw_status(&addr, &nested), Some(400));
    assert_serving(&addr, "a 200 000-deep body");

    let claimed = b"POST /submit HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n";
    assert_eq!(raw_status(&addr, claimed), Some(413));
    assert_serving(&addr, "a terabyte Content-Length");

    let long_header = format!(
        "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(1 << 20)
    );
    let status = raw_status(&addr, long_header.as_bytes());
    assert!(matches!(status, Some(413) | None), "{status:?}");
    assert_serving(&addr, "a 1 MiB header line");

    let (status, metrics) = client::metrics(&addr).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("\"host.svc.requests.rejected\": 1"),
        "the nested body is a rejected submit: {metrics}"
    );
    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// The same deep body against a `bsim serve` process: at the parent
/// commit the failure was the process dying, which an in-process daemon
/// cannot show without taking the test binary down with it.
#[test]
fn a_bsim_serve_process_survives_a_deeply_nested_body() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bsim"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bsim serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("bsimd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let nested = submit_wire(&"[".repeat(200_000));
    assert_eq!(raw_status(&addr, &nested), Some(400));
    assert_serving(&addr, "a 200 000-deep body");

    client::shutdown(&addr).unwrap();
    assert!(child.wait().unwrap().success());
}
