//! Daemon lifecycle tests: bsimd end to end over real TCP — submit /
//! status / fetch, content-addressed cache hits with byte-identical
//! responses, concurrent-submit deduplication, preflight rejection on
//! the wire, hostile requests, and graceful shutdown with store
//! integrity.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use silicon_bridge::svc::daemon::{CONN_BACKLOG, CONN_WORKERS, FETCH_WAIT, QUEUE_CAP};
use silicon_bridge::svc::{client, proto, Daemon, DaemonConfig, ResultStore, COUNTERS};

const SWEEP: &str = r#"{"kind":"sweep","platforms":["Rocket 1"],"kernels":["EM5","STc"]}"#;
const ONE_CELL: &str = r#"{"kind":"sweep","platforms":["Rocket 1"],"kernels":["Cca"],"scale":1}"#;

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

/// `host.guard.conns.accepted`, read over this thread's kept connection
/// (a new one, and counted, if it has none).
fn accepted(addr: &str) -> u64 {
    let (_, metrics) = client::metrics(addr).unwrap();
    let name = "\"host.guard.conns.accepted\": ";
    let at = metrics.find(name).expect("the counter is exported") + name.len();
    let digits: String = metrics[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
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
    let accepted_before = accepted(&addr);
    let (_, second) = submit_and_wait(&addr, SWEEP);
    assert_eq!(
        first, second,
        "cache-served response must be byte-identical"
    );
    // A warm request is a submit and one fetch that the daemon holds
    // until the job is done, both on the connection the first request
    // left open, as is the /metrics read: no new connection at all.
    assert_eq!(accepted(&addr) - accepted_before, 0);
    assert!(first.contains("\"schema\": \"bsim-bench-v1\""), "{first}");

    // Zero re-simulated cells on a warm request, read from /status while
    // the job is done and not yet delivered. Once delivered, it has left
    // the table.
    let (status, ticket) = client::submit(&addr, SWEEP).unwrap();
    assert_eq!(status, 202, "{ticket}");
    let job = client::job_id(&ticket).expect("submit returns a job id");
    let job_status = loop {
        let (status, body) = client::status(&addr, &job).unwrap();
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"done\"") {
            break body;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(job_status.contains("\"hits\":2"), "{job_status}");
    assert!(job_status.contains("\"simulated\":0"), "{job_status}");
    let (status, third) = client::wait(&addr, &job, Duration::from_secs(120)).unwrap();
    assert_eq!((status, &third), (200, &first));
    assert_eq!(client::status(&addr, &job).unwrap().0, 410);

    // Global counters ride `/metrics`, every one present.
    let (status, metrics) = client::metrics(&addr).unwrap();
    assert_eq!(status, 200);
    for name in COUNTERS {
        assert!(
            metrics.contains(&format!("\"{name}\"")),
            "{name} missing: {metrics}"
        );
    }
    assert!(metrics.contains("\"host.svc.cache.hits\": 4"), "{metrics}");
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 2"),
        "{metrics}"
    );
    assert!(metrics.contains("\"host.svc.cells.total\": 6"), "{metrics}");

    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// Every pool thread held by an idle kept connection, one per client
/// thread: client B, on another thread, is still answered once the idle
/// bound (`FETCH_WAIT`) has passed, not after the 120 s read timeout,
/// and each idle client's next call goes out on a new connection.
#[test]
fn an_idle_kept_connection_yields_the_only_pool_thread_within_fetch_wait() {
    use std::sync::{mpsc, Barrier};
    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();
    let answered = Barrier::new(CONN_WORKERS + 1);
    std::thread::scope(|s| {
        // One at a time, so each kept connection has its own pool thread
        // before the next one arrives.
        let (kept, each_kept) = mpsc::channel();
        for _ in 0..CONN_WORKERS {
            let kept = kept.clone();
            let (addr, answered) = (&addr, &answered);
            s.spawn(move || {
                assert_eq!(client::metrics(addr).unwrap().0, 200);
                kept.send(()).unwrap();
                answered.wait();
                assert_eq!(client::metrics(addr).unwrap().0, 200);
            });
            each_kept.recv().unwrap();
        }
        let (idle_since, addr) = (Instant::now(), &addr);
        let b = s
            .spawn(move || {
                assert_eq!(client::metrics(addr).unwrap().0, 200);
                idle_since.elapsed()
            })
            .join();
        answered.wait();
        let waited = b.unwrap();
        assert!(
            waited < FETCH_WAIT + Duration::from_millis(500),
            "B waited {waited:?}"
        );
    });
    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// A request that says `Connection: close` is answered `Connection:
/// close`, and the daemon then closes the socket.
#[test]
fn a_request_that_says_close_is_answered_close_and_closed() {
    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let (status, headers, _) = proto::read_response_full(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "connection" && v == "close"),
        "{headers:?}"
    );
    assert!(
        reader.fill_buf().unwrap().is_empty(),
        "the socket reads EOF"
    );
    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// The keep-alive rule on raw sockets: an answered request keeps its
/// connection for the next one, and a refused one — an unknown endpoint
/// (`404`), a malformed head (`400`), an over-limit body (`413`) — is
/// answered `Connection: close` and the socket then reads EOF.
#[test]
fn an_answer_keeps_its_connection_and_a_refusal_closes_it() {
    fn open(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }
    fn answer(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, wire: &[u8]) -> u16 {
        stream.write_all(wire).unwrap();
        let (status, headers, _) = proto::read_response_full(reader).unwrap();
        let connection: Vec<&str> = headers
            .iter()
            .filter(|(k, _)| k == "connection")
            .map(|(_, v)| v.as_str())
            .collect();
        let expected = if status == 200 { "keep-alive" } else { "close" };
        assert_eq!(connection, [expected], "{status}: {headers:?}");
        status
    }

    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();
    let metrics = b"GET /metrics HTTP/1.1\r\n\r\n";
    let (mut stream, mut reader) = open(&addr);
    assert_eq!(answer(&mut stream, &mut reader, metrics), 200);
    assert_eq!(
        answer(&mut stream, &mut reader, metrics),
        200,
        "a second request on the kept socket is answered"
    );
    drop((stream, reader));

    for (wire, refused) in [
        (&b"GET /nope HTTP/1.1\r\n\r\n"[..], 404),
        (b"GET\r\n\r\n", 400),
        (
            b"POST /submit HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n",
            413,
        ),
    ] {
        let (mut stream, mut reader) = open(&addr);
        assert_eq!(answer(&mut stream, &mut reader, wire), refused);
        assert!(
            reader.fill_buf().unwrap().is_empty(),
            "{refused}: the socket reads EOF"
        );
    }
    assert_serving(&addr, "three refusals");
    client::shutdown(&addr).unwrap();
    daemon.join();
}

/// A kept connection left idle past `FETCH_WAIT` is closed by the
/// daemon; the next call finds it closed before sending anything the
/// daemon read, and goes out once more on one new connection.
#[test]
fn a_call_after_the_daemon_idle_closed_its_connection_reconnects_once() {
    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();
    let (job, _) = submit_and_wait(&addr, ONE_CELL);
    let before = accepted(&addr);
    std::thread::sleep(FETCH_WAIT + Duration::from_millis(300));
    // The job was delivered, so its status is a 410: what counts is
    // that the call was answered, over one new connection.
    let (status, body) = client::status(&addr, &job).unwrap();
    assert_eq!(status, 410, "{body}");
    assert_eq!(accepted(&addr), before + 1);
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

/// A kernel built at scale 0 is its scale-1 program, so the daemon
/// refuses scale 0 rather than keying the scale-1 cell a second time, and
/// `bsim submit` exits 1 printing the daemon's report.
#[test]
fn bsim_submit_at_scale_0_fails_with_the_daemons_message() {
    let daemon = ephemeral_daemon(DaemonConfig::default());
    let addr = daemon.addr();
    for request in [
        &["sweep", "--platforms", "Rocket 1", "--kernels", "Cca"][..],
        &["tune"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bsim"))
            .args(["submit", &addr])
            .args(request)
            .args(["--scale", "0", "--wait"])
            .output()
            .expect("run bsim submit");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{request:?}: {stdout}");
        assert!(
            stdout.contains("SV000") && stdout.contains("'scale' must be a positive integer"),
            "{request:?}: {stdout}"
        );
    }
    let (_, metrics) = client::metrics(&addr).unwrap();
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

/// A 4× oversubscribed burst at the shipped limits. Deterministic 503
/// shedding at the connection layer (every pool thread pinned, the
/// backlog full, six overflow connections), then a burst of four times
/// the one-worker job queue's capacity where shed submits honor
/// Retry-After and resubmit — and every admitted request completes
/// byte-identical to the same sweep on an unloaded daemon.
#[test]
fn oversubscribed_bursts_shed_and_admitted_work_is_byte_identical() {
    use std::sync::atomic::{AtomicU64, Ordering};

    // -- Connection layer: pin every pool thread with an idle
    // connection, fill the backlog behind them, and every further
    // connection is shed 503 + Retry-After by the accept loop without a
    // byte read.
    let daemon = ephemeral_daemon(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.addr();
    let connect = |n: usize| -> Vec<TcpStream> {
        let conns = (0..n).map(|_| TcpStream::connect(&addr).unwrap()).collect();
        std::thread::sleep(Duration::from_millis(300));
        conns
    };
    let pinned = connect(CONN_WORKERS);
    let parked = connect(CONN_BACKLOG);
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
    // and the pool cap held: never more connections served at once than
    // there are pool threads.
    let (_, first) = submit_and_wait(&addr, SWEEP);
    let (_, metrics) = client::metrics(&addr).unwrap();
    assert!(
        metrics.contains("\"host.guard.conns.shed\": 6"),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!("\"host.guard.conns.peak\": {CONN_WORKERS}")),
        "{metrics}"
    );
    client::shutdown(&addr).unwrap();
    daemon.join();

    // -- Queue layer: four times the worker + queue capacity, over eight
    // distinct single-cell sweeps, in one concurrent burst: each client
    // thread submits its share before it fetches any. A 429 carries
    // Retry-After and the client resubmits until admitted.
    const KERNELS: [&str; 8] = ["Cca", "CCh", "ED1", "EI", "EM5", "MD", "ML2", "DP1d"];
    let per_kernel = 4 * (1 + QUEUE_CAP) / KERNELS.len();
    let body_for =
        |k: &str| format!(r#"{{"kind":"sweep","platforms":["Rocket 1"],"kernels":["{k}"]}}"#);
    let busy = ephemeral_daemon(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let busy_addr = busy.addr();
    let sheds = AtomicU64::new(0);
    let admit = |body: &str| -> String {
        for _ in 0..600 {
            let (status, headers, response) =
                proto::roundtrip_with(&busy_addr, "POST", "/submit", body).unwrap();
            if status == 202 {
                return client::job_id(&response).expect("ticket");
            }
            assert_eq!(status, 429, "{response}");
            assert!(
                headers.iter().any(|(k, _)| k == "retry-after"),
                "{headers:?}"
            );
            sheds.fetch_add(1, Ordering::Relaxed);
            // Honor Retry-After in spirit, scaled down to keep the test
            // quick.
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("submit for {body} was never admitted");
    };
    let burst: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = KERNELS
            .iter()
            .map(|k| {
                let (body, admit, addr) = (body_for(k), &admit, &busy_addr);
                scope.spawn(move || {
                    let jobs: Vec<String> = (0..per_kernel).map(|_| admit(&body)).collect();
                    let results = jobs
                        .iter()
                        .map(|job| {
                            let (status, result) =
                                client::wait(addr, job, Duration::from_secs(120)).unwrap();
                            assert_eq!(status, 200, "{result}");
                            result
                        })
                        .collect();
                    (body, results)
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
    // served on a fresh, unloaded daemon (and the SWEEP from the
    // connection-layer phase agrees too).
    let calm = ephemeral_daemon(DaemonConfig::default());
    let calm_addr = calm.addr();
    let (_, calm_sweep) = submit_and_wait(&calm_addr, SWEEP);
    assert_eq!(first, calm_sweep, "cross-daemon sweep differs");
    for (body, burst_results) in &burst {
        let (_, calm_result) = submit_and_wait(&calm_addr, body);
        for burst_result in burst_results {
            assert_eq!(
                burst_result, &calm_result,
                "burst-admitted result differs for {body}"
            );
        }
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
