//! One cell identity, one result store: a file filled by the dist
//! launcher answers a daemon and a file filled by a daemon answers the
//! launcher, because both key a cell by `WireCell::key` and keep its
//! result in a `ResultStore`. (`bsim fig --store` is the third reader
//! and writer; `tests/cli.rs` drives it.)

use std::path::{Path, PathBuf};
use std::time::Duration;

use silicon_bridge::dist::launcher::{run_sweep, LaunchOpts};
use silicon_bridge::dist::WireCell;
use silicon_bridge::resilience::{scrub, ResultStore};
use silicon_bridge::svc::{client, Daemon, DaemonConfig};

const FIG5: &str = r#"{"kind":"fig","id":"5","sizes":"smoke"}"#;

/// A store path no other test (or process) shares, absent.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bsim-store-{name}-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn open_clean(path: &Path) -> ResultStore {
    let (store, report) = ResultStore::open(path);
    assert!(report.is_clean(), "{}: {report}", path.display());
    store
}

/// Every entry of the file at `path` verifies; returns how many.
fn scrubbed_ok(path: &Path) -> usize {
    let (found, report) = scrub(path);
    assert!(report.is_clean(), "{}: {report}", path.display());
    assert_eq!(found.ok, found.scanned);
    assert!(found.quarantined.is_empty() && !found.rewritten);
    found.ok
}

/// Submits [`FIG5`] to a daemon on `store_path`, shuts it down (which
/// flushes) and returns the response with the lines carrying the figure
/// note — a wall-clock host rate — dropped, and the `/metrics` document.
fn ask_a_daemon(store_path: Option<PathBuf>) -> (String, String) {
    let (daemon, report) = Daemon::spawn(DaemonConfig {
        store_path,
        ..DaemonConfig::default()
    })
    .expect("bind ephemeral port");
    assert!(report.is_clean(), "unexpected store findings: {report}");
    let addr = daemon.addr();
    let (status, answer) = client::submit(&addr, FIG5).unwrap();
    assert_eq!(status, 202, "{answer}");
    let job = client::job_id(&answer).expect("submit returns a job id");
    let (status, result) = client::wait(&addr, &job, Duration::from_secs(120)).unwrap();
    assert_eq!(status, 200, "{result}");
    let (_, metrics) = client::metrics(&addr).unwrap();
    client::shutdown(&addr).unwrap();
    daemon.join();
    let result = result
        .lines()
        .filter(|l| !l.contains("\"note\":"))
        .map(|l| format!("{l}\n"))
        .collect();
    (result, metrics)
}

#[test]
fn a_store_the_launcher_filled_answers_a_daemon() {
    let path = scratch("dist-to-daemon");
    let cells = WireCell::figure_cells("5", "smoke");
    let mut store = open_clean(&path);
    let swept = run_sweep(&cells, 0, &LaunchOpts::threads(2), &mut store).expect("sweep completes");
    assert_eq!(swept.results.len(), cells.len());
    store.flush().expect("store file is writable");
    assert_eq!(scrubbed_ok(&path), cells.len());

    let (warm, metrics) = ask_a_daemon(Some(path.clone()));
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 0"),
        "the daemon re-simulated what the launcher stored: {metrics}"
    );
    assert!(
        metrics.contains(&format!("\"host.svc.cache.hits\": {}", cells.len())),
        "{metrics}"
    );
    let (cold, metrics) = ask_a_daemon(None);
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 1"),
        "{metrics}"
    );
    assert_eq!(warm, cold, "a rank's result is the daemon's own");
    assert_eq!(scrubbed_ok(&path), cells.len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_store_a_daemon_filled_answers_the_launcher() {
    let path = scratch("daemon-to-dist");
    ask_a_daemon(Some(path.clone()));
    let cells = WireCell::figure_cells("5", "smoke");
    assert_eq!(scrubbed_ok(&path), cells.len());

    // No rank can start: a sweep that returns was answered by the store.
    let no_worker = LaunchOpts::processes(2, vec!["/nonexistent/bsim-dist-worker".into()]);
    let mut store = open_clean(&path);
    let swept = run_sweep(&cells, 0, &no_worker, &mut store).expect("the store holds every cell");
    assert_eq!(swept.respawns, 0);
    assert_eq!(store.len(), cells.len(), "nothing to add");
    for (cell, (label, result)) in cells.iter().zip(&swept.results) {
        assert_eq!(label, &cell.label());
        assert_eq!(Some(result), store.get_bytes(&cell.key(0)).as_ref());
    }
    // At another seed the same file holds nothing for these cells.
    assert!(cells.iter().all(|c| store.get_bytes(&c.key(1)).is_none()));
    std::fs::remove_file(&path).ok();
}

/// ROADMAP 7 (c): a store file is outside input too. One whose entry
/// nests far past the parser's bound is unreadable — set aside whole
/// like a torn write — where it used to overflow the stack of whichever
/// command opened it.
#[test]
fn a_store_nested_past_the_parser_bound_is_quarantined_whole() {
    let path = scratch("nested");
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    std::fs::write(
        &path,
        format!("{{\"version\":1,\"cells\":{{\"k\":{deep}}}}}"),
    )
    .unwrap();

    let (store, report) = ResultStore::open(&path);
    assert!(report.has_code("SV004"), "{report}");
    assert_eq!(store.len(), 0);
    assert!(!path.exists(), "set aside, not reused");
    let quarantined = PathBuf::from(format!("{}.quarantined", path.display()));
    assert!(quarantined.exists());
    std::fs::remove_file(&quarantined).ok();
}
