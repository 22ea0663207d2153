//! One cell identity, one result store: a file filled by any of `bsim
//! fig`, the dist launcher and a daemon answers the other two, because
//! all three key a cell by `WireCell::key` and reach the `ResultStore`
//! through one `CellPool`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use silicon_bridge::core::experiments::{subfigures, Sizes};
use silicon_bridge::core::{CellPool, Parallelism, Snapshot};
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

fn open_clean(path: &Path) -> CellPool {
    let (store, report) = ResultStore::open(path);
    assert!(report.is_clean(), "{}: {report}", path.display());
    CellPool::new(store)
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
/// flushes) and returns the response, whole, and the `/metrics` document.
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
    (result, metrics)
}

#[test]
fn a_store_the_launcher_filled_answers_a_daemon() {
    let path = scratch("dist-to-daemon");
    let cells = WireCell::figure_cells("5", "smoke");
    let store = open_clean(&path);
    let swept = run_sweep(&cells, 0, &LaunchOpts::threads(2), &store).expect("sweep completes");
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
    let store = open_clean(&path);
    let swept = run_sweep(&cells, 0, &no_worker, &store).expect("the store holds every cell");
    assert_eq!(swept.respawns, 0);
    assert_eq!(store.len(), cells.len(), "nothing to add");
    for (cell, (label, result)) in cells.iter().zip(&swept.results) {
        assert_eq!(label, &cell.label());
        assert_eq!(Some(result), store.get(&cell.key(0)).as_ref());
    }
    // At another seed the same file holds nothing for these cells.
    assert!(cells.iter().all(|c| store.get(&c.key(1)).is_none()));
    std::fs::remove_file(&path).ok();
}

/// A file filled through the pool as `bsim fig 5 --smoke --store F`
/// fills it answers the launcher with no worker spawned and a daemon
/// with nothing simulated, and both hand back the bytes `bsim fig`
/// stored.
#[test]
fn a_store_bsim_fig_filled_answers_the_launcher_and_a_daemon() {
    let path = scratch("fig-to-all");
    let cells = WireCell::figure_cells("5", "smoke");
    let keys: Vec<String> = cells.iter().map(|c| c.key(0)).collect();
    let plan: Vec<_> = subfigures("5").collect();
    let (store, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "{report}");
    let fig = CellPool::with_on_put(store, |store| {
        store.flush().expect("store file is writable");
    });
    let filled = fig.run(&keys, Parallelism::Sequential, None, |i| {
        Ok(plan[i].run(Sizes::smoke(), Parallelism::Sequential).save())
    });
    assert!(filled.all_ok() && filled.restored() == 0);
    drop(fig);
    let stored: Vec<_> = filled.outcomes.iter().map(|o| o.value().unwrap()).collect();
    assert_eq!(scrubbed_ok(&path), cells.len());

    let no_worker = LaunchOpts::processes(2, vec!["/nonexistent/bsim-dist-worker".into()]);
    let swept =
        run_sweep(&cells, 0, &no_worker, &open_clean(&path)).expect("the store holds every cell");
    assert_eq!(swept.respawns, 0);
    for ((_, result), bytes) in swept.results.iter().zip(&stored) {
        assert_eq!(result, *bytes);
    }

    let (answer, metrics) = ask_a_daemon(Some(path.clone()));
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 0"),
        "the daemon re-simulated what bsim fig stored: {metrics}"
    );
    let tree: serde::Value = serde_json::from_str(&answer).unwrap();
    let serde::Value::Map(doc) = tree else {
        panic!("{answer}")
    };
    let Some((_, serde::Value::Seq(served))) = doc.iter().find(|(k, _)| k == "cells") else {
        panic!("{answer}")
    };
    assert_eq!(served.len(), stored.len());
    for (entry, bytes) in served.iter().zip(&stored) {
        let serde::Value::Map(fields) = entry else {
            panic!("{answer}")
        };
        let (_, result) = fields.iter().find(|(k, _)| k == "result").unwrap();
        assert_eq!(serde_json::to_string(result).unwrap(), &***bytes);
    }
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
