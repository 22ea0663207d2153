//! One cell identity, one result store: a file filled by `bsim fig
//! --store` answers a daemon, and one a daemon filled answers `bsim fig
//! --store`, because both key a cell by `WireCell::key` and reach the
//! `ResultStore` through one `CellPool`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

use silicon_bridge::core::{scrub, CellPool, ResultStore, WireCell};
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

/// `bsim fig 5 --smoke`, with `--store path` when given.
fn bsim_fig5(store: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bsim"));
    cmd.args(["fig", "5", "--smoke"]);
    if let Some(path) = store {
        cmd.arg("--store").arg(path);
    }
    let out = cmd.output().expect("bsim runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `bsim fig 5 --smoke --store F` into a fresh scratch file `F`,
/// checked entry by entry; returns `F`.
fn a_store_bsim_fig_filled(name: &str) -> PathBuf {
    let path = scratch(name);
    bsim_fig5(Some(&path));
    assert_eq!(
        scrubbed_ok(&path),
        WireCell::figure_cells("5", "smoke").len()
    );
    path
}

/// A file `bsim fig 5 --smoke --store F` filled answers a daemon with
/// nothing simulated, every cell a hit, and a cold daemon computes the
/// same answer.
#[test]
fn a_store_bsim_fig_filled_answers_a_daemon() {
    let path = a_store_bsim_fig_filled("fig-to-daemon");
    let cells = WireCell::figure_cells("5", "smoke");

    let (warm, metrics) = ask_a_daemon(Some(path.clone()));
    assert!(
        metrics.contains("\"host.svc.cells.simulated\": 0"),
        "the daemon re-simulated what bsim fig stored: {metrics}"
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
    assert_eq!(warm, cold, "a stored result is the daemon's own");
    assert_eq!(scrubbed_ok(&path), cells.len());
    std::fs::remove_file(&path).ok();
}

/// A daemon on a file `bsim fig 5 --smoke --store F` filled serves, cell
/// for cell, the very bytes `bsim fig` stored.
#[test]
fn a_store_bsim_fig_filled_hands_a_daemon_the_bytes_it_stored() {
    let path = a_store_bsim_fig_filled("fig-bytes-to-daemon");
    let cells = WireCell::figure_cells("5", "smoke");
    let store = open_clean(&path);
    let stored: Vec<_> = cells
        .iter()
        .map(|c| store.get(&c.key(0)).unwrap())
        .collect();
    drop(store);

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
        assert_eq!(serde_json::to_string(result).unwrap(), &**bytes);
    }
    std::fs::remove_file(&path).ok();
}

/// A file a daemon filled answers `bsim fig --store` subfigure for
/// subfigure, with nothing simulated, nothing added and the table a
/// storeless run prints.
#[test]
fn a_store_a_daemon_filled_answers_bsim_fig() {
    let path = scratch("daemon-to-fig");
    ask_a_daemon(Some(path.clone()));
    let cells = WireCell::figure_cells("5", "smoke");
    assert_eq!(scrubbed_ok(&path), cells.len());

    let replay = bsim_fig5(Some(&path));
    let log = String::from_utf8_lossy(&replay.stderr);
    let replayed = log
        .lines()
        .filter(|l| l.ends_with(": replayed from the result store"))
        .count();
    assert_eq!(replayed, cells.len(), "{log}");
    assert!(!log.contains("host sweep:"), "bsim fig simulated: {log}");
    assert_eq!(replay.stdout, bsim_fig5(None).stdout);

    let store = open_clean(&path);
    assert_eq!(store.len(), cells.len(), "nothing to add");
    // At another seed the same file holds nothing for these cells.
    assert!(cells.iter().all(|c| store.get(&c.key(1)).is_none()));
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
