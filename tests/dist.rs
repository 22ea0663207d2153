//! Multi-process scale-out tests: real `bsim dist-worker` OS processes
//! driven through the launcher — byte-identical sweep results vs the
//! in-process path, SIGKILL-and-respawn recovery, and the CLI surface
//! (`bsim dist`, the process-kill row of `bsim faults`).

use std::process::Command;

use silicon_bridge::core::{Ctx, Parallelism};
use silicon_bridge::dist::faults::{self, kill_sweep_cells};
use silicon_bridge::dist::launcher::{run_sweep, LaunchOpts};
use silicon_bridge::resilience::ResultStore;

/// The `bsim` binary built alongside this test, re-entered via the
/// hidden `dist-worker` subcommand — exactly what the CLI spawns.
fn worker_argv() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_bsim").to_string(), "dist-worker".into()]
}

/// Acceptance bar: a 2-process sweep returns, per cell, exactly the
/// bytes the in-process `WireCell::run` produces. Determinism across
/// the process boundary is the whole point of token links.
#[test]
fn a_two_process_sweep_is_byte_identical_to_the_in_process_path() {
    let cells = kill_sweep_cells();
    let local: Vec<String> = cells
        .iter()
        .map(|c| {
            serde_json::to_string(&c.run(Parallelism::Sequential).expect("cells runnable")).unwrap()
        })
        .collect();

    let opts = LaunchOpts::processes(2, worker_argv());
    let out = run_sweep(&cells, 0, &opts, &mut ResultStore::ephemeral()).expect("sweep completes");
    assert_eq!(out.ranks, 2);
    assert_eq!(out.results.len(), cells.len());
    for ((cell, want), (label, got)) in cells.iter().zip(&local).zip(&out.results) {
        assert_eq!(label, &cell.label());
        assert_eq!(&**got, want, "{label} diverged across the process boundary");
    }
}

/// A worker SIGKILLed mid-sweep is respawned, the plan is rebuilt from
/// the cells not yet checkpointed, and the final results are still
/// byte-identical — the packaged fault row asserts all of it.
#[test]
fn a_killed_worker_is_respawned_and_the_sweep_still_matches() {
    let row = faults::ROWS
        .iter()
        .find(|row| row.name == "process-kill")
        .expect("the scale-out rows include process-kill");
    let s = row.scenario(&Ctx::new(7, worker_argv()));
    assert!(s.pass, "process-kill scenario failed: {}", s.observed);
    assert!(s.observed.contains("respawns=1"), "{}", s.observed);
    assert!(s.observed.contains("identical=true"), "{}", s.observed);
}

/// Kill injection exposed on the CLI: `bsim dist --kill-rank` must
/// recover (exit 0) and report the respawn on stderr.
#[test]
fn the_dist_cli_survives_a_mid_sweep_worker_kill() {
    let out = Command::new(env!("CARGO_BIN_EXE_bsim"))
        .args([
            "dist",
            "--ranks",
            "2",
            "--kill-rank",
            "1",
            "--kill-after",
            "1",
        ])
        .output()
        .expect("bsim dist runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "bsim dist failed:\n{stderr}");
    assert!(stderr.contains("respawn"), "no respawn reported:\n{stderr}");
    assert!(stderr.contains("1 respawn(s)"), "{stderr}");
}

/// The graph demo — a partitioned model graph over socket token links,
/// with the quiescence fast-forward active — prints matching in-process
/// and distributed fingerprints.
#[test]
fn the_dist_cli_graph_demo_is_bit_identical() {
    let out = Command::new(env!("CARGO_BIN_EXE_bsim"))
        .args(["dist", "--graph-demo", "300", "--ranks", "2", "--ring", "4"])
        .output()
        .expect("bsim dist --graph-demo runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "graph demo failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("bit-identical"), "{stdout}");
}

/// `bsim faults` appends the scale-out and service rows (process-kill,
/// wire-bitflip, slow-peer, store-corrupt) to the nine in-process
/// scenarios and the full matrix passes under `--deny-unsurvived`.
#[test]
fn the_faults_matrix_reports_scale_out_survival() {
    let out = Command::new(env!("CARGO_BIN_EXE_bsim"))
        .args(["faults", "--deny-unsurvived"])
        .output()
        .expect("bsim faults runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "faults matrix failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for row in ["process-kill", "wire-bitflip", "slow-peer", "store-corrupt"] {
        assert!(stdout.contains(row), "missing {row} row:\n{stdout}");
    }
    assert!(stdout.contains("13/13 scenarios"), "{stdout}");
}
