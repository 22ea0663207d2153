//! The scale-out rows of the `bsim faults` survival matrix.
//!
//! The nine in-process rows (`bsim-core::campaign`) cover token, model,
//! and host-thread faults inside one address space. Scale-out adds fault
//! classes the engine cannot see from inside — [`ROWS`]:
//!
//! * `process-kill` — an entire worker process disappears mid-sweep
//!   (real processes, SIGKILL): the launcher must respawn it and the
//!   recovered sweep must be byte-identical to the in-process schedule.
//! * `wire-bitflip` — one bit of a rank's result stream flips in flight:
//!   the frame CRC must detect it, the backoff-gated respawn must
//!   recover, and the merged result must stay byte-identical (never
//!   silently wrong).
//! * `slow-peer` — the coordinator accepts a worker and then goes
//!   silent: the worker's socket timeout must surface a typed error
//!   within the io budget instead of hanging the process.

use crate::cells::WireCell;
use crate::frame;
use crate::launcher::{run_sweep, KillSpec, LaunchOpts, SweepOutcome, WireFaultSpec, WorkerSpawn};
use crate::worker;
use bsim_core::campaign::{Ctx, FaultRow};
use bsim_core::Parallelism;
use bsim_resilience::ResultStore;
use std::io;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The scale-out rows; the last two are in-process-safe (thread ranks, a
/// loopback listener).
pub static ROWS: [FaultRow; 3] = [
    FaultRow {
        needs_processes: true,
        ..FaultRow::new(
            "process-kill",
            "worker SIGKILL",
            "respawn; sweep completes bit-identically",
            process_kill,
        )
    },
    FaultRow {
        guard: true,
        ..FaultRow::new(
            "wire-bitflip",
            "one bit flipped on the result wire",
            "frame CRC detects; backoff respawn; bit-identical",
            wire_bitflip,
        )
    },
    FaultRow {
        guard: true,
        ..FaultRow::new(
            "slow-peer",
            "coordinator accepts, then goes silent",
            "typed socket timeout within the io budget; no hang",
            slow_peer,
        )
    },
];

/// The sweep the kill scenario runs: cheap microbenchmark cells, enough
/// of them that the victim rank always has pending work when the kill
/// lands after its first result.
pub fn kill_sweep_cells() -> Vec<WireCell> {
    ["Rocket 1", "Rocket 2"]
        .into_iter()
        .flat_map(|platform| {
            ["Cca", "CCh", "EI", "EM5", "MD"]
                .into_iter()
                .map(move |kernel| WireCell::Micro {
                    platform: platform.into(),
                    kernel: kernel.into(),
                    scale: 1,
                })
        })
        .collect()
}

/// Runs [`kill_sweep_cells`] under `opts` and checks the merged results
/// against the same cells run in this process — every cell is sequential
/// inside, so that is the bit-identical reference. `judge` words the
/// outcome.
fn sweep_against_reference(
    opts: &LaunchOpts,
    judge: impl FnOnce(&SweepOutcome, bool) -> (String, bool),
) -> (String, bool) {
    let cells = kill_sweep_cells();
    let reference: Vec<String> = cells
        .iter()
        .map(|cell| match cell.run(Parallelism::Sequential) {
            Ok(tree) => serde_json::to_string(&tree).expect("shim renderer is total"),
            Err(why) => format!("error: {why}"),
        })
        .collect();
    match run_sweep(&cells, 0, opts, &mut ResultStore::ephemeral()) {
        Ok(outcome) => {
            let identical = outcome
                .results
                .iter()
                .zip(&reference)
                .all(|((_, got), want)| **got == **want);
            judge(&outcome, identical)
        }
        Err(e) => (format!("sweep did not complete: {e}"), false),
    }
}

/// The sweep across two real worker processes (`ctx.worker_cmd`), one
/// killed mid-sweep. Which of the two ranks dies derives from the
/// campaign seed, like every other injection site in the matrix.
fn process_kill(ctx: &Ctx) -> (String, bool) {
    let victim = (ctx.seed % 2) as usize;
    let opts = LaunchOpts {
        ranks: 2,
        spawn: WorkerSpawn::Process(ctx.worker_cmd.clone()),
        silence_budget: Duration::from_secs(120),
        kill: Some(KillSpec {
            rank: victim,
            after_cells: 1,
        }),
        max_respawns: 3,
        io_timeout: Duration::from_secs(120),
        wire_fault: None,
    };
    sweep_against_reference(&opts, |outcome, identical| {
        (
            format!(
                "rank {victim} killed after 1 cell; respawns={} identical={}",
                outcome.respawns, identical
            ),
            outcome.respawns >= 1 && identical,
        )
    })
}

/// The sweep across two in-process thread ranks with one result bit
/// flipped on the victim's wire. The flip lands inside the first `Cell`
/// frame's JSON payload — past the 12-byte integrity header and the
/// 4-byte cell index — so the frame CRC, not the JSON parser, is what
/// has to catch it.
fn wire_bitflip(ctx: &Ctx) -> (String, bool) {
    let victim = (ctx.seed % 2) as usize;
    let bit = ((frame::HEADER_LEN as u64 + 4 + 8) * 8) + (ctx.seed % 8);
    let mut opts = LaunchOpts::threads(2);
    opts.wire_fault = Some(WireFaultSpec { rank: victim, bit });
    sweep_against_reference(&opts, |outcome, identical| {
        let crc_caught = outcome
            .losses
            .iter()
            .any(|why| why.contains("corrupt frame"));
        (
            format!(
                "rank {victim} bit {bit} flipped; respawns={} crc_caught={crc_caught} \
                 identical={identical}",
                outcome.respawns
            ),
            outcome.respawns >= 1 && crc_caught && identical,
        )
    })
}

/// Connects a worker to a coordinator that accepts and then never
/// speaks. The worker's armed socket timeout must convert the stall
/// into a typed `TimedOut`/`WouldBlock` error within the io budget —
/// a silent peer may cost a timeout, never a wedged process.
fn slow_peer(ctx: &Ctx) -> (String, bool) {
    let verdict = (|| -> io::Result<(String, bool)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let mute = std::thread::spawn(move || {
            // Accept, then hold the socket open without writing a byte.
            let held = listener.accept();
            let _ = release_rx.recv();
            drop(held);
        });
        let budget = Duration::from_millis(100 + ctx.seed % 100);
        let started = Instant::now();
        let outcome = worker::run_with(&addr, 0, budget);
        let waited = started.elapsed();
        let _ = release_tx.send(());
        let _ = mute.join();
        match outcome {
            Ok(()) => Ok((
                "worker reported success against a silent coordinator".into(),
                false,
            )),
            Err(err) => {
                let typed = matches!(
                    err.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                );
                let bounded = waited < Duration::from_secs(10);
                Ok((
                    format!("budget {budget:?}: {:?} after {waited:?}", err.kind()),
                    typed && bounded,
                ))
            }
        }
    })();
    verdict.unwrap_or_else(|e| (format!("scenario setup failed: {e}"), false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kill_sweep_gives_both_ranks_real_work() {
        let cells = kill_sweep_cells();
        assert!(cells.len() >= 6, "enough cells to survive a kill mid-rank");
        for cell in &cells {
            assert!(
                cell.run(Parallelism::Sequential).is_ok(),
                "{} must be runnable",
                cell.label()
            );
        }
    }

    #[test]
    fn an_unspawnable_worker_is_a_miss_not_a_panic() {
        let (observed, pass) = process_kill(&Ctx::new(42, vec!["/no/such/binary".into()]));
        assert!(!pass);
        assert!(observed.contains("did not complete"));
    }

    #[test]
    fn a_flipped_wire_bit_is_detected_and_survived() {
        for seed in [0, 1] {
            let (observed, pass) = wire_bitflip(&Ctx::new(seed, Vec::new()));
            assert!(pass, "seed {seed}: {observed}");
            assert!(observed.contains("crc_caught=true"), "{observed}");
        }
    }

    #[test]
    fn a_silent_coordinator_times_out_instead_of_hanging() {
        let (observed, pass) = slow_peer(&Ctx::new(7, Vec::new()));
        assert!(pass, "{observed}");
    }
}
