//! The worker-process entry point.
//!
//! A worker is spawned by the [`crate::launcher`] with two environment
//! variables — the coordinator's address and its rank — connects back,
//! introduces itself with a `Hello`, receives its sweep [`PlanSpec`],
//! runs the cells in order, and streams results back as `Cell` frames
//! followed by `Done`. One plan per process lifetime: a respawned worker
//! is a fresh process with a fresh (smaller) plan, which is exactly what
//! makes the process-loss recovery story simple.
//!
//! The hidden `bsim dist-worker` subcommand and the integration tests'
//! self-exec both land in [`run_from_env`].

use crate::frame::{read_frame, write_frame, Frame};
use crate::launcher::arm_io;
use crate::plan::PlanSpec;
use bsim_check::proto::{dist_cached, Tracker, Violation};
use bsim_core::Parallelism;
use bsim_resilience::store::canonical;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Socket timeout armed on the worker's control connection. A
/// coordinator that accepts and then goes silent is a typed
/// [`io::ErrorKind::TimedOut`]/`WouldBlock` error, not a worker process
/// wedged forever.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A protocol-table violation on the worker side is a bug in this file,
/// not a peer failure: the table is the specification the code below is
/// supposed to implement. Surface it as a typed error.
fn drift(v: Violation) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, v.to_string())
}

/// Environment variable naming the coordinator's `host:port`.
pub(crate) const ADDR_ENV: &str = "BSIM_DIST_ADDR";
/// Environment variable naming this worker's rank.
pub(crate) const RANK_ENV: &str = "BSIM_DIST_RANK";

/// The coordinator address and rank, if this process was spawned as a
/// worker.
fn from_env() -> Option<(String, usize)> {
    let addr = std::env::var(ADDR_ENV).ok()?;
    let rank = std::env::var(RANK_ENV).ok()?.parse().ok()?;
    Some((addr, rank))
}

/// Worker main: connect back and execute the plan. Returns an error
/// (after best-effort reporting it as an `Err` frame) rather than
/// panicking — a worker's death must always be legible to the
/// coordinator as a socket event plus, when possible, a reason.
pub fn run_from_env() -> io::Result<()> {
    let (addr, rank) = from_env().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{ADDR_ENV}/{RANK_ENV} are not set; this entry point is for spawned workers"),
        )
    })?;
    run(&addr, rank)
}

/// Connects to `addr`, handshakes as `rank`, and runs one sweep plan.
/// The exchange drives the `worker` role of the PV-checked dist
/// protocol table: every frame sent is preceded by a `Local` transition
/// and every frame received is gated by a `Recv` transition, so the
/// runtime cannot silently diverge from the model the checker explored.
pub fn run(addr: &str, rank: usize) -> io::Result<()> {
    run_with(addr, rank, DEFAULT_IO_TIMEOUT)
}

/// [`run`] with an explicit socket timeout (the fault campaign shrinks
/// it to prove a silent coordinator cannot hang a worker).
pub(crate) fn run_with(addr: &str, rank: usize, io_timeout: Duration) -> io::Result<()> {
    let mut tracker = Tracker::new(dist_cached(), "worker").ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "dist table lacks a worker role")
    })?;
    let mut control = TcpStream::connect(addr)?;
    arm_io(&control, io_timeout);
    tracker.local("hello").map_err(drift)?;
    write_frame(&mut control, &Frame::Hello { rank: rank as u32 })?;
    let frame = match read_frame(&mut control) {
        Ok(f) => f,
        Err(e) => {
            // Peer loss while awaiting the plan: a table transition to
            // `lost` either way; surface the io error.
            let stepped = if e.kind() == io::ErrorKind::UnexpectedEof {
                tracker.eof()
            } else {
                tracker.torn()
            };
            debug_assert!(stepped.is_ok(), "{stepped:?}");
            return Err(e);
        }
    };
    if let Err(v) = tracker.recv(frame.event()) {
        return Err(drift(v));
    }
    let json = match frame {
        Frame::Plan { json } => json,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a Plan frame, got {other:?}"),
            ))
        }
    };
    let Some(plan) = PlanSpec::decode(&json) else {
        let msg = format!("rank {rank}: undecodable plan");
        let stepped = tracker.local("error");
        debug_assert!(stepped.is_ok(), "{stepped:?}");
        let _ = write_frame(&mut control, &Frame::Err { msg: msg.clone() });
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    };
    for (index, cell) in &plan.cells {
        match cell.run(Parallelism::Sequential) {
            Ok(tree) => {
                tracker.local("cell").map_err(drift)?;
                write_frame(
                    &mut control,
                    &Frame::Cell {
                        index: *index,
                        json: canonical(&tree),
                    },
                )?
            }
            Err(why) => {
                let msg = format!("rank {rank}: cell {}: {why}", cell.label());
                let stepped = tracker.local("error");
                debug_assert!(stepped.is_ok(), "{stepped:?}");
                let _ = write_frame(&mut control, &Frame::Err { msg: msg.clone() });
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        }
    }
    tracker.local("done").map_err(drift)?;
    write_frame(&mut control, &Frame::Done)?;
    debug_assert!(tracker.is_terminal(), "worker left the table mid-exchange");
    Ok(())
}
