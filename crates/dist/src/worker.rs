//! The worker-process entry point.
//!
//! A worker is spawned by the [`crate::launcher`] with two environment
//! variables — the coordinator's address and its rank — connects back,
//! introduces itself with a `Hello`, receives its [`PlanSpec`], executes
//! it, and streams results back as `Cell` frames followed by `Done`.
//! One plan per process lifetime: a respawned worker is a fresh process
//! with a fresh (smaller) plan, which is exactly what makes the
//! process-loss recovery story simple.
//!
//! The hidden `bsim dist-worker` subcommand and the integration tests'
//! self-exec both land in [`run_from_env`].

use crate::cells::WireCell;
use crate::frame::{read_frame, write_frame, Frame};
use crate::graph::{demo_ring, rank_view, RankGraph};
use crate::plan::PlanSpec;
use bsim_check::proto::{dist_cached, Tracker, Violation};
use bsim_core::Parallelism;
use bsim_resilience::snapshot::Snapshot;
use serde::Value;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Socket timeout armed on every worker-side connection (control and
/// token links). A coordinator that accepts and then goes silent is a
/// typed [`io::ErrorKind::TimedOut`]/`WouldBlock` error, not a worker
/// process wedged forever.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Arms symmetric read/write timeouts; zero means unbounded (std
/// rejects a literal zero timeout).
fn arm_io(stream: &TcpStream, timeout: Duration) {
    let t = if timeout.is_zero() {
        None
    } else {
        Some(timeout)
    };
    let _ = stream.set_read_timeout(t);
    let _ = stream.set_write_timeout(t);
}

/// A protocol-table violation on the worker side is a bug in this file,
/// not a peer failure: the table is the specification the code below is
/// supposed to implement. Surface it as a typed error.
fn drift(v: Violation) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, v.to_string())
}

fn worker_tracker() -> io::Result<Tracker<'static>> {
    Tracker::new(dist_cached(), "worker")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "dist table lacks a worker role"))
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

/// Connects to `addr`, handshakes as `rank`, and executes one plan.
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
    let mut tracker = worker_tracker()?;
    let control = TcpStream::connect(addr)?;
    arm_io(&control, io_timeout);
    let mut control = control;
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
    match plan {
        PlanSpec::Sweep { cells } => run_sweep(&mut control, &mut tracker, rank, &cells),
        PlanSpec::Graph {
            ring,
            latency,
            quantum,
            cycles,
            seed,
            assignment,
            rank: plan_rank,
        } => run_graph(
            &mut control,
            &mut tracker,
            addr,
            io_timeout,
            plan_rank,
            ring,
            latency,
            quantum,
            cycles,
            seed,
            &assignment,
        ),
    }
}

fn run_sweep(
    control: &mut TcpStream,
    tracker: &mut Tracker<'_>,
    rank: usize,
    cells: &[(u32, WireCell)],
) -> io::Result<()> {
    for (index, cell) in cells {
        match cell.run(Parallelism::Sequential) {
            Ok(tree) => {
                tracker.local("cell").map_err(drift)?;
                write_frame(
                    control,
                    &Frame::Cell {
                        index: *index,
                        json: serde_json::to_string(&tree).expect("shim renderer is total"),
                    },
                )?
            }
            Err(why) => {
                let msg = format!("rank {rank}: cell {}: {why}", cell.label());
                let stepped = tracker.local("error");
                debug_assert!(stepped.is_ok(), "{stepped:?}");
                let _ = write_frame(control, &Frame::Err { msg: msg.clone() });
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        }
    }
    tracker.local("done").map_err(drift)?;
    write_frame(control, &Frame::Done)?;
    debug_assert!(tracker.is_terminal(), "worker left the table mid-exchange");
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_graph(
    control: &mut TcpStream,
    tracker: &mut Tracker<'_>,
    addr: &str,
    io_timeout: Duration,
    rank: usize,
    ring: usize,
    latency: u64,
    quantum: usize,
    cycles: u64,
    seed: u64,
    assignment: &[usize],
) -> io::Result<()> {
    let (models, wires) = demo_ring(ring, seed, latency);
    let view = rank_view(assignment, &wires, rank);
    // One extra connection per cut wire, introduced by a Link frame so
    // the coordinator can pair producer and consumer ends and relay
    // bytes between them.
    // Each link connection is its own protocol session: a fresh tracker
    // takes the `connect --link--> piping` transition and parks in the
    // `piping` terminal, after which the socket carries raw token frames
    // the control table deliberately does not model.
    let connect_link = |wire: u32, producer: bool| -> io::Result<TcpStream> {
        let mut link = worker_tracker()?;
        link.local("link").map_err(drift)?;
        debug_assert!(link.is_terminal());
        let mut s = TcpStream::connect(addr)?;
        arm_io(&s, io_timeout);
        write_frame(&mut s, &Frame::Link { wire, producer })?;
        Ok(s)
    };
    let mut out_streams: Vec<Box<dyn Write + Send>> = Vec::with_capacity(view.outs.len());
    for cut in &view.outs {
        out_streams.push(Box::new(connect_link(cut.wire as u32, true)?));
    }
    let mut in_streams: Vec<Box<dyn Read + Send>> = Vec::with_capacity(view.ins.len());
    for cut in &view.ins {
        in_streams.push(Box::new(connect_link(cut.wire as u32, false)?));
    }
    let local: Vec<_> = view
        .local_models
        .iter()
        .map(|&g| models[g].clone())
        .collect();
    let mut graph = RankGraph::new(local, &view, in_streams, out_streams, quantum, true);
    graph.run(cycles)?;
    // Final states keyed by global model id, so the coordinator can
    // reassemble the ring in order.
    let states = Value::Map(
        view.local_models
            .iter()
            .zip(graph.models())
            .map(|(&g, m)| (g.to_string(), m.save()))
            .collect(),
    );
    tracker.local("cell").map_err(drift)?;
    write_frame(
        control,
        &Frame::Cell {
            index: rank as u32,
            json: serde_json::to_string(&states).expect("shim renderer is total"),
        },
    )?;
    tracker.local("done").map_err(drift)?;
    write_frame(control, &Frame::Done)?;
    debug_assert!(tracker.is_terminal(), "worker left the table mid-exchange");
    Ok(())
}
