//! The coordinator: spawn workers, distribute plans, collect results,
//! survive process loss.
//!
//! The launcher binds a loopback listener, spawns one worker per rank
//! (real processes via `bsim dist-worker`, or in-process threads for
//! tests), and serves each connection: `Hello` → [`PlanSpec`] → stream
//! of `Cell` results → `Done`. Sweep-mode recovery is re-planning: every
//! completed cell lands in the [`ResultStore`] the moment it arrives, so
//! when a worker dies (socket EOF, nonzero exit, or silence past the
//! [`PeerWatchdog`] budget) the replacement process is handed exactly
//! the cells that are still missing — completed work is never re-run,
//! and because every cell is deterministic and sequential inside
//! ([`WireCell::run`]), the recovered sweep is byte-identical to an
//! undisturbed one.
//!
//! Graph mode adds token-link relays: each cut wire is one extra
//! connection per endpoint, introduced by a `Link` frame; the
//! coordinator pairs the two ends and pipes bytes producer → consumer,
//! so workers never need to know each other's addresses.

use crate::cells::WireCell;
use crate::frame::{read_frame, write_frame, Frame};
use crate::graph::{demo_ring, fingerprint};
use crate::plan::{lint_graph_plan, PlanSpec};
use crate::worker;
use bsim_check::proto::{dist_cached, Tracker};
use bsim_core::experiments::partition_cells;
use bsim_engine::Harness;
use bsim_resilience::{Backoff, Breaker, BreakerState, PeerWatchdog, ResultStore};
use serde::Value;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How worker ranks become live workers.
#[derive(Clone, Debug)]
pub enum WorkerSpawn {
    /// Spawn `argv` as a child process with the coordinator address and
    /// rank in the environment (`bsim dist-worker`).
    Process(Vec<String>),
    /// Run [`worker::run`] on an in-process thread. Full wire protocol
    /// over real loopback sockets, but no kill support — used by unit
    /// tests and `--threads` debugging.
    Thread,
}

/// Deliberate process loss, for the fault campaign: SIGKILL `rank`'s
/// worker once it has delivered `after_cells` results.
#[derive(Clone, Copy, Debug)]
pub struct KillSpec {
    pub rank: usize,
    pub after_cells: usize,
}

/// Deliberate wire corruption, for the fault campaign: flip one bit of
/// rank `rank`'s post-plan result byte stream, exactly once. The frame
/// CRC must catch it; the respawned replacement reads clean.
#[derive(Clone, Copy, Debug)]
pub struct WireFaultSpec {
    pub rank: usize,
    /// Bit offset from the first result byte the rank sends.
    pub bit: u64,
}

/// Launcher configuration.
#[derive(Clone, Debug)]
pub struct LaunchOpts {
    pub ranks: usize,
    pub spawn: WorkerSpawn,
    /// A worker silent longer than this is presumed hung and killed
    /// (its cells are re-planned like any other loss).
    pub silence_budget: Duration,
    pub kill: Option<KillSpec>,
    /// Total respawn budget before the launcher gives up.
    pub max_respawns: usize,
    /// Read/write timeout armed on every control and relay socket; zero
    /// disables. A silent peer becomes a typed timeout error feeding
    /// the normal Gone → respawn path, never a wedged thread.
    pub io_timeout: Duration,
    /// One-shot wire corruption injection (fault campaign only).
    pub wire_fault: Option<WireFaultSpec>,
}

impl LaunchOpts {
    /// Process-mode defaults for `workers` ranks running `argv`.
    pub fn processes(ranks: usize, argv: Vec<String>) -> LaunchOpts {
        LaunchOpts {
            ranks,
            spawn: WorkerSpawn::Process(argv),
            silence_budget: Duration::from_secs(120),
            kill: None,
            max_respawns: 3,
            io_timeout: Duration::from_secs(120),
            wire_fault: None,
        }
    }

    /// Thread-mode defaults, for tests.
    pub fn threads(ranks: usize) -> LaunchOpts {
        LaunchOpts {
            ranks,
            spawn: WorkerSpawn::Thread,
            silence_budget: Duration::from_secs(120),
            kill: None,
            max_respawns: 3,
            io_timeout: Duration::from_secs(120),
            wire_fault: None,
        }
    }
}

/// A completed sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// `(cell label, canonical result bytes)` in cell order.
    pub results: Vec<(String, Arc<str>)>,
    /// Worker processes respawned along the way.
    pub respawns: usize,
    /// Ranks actually used (after clamping to the cell count).
    pub ranks: usize,
    /// Why each loss happened (`"rank N: <reason>"`), in event order —
    /// the fault campaign asserts a flipped wire bit surfaces here as a
    /// CRC failure, not as silently wrong results.
    pub losses: Vec<String>,
}

/// Arms symmetric socket timeouts; zero means unbounded (std rejects a
/// literal zero timeout).
fn arm_io(stream: &TcpStream, timeout: Duration) {
    let t = if timeout.is_zero() {
        None
    } else {
        Some(timeout)
    };
    let _ = stream.set_read_timeout(t);
    let _ = stream.set_write_timeout(t);
}

/// A `Read` adapter that flips one bit at a fixed byte offset of the
/// wrapped stream — the [`WireFaultSpec`] injection point. Reads pass
/// through untouched once the target byte has gone by.
struct BitFlipReader<R> {
    inner: R,
    /// Bytes left until the target byte; `None` once flipped (or never
    /// armed).
    pending: Option<u64>,
    mask: u8,
}

impl<R> BitFlipReader<R> {
    fn new(inner: R, bit: Option<u64>) -> BitFlipReader<R> {
        BitFlipReader {
            inner,
            pending: bit.map(|b| b / 8),
            mask: bit.map_or(0, |b| 1 << (b % 8)),
        }
    }
}

impl<R: Read> Read for BitFlipReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(offset) = self.pending {
            if (offset as usize) < n {
                buf[offset as usize] ^= self.mask;
                self.pending = None;
            } else {
                self.pending = Some(offset - n as u64);
            }
        }
        Ok(n)
    }
}

/// A completed graph demo.
#[derive(Clone, Debug)]
pub struct GraphOutcome {
    /// Fingerprint of the distributed final states, global model order.
    pub fingerprint: String,
    /// Fingerprint of the in-process `Harness::run` of the same target.
    pub reference: String,
}

impl GraphOutcome {
    pub fn identical(&self) -> bool {
        self.fingerprint == self.reference
    }
}

enum Spawned {
    Proc(Child),
    Thread(JoinHandle<()>),
}

impl Spawned {
    fn kill_and_reap(&mut self) {
        if let Spawned::Proc(child) = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_worker(opts: &LaunchOpts, addr: &str, rank: usize) -> io::Result<Spawned> {
    match &opts.spawn {
        WorkerSpawn::Process(argv) => {
            let program = argv.first().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "empty worker command")
            })?;
            Command::new(program)
                .args(&argv[1..])
                .env(worker::ADDR_ENV, addr)
                .env(worker::RANK_ENV, rank.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map(Spawned::Proc)
        }
        WorkerSpawn::Thread => {
            let addr = addr.to_string();
            Ok(Spawned::Thread(std::thread::spawn(move || {
                if let Err(e) = worker::run(&addr, rank) {
                    eprintln!("dist worker thread (rank {rank}): {e}");
                }
            })))
        }
    }
}

enum Event {
    Cell {
        rank: usize,
        index: u32,
        json: Arc<str>,
    },
    Done {
        rank: usize,
    },
    Gone {
        rank: usize,
        why: String,
    },
    /// Graph mode: one end of a cut-wire relay arrived.
    Link {
        wire: u32,
        producer: bool,
        stream: TcpStream,
    },
}

struct SweepShared {
    cells: Vec<WireCell>,
    assignment: Vec<usize>,
    done: Mutex<Vec<Option<Arc<str>>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serves one control connection: handshake, plan, result stream.
/// `graph_plan` serves graph mode; otherwise the plan is the rank's
/// not-yet-done sweep cells.
///
/// The connection drives the `coordinator` role of the PV-checked dist
/// protocol table: every received frame is gated by a `Recv` transition
/// and read failures are `Eof`/`Torn` transitions, so a peer that
/// departs from the model is reported as a [`Event::Gone`] with the
/// violation text, never silently tolerated.
fn serve_conn(
    mut stream: TcpStream,
    sweep: Option<Arc<SweepShared>>,
    graph_plan: Option<Arc<dyn Fn(usize) -> PlanSpec + Send + Sync>>,
    wire_fault: Arc<Mutex<Option<WireFaultSpec>>>,
    events: mpsc::Sender<Event>,
) {
    let Some(mut tracker) = Tracker::new(dist_cached(), "coordinator") else {
        return;
    };
    let first = match read_frame(&mut stream) {
        Ok(f) => f,
        Err(e) => {
            // The shutdown dummy connection lands here: a clean EOF (or
            // a torn read) in `accept` is a table transition to
            // `closed`, not a protocol violation.
            let stepped = if e.kind() == io::ErrorKind::UnexpectedEof {
                tracker.eof()
            } else {
                tracker.torn()
            };
            debug_assert!(stepped.is_ok(), "{stepped:?}");
            return;
        }
    };
    if tracker.recv(first.event()).is_err() {
        // Off-table first frame (a stray Cell, token traffic on the
        // control port): the table has no rule, so drop the connection.
        return;
    }
    let rank = match first {
        Frame::Hello { rank } => rank as usize,
        Frame::Link { wire, producer } => {
            debug_assert!(tracker.is_terminal(), "Link must land in relaying");
            let _ = events.send(Event::Link {
                wire,
                producer,
                stream,
            });
            return;
        }
        _ => return,
    };
    let plan = if let Some(make) = graph_plan {
        make(rank)
    } else if let Some(state) = &sweep {
        let done = lock(&state.done);
        PlanSpec::Sweep {
            cells: state
                .assignment
                .iter()
                .enumerate()
                .filter(|&(i, &r)| r == rank && done[i].is_none())
                .map(|(i, _)| (i as u32, state.cells[i].clone()))
                .collect(),
        }
    } else {
        return;
    };
    if write_frame(
        &mut stream,
        &Frame::Plan {
            json: plan.encode(),
        },
    )
    .is_err()
    {
        let _ = events.send(Event::Gone {
            rank,
            why: "plan write failed".into(),
        });
        return;
    }
    // The fault campaign corrupts this rank's result stream at most
    // once; after the `Plan` nothing is written back, so the stream can
    // move into the (normally pass-through) flipping reader.
    let flip = {
        let mut slot = lock(&wire_fault);
        match *slot {
            Some(f) if f.rank == rank => {
                *slot = None;
                Some(f.bit)
            }
            _ => None,
        }
    };
    let mut reader = BitFlipReader::new(stream, flip);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) => {
                let stepped = if e.kind() == io::ErrorKind::UnexpectedEof {
                    tracker.eof()
                } else {
                    tracker.torn()
                };
                debug_assert!(stepped.is_ok(), "{stepped:?}");
                let _ = events.send(Event::Gone {
                    rank,
                    why: e.to_string(),
                });
                return;
            }
        };
        if let Err(v) = tracker.recv(frame.event()) {
            let _ = events.send(Event::Gone {
                rank,
                why: v.to_string(),
            });
            return;
        }
        match frame {
            Frame::Cell { index, json } => {
                let json = json.into();
                let _ = events.send(Event::Cell { rank, index, json });
            }
            Frame::Done => {
                debug_assert!(tracker.is_terminal());
                let _ = events.send(Event::Done { rank });
                return;
            }
            Frame::Err { msg } => {
                debug_assert!(tracker.is_terminal());
                let _ = events.send(Event::Gone { rank, why: msg });
                return;
            }
            other => {
                // Unreachable while the table matches this match: any
                // frame the table rejects already returned above.
                let _ = events.send(Event::Gone {
                    rank,
                    why: format!("unexpected frame {other:?}"),
                });
                return;
            }
        }
    }
}

/// The accept loop plus its clean shutdown (a dummy connection unblocks
/// the final `accept`).
struct Acceptor {
    addr: String,
    closing: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    fn start(
        sweep: Option<Arc<SweepShared>>,
        graph_plan: Option<Arc<dyn Fn(usize) -> PlanSpec + Send + Sync>>,
        io_timeout: Duration,
        wire_fault: Arc<Mutex<Option<WireFaultSpec>>>,
        events: mpsc::Sender<Event>,
    ) -> io::Result<Acceptor> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let closing = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&closing);
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                // Control and relay sockets alike: a peer that stalls
                // mid-frame is a typed timeout, not a wedged thread.
                arm_io(&stream, io_timeout);
                let sweep = sweep.clone();
                let graph_plan = graph_plan.clone();
                let wire_fault = Arc::clone(&wire_fault);
                let events = events.clone();
                std::thread::spawn(move || {
                    serve_conn(stream, sweep, graph_plan, wire_fault, events)
                });
            }
        });
        Ok(Acceptor {
            addr,
            closing,
            handle: Some(handle),
        })
    }

    fn shutdown(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// Runs `cells` across `opts.ranks` worker processes. A cell `store`
/// already holds under its [`WireCell::key`] at `seed` is answered from
/// there and never shipped; a rank's result — the canonical rendering,
/// as the worker sent it — is stored under that key the moment it
/// arrives, so what a killed launcher leaves in a flushed store is not
/// run again, by this command or any other that reads the file.
pub fn run_sweep(
    cells: &[WireCell],
    seed: u64,
    opts: &LaunchOpts,
    store: &mut ResultStore,
) -> io::Result<SweepOutcome> {
    assert!(opts.ranks >= 1, "a sweep needs at least one worker");
    assert!(
        opts.kill.is_none() || matches!(opts.spawn, WorkerSpawn::Process(_)),
        "kill injection needs real processes"
    );
    let ranks = opts.ranks.min(cells.len()).max(1);
    let assignment = partition_cells(cells.len(), ranks);
    let keys: Vec<String> = cells.iter().map(|c| c.key(seed)).collect();
    let done: Vec<Option<Arc<str>>> = keys.iter().map(|k| store.get_bytes(k)).collect();
    if done.iter().all(Option::is_some) {
        return Ok(SweepOutcome {
            results: cells
                .iter()
                .zip(done)
                .map(|(c, d)| (c.label(), d.expect("checked")))
                .collect(),
            respawns: 0,
            ranks,
            losses: Vec::new(),
        });
    }

    let shared = Arc::new(SweepShared {
        cells: cells.to_vec(),
        assignment: assignment.clone(),
        done: Mutex::new(done),
    });
    let (events_tx, events) = mpsc::channel();
    let mut acceptor = Acceptor::start(
        Some(Arc::clone(&shared)),
        None,
        opts.io_timeout,
        Arc::new(Mutex::new(opts.wire_fault)),
        events_tx,
    )?;

    let mut children: HashMap<usize, Spawned> = HashMap::new();
    let mut losses: Vec<String> = Vec::new();
    let mut result = (|| -> io::Result<usize> {
        let mut watchdog = PeerWatchdog::new(ranks, opts.silence_budget);
        // Adaptive retry: every loss backs off with seeded jitter before
        // the respawn, and a rank that keeps flapping trips its breaker
        // so repeated trips sleep progressively longer (the replacement
        // is the half-open probe; its first Cell closes the breaker).
        let backoff = Backoff::new(0xB51D_6A2D);
        let mut breakers: Vec<Breaker> = (0..ranks).map(|_| Breaker::new(3)).collect();
        let mut respawns = 0usize;
        let mut delivered = vec![0usize; ranks];
        let mut kill_pending = opts.kill;
        for rank in 0..ranks {
            children.insert(rank, spawn_worker(opts, &acceptor.addr, rank)?);
        }
        loop {
            {
                let done = lock(&shared.done);
                if done.iter().all(Option::is_some) {
                    return Ok(respawns);
                }
            }
            let rank_pending = |rank: usize| {
                let done = lock(&shared.done);
                assignment
                    .iter()
                    .enumerate()
                    .any(|(i, &r)| r == rank && done[i].is_none())
            };
            match events.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Cell { rank, index, json }) => {
                    watchdog.beat(rank);
                    breakers[rank].record_success();
                    store.put_bytes(&keys[index as usize], Arc::clone(&json));
                    lock(&shared.done)[index as usize] = Some(json);
                    delivered[rank] += 1;
                    if let Some(kill) = kill_pending {
                        if kill.rank == rank && delivered[rank] >= kill.after_cells {
                            if let Some(child) = children.get_mut(&rank) {
                                child.kill_and_reap();
                            }
                            kill_pending = None;
                        }
                    }
                }
                Ok(Event::Done { rank }) => {
                    watchdog.beat(rank);
                }
                Ok(Event::Gone { rank, why }) => {
                    if !rank_pending(rank) {
                        continue;
                    }
                    losses.push(format!("rank {rank}: {why}"));
                    respawns += 1;
                    if respawns > opts.max_respawns {
                        return Err(io::Error::other(format!(
                            "rank {rank} lost ({why}) and the respawn budget of {} is spent",
                            opts.max_respawns
                        )));
                    }
                    eprintln!("bsim dist: rank {rank} lost ({why}); respawning");
                    if let Some(mut old) = children.remove(&rank) {
                        old.kill_and_reap();
                    }
                    watchdog.lost(rank);
                    let tripped = breakers[rank].record_failure() != BreakerState::Closed;
                    let attempt = breakers[rank].consecutive_failures().saturating_sub(1)
                        + breakers[rank].opens() as u32;
                    std::thread::sleep(Duration::from_millis(backoff.delay_ms(attempt)));
                    if tripped {
                        // The respawn below is the breaker's one
                        // half-open probe.
                        breakers[rank].try_probe();
                    }
                    children.insert(rank, spawn_worker(opts, &acceptor.addr, rank)?);
                    watchdog.revive(rank);
                }
                Ok(Event::Link { .. }) => {} // not part of sweep mode
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for rank in watchdog.dead() {
                        if rank_pending(rank) {
                            // Hung, not dead: kill it so the socket EOF
                            // drives the normal Gone → respawn path.
                            eprintln!("bsim dist: rank {rank} silent past budget; killing");
                            if let Some(child) = children.get_mut(&rank) {
                                child.kill_and_reap();
                            }
                            watchdog.beat(rank); // one kill per budget window
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other(
                        "event channel closed before the sweep finished",
                    ));
                }
            }
        }
    })();

    acceptor.shutdown();
    // bsim: allow(AU003) kill/wait order does not affect results
    for (_, mut child) in children.drain() {
        match &mut child {
            Spawned::Proc(_) => child.kill_and_reap(),
            Spawned::Thread(_) => {
                if let Spawned::Thread(h) = child {
                    let _ = h.join();
                }
            }
        }
    }
    let respawns = match &mut result {
        Ok(r) => *r,
        Err(_) => 0,
    };
    result.map(|_| {
        let done = lock(&shared.done);
        SweepOutcome {
            results: cells
                .iter()
                .zip(done.iter())
                .map(|(c, d)| (c.label(), d.clone().expect("loop exits when complete")))
                .collect(),
            respawns,
            ranks,
            losses,
        }
    })
}

/// Runs the partitioned demo ring across `opts.ranks` workers and the
/// same target in-process, returning both fingerprints. This is the
/// CLI-visible form of the determinism acceptance bar: the distributed
/// schedule must be bit-identical to `Harness::run`.
pub fn run_graph_demo(
    ring: usize,
    latency: u64,
    quantum: usize,
    cycles: u64,
    seed: u64,
    opts: &LaunchOpts,
) -> io::Result<GraphOutcome> {
    let (models, wires) = demo_ring(ring, seed, latency);
    let assignment = bsim_soc::partition::core_assignment(ring, opts.ranks);
    let ranks = assignment.iter().max().map_or(1, |&r| r + 1);
    let report = lint_graph_plan(ranks, &assignment, &wires, quantum);
    if report.has_errors() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("partition plan fails preflight:\n{report}"),
        ));
    }

    let reference = fingerprint(&Harness::new(models.clone(), wires.clone()).run(cycles));

    let plan_assignment = assignment.clone();
    let graph_plan: Arc<dyn Fn(usize) -> PlanSpec + Send + Sync> =
        Arc::new(move |rank| PlanSpec::Graph {
            ring,
            latency,
            quantum,
            cycles,
            seed,
            assignment: plan_assignment.clone(),
            rank,
        });
    let (events_tx, events) = mpsc::channel();
    let mut acceptor = Acceptor::start(
        None,
        Some(graph_plan),
        opts.io_timeout,
        Arc::new(Mutex::new(None)),
        events_tx,
    )?;

    let mut children: HashMap<usize, Spawned> = HashMap::new();
    let result = (|| -> io::Result<String> {
        let mut watchdog = PeerWatchdog::new(ranks, opts.silence_budget);
        for rank in 0..ranks {
            children.insert(rank, spawn_worker(opts, &acceptor.addr, rank)?);
        }
        let mut relays: HashMap<u32, (Option<TcpStream>, Option<TcpStream>)> = HashMap::new();
        let mut states: Vec<Option<Value>> = vec![None; ring];
        let mut finished = vec![false; ranks];
        loop {
            if finished.iter().all(|&f| f) && states.iter().all(Option::is_some) {
                return Ok(serde_json::to_string(&Value::Seq(
                    states.into_iter().map(|s| s.expect("checked")).collect(),
                ))
                .expect("shim renderer is total"));
            }
            match events.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Link {
                    wire,
                    producer,
                    stream,
                }) => {
                    let slot = relays.entry(wire).or_insert((None, None));
                    if producer {
                        slot.0 = Some(stream);
                    } else {
                        slot.1 = Some(stream);
                    }
                    if slot.0.is_some() && slot.1.is_some() {
                        let mut from = slot.0.take().expect("checked");
                        let mut to = slot.1.take().expect("checked");
                        // Byte relay: frames pass through untouched, so
                        // the endpoints' cycle checks still apply
                        // end-to-end.
                        std::thread::spawn(move || {
                            let _ = io::copy(&mut from, &mut to);
                        });
                        relays.remove(&wire);
                    }
                }
                Ok(Event::Cell { rank, json, .. }) => {
                    watchdog.beat(rank);
                    let tree: Value = serde_json::from_str(&json).map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("rank {rank} sent undecodable states"),
                        )
                    })?;
                    if let Value::Map(entries) = tree {
                        for (key, state) in entries {
                            let id: usize = key.parse().map_err(|_| {
                                io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("rank {rank} sent non-numeric model id {key:?}"),
                                )
                            })?;
                            states[id] = Some(state);
                        }
                    }
                }
                Ok(Event::Done { rank }) => {
                    watchdog.beat(rank);
                    finished[rank] = true;
                }
                Ok(Event::Gone { rank, why }) => {
                    return Err(io::Error::other(format!("rank {rank} died mid-run: {why}")));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(&rank) = watchdog.dead().first() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("rank {rank} silent past the watchdog budget"),
                        ));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other(
                        "event channel closed before the run finished",
                    ));
                }
            }
        }
    })();

    acceptor.shutdown();
    // bsim: allow(AU003) kill/wait order does not affect results
    for (_, mut child) in children.drain() {
        match &mut child {
            Spawned::Proc(_) => child.kill_and_reap(),
            Spawned::Thread(_) => {
                if let Spawned::Thread(h) = child {
                    let _ = h.join();
                }
            }
        }
    }
    result.map(|fp| GraphOutcome {
        fingerprint: fp,
        reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_core::Parallelism;

    fn micro_cells() -> Vec<WireCell> {
        // Two cheap kernels × two platforms: enough cells for two ranks
        // to both carry real work.
        ["Rocket 1", "Rocket 2"]
            .into_iter()
            .flat_map(|p| {
                ["Cca", "EI"].into_iter().map(move |k| WireCell::Micro {
                    platform: p.into(),
                    kernel: k.into(),
                    scale: 1,
                })
            })
            .collect()
    }

    #[test]
    fn a_two_rank_sweep_matches_the_in_process_results() {
        let cells = micro_cells();
        let local: Vec<String> = cells
            .iter()
            .map(|c| {
                serde_json::to_string(&c.run(Parallelism::Sequential).expect("cells are valid"))
                    .expect("shim renderer is total")
            })
            .collect();
        let mut store = ResultStore::ephemeral();
        let outcome =
            run_sweep(&cells, 0, &LaunchOpts::threads(2), &mut store).expect("sweep completes");
        assert_eq!(outcome.ranks, 2);
        assert_eq!(outcome.respawns, 0);
        assert_eq!(outcome.results.len(), local.len());
        for ((_, r), l) in outcome.results.iter().zip(&local) {
            assert_eq!(&**r, l, "worker-side results are byte-identical");
        }
        // Every result also landed in the store, under its cell's key
        // and nothing else.
        assert_eq!(store.len(), cells.len());
        for (cell, l) in cells.iter().zip(&local) {
            assert_eq!(store.get_bytes(&cell.key(0)).as_deref(), Some(l.as_str()));
            assert!(store.get_bytes(&cell.label()).is_none());
        }
    }

    #[test]
    fn cached_cells_are_not_rerun() {
        let cells = micro_cells();
        let mut store = ResultStore::ephemeral();
        for cell in &cells {
            store.put_bytes(&cell.key(7), "\"cached\"".into());
        }
        // All cells cached: no listener, no workers, instant return.
        let outcome = run_sweep(&cells, 7, &LaunchOpts::threads(2), &mut store)
            .expect("cache satisfies the sweep");
        assert!(outcome
            .results
            .iter()
            .all(|(_, json)| &**json == "\"cached\""));
    }

    #[test]
    fn a_poisoned_plan_exhausts_the_respawn_budget_loudly() {
        let cells = vec![WireCell::Micro {
            platform: "no-such-platform".into(),
            kernel: "Cca".into(),
            scale: 1,
        }];
        let mut store = ResultStore::ephemeral();
        let mut opts = LaunchOpts::threads(1);
        opts.max_respawns = 2;
        let err = run_sweep(&cells, 0, &opts, &mut store).expect_err("cell can never run");
        assert!(store.is_empty(), "a cell that cannot run stores nothing");
        assert!(err.to_string().contains("respawn budget"), "{err}");
    }

    #[test]
    fn the_graph_demo_is_bit_identical_across_two_thread_ranks() {
        let outcome = run_graph_demo(4, 2, 16, 400, 0xD15C0, &LaunchOpts::threads(2))
            .expect("demo completes");
        assert!(
            outcome.identical(),
            "distributed {} != in-process {}",
            outcome.fingerprint,
            outcome.reference
        );
    }
}
