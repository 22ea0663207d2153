//! The coordinator: spawn workers, distribute sweep plans, collect
//! results, survive process loss.
//!
//! The launcher binds a loopback listener, spawns one worker per rank
//! (real processes via `bsim dist-worker`, or in-process threads for
//! tests), and serves each connection: `Hello` → [`PlanSpec`] → stream
//! of `Cell` results → `Done`. Recovery is re-planning: every
//! completed cell is stored through the [`CellPool`] the moment it
//! arrives, so when a worker dies (socket EOF, nonzero exit, or silence
//! past [`LaunchOpts::silence_budget`]) the replacement process is handed
//! exactly the cells that are still missing, after a short fixed delay
//! ([`respawn_delay`]) — completed work is never re-run, and because
//! every cell is deterministic and sequential inside ([`WireCell::run`]),
//! the recovered sweep is byte-identical to an undisturbed one.

use crate::cells::WireCell;
use crate::frame::{read_frame, write_frame, Frame};
use crate::plan::PlanSpec;
use crate::worker;
use bsim_check::proto::{dist_cached, Tracker};
use bsim_core::experiments::partition_cells;
use bsim_core::CellPool;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Read/write timeout armed on every control socket; zero
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
pub(crate) fn arm_io(stream: &TcpStream, timeout: Duration) {
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

#[derive(Debug)]
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
}

struct SweepShared {
    /// Ranks of this sweep: a `Hello` naming any other is refused.
    ranks: usize,
    cells: Vec<WireCell>,
    assignment: Vec<usize>,
    done: Mutex<Vec<Option<Arc<str>>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serves one control connection: handshake, plan (the rank's
/// not-yet-done cells), result stream.
///
/// The connection drives the `coordinator` role of the PV-checked dist
/// protocol table: every received frame is gated by a `Recv` transition
/// and read failures are `Eof`/`Torn` transitions, so a peer that
/// departs from the model is reported as a [`Event::Gone`] with the
/// violation text, never silently tolerated. So is a peer whose frames
/// fit the table but not the sweep: a `Hello` for a rank the sweep does
/// not have, or a `Cell` for an index its plan did not hold.
fn serve_conn(
    mut stream: TcpStream,
    sweep: Arc<SweepShared>,
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
    let Frame::Hello { rank } = first else {
        return;
    };
    let rank = rank as usize;
    if rank >= sweep.ranks {
        let _ = events.send(Event::Gone {
            rank,
            why: format!("hello from rank {rank} of a {}-rank sweep", sweep.ranks),
        });
        return;
    }
    let plan = {
        let done = lock(&sweep.done);
        PlanSpec {
            cells: sweep
                .assignment
                .iter()
                .enumerate()
                .filter(|&(i, &r)| r == rank && done[i].is_none())
                .map(|(i, _)| (i as u32, sweep.cells[i].clone()))
                .collect(),
        }
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
                if plan
                    .cells
                    .binary_search_by_key(&index, |(i, _)| *i)
                    .is_err()
                {
                    let _ = events.send(Event::Gone {
                        rank,
                        why: format!("cell {index} is not in rank {rank}'s plan"),
                    });
                    return;
                }
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
        sweep: Arc<SweepShared>,
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
                // A peer that stalls mid-frame is a typed timeout, not a
                // wedged thread.
                arm_io(&stream, io_timeout);
                let sweep = Arc::clone(&sweep);
                let wire_fault = Arc::clone(&wire_fault);
                let events = events.clone();
                std::thread::spawn(move || serve_conn(stream, sweep, wire_fault, events));
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

/// The sleep before respawning a rank for its `n`-th loss in a row
/// (`n >= 1`): 50 ms, doubling, capped at 2 s. The cap bounds the stall
/// a flapping rank adds to a sweep; the doubling keeps a rank that dies
/// on arrival from spinning the respawn budget away in milliseconds.
fn respawn_delay(n: u32) -> Duration {
    Duration::from_millis((50u64 << n.saturating_sub(1).min(6)).min(2_000))
}

/// Runs `cells` across `opts.ranks` worker processes. A cell `pool`'s
/// store already holds under its [`WireCell::key`] at `seed` is answered
/// from there and never shipped; a rank's result — the canonical
/// rendering, as the worker sent it — is put under that key the moment
/// it arrives, firing the pool's `on_put` like a locally run cell, so
/// what a killed launcher leaves in a flushed store is not run again, by
/// this command or any other that reads the file.
pub fn run_sweep(
    cells: &[WireCell],
    seed: u64,
    opts: &LaunchOpts,
    pool: &CellPool,
) -> io::Result<SweepOutcome> {
    assert!(opts.ranks >= 1, "a sweep needs at least one worker");
    assert!(
        opts.kill.is_none() || matches!(opts.spawn, WorkerSpawn::Process(_)),
        "kill injection needs real processes"
    );
    let ranks = opts.ranks.min(cells.len()).max(1);
    let assignment = partition_cells(cells.len(), ranks);
    let keys: Vec<String> = cells.iter().map(|c| c.key(seed)).collect();
    let done: Vec<Option<Arc<str>>> = keys.iter().map(|k| pool.get(k)).collect();
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
        ranks,
        cells: cells.to_vec(),
        assignment: assignment.clone(),
        done: Mutex::new(done),
    });
    let (events_tx, events) = mpsc::channel();
    let mut acceptor = Acceptor::start(
        Arc::clone(&shared),
        opts.io_timeout,
        Arc::new(Mutex::new(opts.wire_fault)),
        events_tx,
    )?;

    let mut children: HashMap<usize, Spawned> = HashMap::new();
    let mut losses: Vec<String> = Vec::new();
    let mut result = (|| -> io::Result<usize> {
        // Every frame from a rank counts as hearing from it.
        let mut last_heard = vec![Instant::now(); ranks];
        // Losses of each rank since its last delivered cell.
        let mut streak = vec![0u32; ranks];
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
                    last_heard[rank] = Instant::now();
                    streak[rank] = 0;
                    pool.put(&keys[index as usize], Arc::clone(&json));
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
                    last_heard[rank] = Instant::now();
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
                    streak[rank] += 1;
                    std::thread::sleep(respawn_delay(streak[rank]));
                    children.insert(rank, spawn_worker(opts, &acceptor.addr, rank)?);
                    last_heard[rank] = Instant::now();
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for (rank, heard) in last_heard.iter_mut().enumerate() {
                        if heard.elapsed() > opts.silence_budget && rank_pending(rank) {
                            // Hung, not dead: kill it so the socket EOF
                            // drives the normal Gone → respawn path.
                            eprintln!("bsim dist: rank {rank} silent past budget; killing");
                            if let Some(child) = children.get_mut(&rank) {
                                child.kill_and_reap();
                            }
                            *heard = Instant::now(); // one kill per budget window
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

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_core::Parallelism;
    use bsim_resilience::ResultStore;
    use std::sync::atomic::AtomicUsize;

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
        let store = CellPool::new(ResultStore::ephemeral());
        let outcome =
            run_sweep(&cells, 0, &LaunchOpts::threads(2), &store).expect("sweep completes");
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
            assert_eq!(store.get(&cell.key(0)).as_deref(), Some(l.as_str()));
            assert!(store.get(&cell.label()).is_none());
        }
    }

    #[test]
    fn each_delivered_cell_is_put_once_and_a_stored_one_never() {
        let cells = micro_cells();
        let mut store = ResultStore::ephemeral();
        store.put_bytes(&cells[0].key(0), "\"cached\"".into());
        let puts = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&puts);
        let pool = CellPool::with_on_put(store, move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
        });
        let outcome =
            run_sweep(&cells, 0, &LaunchOpts::threads(2), &pool).expect("sweep completes");
        assert_eq!(
            &*outcome.results[0].1, "\"cached\"",
            "answered, not shipped"
        );
        assert_eq!(
            puts.load(Ordering::SeqCst),
            cells.len() - 1,
            "one put per delivered cell, none for the stored one"
        );
        assert_eq!(pool.len(), cells.len());
    }

    #[test]
    fn cached_cells_are_not_rerun() {
        let cells = micro_cells();
        let mut store = ResultStore::ephemeral();
        for cell in &cells {
            store.put_bytes(&cell.key(7), "\"cached\"".into());
        }
        // All cells cached: no listener, no workers, instant return.
        let outcome = run_sweep(&cells, 7, &LaunchOpts::threads(2), &CellPool::new(store))
            .expect("cache satisfies the sweep");
        assert!(outcome
            .results
            .iter()
            .all(|(_, json)| &**json == "\"cached\""));
    }

    #[test]
    fn respawn_delay_doubles_from_50_ms_to_a_2_s_cap() {
        let ms: Vec<u128> = (1..=8).map(|n| respawn_delay(n).as_millis()).collect();
        assert_eq!(ms, [50, 100, 200, 400, 800, 1600, 2000, 2000]);
    }

    /// What `serve_conn` reports for a peer on a two-rank sweep of
    /// [`micro_cells`] that says `Hello { rank }` and then sends `then`.
    fn serve_one(rank: u32, then: Frame) -> Event {
        let cells = micro_cells();
        let sweep = Arc::new(SweepShared {
            ranks: 2,
            assignment: partition_cells(cells.len(), 2),
            done: Mutex::new(vec![None; cells.len()]),
            cells,
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let (events, received) = mpsc::channel();
        let server =
            std::thread::spawn(move || serve_conn(conn, sweep, Arc::new(Mutex::new(None)), events));
        write_frame(&mut peer, &Frame::Hello { rank }).unwrap();
        // A refused hello gets no plan, and the write after it may fail.
        let _ = read_frame(&mut peer);
        let _ = write_frame(&mut peer, &then);
        // Hang up, so a connection still waiting for frames ends too.
        drop(peer);
        server.join().unwrap();
        received.recv().unwrap()
    }

    #[test]
    fn a_peer_naming_a_rank_or_cell_outside_the_sweep_is_gone() {
        let cell = |index| Frame::Cell {
            index,
            json: "1".into(),
        };
        let assignment = partition_cells(micro_cells().len(), 2);
        let own = assignment.iter().position(|&r| r == 0).unwrap() as u32;
        let other = assignment.iter().position(|&r| r == 1).unwrap() as u32;
        assert!(
            matches!(serve_one(0, cell(own)), Event::Cell { rank: 0, index, .. } if index == own),
            "a cell of the rank's own plan is delivered"
        );
        for (rank, then) in [(9, Frame::Done), (0, cell(99)), (0, cell(other))] {
            let event = serve_one(rank, then);
            assert!(
                matches!(event, Event::Gone { .. }),
                "rank {rank}: {event:?}"
            );
        }
    }

    #[test]
    fn a_poisoned_plan_exhausts_the_respawn_budget_loudly() {
        let cells = vec![WireCell::Micro {
            platform: "no-such-platform".into(),
            kernel: "Cca".into(),
            scale: 1,
        }];
        let store = CellPool::new(ResultStore::ephemeral());
        let mut opts = LaunchOpts::threads(1);
        opts.max_respawns = 2;
        let err = run_sweep(&cells, 0, &opts, &store).expect_err("cell can never run");
        assert!(store.is_empty(), "a cell that cannot run stores nothing");
        assert!(err.to_string().contains("respawn budget"), "{err}");
    }
}
