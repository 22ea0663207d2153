//! `bsimd` — the simulation-as-a-service daemon.
//!
//! A [`Daemon`] owns a std-TCP accept loop speaking the HTTP-lite
//! framing of [`crate::proto`], an async job queue drained by a pool of
//! worker threads, and a [`CellPool`] over the content-addressed
//! [`ResultStore`]. A `/submit` body parses and preflights into an
//! [`SvcRequest`] (rejected with SV/MG/CL/SC diagnostics before any
//! worker time is spent), decomposes into content-addressed cells, and
//! goes to the pool as one batch of keys.
//!
//! ## Exactly-once simulation
//!
//! Each cell key is simulated at most once, ever: the pool answers a hit
//! from the store's own CRC-verified bytes, and runs a miss under a claim
//! on its key that it releases only after the result is stored, so
//! identical cells in concurrent requests coalesce onto one simulation
//! (`bsim_core::resilient` states the invariant). A cell that fails or
//! panics is a failure row, and the next request for it runs it afresh.
//!
//! ## A warm request costs a lookup
//!
//! Nothing on the all-hit path builds a tree, and nothing is done per
//! platform: each catalog platform is resolved, preflighted and keyed
//! (its `bsim_core::key` prefix hash) once per process, and each cell is
//! one indexed read, re-verified by CRC32, that shares the store's
//! allocation. Nor is a cell re-indented per request: the daemon keeps
//! each served cell's *fragment* — its result re-indented into the
//! document (`crate::splice`) — keyed like its store entry, so the
//! response is the skeleton with those fragments copied in
//! (`render_body`), and it leaves in one write ([`crate::proto`]). A
//! fragment is served only if it was rendered from the very allocation
//! the pool's read just verified and its own bytes still match the CRC32
//! taken when it was rendered; otherwise it is re-rendered from the
//! verified bytes (`host.svc.cache.reindented` counts those renders).
//! So a flipped byte in either copy is never served. The fragments are
//! bounded by the store: at most one per key, replaced only when its
//! source bytes are, never evicted, and only for cells this process has
//! served — about 1.7× their compact bytes. A
//! live job is found by the number its id encodes, and its cells are
//! moved into the worker that runs it; the table keeps their count. The
//! finished job, document and all, leaves the table with the one fetch
//! that delivers it, or once `DONE_CAP` (256) jobs that finished after
//! it wait for theirs: the table holds only jobs not yet delivered, at
//! most that many of them finished, and an id it issued and no longer
//! holds answers `410`. A fetch that finds its job
//! unfinished waits for it on the jobs condvar, so a warm request is one
//! submit and one fetch, with no client poll between them — and both go
//! over the client's kept connection, served by the pool thread that
//! holds it: a closed-loop client opens one connection in all.
//!
//! ## Endpoints
//!
//! | `POST /submit`       | request JSON → `202 {"job": ...}` or `400` report |
//! | `GET /status/<job>`  | state + per-request hit/simulated/coalesced counters; `410` once delivered or evicted |
//! | `GET /fetch/<job>`   | the result document (`200`, or `500` for a failed job), once; waits up to `FETCH_WAIT` for an unfinished job, then `202`; `410` once delivered or evicted |
//! | `GET /metrics`       | every `host.svc.*` counter as JSON |
//! | `POST /shutdown`     | drain in-flight work, flush store atomically |
//!
//! There is no OS signal handling (the workspace has no libc binding);
//! `/shutdown` is the admin path, and the store is only ever written
//! through [`ResultStore::flush`]'s temp-file + rename, so even a hard
//! kill leaves the previous complete store behind.
//!
//! ## Admission control (bsim-guard)
//!
//! The accept loop only enqueues: accepted sockets land in a backlog of
//! [`CONN_BACKLOG`] drained by a fixed pool of [`CONN_WORKERS`]
//! connection threads, and every socket is armed with
//! `proto::WIRE_TIMEOUT` each way, so a slow-loris peer times out
//! instead of pinning its thread. A pool thread serves a connection's
//! requests one after another for as long as it keeps it (see
//! `handle`), but waits for the next request for at most
//! [`FETCH_WAIT`], and keeps no connection while an accepted one is
//! waiting: an idle client cannot hold a pool thread from the backlog
//! for longer than that. When the backlog is full the accept loop sheds
//! inline with `503` + `Retry-After`; when [`QUEUE_CAP`] jobs are queued
//! a well-formed `/submit` sheds with `429` + `Retry-After`. These are
//! constants, not settings. All of it is visible as `host.guard.*`
//! counters in `/metrics`.

use crate::proto;
use crate::request::{Cell, SvcRequest};
use crate::splice::reindent;
use bsim_check::Report;
use bsim_core::guard::crc32;
use bsim_core::key::{json_str, STORE_SCHEMA};
use bsim_core::ResultStore;
use bsim_core::{CellOutcome, CellPool, Parallelism};
use bsim_telemetry::CounterBlock;
use serde::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a daemon mutex, recovering from poisoning. A cell or handler
/// that panicked while holding a lock must not cascade into every
/// other worker and connection thread panicking on `lock().unwrap()` —
/// the shared state (queues, stats, store) stays structurally valid
/// across a panic, so continuing with the inner value is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Condvar wait with the same poison-recovery policy as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`wait`] bounded by `timeout`, under the same poison-recovery policy.
fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// Per-connection error log line. The daemon keeps serving — a torn,
/// half-closed, or misbehaving peer is that connection's problem, not
/// the pool's — but the event is visible instead of silently dropped.
fn log_conn(context: &str, err: &io::Error) {
    eprintln!("bsimd: connection error ({context}): {err}");
}

/// Every counter `/metrics` exports. CI and the lifecycle tests assert
/// each of these appears in the JSON export, so a renamed counter is a
/// loud failure, not a silently vanished metric.
pub const COUNTERS: [&str; 17] = [
    "host.svc.requests.submitted",
    "host.svc.requests.rejected",
    "host.svc.requests.completed",
    "host.svc.requests.failed",
    "host.svc.queue.depth",
    "host.svc.cells.inflight", // bsim: allow(AU007) the gauge's name, not a claim set
    "host.svc.cells.total",
    "host.svc.cells.simulated",
    "host.svc.cache.hits",
    "host.svc.cache.coalesced",
    "host.svc.cache.entries",
    "host.svc.cache.reindented",
    "host.svc.rate.cells_per_sec",
    "host.guard.conns.accepted",
    "host.guard.conns.peak",
    "host.guard.conns.shed",
    "host.guard.requests.shed",
];

/// `Retry-After` seconds advertised on every shed response. Small on
/// purpose: shed load is transient (a burst outran the pool), so the
/// honest advice is "come straight back".
const RETRY_AFTER_SECS: u64 = 1;

/// How long a fetch of an unfinished job waits for it before answering
/// `202`. The daemon paces a client's wait: a job that finishes inside
/// this window is answered the moment it does, and a longer one costs a
/// refetch per window instead of a poll per few milliseconds. It also
/// bounds how long a pool thread waits for the next request on a kept
/// connection (`next_request`).
pub const FETCH_WAIT: Duration = Duration::from_secs(1);

// A kept connection's idle wait re-arms the socket's read timeout, so it
// must be the shorter of the two.
const _: () = assert!(FETCH_WAIT.as_secs() < proto::WIRE_TIMEOUT.as_secs());

/// Connection pool threads draining the accept backlog.
pub const CONN_WORKERS: usize = 8;

/// Accepted connections queued ahead of the pool; past them the accept
/// loop sheds inline with `503` + `Retry-After`.
pub const CONN_BACKLOG: usize = 32;

/// Queued jobs admitted before a well-formed `/submit` sheds with `429`
/// + `Retry-After`.
pub const QUEUE_CAP: usize = 64;

/// Finished jobs held for their fetch; finishing one more takes the one
/// that finished first out of the table, and its id then answers `410`.
pub(crate) const DONE_CAP: usize = 256;

/// Daemon configuration, CLI-shaped.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Backing file for the result store; `None` keeps it in memory.
    pub store_path: Option<PathBuf>,
    /// Job worker threads (jobs run concurrently up to this).
    pub workers: usize,
    /// Per-request cell budget (SV002 above this).
    pub budget: usize,
    /// Host parallelism for the cell fan *within* one job.
    pub par: Parallelism,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            store_path: None,
            workers: 2,
            budget: 64,
            par: Parallelism::Auto,
        }
    }
}

/// Where a job is; a finished one holds its document until the one
/// fetch that delivers it takes the job out of the table, or until
/// [`DONE_CAP`] jobs that finished after it evict it.
#[derive(Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done(String),
    Failed(String),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn finished(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// How a finished job's cells were answered, for `/status`.
#[derive(Clone, Copy, Default)]
struct Tally {
    hits: u64,
    simulated: u64,
    coalesced: u64,
}

struct Job {
    state: JobState,
    /// Taken by the worker that starts the job.
    cells: Vec<Cell>,
    /// How many cells the request decomposed into, for `/status`.
    cell_count: usize,
    tally: Tally,
}

#[derive(Default)]
struct Jobs {
    /// Numbers of the queued jobs, oldest first.
    queue: VecDeque<u64>,
    /// Jobs issued and not yet delivered, by number.
    live: BTreeMap<u64, Job>,
    /// Numbers of the finished jobs waiting for their fetch, in the
    /// order they finished.
    done: VecDeque<u64>,
    /// Jobs issued so far: the next one is `job-<issued + 1>`.
    issued: u64,
}

impl Jobs {
    /// The number of the issued job a wire id names. Ids are `job-<N>`
    /// for N from 1, so the id is parsed for N and must then be N's own
    /// spelling — `job-01`, `job-+1` and `job-1x` name no job.
    fn number(&self, id: &str) -> Option<u64> {
        let digits = id.strip_prefix("job-")?;
        let n: u64 = digits.parse().ok()?;
        (n >= 1 && n <= self.issued && n.to_string() == digits).then_some(n)
    }

    /// Settles live job `n` in its finished `state` and, once more than
    /// [`DONE_CAP`] finished jobs wait for their fetch, takes the one
    /// that finished first out of the table; `n` itself finished last.
    fn finish(&mut self, n: u64, state: JobState, tally: Tally) {
        // A job leaves the table only once finished, so it is still there.
        let Some(job) = self.live.get_mut(&n) else {
            return;
        };
        if !job.state.finished() {
            self.done.push_back(n);
        }
        job.state = state;
        job.tally = tally;
        if self.done.len() > DONE_CAP {
            if let Some(oldest) = self.done.pop_front() {
                self.live.remove(&oldest);
            }
        }
    }

    /// Takes finished job `n` out of the table for its fetch.
    fn deliver(&mut self, n: u64) -> Option<JobState> {
        self.done.retain(|&m| m != n);
        self.live.remove(&n).map(|job| job.state)
    }
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cells_total: AtomicU64,
    cells_simulated: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    // bsim-guard admission/integrity counters (`host.guard.*`).
    conns_accepted: AtomicU64,
    conns_active: AtomicU64,
    conns_peak: AtomicU64,
    conns_shed: AtomicU64,
    requests_shed: AtomicU64,
}

/// A served cell's fragment: its result re-indented into the document,
/// the store bytes it was rendered from, and the CRC32 of the fragment
/// taken when it was rendered.
struct Served {
    source: Arc<str>,
    crc: u32,
    text: Arc<str>,
}

/// The fragments served from the pool's results, at most one per key.
#[derive(Default)]
struct Fragments {
    served: HashMap<String, Served>,
    /// Fragments rendered, i.e. fragment misses
    /// (`host.svc.cache.reindented`).
    reindented: u64,
}

impl Fragments {
    /// The fragment of `bytes`, the result stored under `key` as the
    /// pool's read just verified or its put just stored it: the kept one
    /// if it was rendered from this very allocation and still matches its
    /// CRC32, else a fresh rendering that replaces it.
    fn serve(&mut self, key: &str, bytes: Arc<str>) -> Arc<str> {
        if let Some(kept) = self.served.get(key) {
            if Arc::ptr_eq(&kept.source, &bytes) && crc32(kept.text.as_bytes()) == kept.crc {
                return Arc::clone(&kept.text);
            }
        }
        // Indentation roughly doubles a compact rendering.
        let mut text = String::with_capacity(2 * bytes.len());
        reindent(&mut text, &bytes, 3);
        let text: Arc<str> = text.into();
        self.reindented += 1;
        let served = Served {
            source: bytes,
            crc: crc32(text.as_bytes()),
            text: Arc::clone(&text),
        };
        self.served.insert(key.to_string(), served);
        text
    }
}

struct Shared {
    cfg: DaemonConfig,
    self_addr: SocketAddr,
    jobs: Mutex<Jobs>,
    jobs_cv: Condvar,
    pool: CellPool,
    fragments: Mutex<Fragments>,
    /// Accepted-but-unserved connections, bounded at [`CONN_BACKLOG`].
    conns: Mutex<VecDeque<TcpStream>>,
    conns_cv: Condvar,
    stats: Stats,
    shutdown: AtomicBool,
    started: Instant,
}

/// A running daemon: the ephemeral-port address plus the accept-loop,
/// connection-pool, and job-worker threads to join on shutdown.
pub struct Daemon {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    conn_pool: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Tests pin races deterministically through the live state (hold a
    /// cell's claim, watch the backlog drain); production code only
    /// reaches it through the wire.
    #[cfg_attr(not(test), allow(dead_code))]
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds, opens (and possibly quarantines/verifies) the store, and
    /// starts the job workers, connection pool, and accept loop. The
    /// [`Report`] carries any SV003–SV005 store findings: the daemon
    /// still starts, serving what verified.
    pub fn spawn(cfg: DaemonConfig) -> io::Result<(Daemon, Report)> {
        let (store, report) = match &cfg.store_path {
            Some(path) => ResultStore::open(path),
            None => (ResultStore::ephemeral(), Report::new()),
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            self_addr: addr,
            jobs: Mutex::new(Jobs::default()),
            jobs_cv: Condvar::new(),
            pool: CellPool::new(store),
            fragments: Mutex::new(Fragments::default()),
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        let conn_pool = (0..CONN_WORKERS)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || conn_loop(&sh))
            })
            .collect();
        let accept = {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&sh, &listener))
        };
        Ok((
            Daemon {
                addr,
                accept,
                conn_pool,
                workers,
                shared,
            },
            report,
        ))
    }

    /// The bound address (`127.0.0.1:<ephemeral>` when port 0 was asked).
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Blocks until `/shutdown` stops the daemon, then joins all
    /// threads — the body of `bsim serve`.
    pub fn join(self) {
        self.accept.join().ok();
        for c in self.conn_pool {
            c.join().ok();
        }
        for w in self.workers {
            w.join().ok();
        }
    }
}

/// The accept loop only ever *enqueues or sheds* — it never reads a
/// byte. A slow or hostile peer therefore cannot stall accepting, and a
/// connection burst is bounded by [`CONN_BACKLOG`] plus the pool instead
/// of becoming a thread burst.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        shared.stats.conns_accepted.fetch_add(1, Ordering::SeqCst);
        {
            let mut conns = lock(&shared.conns);
            if conns.len() < CONN_BACKLOG {
                conns.push_back(stream);
                drop(conns);
                shared.conns_cv.notify_one();
                continue;
            }
        }
        // Backlog full: shed inline with an honest 503 + Retry-After,
        // before any request byte has been read.
        shared.stats.conns_shed.fetch_add(1, Ordering::SeqCst);
        proto::arm(&stream).ok();
        let body = json_line(&[("error", Value::Str("connection backlog is full".into()))]);
        if let Err(e) = proto::write_response_retry(
            &mut stream,
            503,
            "Service Unavailable",
            RETRY_AFTER_SECS,
            &body,
        ) {
            log_conn("shedding connection", &e);
        }
    }
    // Wake the pool so every thread observes the shutdown flag after
    // draining whatever the backlog still holds.
    shared.conns_cv.notify_all();
}

/// One connection-pool thread: pop, arm timeouts, serve every request
/// the connection carries, repeat. Exits when the daemon is shutting
/// down and the backlog is drained.
fn conn_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut conns = lock(&shared.conns);
            loop {
                if let Some(s) = conns.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                conns = wait(&shared.conns_cv, conns);
            }
        };
        let active = shared.stats.conns_active.fetch_add(1, Ordering::SeqCst) + 1;
        shared.stats.conns_peak.fetch_max(active, Ordering::SeqCst);
        // Arm both socket directions before the first read: a slow-loris
        // peer times out with a typed io error instead of pinning this
        // pool thread forever.
        if let Err(e) = proto::arm(&stream) {
            log_conn("arming socket timeouts", &e);
        }
        serve(shared, stream);
        shared.stats.conns_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one connection: its requests one at a time, for as long as
/// [`handle`] keeps it and the next request starts within the idle bound
/// ([`next_request`]).
fn serve(shared: &Arc<Shared>, mut stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(peer) => BufReader::new(peer),
        Err(e) => {
            log_conn("cloning stream", &e);
            return;
        }
    };
    while handle(shared, &mut reader, &mut stream) && next_request(&mut reader) {}
}

/// Waits, between two requests on a kept connection, for the first byte
/// of the next one: for at most [`FETCH_WAIT`], after which the full
/// [`proto::WIRE_TIMEOUT`] is armed again. A clean EOF, a reset or no
/// byte in time closes the connection before any byte of another
/// request was read, so a client may send that request again on a new
/// connection without repeating work. The bound keeps an idle client
/// from holding a pool thread while accepted connections wait for one.
fn next_request(reader: &mut BufReader<TcpStream>) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    if let Err(e) = reader.get_ref().set_read_timeout(Some(FETCH_WAIT)) {
        log_conn("arming the idle bound", &e);
        return false;
    }
    let arrived = match reader.fill_buf() {
        Ok([]) => false,
        Ok(_) => true,
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            false
        }
        Err(e) => {
            log_conn("awaiting the next request", &e);
            false
        }
    };
    if arrived {
        if let Err(e) = reader.get_ref().set_read_timeout(Some(proto::WIRE_TIMEOUT)) {
            log_conn("arming socket timeouts", &e);
            return false;
        }
    }
    arrived
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let n = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if let Some(n) = jobs.queue.pop_front() {
                    break n;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                jobs = wait(&shared.jobs_cv, jobs);
            }
        };
        // A panic anywhere in the job path (cell panics are already
        // caught per cell, but rendering or accounting could
        // still blow up) must not strip this worker from the pool or
        // leave the job wedged in Running, which would hang a draining
        // /shutdown forever.
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(shared, n)))
        {
            let msg = bsim_core::retry::panic_message(payload.as_ref());
            eprintln!("bsimd: job-{n} panicked: {msg}");
            shared.stats.failed.fetch_add(1, Ordering::SeqCst);
            let body = json_line(&[("error", Value::Str(format!("job panicked: {msg}")))]);
            finish(shared, n, JobState::Failed(body), Tally::default());
        }
    }
}

/// Settles live job `n` in its finished `state`, evicting the first
/// finished job past [`DONE_CAP`], and wakes whoever waits on it: a
/// fetch, or a draining `/shutdown`.
fn finish(shared: &Shared, n: u64, state: JobState, tally: Tally) {
    lock(&shared.jobs).finish(n, state, tally);
    shared.jobs_cv.notify_all();
}

fn run_job(shared: &Arc<Shared>, n: u64) {
    let cells = {
        let mut jobs = lock(&shared.jobs);
        let Some(job) = jobs.live.get_mut(&n) else {
            return;
        };
        job.state = JobState::Running;
        std::mem::take(&mut job.cells)
    };
    let keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
    // A preflight-clean request names only things this binary has; a
    // cell that still cannot run fails like any other poisoned cell.
    let run = shared.pool.run(&keys, shared.cfg.par, |i| {
        let cell = &cells[i];
        cell.spec
            .run(shared.cfg.par)
            .map_err(|e| format!("cell {}: {e}", cell.label))
    });
    let (total, hits) = (cells.len() as u64, run.restored() as u64);
    let tally = Tally {
        hits,
        simulated: total - hits - run.failed() as u64,
        coalesced: run.waited as u64,
    };
    let s = &shared.stats;
    s.cells_total.fetch_add(total, Ordering::SeqCst);
    s.cache_hits.fetch_add(tally.hits, Ordering::SeqCst);
    s.cells_simulated
        .fetch_add(tally.simulated, Ordering::SeqCst);
    s.coalesced.fetch_add(tally.coalesced, Ordering::SeqCst);
    let state = if run.all_ok() {
        s.completed.fetch_add(1, Ordering::SeqCst);
        let fragments: Vec<Arc<str>> = {
            let mut kept = lock(&shared.fragments);
            let served = cells.iter().zip(run.outcomes);
            served
                .filter_map(|(cell, outcome)| match outcome {
                    CellOutcome::Ok { value, .. } => Some(kept.serve(&cell.key, value)),
                    CellOutcome::Failed { .. } => None,
                })
                .collect()
        };
        JobState::Done(render_body(&cells, &fragments))
    } else {
        s.failed.fetch_add(1, Ordering::SeqCst);
        JobState::Failed(render_failure(&cells, &run.outcomes))
    };
    finish(shared, n, state, tally);
}

/// The result document: schema header plus one entry per cell, in
/// request order — `{"schema", "cells": [{"key", "label", "result"}]}`
/// as the pretty renderer prints it. This writes the skeleton only and
/// copies in each cell's fragment (its stored bytes re-indented once,
/// never parsed), so a cache-served response is byte-identical to the
/// simulated one and carries the bytes the store verified.
fn render_body(cells: &[Cell], fragments: &[Arc<str>]) -> String {
    let served: usize = fragments.iter().map(|f| f.len()).sum();
    let mut out = String::with_capacity(served + 128 * cells.len() + 64);
    out.push_str("{\n  \"schema\": ");
    out.push_str(&json_str(STORE_SCHEMA));
    out.push_str(",\n  \"cells\": [");
    for (i, (cell, fragment)) in cells.iter().zip(fragments).enumerate() {
        out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
        out.push_str("\n      \"key\": ");
        out.push_str(&json_str(&cell.key));
        out.push_str(",\n      \"label\": ");
        out.push_str(&json_str(&cell.label));
        out.push_str(",\n      \"result\": ");
        out.push_str(fragment);
        out.push_str("\n    }");
    }
    out.push_str(if cells.is_empty() { "]\n}" } else { "\n  ]\n}" });
    out
}

fn render_failure(cells: &[Cell], outcomes: &[CellOutcome<Arc<str>>]) -> String {
    let entries = cells
        .iter()
        .zip(outcomes)
        .filter_map(|(c, o)| match o {
            CellOutcome::Failed { diag } => Some(Value::Map(vec![
                ("key".into(), Value::Str(c.key.clone())),
                ("label".into(), Value::Str(c.label.clone())),
                ("diag".into(), Value::Str(diag.clone())),
            ])),
            CellOutcome::Ok { .. } => None,
        })
        .collect();
    let doc = Value::Map(vec![
        (
            "error".into(),
            Value::Str("cells failed every attempt".into()),
        ),
        ("failed_cells".into(), Value::Seq(entries)),
    ]);
    // bsim: allow(AU002, AU007) invariant stated in the message; a failure document is off the warm path
    serde_json::to_string_pretty(&doc).expect("shim renderer is total")
}

fn metrics_json(shared: &Shared) -> String {
    let mut block = CounterBlock::new(true);
    let s = &shared.stats;
    let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
    block.set_named("host.svc.requests.submitted", get(&s.submitted));
    block.set_named("host.svc.requests.rejected", get(&s.rejected));
    block.set_named("host.svc.requests.completed", get(&s.completed));
    block.set_named("host.svc.requests.failed", get(&s.failed));
    block.set_named(
        "host.svc.queue.depth",
        lock(&shared.jobs).queue.len() as u64,
    );
    // bsim: allow(AU007) the gauge's name, not a claim set
    block.set_named("host.svc.cells.inflight", shared.pool.claims() as u64);
    block.set_named("host.svc.cells.total", get(&s.cells_total));
    block.set_named("host.svc.cells.simulated", get(&s.cells_simulated));
    block.set_named("host.svc.cache.hits", get(&s.cache_hits));
    block.set_named("host.svc.cache.coalesced", get(&s.coalesced));
    block.set_named("host.svc.cache.entries", shared.pool.len() as u64);
    block.set_named(
        "host.svc.cache.reindented",
        lock(&shared.fragments).reindented,
    );
    let ms = shared.started.elapsed().as_millis().max(1) as u64;
    block.set_named(
        "host.svc.rate.cells_per_sec",
        get(&s.cells_total) * 1000 / ms,
    );
    block.set_named("host.guard.conns.accepted", get(&s.conns_accepted));
    block.set_named("host.guard.conns.peak", get(&s.conns_peak));
    block.set_named("host.guard.conns.shed", get(&s.conns_shed));
    block.set_named("host.guard.requests.shed", get(&s.requests_shed));
    let doc = Value::Map(
        block
            .counters()
            .map(|(name, v)| (name.to_string(), Value::U64(v)))
            .collect(),
    );
    // bsim: allow(AU002, AU007) invariant stated in the message; `/metrics` is off the warm path
    serde_json::to_string_pretty(&doc).expect("shim renderer is total")
}

/// Writes a response that closes its connection.
fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    if let Err(e) = proto::write_response(stream, status, reason, body, false) {
        log_conn("writing response", &e);
    }
}

/// The response a handler chose, before it is written.
struct Reply {
    status: u16,
    reason: &'static str,
    body: String,
    /// `Retry-After` seconds on a shed response, so well-behaved clients
    /// back off instead of hammering a loaded daemon.
    retry_after: Option<u64>,
}

impl Reply {
    fn new(status: u16, reason: &'static str, body: String) -> Reply {
        Reply {
            status,
            reason,
            body,
            retry_after: None,
        }
    }
}

fn json_line(fields: &[(&str, Value)]) -> String {
    let doc = Value::Map(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    serde_json::to_string(&doc).expect("shim renderer is total") // bsim: allow(AU002) invariant stated in the message
}

/// Reads one request off `reader`, answers it on `stream`, and returns
/// whether the connection stays open for the next one. That is decided
/// before the response is written, whose `Connection` header states it:
/// the connection is kept unless the request said `Connection: close`,
/// the answer sheds (`429`/`503`) or refuses the request (`400`, `413`,
/// the `404` of an unknown endpoint), the daemon is draining, or an
/// accepted connection is waiting for a pool thread.
fn handle(shared: &Arc<Shared>, reader: &mut BufReader<TcpStream>, stream: &mut TcpStream) -> bool {
    let req = match proto::read_request(reader) {
        Ok(r) => r,
        Err(e) => {
            // A head that is malformed or over the wire limits is refused.
            // Anything else is a torn or half-closed connection: nothing
            // to respond to, and nothing worth panicking over — logged,
            // and the daemon keeps serving.
            log_conn("reading request", &e);
            let refusal = match e.kind() {
                io::ErrorKind::InvalidData => Some((400, "Bad Request")),
                io::ErrorKind::FileTooLarge => Some((413, "Content Too Large")),
                _ => None,
            };
            if let Some((status, reason)) = refusal {
                let body = json_line(&[("error", Value::Str(e.to_string()))]);
                respond(stream, status, reason, &body);
            }
            return false;
        }
    };
    let endpoint = Endpoint::of(&req.method, &req.path);
    let reply = match endpoint {
        Endpoint::Submit => handle_submit(shared, &req.body),
        Endpoint::Status(id) => handle_status(shared, id),
        Endpoint::Fetch(id) => handle_fetch(shared, id),
        Endpoint::Metrics => Reply::new(200, "OK", metrics_json(shared)),
        Endpoint::Shutdown => handle_shutdown(shared),
        Endpoint::Unknown => Reply::new(
            404,
            "Not Found",
            json_line(&[(
                "error",
                Value::Str(format!("no endpoint {} {}", req.method, req.path)),
            )]),
        ),
    };
    let keep = !req.close
        && !matches!(endpoint, Endpoint::Unknown)
        && !matches!(reply.status, 400 | 413 | 429 | 503)
        && !shared.shutdown.load(Ordering::SeqCst)
        && lock(&shared.conns).is_empty();
    let written = match reply.retry_after {
        Some(secs) => {
            proto::write_response_retry(stream, reply.status, reply.reason, secs, &reply.body)
        }
        None => proto::write_response(stream, reply.status, reply.reason, &reply.body, keep),
    };
    if matches!(endpoint, Endpoint::Shutdown) {
        // Unblock the accept loop: it re-checks the shutdown flag per
        // connection, so one wake-up connection to ourselves ends it.
        TcpStream::connect(shared.self_addr).ok();
    }
    match written {
        Ok(()) => keep,
        Err(e) => {
            log_conn("writing response", &e);
            false
        }
    }
}

/// What a request asks of the daemon, named by its method and path.
enum Endpoint<'a> {
    Submit,
    /// `GET /status/<job>`, with the job id.
    Status(&'a str),
    /// `GET /fetch/<job>`, with the job id.
    Fetch(&'a str),
    Metrics,
    Shutdown,
    /// No endpoint: answered `404`, and the connection closes.
    Unknown,
}

impl<'a> Endpoint<'a> {
    fn of(method: &str, path: &'a str) -> Endpoint<'a> {
        match (method, path) {
            ("POST", "/submit") => Endpoint::Submit,
            ("POST", "/shutdown") => Endpoint::Shutdown,
            ("GET", "/metrics") => Endpoint::Metrics,
            ("GET", _) => {
                if let Some(id) = path.strip_prefix("/status/") {
                    Endpoint::Status(id)
                } else if let Some(id) = path.strip_prefix("/fetch/") {
                    Endpoint::Fetch(id)
                } else {
                    Endpoint::Unknown
                }
            }
            _ => Endpoint::Unknown,
        }
    }
}

fn handle_submit(shared: &Arc<Shared>, body: &str) -> Reply {
    let checked = SvcRequest::parse(body).and_then(|r| {
        let report = r.preflight(shared.cfg.budget);
        if report.has_errors() {
            Err(report)
        } else {
            Ok(r)
        }
    });
    let request = match checked {
        Ok(r) => r,
        Err(report) => {
            shared.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Reply::new(400, "Bad Request", report.to_json());
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return Reply::new(
            503,
            "Service Unavailable",
            json_line(&[("error", Value::Str("daemon is draining".into()))]),
        );
    }
    let cells = request.cells();
    let cell_count = cells.len();
    let id = {
        let mut jobs = lock(&shared.jobs);
        if jobs.queue.len() >= QUEUE_CAP {
            drop(jobs);
            shared.stats.requests_shed.fetch_add(1, Ordering::SeqCst);
            return Reply {
                retry_after: Some(RETRY_AFTER_SECS),
                ..Reply::new(
                    429,
                    "Too Many Requests",
                    json_line(&[("error", Value::Str("job queue is at capacity".into()))]),
                )
            };
        }
        jobs.issued += 1;
        let n = jobs.issued;
        let job = Job {
            state: JobState::Queued,
            cells,
            cell_count,
            tally: Tally::default(),
        };
        jobs.live.insert(n, job);
        jobs.queue.push_back(n);
        shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        shared.jobs_cv.notify_all();
        format!("job-{n}")
    };
    Reply::new(
        202,
        "Accepted",
        json_line(&[
            ("job", Value::Str(id)),
            ("cells", Value::U64(cell_count as u64)),
            ("state", Value::Str("queued".into())),
        ]),
    )
}

fn handle_status(shared: &Arc<Shared>, id: &str) -> Reply {
    let jobs = lock(&shared.jobs);
    let Some(n) = jobs.number(id) else {
        return unknown_job(id);
    };
    let Some(job) = jobs.live.get(&n) else {
        return gone(id);
    };
    let body = json_line(&[
        ("job", Value::Str(id.into())),
        ("state", Value::Str(job.state.label().into())),
        ("cells", Value::U64(job.cell_count as u64)),
        ("hits", Value::U64(job.tally.hits)),
        ("simulated", Value::U64(job.tally.simulated)),
        ("coalesced", Value::U64(job.tally.coalesced)),
    ]);
    Reply::new(200, "OK", body)
}

fn unknown_job(id: &str) -> Reply {
    Reply::new(
        404,
        "Not Found",
        json_line(&[("error", Value::Str(format!("unknown job {id:?}")))]),
    )
}

/// The answer for an issued job that has left the table: fetched, or
/// evicted unfetched past [`DONE_CAP`]. A client that lost the
/// delivering response resubmits, and every cell that finished is then
/// a store hit.
fn gone(id: &str) -> Reply {
    let body = json_line(&[
        ("job", Value::Str(id.into())),
        ("error", Value::Str("already fetched or evicted".into())),
    ]);
    Reply::new(410, "Gone", body)
}

/// Delivers a finished job's document once: the job leaves the table
/// under the lock and its document is written after it is dropped. An
/// unfinished job is waited for, up to [`FETCH_WAIT`], on the condvar
/// every finishing job notifies.
fn handle_fetch(shared: &Arc<Shared>, id: &str) -> Reply {
    let give_up = Instant::now() + FETCH_WAIT;
    let mut jobs = lock(&shared.jobs);
    let Some(n) = jobs.number(id) else {
        return unknown_job(id);
    };
    loop {
        let Some(job) = jobs.live.get(&n) else {
            return gone(id);
        };
        if job.state.finished() {
            break;
        }
        let left = give_up.saturating_duration_since(Instant::now());
        if left.is_zero() {
            let state = ("state", Value::Str(job.state.label().into()));
            return Reply::new(
                202,
                "Accepted",
                json_line(&[("job", Value::Str(id.into())), state]),
            );
        }
        jobs = wait_timeout(&shared.jobs_cv, jobs, left);
    }
    match jobs.deliver(n) {
        Some(JobState::Done(body)) => Reply::new(200, "OK", body),
        Some(JobState::Failed(body)) => Reply::new(500, "Internal Server Error", body),
        // Found finished just above, under this same lock.
        _ => gone(id),
    }
}

fn handle_shutdown(shared: &Arc<Shared>) -> Reply {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.jobs_cv.notify_all();
    // Drain: every queued job still runs to completion before the store
    // flushes — a `/shutdown` never abandons accepted work.
    {
        let mut jobs = lock(&shared.jobs);
        while jobs.live.values().any(|j| !j.state.finished()) {
            jobs = wait(&shared.jobs_cv, jobs);
        }
    }
    let (entries, flushed) = (shared.pool.len() as u64, shared.pool.flush());
    let body = match flushed {
        Ok(bytes) => json_line(&[
            ("ok", Value::Bool(true)),
            ("entries", Value::U64(entries)),
            ("flushed_bytes", Value::U64(bytes)),
        ]),
        Err(e) => json_line(&[
            ("ok", Value::Bool(false)),
            ("error", Value::Str(e.to_string())),
        ]),
    };
    Reply::new(200, "OK", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::roundtrip;
    use bsim_core::store::canonical;
    use bsim_core::WireCell;

    fn daemon() -> Daemon {
        let (d, report) = Daemon::spawn(DaemonConfig::default()).unwrap();
        assert!(report.is_clean(), "{report}");
        d
    }

    #[test]
    fn metrics_always_exports_every_counter() {
        let d = daemon();
        let (status, body) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        for name in COUNTERS {
            assert!(
                body.contains(&format!("\"{name}\"")),
                "{name} missing: {body}"
            );
        }
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn unknown_endpoint_and_job_are_404() {
        let d = daemon();
        let (status, _) = roundtrip(&d.addr(), "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-99", "").unwrap();
        assert_eq!(status, 404, "{body}");
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn only_its_exact_id_names_a_job() {
        let d = daemon();
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let (status, body) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"job\":\"job-1\""), "{body}");
        // The id is parsed for its number, which must then be spelled
        // just so and issued: other spellings of 1, a number before the
        // first or past the last, and a number no `u64` holds are all
        // unknown jobs.
        for id in [
            "job-01",
            "job-0",
            "job-",
            "job-1x",
            "job-+1",
            "job-2",
            "job-99999999999999999999999999",
            "job--1",
            "JOB-1",
            "1",
            "",
        ] {
            for endpoint in ["status", "fetch"] {
                let path = format!("/{endpoint}/{id}");
                let (status, body) = roundtrip(&d.addr(), "GET", &path, "").unwrap();
                assert_eq!(status, 404, "{path}: {body}");
            }
        }
        let (status, body) = roundtrip(&d.addr(), "GET", "/status/job-1", "").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"job\":\"job-1\""), "{body}");
        assert!(body.contains("\"cells\":1"), "{body}");
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    /// Submits `body` and polls its job to the finished document.
    fn submit_and_fetch(d: &Daemon, body: &str) -> String {
        let (status, answer) = roundtrip(&d.addr(), "POST", "/submit", body).unwrap();
        assert_eq!(status, 202, "{answer}");
        let job = crate::client::job_id(&answer).expect("submit answers with a job id");
        let (status, result) =
            crate::client::wait(&d.addr(), &job, Duration::from_secs(120)).unwrap();
        assert_eq!(status, 200, "{result}");
        result
    }

    #[test]
    fn a_flipped_resident_byte_is_resimulated_and_the_original_bytes_served() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let d = daemon();
        let simulated = || d.shared.stats.cells_simulated.load(Ordering::SeqCst);
        let cold = submit_and_fetch(&d, submit);
        let warm = submit_and_fetch(&d, submit);
        assert_eq!(cold, warm);
        assert_eq!(simulated(), 1, "the second request is a hit");
        // A delivered job leaves the table, document and all.
        assert!(lock(&d.shared.jobs).live.is_empty());

        let key = SvcRequest::parse(submit).unwrap().cells()[0].key.clone();
        d.shared.pool.flip_resident_bit(&key);
        let healed = submit_and_fetch(&d, submit);
        assert_eq!(
            healed, cold,
            "the flipped bytes must never reach a response"
        );
        assert_eq!(
            simulated(),
            2,
            "a checksum mismatch is a miss and a recompute"
        );
        // The recompute replaced the bad entry: the next read is a hit.
        assert_eq!(submit_and_fetch(&d, submit), cold);
        assert_eq!(simulated(), 2);
        assert_eq!(d.shared.pool.len(), 1);
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_flipped_fragment_byte_is_re_rendered_and_never_served() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let d = daemon();
        let simulated = || d.shared.stats.cells_simulated.load(Ordering::SeqCst);
        let reindented = || lock(&d.shared.fragments).reindented;
        let cold = submit_and_fetch(&d, submit);
        assert_eq!(submit_and_fetch(&d, submit), cold);
        assert_eq!(reindented(), 1, "the simulated cell is rendered once");

        // A bit gone bad in the kept fragment; its recorded CRC stays.
        let key = SvcRequest::parse(submit).unwrap().cells()[0].key.clone();
        {
            let mut fragments = lock(&d.shared.fragments);
            let kept = fragments.served.get_mut(&key).unwrap();
            let mut text = kept.text.as_bytes().to_vec();
            let at = text.iter().position(u8::is_ascii_digit).unwrap();
            text[at] ^= 1;
            kept.text = String::from_utf8(text).unwrap().into();
        }
        assert_eq!(
            submit_and_fetch(&d, submit),
            cold,
            "the flipped fragment must never reach a response"
        );
        assert_eq!(
            simulated(),
            1,
            "the stored bytes still verify: no recompute"
        );
        assert_eq!(reindented(), 2, "a fragment mismatch is one re-render");
        // The re-render replaced the bad fragment: the next read is a hit.
        assert_eq!(submit_and_fetch(&d, submit), cold);
        assert_eq!(reindented(), 2);
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_replaced_result_replaces_its_fragment() {
        let mut fragments = Fragments::default();
        let first = fragments.serve("k", "[1]".into());
        let replaced: Arc<str> = "[2]".into();
        let second = fragments.serve("k", Arc::clone(&replaced));
        assert_ne!(first, second, "rendered from the new bytes");
        assert_eq!(fragments.serve("k", replaced), second);
        assert_eq!(fragments.reindented, 2);
    }

    #[test]
    fn fragments_never_outnumber_the_stored_keys() {
        let d = daemon();
        let sweep = |kernels: &str| {
            format!(
                "{{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                 \"kernels\":[{kernels}],\"scale\":1}}"
            )
        };
        // Four submits over two distinct cells.
        for kernels in ["\"Cca\"", "\"Cca\",\"EI\"", "\"EI\"", "\"Cca\""] {
            submit_and_fetch(&d, &sweep(kernels));
            let kept = lock(&d.shared.fragments).served.len();
            assert!(kept <= d.shared.pool.len(), "{kept} fragments");
        }
        assert_eq!(lock(&d.shared.fragments).served.len(), 2);
        assert_eq!(d.shared.pool.len(), 2);
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_body_is_delivered_once_and_its_status_is_410() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let d = daemon();
        submit_and_fetch(&d, submit);
        // Delivery takes the job out of the table: both endpoints know
        // the id was issued, and neither has anything left to say of it.
        let gone = "{\"job\":\"job-1\",\"error\":\"already fetched or evicted\"}";
        for endpoint in ["fetch", "status"] {
            let path = format!("/{endpoint}/job-1");
            let (status, body) = roundtrip(&d.addr(), "GET", &path, "").unwrap();
            assert_eq!((status, body.as_str()), (410, gone), "{path}");
        }
        // An id never issued is still unknown.
        let (status, body) = roundtrip(&d.addr(), "GET", "/status/job-2", "").unwrap();
        assert_eq!(status, 404, "{body}");
        // Resubmitting is how a lost response is recovered: a store hit.
        submit_and_fetch(&d, submit);
        assert_eq!(d.shared.stats.cells_simulated.load(Ordering::SeqCst), 1);
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_failed_job_is_delivered_once_as_500() {
        let d = daemon();
        // A cell preflight would have refused, queued past it: its job
        // fails like any job whose cell errs.
        let cell = Cell {
            key: "t/unknown-platform".into(),
            label: "Pentium Cca".into(),
            spec: WireCell::Micro {
                platform: "Pentium".into(),
                kernel: "Cca".into(),
                scale: 1,
            },
        };
        {
            let mut jobs = lock(&d.shared.jobs);
            jobs.issued += 1;
            let job = Job {
                state: JobState::Queued,
                cells: vec![cell],
                cell_count: 1,
                tally: Tally::default(),
            };
            jobs.live.insert(1, job);
            jobs.queue.push_back(1);
            d.shared.jobs_cv.notify_all();
        }
        let (status, body) =
            crate::client::wait(&d.addr(), "job-1", Duration::from_secs(120)).unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("unknown platform"), "{body}");
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-1", "").unwrap();
        assert_eq!(status, 410, "{body}");
        assert!(lock(&d.shared.jobs).live.is_empty());
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn delivered_jobs_leave_the_table() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let d = daemon();
        for _ in 0..100 {
            submit_and_fetch(&d, submit);
        }
        {
            let jobs = lock(&d.shared.jobs);
            assert_eq!((jobs.live.len(), jobs.issued), (0, 100));
        }
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    /// Issues jobs 1..=`last` into the table directly, queued but not
    /// in the queue, so no worker takes them and the test finishes them.
    fn issue_unqueued(d: &Daemon, last: u64) {
        let mut jobs = lock(&d.shared.jobs);
        for n in 1..=last {
            jobs.issued += 1;
            let job = Job {
                state: JobState::Queued,
                cells: Vec::new(),
                cell_count: 0,
                tally: Tally::default(),
            };
            jobs.live.insert(n, job);
        }
    }

    #[test]
    fn finished_jobs_nobody_fetches_are_evicted_past_the_cap() {
        let d = daemon();
        // DONE_CAP + 1 jobs to finish, and one more left queued.
        let last = DONE_CAP as u64 + 2;
        issue_unqueued(&d, last);
        for n in 1..last {
            finish(
                &d.shared,
                n,
                JobState::Done(format!("{n}")),
                Tally::default(),
            );
        }
        {
            let jobs = lock(&d.shared.jobs);
            let done = jobs.live.values().filter(|j| j.state.finished()).count();
            assert_eq!(done, DONE_CAP, "the table holds at most the cap");
            assert!(!jobs.live.contains_key(&1), "the oldest finished job went");
            assert_eq!(
                jobs.live[&last].state,
                JobState::Queued,
                "an unfinished job stays"
            );
        }
        // The evicted id answers 410 on both endpoints, as a fetched one does.
        let gone = "{\"job\":\"job-1\",\"error\":\"already fetched or evicted\"}";
        for endpoint in ["fetch", "status"] {
            let path = format!("/{endpoint}/job-1");
            let (status, body) = roundtrip(&d.addr(), "GET", &path, "").unwrap();
            assert_eq!((status, body.as_str()), (410, gone), "{path}");
        }
        // A fetch frees a slot: finishing the queued job then evicts nothing.
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-2", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "2"));
        finish(
            &d.shared,
            last,
            JobState::Done(format!("{last}")),
            Tally::default(),
        );
        assert_eq!(lock(&d.shared.jobs).live.len(), DONE_CAP);
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-3", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "3"));
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn the_cap_evicts_in_finishing_order_not_by_number() {
        let d = daemon();
        let last = DONE_CAP as u64 + 1;
        issue_unqueued(&d, last);
        // Job 1 runs long and is waited for; the DONE_CAP jobs after it
        // finish first and nobody fetches them.
        let addr = d.addr();
        let waiter = std::thread::spawn(move || {
            crate::client::wait(&addr, "job-1", Duration::from_secs(120)).unwrap()
        });
        for n in 2..=last {
            finish(
                &d.shared,
                n,
                JobState::Done(format!("{n}")),
                Tally::default(),
            );
        }
        finish(&d.shared, 1, JobState::Done("1".into()), Tally::default());
        // The job that finished last is delivered; the first to finish went.
        assert_eq!(waiter.join().unwrap(), (200, "1".to_string()));
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-2", "").unwrap();
        assert_eq!(status, 410, "{body}");
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-3", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "3"));
        let jobs = lock(&d.shared.jobs);
        assert_eq!(
            (jobs.live.len(), jobs.done.len()),
            (DONE_CAP - 2, DONE_CAP - 2)
        );
        drop(jobs);
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    /// The claim on `submit`'s one cell, held by another caller of the
    /// daemon's pool that is running the cell: it stores the result and
    /// releases the claim once [`Held::release`] lets the cell finish.
    struct Held {
        go: std::sync::mpsc::Sender<()>,
        caller: JoinHandle<()>,
    }

    impl Held {
        fn release(self) {
            self.go.send(()).ok();
            self.caller.join().unwrap();
        }
    }

    fn hold(d: &Daemon, submit: &str) -> Held {
        let cell = SvcRequest::parse(submit).unwrap().cells().remove(0);
        let shared = Arc::clone(&d.shared);
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let wait = Mutex::new(wait);
        let caller = std::thread::spawn(move || {
            let run = shared.pool.run(&[&cell.key], Parallelism::Sequential, |_| {
                lock(&wait).recv().ok();
                cell.spec.run(Parallelism::Sequential)
            });
            assert!(run.all_ok(), "{:?}", run.outcomes);
        });
        while d.shared.pool.claims() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        Held { go, caller }
    }

    /// A one-worker daemon whose only job is pinned `Running`: its cell
    /// is claimed before it is submitted, so the worker waits on the
    /// claim. Returns the daemon and the held claim.
    fn daemon_with_a_running_job() -> (Daemon, Held) {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let (d, report) = Daemon::spawn(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        assert!(report.is_clean(), "{report}");
        let held = hold(&d, submit);
        let (status, _) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
        assert_eq!(status, 202);
        while lock(&d.shared.jobs).live[&1].state != JobState::Running {
            std::thread::sleep(Duration::from_millis(2));
        }
        (d, held)
    }

    #[test]
    fn a_fetch_waits_for_its_job_to_finish() {
        let (d, held) = daemon_with_a_running_job();
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                held.release();
            });
            // One fetch, issued while the cell is claimed: no 202 first.
            let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-1", "").unwrap();
            assert_eq!(status, 200, "{body}");
        });
        assert!(started.elapsed() >= Duration::from_millis(50));
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_fetch_answers_202_once_fetch_wait_has_passed() {
        let (d, held) = daemon_with_a_running_job();
        let started = Instant::now();
        let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-1", "").unwrap();
        assert!(started.elapsed() >= FETCH_WAIT);
        assert_eq!(status, 202, "{body}");
        assert_eq!(body, "{\"job\":\"job-1\",\"state\":\"running\"}");
        held.release();
        let (status, body) =
            crate::client::wait(&d.addr(), "job-1", Duration::from_secs(120)).unwrap();
        assert_eq!(status, 200, "{body}");
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    /// The document as a tree, rendered by the pretty renderer: what a
    /// response is defined to be byte-identical to.
    fn render_body_from_trees(cells: &[Cell], trees: &[Value]) -> String {
        let entries = cells
            .iter()
            .zip(trees)
            .map(|(c, tree)| {
                Value::Map(vec![
                    ("key".into(), Value::Str(c.key.clone())),
                    ("label".into(), Value::Str(c.label.clone())),
                    ("result".into(), tree.clone()),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("schema".into(), Value::Str(STORE_SCHEMA.into())),
            ("cells".into(), Value::Seq(entries)),
        ]);
        serde_json::to_string_pretty(&doc).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(500))]

        #[test]
        fn a_spliced_response_is_the_pretty_rendering_of_its_tree(
            trees in proptest::collection::vec(crate::splice::tests::Trees { depth: 4 }, 0..6),
            names in proptest::collection::vec(crate::splice::tests::Strings, 12),
        ) {
            // Keys and labels out of the same hostile alphabet as the
            // trees' strings; the index keeps keys distinct.
            let cells: Vec<Cell> = (0..trees.len())
                .map(|i| Cell {
                    key: format!("{i}{}", names[2 * i]),
                    label: names[2 * i + 1].clone(),
                    spec: WireCell::Tune { scale: 1 },
                })
                .collect();
            // Each document twice: fragments rendered as the cells are
            // stored (a miss), then the kept ones served (a hit).
            let stored: Vec<Arc<str>> = trees.iter().map(|t| canonical(t).into()).collect();
            let mut fragments = Fragments::default();
            let serve = |fragments: &mut Fragments| -> Vec<Arc<str>> {
                cells
                    .iter()
                    .zip(&stored)
                    .map(|(c, bytes)| fragments.serve(&c.key, Arc::clone(bytes)))
                    .collect()
            };
            let missed = serve(&mut fragments);
            let hit = serve(&mut fragments);
            proptest::prop_assert_eq!(fragments.reindented, cells.len() as u64);
            let pretty = render_body_from_trees(&cells, &trees);
            proptest::prop_assert_eq!(render_body(&cells, &missed), pretty.clone());
            proptest::prop_assert_eq!(render_body(&cells, &hit), pretty);
        }
    }

    #[test]
    fn half_closed_and_torn_sockets_leave_the_daemon_serving() {
        use std::io::Write;
        use std::net::{Shutdown, TcpStream};

        let d = daemon();

        // A peer that connects and vanishes without a byte.
        drop(TcpStream::connect(d.addr()).unwrap());

        // A peer that half-closes mid-headers: the connection thread
        // sees "connection closed inside headers" and must log-and-move-
        // on, not panic.
        let mut partial = TcpStream::connect(d.addr()).unwrap();
        partial
            .write_all(b"POST /submit HTTP/1.1\r\nContent-")
            .unwrap();
        partial.shutdown(Shutdown::Write).unwrap();
        drop(partial);

        // A peer that promises a body and never delivers it.
        let mut liar = TcpStream::connect(d.addr()).unwrap();
        liar.write_all(b"POST /submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            .unwrap();
        liar.shutdown(Shutdown::Write).unwrap();
        drop(liar);

        // A peer that sends a clean request but half-closes its write
        // side before the response: the daemon still answers into the
        // open read half.
        let mut early = TcpStream::connect(d.addr()).unwrap();
        early.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        early.shutdown(Shutdown::Write).unwrap();
        let mut answer = String::new();
        std::io::Read::read_to_string(&mut early, &mut answer).unwrap();
        assert!(answer.contains("host.svc.requests.submitted"), "{answer}");
        drop(early);

        // After all of that abuse the daemon serves normally.
        let (status, body) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("host.svc.cells.total"), "{body}");
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn bursts_beyond_the_backlog_shed_with_retry_after() {
        use std::net::TcpStream;
        let d = daemon();
        // Pin every pool thread with a connection that never sends a
        // byte, then fill the backlog behind them.
        let pinned: Vec<TcpStream> = (0..CONN_WORKERS)
            .map(|_| TcpStream::connect(d.addr()).unwrap())
            .collect();
        while d.shared.stats.conns_active.load(Ordering::SeqCst) < CONN_WORKERS as u64 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let parked: Vec<TcpStream> = (0..CONN_BACKLOG)
            .map(|_| TcpStream::connect(d.addr()).unwrap())
            .collect();
        while lock(&d.shared.conns).len() < CONN_BACKLOG {
            std::thread::sleep(Duration::from_millis(2));
        }
        // The next connection overflows the backlog: the accept loop
        // sheds it with 503 + Retry-After without reading a byte.
        let shed = TcpStream::connect(d.addr()).unwrap();
        let (status, headers, body) = proto::read_response_full(&mut BufReader::new(shed)).unwrap();
        assert_eq!(status, 503, "{body}");
        assert_eq!(
            headers
                .iter()
                .find(|(k, _)| k == "retry-after")
                .map(|(_, v)| v.as_str()),
            Some("1"),
            "{headers:?}"
        );
        // Releasing the pinned sockets frees the pool (clean EOFs). Wait
        // for the backlog to drain so the metrics probe below cannot
        // itself be shed, then the daemon serves normally with the shed
        // on the books.
        drop(pinned);
        drop(parked);
        while !lock(&d.shared.conns).is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (_, metrics) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert!(
            metrics.contains("\"host.guard.conns.shed\": 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains(&format!("\"host.guard.conns.peak\": {CONN_WORKERS}")),
            "the pool caps concurrency: {metrics}"
        );
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_full_job_queue_sheds_submits_with_429_and_admits_identically() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        // The single job worker waits on the held claim with job 1, so
        // every later submit stays queued, deterministically.
        let (d, held) = daemon_with_a_running_job();
        for _ in 0..QUEUE_CAP {
            let (status, body) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
            assert_eq!(status, 202, "{body}");
        }
        assert_eq!(lock(&d.shared.jobs).queue.len(), QUEUE_CAP);
        // The queue is full: the next well-formed submit sheds.
        let (status, headers, body) =
            proto::roundtrip_with(&d.addr(), "POST", "/submit", submit).unwrap();
        assert_eq!(status, 429, "{body}");
        assert!(
            headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
            "{headers:?}"
        );
        // Release the claim: every admitted job completes, and each
        // serves byte-identically to the first.
        held.release();
        let fetch = |n: usize| {
            let job = format!("job-{n}");
            let (status, body) =
                crate::client::wait(&d.addr(), &job, Duration::from_secs(120)).unwrap();
            assert_eq!(status, 200, "{job}: {body}");
            body
        };
        let first = fetch(1);
        for n in 2..=QUEUE_CAP + 1 {
            assert_eq!(fetch(n), first, "job-{n}");
        }
        let (_, metrics) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert!(
            metrics.contains("\"host.guard.requests.shed\": 1"),
            "{metrics}"
        );
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn malformed_submit_rejects_without_burning_workers() {
        let d = daemon();
        let (status, body) =
            roundtrip(&d.addr(), "POST", "/submit", "{\"kind\":\"dance\"}").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("SV000"), "{body}");
        let (_, metrics) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert!(
            metrics.contains("\"host.svc.requests.rejected\": 1"),
            "{metrics}"
        );
        assert!(metrics.contains("\"host.svc.cells.total\": 0"), "{metrics}");
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }
}
