//! `bsimd` — the simulation-as-a-service daemon.
//!
//! A [`Daemon`] owns a std-TCP accept loop speaking the HTTP-lite
//! framing of [`crate::proto`], an async job queue drained by a pool of
//! worker threads, and the content-addressed [`ResultStore`]. A
//! `/submit` body parses and preflights into an [`SvcRequest`]
//! (rejected with SV/MG/CL/SC diagnostics before any worker time is
//! spent), decomposes into content-addressed cells, and fans across
//! `run_grid_resilient` with the configured retry policy.
//!
//! ## Exactly-once simulation
//!
//! Each cell key is simulated at most once, ever:
//!
//! 1. a cell first probes the store — a hit is the store's own
//!    canonical bytes, CRC-verified by the read that returns them;
//! 2. on a miss it must *claim* the key in the in-flight set. Claiming
//!    re-checks the store under the in-flight lock, and a finished cell
//!    stores its bytes **before** releasing its claim — so a competitor
//!    either sees the claim (and waits on the condvar), or sees the
//!    claim gone and therefore the store populated. Identical cells in
//!    concurrent requests coalesce onto one simulation.
//!
//! A claim is released by a drop guard, so a panicking cell (retried by
//! the policy) never wedges its key.
//!
//! ## A warm request costs a lookup
//!
//! Nothing on the all-hit path builds a tree: keys come from one
//! `bsim_dist::key` prefix hash per platform, each cell is one indexed,
//! checksummed read that shares the store's allocation, the response is
//! those bytes re-indented into the document (`render_body`,
//! `crate::splice`), and it leaves in one write ([`crate::proto`]). A
//! job is found by the table slot its id encodes, and its cells are
//! moved into the worker that runs it; the table keeps their count.
//!
//! ## Endpoints
//!
//! | `POST /submit`       | request JSON → `202 {"job": ...}` or `400` report |
//! | `GET /status/<job>`  | state + per-request hit/simulated/coalesced counters |
//! | `GET /fetch/<job>`   | the result document (`200`), `202` while running |
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
//! The pre-guard daemon spawned one unbounded handler thread per
//! accepted connection — a connection burst *was* a thread burst. Now
//! the accept loop only enqueues: accepted sockets land in a bounded
//! backlog drained by a fixed pool of `conn_workers` connection
//! threads, each read/write-timeout-armed so a slow-loris peer times
//! out instead of pinning its worker. When the backlog is full the
//! accept loop sheds inline with `503` + `Retry-After`; when the job
//! queue is at `queue_cap` a well-formed `/submit` sheds with `429` +
//! `Retry-After`. An optional per-request deadline rides each job into
//! sweep execution: expired cells fail fast with a typed diagnostic
//! instead of burning workers on work nobody is waiting for. All of it
//! is visible as `host.guard.*` counters in `/metrics`.

use crate::proto;
use crate::request::{Cell, SvcRequest};
use crate::splice::reindent;
use bsim_check::proto::Tracker;
use bsim_check::Report;
use bsim_core::{run_grid_resilient, CellOutcome, Parallelism, RetryPolicy};
use bsim_dist::key::{json_str, STORE_SCHEMA};
use bsim_dist::launcher::{run_sweep as dist_sweep, LaunchOpts, WorkerSpawn};
use bsim_dist::WireCell;
use bsim_resilience::store::{canonical, ResultStore};
use bsim_telemetry::CounterBlock;
use serde::Value;
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufReader};
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

/// Per-connection error log line. The daemon keeps serving — a torn,
/// half-closed, or misbehaving peer is that connection's problem, not
/// the pool's — but the event is visible instead of silently dropped.
fn log_conn(context: &str, err: &io::Error) {
    eprintln!("bsimd: connection error ({context}): {err}");
}

/// Every counter `/metrics` exports. CI and the lifecycle tests assert
/// each of these appears in the JSON export, so a renamed counter is a
/// loud failure, not a silently vanished metric.
pub const COUNTERS: [&str; 18] = [
    "host.svc.requests.submitted",
    "host.svc.requests.rejected",
    "host.svc.requests.completed",
    "host.svc.requests.failed",
    "host.svc.queue.depth",
    "host.svc.cells.inflight",
    "host.svc.cells.total",
    "host.svc.cells.simulated",
    "host.svc.cache.hits",
    "host.svc.cache.coalesced",
    "host.svc.cache.entries",
    "host.svc.rate.cells_per_sec",
    "host.guard.conns.accepted",
    "host.guard.conns.peak",
    "host.guard.conns.shed",
    "host.guard.requests.shed",
    "host.guard.deadline.expired",
    "host.guard.store.quarantined",
];

/// `Retry-After` seconds advertised on every shed response. Small on
/// purpose: shed load is transient (a burst outran the pool), so the
/// honest advice is "come straight back".
const RETRY_AFTER_SECS: u64 = 1;

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
    /// Retry/degrade policy for poisoned cells (PR 4 semantics).
    pub retry: RetryPolicy,
    /// Scale-out worker ranks per job; 0 keeps every cell in-process.
    pub dist_ranks: usize,
    /// argv spawned per rank (`bsim dist-worker`); empty runs the ranks
    /// as in-process threads instead — same wire protocol, no processes.
    pub dist_worker: Vec<String>,
    /// Connection pool threads draining the accept backlog. The old
    /// thread-per-connection daemon is `conn_workers = usize::MAX` in
    /// spirit; bounding it is the overload protection.
    pub conn_workers: usize,
    /// Accepted connections queued ahead of the pool; beyond this the
    /// accept loop sheds inline with `503` + `Retry-After`.
    pub conn_backlog: usize,
    /// Queued jobs admitted before a well-formed `/submit` sheds with
    /// `429` + `Retry-After`.
    pub queue_cap: usize,
    /// Optional per-request deadline, stamped at submit time and
    /// enforced inside sweep execution; `None` runs unbounded.
    pub deadline: Option<Duration>,
    /// Socket read timeout armed on every pooled connection; zero means
    /// unbounded (see [`proto::WireTimeouts`]).
    pub read_timeout: Duration,
    /// Socket write timeout armed on every pooled connection; zero
    /// means unbounded.
    pub write_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        let wire = proto::WireTimeouts::default();
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            store_path: None,
            workers: 2,
            budget: 64,
            par: Parallelism::Auto,
            retry: RetryPolicy::once(),
            dist_ranks: 0,
            dist_worker: Vec::new(),
            conn_workers: 8,
            conn_backlog: 32,
            queue_cap: 64,
            deadline: None,
            read_timeout: wire.read,
            write_timeout: wire.write,
        }
    }
}

impl DaemonConfig {
    /// The guard-lint view of this configuration, preflighted by
    /// [`Daemon::spawn`] so a misconfigured admission controller is a
    /// `GD0xx` diagnostic before the first byte is accepted.
    fn guard_spec(&self) -> bsim_check::guard::GuardSpec {
        bsim_check::guard::GuardSpec {
            conn_workers: self.conn_workers,
            conn_backlog: self.conn_backlog,
            queue_cap: self.queue_cap,
            deadline_ms: self.deadline.map(|d| d.as_millis() as u64),
            retry_max_attempts: self.retry.max_attempts,
            // A cap no delay can reach is no cap.
            retry_backoff_cap_ms: Some(self.retry.backoff.cap_ms).filter(|&cap| cap < u64::MAX),
            links: (0..self.dist_ranks)
                .map(|r| bsim_check::guard::LinkGuard {
                    name: format!("rank{r}.ctrl"),
                    // Thread-spawned ranks share this address space;
                    // argv-spawned ones cross a process boundary where
                    // only the frame CRC catches corruption.
                    remote: !self.dist_worker.is_empty(),
                    // Wire protocol v2 CRCs every frame, both spawns.
                    checksum: true,
                })
                .collect(),
        }
    }

    /// The socket timeouts pooled connections are armed with.
    fn wire_timeouts(&self) -> proto::WireTimeouts {
        proto::WireTimeouts {
            read: self.read_timeout,
            write: self.write_timeout,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Per-request accounting, shared with the worker closure.
#[derive(Default)]
struct JobStats {
    hits: AtomicU64,
    simulated: AtomicU64,
    coalesced: AtomicU64,
}

struct Job {
    id: String,
    state: JobState,
    /// Taken by the worker that starts the job.
    cells: Vec<Cell>,
    /// How many cells the request decomposed into, for `/status`.
    cell_count: usize,
    /// The request's seed: what `cells`' keys were taken at.
    seed: u64,
    body: Option<String>,
    stats: Arc<JobStats>,
    /// Absolute expiry stamped at submit; cells past it fail fast.
    deadline: Option<Instant>,
}

#[derive(Default)]
struct Jobs {
    queue: VecDeque<usize>,
    table: Vec<Job>,
}

impl Jobs {
    /// The job a wire id names. Ids are `job-<table index + 1>`, so the
    /// id is parsed for its slot and the slot's own id must then equal
    /// it — `job-01`, `job-+1` and `job-1x` name no job.
    fn find(&self, id: &str) -> Option<&Job> {
        let n: usize = id.strip_prefix("job-")?.parse().ok()?;
        self.table.get(n.checked_sub(1)?).filter(|job| job.id == id)
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
    deadline_expired: AtomicU64,
    store_quarantined: AtomicU64,
}

struct Shared {
    cfg: DaemonConfig,
    self_addr: SocketAddr,
    jobs: Mutex<Jobs>,
    jobs_cv: Condvar,
    store: Mutex<ResultStore>,
    inflight: Mutex<HashSet<String>>,
    inflight_cv: Condvar,
    /// Accepted-but-unserved connections, bounded at `conn_backlog`.
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
    /// Tests pin races deterministically through the live state (claim
    /// an inflight key, watch the backlog drain); production code only
    /// reaches it through the wire.
    #[cfg_attr(not(test), allow(dead_code))]
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds, opens (and possibly quarantines/verifies) the store, and
    /// starts the job workers, connection pool, and accept loop. The
    /// [`Report`] carries any SV003–SV005 store findings plus the
    /// `GD0xx` guard-config preflight — the daemon still starts (pool
    /// sizes are clamped to at least 1), so a degraded configuration is
    /// loud but not fatal.
    pub fn spawn(cfg: DaemonConfig) -> io::Result<(Daemon, Report)> {
        let (store, mut report) = match &cfg.store_path {
            Some(path) => ResultStore::open(path),
            None => (ResultStore::ephemeral(), Report::new()),
        };
        bsim_check::guard::guard_lints().run_into(&cfg.guard_spec(), "daemon.guard", &mut report);
        let quarantined = ["SV003", "SV004", "SV005"]
            .iter()
            .map(|c| report.with_code(c).count())
            .sum::<usize>() as u64;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            self_addr: addr,
            jobs: Mutex::new(Jobs::default()),
            jobs_cv: Condvar::new(),
            store: Mutex::new(store),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        shared
            .stats
            .store_quarantined
            .store(quarantined, Ordering::SeqCst);
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        let conn_pool = (0..shared.cfg.conn_workers.max(1))
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
/// connection burst is bounded by `conn_backlog` plus the pool instead
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
            if conns.len() < shared.cfg.conn_backlog.max(1) {
                conns.push_back(stream);
                drop(conns);
                shared.conns_cv.notify_one();
                continue;
            }
        }
        // Backlog full: shed inline with an honest 503 + Retry-After.
        // No request byte has been read, so no protocol tracker is
        // driven — in the PV model this connection never enters the
        // exchange, the same shape as an OS-level reset.
        shared.stats.conns_shed.fetch_add(1, Ordering::SeqCst);
        shared.cfg.wire_timeouts().apply(&stream).ok();
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

/// One connection-pool thread: pop, arm timeouts, serve, repeat. Exits
/// when the daemon is shutting down and the backlog is drained.
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
        if let Err(e) = shared.cfg.wire_timeouts().apply(&stream) {
            log_conn("arming socket timeouts", &e);
        }
        handle(shared, stream);
        shared.stats.conns_active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let idx = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if let Some(i) = jobs.queue.pop_front() {
                    break i;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                jobs = wait(&shared.jobs_cv, jobs);
            }
        };
        // A panic anywhere in the job path (cell panics are already
        // caught by the retry policy, but rendering or accounting could
        // still blow up) must not strip this worker from the pool or
        // leave the job wedged in Running, which would hang a draining
        // /shutdown forever.
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(shared, idx)))
        {
            let msg = bsim_resilience::retry::panic_message(payload.as_ref());
            eprintln!("bsimd: job {} panicked: {msg}", idx + 1);
            shared.stats.failed.fetch_add(1, Ordering::SeqCst);
            let mut jobs = lock(&shared.jobs);
            let job = &mut jobs.table[idx];
            job.state = JobState::Failed;
            job.body = Some(json_line(&[(
                "error",
                Value::Str(format!("job panicked: {msg}")),
            )]));
            shared.jobs_cv.notify_all();
        }
    }
}

fn run_job(shared: &Arc<Shared>, idx: usize) {
    let (cells, seed, stats, deadline) = {
        let mut jobs = lock(&shared.jobs);
        let job = &mut jobs.table[idx];
        job.state = JobState::Running;
        (
            std::mem::take(&mut job.cells),
            job.seed,
            Arc::clone(&job.stats),
            job.deadline,
        )
    };
    let expired = deadline.is_some_and(|d| Instant::now() >= d);
    if shared.cfg.dist_ranks > 0 && !expired {
        prewarm_dist(shared, &cells, seed);
    }
    let sweep = run_grid_resilient(cells.len(), shared.cfg.par, &shared.cfg.retry, |i| {
        exec_cell(shared, &stats, &cells[i], deadline)
    });
    let (state, body) = if sweep.all_ok() {
        shared.stats.completed.fetch_add(1, Ordering::SeqCst);
        (JobState::Done, render_body(&cells, &sweep.outcomes))
    } else {
        shared.stats.failed.fetch_add(1, Ordering::SeqCst);
        (JobState::Failed, render_failure(&cells, &sweep.outcomes))
    };
    let mut jobs = lock(&shared.jobs);
    let job = &mut jobs.table[idx];
    job.state = state;
    job.body = Some(body);
    // Wake both idle workers and a draining /shutdown handler.
    shared.jobs_cv.notify_all();
}

/// Scale-out dispatch: ship the job's not-yet-cached cells to the dist
/// worker ranks and seed the result store with what comes back, so the
/// in-process sweep below sees them as plain cache hits. Cell results
/// are bit-identical across schedules by construction, so seeding the
/// store from a rank is indistinguishable from simulating locally. The
/// launcher fills a scratch store under the same [`WireCell::key`]s the
/// job's cells carry, and its verified bytes move across as they are. On
/// any dispatch failure the cells simply stay missing and run locally —
/// scale-out is an accelerator, never a correctness dependency.
fn prewarm_dist(shared: &Shared, cells: &[Cell], seed: u64) {
    let todo: Vec<&Cell> = cells
        .iter()
        .filter(|c| lock(&shared.store).get_bytes(&c.key).is_none())
        .collect();
    if todo.is_empty() {
        return;
    }
    let wire: Vec<WireCell> = todo.iter().map(|c| c.spec.clone()).collect();
    let opts = LaunchOpts {
        ranks: shared.cfg.dist_ranks,
        spawn: if shared.cfg.dist_worker.is_empty() {
            WorkerSpawn::Thread
        } else {
            WorkerSpawn::Process(shared.cfg.dist_worker.clone())
        },
        silence_budget: std::time::Duration::from_secs(120),
        kill: None,
        max_respawns: 3,
        io_timeout: std::time::Duration::from_secs(120),
        wire_fault: None,
    };
    let mut scratch = ResultStore::ephemeral();
    match dist_sweep(&wire, seed, &opts, &mut scratch) {
        Ok(outcome) => {
            let mut seeded = 0usize;
            for cell in &todo {
                if let Some(bytes) = scratch.get_bytes(&cell.key) {
                    lock(&shared.store).put_bytes(&cell.key, bytes);
                    seeded += 1;
                }
            }
            eprintln!(
                "bsimd: dist ranks seeded {seeded}/{} cells (respawns: {})",
                todo.len(),
                outcome.respawns
            );
        }
        Err(e) => {
            eprintln!("bsimd: dist dispatch failed ({e}); falling back to local execution");
        }
    }
}

/// Releases an in-flight claim even when the cell panics mid-compute,
/// so a retried cell can re-claim instead of deadlocking on itself.
struct Claim<'a> {
    shared: &'a Shared,
    key: &'a str,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        lock(&self.shared.inflight).remove(self.key);
        self.shared.inflight_cv.notify_all();
    }
}

/// Runs or looks up one cell and returns its canonical result bytes —
/// on a hit the store's own allocation, CRC-verified by the read that
/// returned it; on a miss the bytes just stored.
fn exec_cell(shared: &Shared, job: &JobStats, cell: &Cell, deadline: Option<Instant>) -> Arc<str> {
    shared.stats.cells_total.fetch_add(1, Ordering::SeqCst);
    let hit = |bytes: Arc<str>| {
        shared.stats.cache_hits.fetch_add(1, Ordering::SeqCst);
        job.hits.fetch_add(1, Ordering::SeqCst);
        bytes
    };
    let mut counted_wait = false;
    loop {
        // Deadline gate, re-checked after every coalesce wake: work
        // nobody is waiting for anymore fails fast with a typed
        // diagnostic (the retry layer renders the panic message into
        // the job's failure body) instead of occupying a worker.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared.stats.deadline_expired.fetch_add(1, Ordering::SeqCst);
            panic!("request deadline exceeded");
        }
        if let Some(bytes) = lock(&shared.store).get_bytes(&cell.key) {
            return hit(bytes);
        }
        let mut inflight = lock(&shared.inflight);
        if !inflight.contains(&cell.key) {
            // Re-check under the claim lock: a racing winner stores its
            // bytes *before* releasing its claim, so "no claim" +
            // "store miss" here proves nobody has simulated this key.
            if let Some(bytes) = lock(&shared.store).get_bytes(&cell.key) {
                return hit(bytes);
            }
            inflight.insert(cell.key.clone());
            break;
        }
        if !counted_wait {
            counted_wait = true;
            shared.stats.coalesced.fetch_add(1, Ordering::SeqCst);
            job.coalesced.fetch_add(1, Ordering::SeqCst);
        }
        let _unused: MutexGuard<'_, _> = wait(&shared.inflight_cv, inflight);
    }
    let claim = Claim {
        shared,
        key: &cell.key,
    };
    // A preflight-clean request names only things this binary has; a
    // cell that still cannot run fails like any other poisoned cell.
    let tree = cell
        .spec
        .run(shared.cfg.par)
        .unwrap_or_else(|e| panic!("cell {}: {e}", cell.label));
    let bytes: Arc<str> = canonical(&tree).into();
    lock(&shared.store).put_bytes(&cell.key, Arc::clone(&bytes));
    shared.stats.cells_simulated.fetch_add(1, Ordering::SeqCst);
    job.simulated.fetch_add(1, Ordering::SeqCst);
    drop(claim);
    bytes
}

/// The result document: schema header plus one entry per cell, in
/// request order — `{"schema", "cells": [{"key", "label", "result"}]}`
/// as the pretty renderer prints it. Each result is spliced in from the
/// canonical bytes [`exec_cell`] returned (re-indented, never parsed),
/// so a cache-served response is byte-identical to the simulated one
/// and carries the bytes the store verified.
fn render_body(cells: &[Cell], outcomes: &[CellOutcome<Arc<str>>]) -> String {
    let results: Vec<&str> = outcomes
        .iter()
        .map(|o| &**o.value().expect("render_body needs all_ok")) // bsim: allow(AU002) invariant stated in the message
        .collect();
    // Indentation roughly doubles a compact rendering.
    let compact: usize = results.iter().map(|r| r.len()).sum();
    let mut out = String::with_capacity(2 * compact + 128 * cells.len() + 64);
    out.push_str("{\n  \"schema\": ");
    out.push_str(&json_str(STORE_SCHEMA));
    out.push_str(",\n  \"cells\": [");
    for (i, (cell, result)) in cells.iter().zip(results).enumerate() {
        out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
        out.push_str("\n      \"key\": ");
        out.push_str(&json_str(&cell.key));
        out.push_str(",\n      \"label\": ");
        out.push_str(&json_str(&cell.label));
        out.push_str(",\n      \"result\": ");
        reindent(&mut out, result, 3);
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
            CellOutcome::Failed { diag, attempts } => Some(Value::Map(vec![
                ("key".into(), Value::Str(c.key.clone())),
                ("label".into(), Value::Str(c.label.clone())),
                ("attempts".into(), Value::U64(u64::from(*attempts))),
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
    block.set_named(
        "host.svc.cells.inflight",
        lock(&shared.inflight).len() as u64,
    );
    block.set_named("host.svc.cells.total", get(&s.cells_total));
    block.set_named("host.svc.cells.simulated", get(&s.cells_simulated));
    block.set_named("host.svc.cache.hits", get(&s.cache_hits));
    block.set_named("host.svc.cache.coalesced", get(&s.coalesced));
    block.set_named("host.svc.cache.entries", lock(&shared.store).len() as u64);
    let ms = shared.started.elapsed().as_millis().max(1) as u64;
    block.set_named(
        "host.svc.rate.cells_per_sec",
        get(&s.cells_total) * 1000 / ms,
    );
    block.set_named("host.guard.conns.accepted", get(&s.conns_accepted));
    block.set_named("host.guard.conns.peak", get(&s.conns_peak));
    block.set_named("host.guard.conns.shed", get(&s.conns_shed));
    block.set_named("host.guard.requests.shed", get(&s.requests_shed));
    block.set_named("host.guard.deadline.expired", get(&s.deadline_expired));
    block.set_named("host.guard.store.quarantined", get(&s.store_quarantined));
    let doc = Value::Map(
        block
            .counters()
            .map(|(name, v)| (name.to_string(), Value::U64(v)))
            .collect(),
    );
    // bsim: allow(AU002, AU007) invariant stated in the message; `/metrics` is off the warm path
    serde_json::to_string_pretty(&doc).expect("shim renderer is total")
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    if let Err(e) = proto::write_response(stream, status, reason, body) {
        log_conn("writing response", &e);
    }
}

/// Respond *through* the protocol table: the daemon's current table state
/// plus the response's message class name the `Local` transition that must
/// exist for this response to be legal. A miss means the handler drifted
/// from the model — logged (and asserted in debug builds), never served
/// differently, so the model checker's view and the wire stay aligned.
fn respond_tracked(
    tracker: &mut Tracker<'_>,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
) {
    track_response(tracker, status);
    respond(stream, status, reason, body);
}

/// [`respond_tracked`] for shed responses: the same table step, but the
/// response carries a `Retry-After` header so well-behaved clients back
/// off instead of hammering a loaded daemon.
fn respond_tracked_retry(
    tracker: &mut Tracker<'_>,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    retry_after_secs: u64,
    body: &str,
) {
    track_response(tracker, status);
    if let Err(e) = proto::write_response_retry(stream, status, reason, retry_after_secs, body) {
        log_conn("writing response", &e);
    }
}

/// Steps the tracker for a response about to be served: the daemon's
/// current table state plus the response's message class name the
/// `Local` transition that must exist for this response to be legal.
fn track_response(tracker: &mut Tracker<'_>, status: u16) {
    let tag = match (tracker.state(), proto::response_event(status)) {
        ("submitted", "Ok") => "accept",
        ("submitted", "Busy") => "busy",
        ("submitted", _) => "reject",
        ("queried", "Ok") => "found",
        ("queried", "Busy") => "shed",
        ("queried", _) => "missing",
        ("admin", "Busy") => "shed",
        ("admin", _) => "ack",
        // Already terminal (the `Bad` transition responded on receipt).
        _ => "",
    };
    if !tag.is_empty() {
        match tracker.local(tag) {
            Ok(send) => debug_assert_eq!(send, Some(proto::response_event(status))),
            Err(v) => {
                debug_assert!(false, "response drifted from the protocol table: {v}");
                eprintln!("svc: {v}");
            }
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

fn handle(shared: &Arc<Shared>, mut stream: TcpStream) {
    let Some(mut tracker) = Tracker::new(bsim_check::proto::svc_cached(), "daemon") else {
        // Unreachable for the built-in table; degrade to a served error.
        respond(&mut stream, 500, "Internal Server Error", "{}");
        return;
    };
    let peer = match stream.try_clone() {
        Ok(p) => p,
        Err(e) => {
            log_conn("cloning stream", &e);
            return;
        }
    };
    let req = match proto::read_request(&mut BufReader::new(peer)) {
        Ok(r) => r,
        Err(e) => {
            // A head that is malformed or over the wire limits is the
            // table's `Bad` message, answered with its Reject-class
            // response. Anything else is a torn or half-closed
            // connection: nothing to respond to, and nothing worth
            // panicking over — a table transition to `lost`, logged, and
            // the daemon keeps serving.
            let (stepped, refusal) = match e.kind() {
                io::ErrorKind::InvalidData => (tracker.recv("Bad"), Some((400, "Bad Request"))),
                io::ErrorKind::FileTooLarge => {
                    (tracker.recv("Bad"), Some((413, "Content Too Large")))
                }
                io::ErrorKind::UnexpectedEof => (tracker.eof(), None),
                _ => (tracker.torn(), None),
            };
            debug_assert!(stepped.is_ok(), "{stepped:?}");
            log_conn("reading request", &e);
            if let Some((status, reason)) = refusal {
                let body = json_line(&[("error", Value::Str(e.to_string()))]);
                respond(&mut stream, status, reason, &body);
            }
            return;
        }
    };
    // The table is the dispatcher: the request's message class must have a
    // transition out of `read`, and handlers answer through the table too
    // (`respond_tracked`), so model and implementation cannot drift.
    let ev = req.event();
    if let Err(v) = tracker.recv(ev) {
        debug_assert!(false, "request classification drifted from the table: {v}");
        eprintln!("svc: {v}");
        respond(&mut stream, 400, "Bad Request", "{}");
        return;
    }
    match ev {
        "Submit" => handle_submit(shared, &mut tracker, &mut stream, &req.body),
        "Status" => handle_status(
            shared,
            &mut tracker,
            &mut stream,
            req.path.strip_prefix("/status/").unwrap_or_default(),
        ),
        "Fetch" => handle_fetch(
            shared,
            &mut tracker,
            &mut stream,
            req.path.strip_prefix("/fetch/").unwrap_or_default(),
        ),
        "Metrics" => {
            let body = metrics_json(shared);
            respond_tracked(&mut tracker, &mut stream, 200, "OK", &body);
        }
        "Shutdown" => handle_shutdown(shared, &mut tracker, &mut stream),
        // `Bad`: the Recv transition already moved the table to `closed`
        // with a Reject-class send — exactly what a 404 is.
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            &json_line(&[(
                "error",
                Value::Str(format!("no endpoint {} {}", req.method, req.path)),
            )]),
        ),
    }
    debug_assert!(tracker.is_terminal(), "handler left the table mid-exchange");
}

fn handle_submit(
    shared: &Arc<Shared>,
    tracker: &mut Tracker<'_>,
    stream: &mut TcpStream,
    body: &str,
) {
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
            respond_tracked(tracker, stream, 400, "Bad Request", &report.to_json());
            return;
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        respond_tracked(
            tracker,
            stream,
            503,
            "Service Unavailable",
            &json_line(&[("error", Value::Str("daemon is draining".into()))]),
        );
        return;
    }
    let cells = request.cells();
    let cell_count = cells.len();
    let seed = request.seed();
    // Deadline is stamped at admission: it bounds the whole queued +
    // running lifetime, which is what a waiting client experiences.
    let deadline = shared.cfg.deadline.map(|d| Instant::now() + d);
    let id = {
        let mut jobs = lock(&shared.jobs);
        if jobs.queue.len() >= shared.cfg.queue_cap.max(1) {
            drop(jobs);
            shared.stats.requests_shed.fetch_add(1, Ordering::SeqCst);
            respond_tracked_retry(
                tracker,
                stream,
                429,
                "Too Many Requests",
                RETRY_AFTER_SECS,
                &json_line(&[("error", Value::Str("job queue is at capacity".into()))]),
            );
            return;
        }
        let idx = jobs.table.len();
        let id = format!("job-{}", idx + 1);
        jobs.table.push(Job {
            id: id.clone(),
            state: JobState::Queued,
            cells,
            cell_count,
            seed,
            body: None,
            stats: Arc::new(JobStats::default()),
            deadline,
        });
        jobs.queue.push_back(idx);
        shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        shared.jobs_cv.notify_all();
        id
    };
    respond_tracked(
        tracker,
        stream,
        202,
        "Accepted",
        &json_line(&[
            ("job", Value::Str(id)),
            ("cells", Value::U64(cell_count as u64)),
            ("state", Value::Str("queued".into())),
        ]),
    );
}

fn handle_status(
    shared: &Arc<Shared>,
    tracker: &mut Tracker<'_>,
    stream: &mut TcpStream,
    id: &str,
) {
    let jobs = lock(&shared.jobs);
    let Some(job) = jobs.find(id) else {
        drop(jobs);
        respond_tracked(
            tracker,
            stream,
            404,
            "Not Found",
            &json_line(&[("error", Value::Str(format!("unknown job {id:?}")))]),
        );
        return;
    };
    let body = json_line(&[
        ("job", Value::Str(job.id.clone())),
        ("state", Value::Str(job.state.label().into())),
        ("cells", Value::U64(job.cell_count as u64)),
        ("hits", Value::U64(job.stats.hits.load(Ordering::SeqCst))),
        (
            "simulated",
            Value::U64(job.stats.simulated.load(Ordering::SeqCst)),
        ),
        (
            "coalesced",
            Value::U64(job.stats.coalesced.load(Ordering::SeqCst)),
        ),
    ]);
    drop(jobs);
    respond_tracked(tracker, stream, 200, "OK", &body);
}

fn handle_fetch(shared: &Arc<Shared>, tracker: &mut Tracker<'_>, stream: &mut TcpStream, id: &str) {
    let jobs = lock(&shared.jobs);
    let Some(job) = jobs.find(id) else {
        drop(jobs);
        respond_tracked(
            tracker,
            stream,
            404,
            "Not Found",
            &json_line(&[("error", Value::Str(format!("unknown job {id:?}")))]),
        );
        return;
    };
    let (state, body) = (job.state, job.body.clone());
    let pending = json_line(&[
        ("job", Value::Str(job.id.clone())),
        ("state", Value::Str(state.label().into())),
    ]);
    drop(jobs);
    // A Done/Failed job always has a body, but a missing one must
    // degrade to a served error, not a panicking connection thread.
    let body = body.unwrap_or_else(|| {
        json_line(&[("error", Value::Str("job finished without a body".into()))])
    });
    match state {
        JobState::Done => respond_tracked(tracker, stream, 200, "OK", &body),
        JobState::Failed => respond_tracked(tracker, stream, 500, "Internal Server Error", &body),
        JobState::Queued | JobState::Running => {
            respond_tracked(tracker, stream, 202, "Accepted", &pending)
        }
    }
}

fn handle_shutdown(shared: &Arc<Shared>, tracker: &mut Tracker<'_>, stream: &mut TcpStream) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.jobs_cv.notify_all();
    // Drain: every queued job still runs to completion before the store
    // flushes — a `/shutdown` never abandons accepted work.
    {
        let mut jobs = lock(&shared.jobs);
        while !jobs.queue.is_empty()
            || jobs
                .table
                .iter()
                .any(|j| matches!(j.state, JobState::Queued | JobState::Running))
        {
            jobs = wait(&shared.jobs_cv, jobs);
        }
    }
    let (entries, flushed) = {
        let store = lock(&shared.store);
        (store.len() as u64, store.flush())
    };
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
    respond_tracked(tracker, stream, 200, "OK", &body);
    // Unblock the accept loop: it re-checks the shutdown flag per
    // connection, so one wake-up connection to ourselves ends it.
    TcpStream::connect(shared.self_addr).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::roundtrip;

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
        // The id is parsed for its table slot, and the slot must then
        // carry that very id: other spellings of 1, a slot before the
        // first or past the last, and a number no `usize` holds are all
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
        // After the job finishes its cells stay counted, not kept.
        {
            let jobs = lock(&d.shared.jobs);
            assert!(jobs.table.iter().all(|j| j.cells.is_empty()));
            assert!(jobs.table.iter().all(|j| j.cell_count == 1));
        }

        let key = SvcRequest::parse(submit).unwrap().cells()[0].key.clone();
        lock(&d.shared.store).flip_resident_bit(&key);
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
        assert_eq!(lock(&d.shared.store).len(), 1);
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
            // trees' strings.
            let cells: Vec<Cell> = (0..trees.len())
                .map(|i| Cell {
                    key: names[2 * i].clone(),
                    label: names[2 * i + 1].clone(),
                    spec: WireCell::Tune { scale: 1 },
                })
                .collect();
            let outcomes: Vec<CellOutcome<Arc<str>>> = trees
                .iter()
                .map(|t| CellOutcome::Ok { value: canonical(t).into(), attempts: 1 })
                .collect();
            proptest::prop_assert_eq!(
                render_body(&cells, &outcomes),
                render_body_from_trees(&cells, &trees)
            );
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
    fn dist_dispatched_jobs_are_byte_identical_to_local_ones() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\",\"EI\"],\"scale\":1}";
        let fetch = |cfg: DaemonConfig| {
            let (d, report) = Daemon::spawn(cfg).unwrap();
            assert!(report.is_clean(), "{report}");
            let (status, body) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
            assert_eq!(status, 202, "{body}");
            let job = body
                .split('"')
                .nth(3)
                .expect("submit answers {\"job\": ...}")
                .to_string();
            let path = format!("/fetch/{job}");
            let body = loop {
                let (status, body) = roundtrip(&d.addr(), "GET", &path, "").unwrap();
                match status {
                    200 => break body,
                    202 => std::thread::sleep(std::time::Duration::from_millis(20)),
                    other => panic!("fetch answered {other}: {body}"),
                }
            };
            roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
            d.join();
            body
        };
        let local = fetch(DaemonConfig::default());
        let dist = fetch(DaemonConfig {
            dist_ranks: 2,
            ..DaemonConfig::default()
        });
        assert_eq!(
            local, dist,
            "rank-dispatched results serve byte-identically"
        );
    }

    #[test]
    fn bursts_beyond_the_backlog_shed_with_retry_after() {
        use std::net::TcpStream;
        let (d, report) = Daemon::spawn(DaemonConfig {
            conn_workers: 1,
            conn_backlog: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        assert!(report.is_clean(), "{report}");
        // Pin the single pool worker with a connection that never sends
        // a byte, then park a second one in the one-slot backlog.
        let pinned = TcpStream::connect(d.addr()).unwrap();
        while d.shared.stats.conns_active.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let parked = TcpStream::connect(d.addr()).unwrap();
        while lock(&d.shared.conns).is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
        // The third connection overflows the backlog: the accept loop
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
            metrics.contains("\"host.guard.conns.peak\": 1"),
            "one pool worker caps concurrency at one: {metrics}"
        );
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn a_full_job_queue_sheds_submits_with_429_and_admits_identically() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let (d, report) = Daemon::spawn(DaemonConfig {
            workers: 1,
            queue_cap: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        assert!(report.is_clean(), "{report}");
        // Pre-claim the cell every copy of this request resolves to, so
        // the single job worker blocks in the coalesce wait — pinning
        // job 1 in Running and job 2 in the queue, deterministically.
        let key = SvcRequest::parse(submit).unwrap().cells()[0].key.clone();
        lock(&d.shared.inflight).insert(key.clone());
        let (s1, _) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
        assert_eq!(s1, 202);
        while !lock(&d.shared.jobs).queue.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (s2, _) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
        assert_eq!(s2, 202);
        // Queue is now at queue_cap: the next well-formed submit sheds.
        let (s3, headers, body) = proto::roundtrip_with(
            &d.addr(),
            "POST",
            "/submit",
            submit,
            proto::WireTimeouts::default(),
        )
        .unwrap();
        assert_eq!(s3, 429, "{body}");
        assert!(
            headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
            "{headers:?}"
        );
        // Release the claim: both admitted jobs complete, and the
        // queued one serves byte-identically to the first.
        lock(&d.shared.inflight).remove(&key);
        d.shared.inflight_cv.notify_all();
        let fetch = |job: &str| loop {
            let (status, body) = roundtrip(&d.addr(), "GET", &format!("/fetch/{job}"), "").unwrap();
            match status {
                200 => break body,
                202 => std::thread::sleep(Duration::from_millis(5)),
                other => panic!("fetch answered {other}: {body}"),
            }
        };
        assert_eq!(fetch("job-1"), fetch("job-2"));
        let (_, metrics) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert!(
            metrics.contains("\"host.guard.requests.shed\": 1"),
            "{metrics}"
        );
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn expired_deadlines_fail_fast_with_a_typed_diagnostic() {
        let submit = "{\"kind\":\"sweep\",\"platforms\":[\"Rocket 1\"],\
                      \"kernels\":[\"Cca\"],\"scale\":1}";
        let (d, report) = Daemon::spawn(DaemonConfig {
            workers: 1,
            deadline: Some(Duration::from_millis(50)),
            ..DaemonConfig::default()
        })
        .unwrap();
        assert!(report.is_clean(), "{report}");
        // Hold the job's cell claim until well past the deadline; the
        // woken worker re-checks expiry and fails fast instead of
        // simulating work nobody is waiting for.
        let key = SvcRequest::parse(submit).unwrap().cells()[0].key.clone();
        lock(&d.shared.inflight).insert(key.clone());
        let (status, _) = roundtrip(&d.addr(), "POST", "/submit", submit).unwrap();
        assert_eq!(status, 202);
        std::thread::sleep(Duration::from_millis(80));
        lock(&d.shared.inflight).remove(&key);
        d.shared.inflight_cv.notify_all();
        let body = loop {
            let (status, body) = roundtrip(&d.addr(), "GET", "/fetch/job-1", "").unwrap();
            match status {
                500 => break body,
                202 => std::thread::sleep(Duration::from_millis(5)),
                other => panic!("an expired job must fail, got {other}: {body}"),
            }
        };
        assert!(body.contains("request deadline exceeded"), "{body}");
        let (_, metrics) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert!(
            metrics.contains("\"host.guard.deadline.expired\": 1"),
            "{metrics}"
        );
        roundtrip(&d.addr(), "POST", "/shutdown", "").unwrap();
        d.join();
    }

    #[test]
    fn spawn_preflights_guard_misconfiguration_but_still_serves() {
        let (d, report) = Daemon::spawn(DaemonConfig {
            conn_workers: 0,
            deadline: Some(Duration::ZERO),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: bsim_resilience::Backoff {
                    cap_ms: u64::MAX,
                    ..bsim_resilience::Backoff::new(0)
                },
            },
            ..DaemonConfig::default()
        })
        .unwrap();
        assert!(report.has_code("GD001"), "{report}");
        assert!(report.has_code("GD002"), "{report}");
        assert!(report.has_code("GD003"), "{report}");
        let capped = DaemonConfig {
            retry: RetryPolicy::default(),
            ..DaemonConfig::default()
        };
        assert_eq!(capped.guard_spec().retry_backoff_cap_ms, Some(2_000));
        // Pool sizes clamp to one, so the degraded daemon still serves.
        let (status, _) = roundtrip(&d.addr(), "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
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
