//! Rank execution: the turn-taking scheduler, payload matching and the
//! functional half of the collectives.
//!
//! A world runs each rank program on its own host thread, one at a time:
//! a rank keeps the turn until it blocks (a receive with no message yet,
//! a collective not everyone has entered) and then passes it to the next
//! unfinished rank in round-robin order. Nothing here looks at virtual
//! time, so the order of everything the ranks do is a function of the
//! programs alone. Every [`RankCtx`] operation emits its [`Ev`] into the
//! world's sink while the rank holds the turn; [`MpiWorld::run`] and
//! [`MpiWorld::record`] differ only in the sink — a [`Timing`] or a
//! [`WorldTrace`]. Payloads travel through `Shared::mail` either way:
//! the receiver's numerics need them.

use crate::net::NetConfig;
use crate::record::{Ev, EvSink, WorldTrace};
use crate::timing::Timing;
use bsim_soc::{RunReport, Soc, SocConfig};
use bsim_uarch::MicroOp;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reduction operators for [`RankCtx::allreduce_f64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Result of a complete MPI run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorldReport {
    /// SoC-level report (cycles = slowest rank, drained).
    pub run: RunReport,
    /// Final virtual time of each rank.
    pub rank_cycles: Vec<u64>,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Point-to-point payload bytes sent.
    pub bytes: u64,
}

#[derive(Clone)]
enum CollResult {
    None,
    F64s(Vec<f64>),
    /// Per-destination-rank payloads (alltoall).
    PerRank(Vec<Vec<u8>>),
}

struct CollState {
    generation: u64,
    arrived: usize,
    reduce: Vec<f64>,
    matrix: Vec<Vec<Vec<u8>>>, // [src][dst]
    // Published (completed) collective:
    done_generation: u64, // = generation of the finished collective + 1
    result: CollResult,
}

struct Sched {
    current: usize,
    finished: Vec<bool>,
    poisoned: bool,
    coll: CollState,
}

/// Payloads in flight: a FIFO per `(src, dst, tag)`.
type Mail = HashMap<(usize, usize, u32), VecDeque<Vec<u8>>>;

struct Shared {
    /// Emits happen while the acting rank holds the turn, so the event
    /// order equals the (deterministic) global schedule order.
    sink: Arc<Mutex<dyn EvSink>>,
    mail: Mutex<Mail>,
    sched: Mutex<Sched>,
    cv: Condvar,
    ranks: usize,
    progress: AtomicU64,
}

impl Shared {
    fn acquire_turn(&self, rank: usize) {
        let mut s = self.sched.lock();
        while s.current != rank && !s.poisoned {
            self.cv.wait(&mut s);
        }
        if s.poisoned {
            // A sibling rank panicked; unwind this thread too so the
            // world's scope can report the original failure.
            drop(s);
            panic!("MPI world poisoned by a failing rank");
        }
    }

    /// Marks the world failed and wakes every waiting rank.
    fn poison(&self) {
        self.sched.lock().poisoned = true;
        self.cv.notify_all();
    }

    fn pass_turn(&self, rank: usize) {
        let mut s = self.sched.lock();
        debug_assert!(
            s.current == rank || s.poisoned,
            "only the turn holder may pass"
        );
        let n = self.ranks;
        let mut next = rank;
        for step in 1..=n {
            let cand = (rank + step) % n;
            if !s.finished[cand] {
                next = cand;
                break;
            }
        }
        s.current = next;
        drop(s);
        self.cv.notify_all();
    }

    /// Gives every other rank a chance to run, then returns with the turn.
    fn yield_turn(&self, rank: usize) {
        self.pass_turn(rank);
        self.acquire_turn(rank);
    }

    fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-rank handle passed to the rank program. It offers no way to
/// read virtual time: what a rank program does cannot depend on the
/// platform's timing, which is what makes its event stream replayable
/// on any lane (see `record.rs`).
pub struct RankCtx {
    shared: Arc<Shared>,
    rank: usize,
    simd_lanes: u32,
    compiler_overhead: u32,
    /// Spin counter for deadlock detection.
    stalls: u64,
    /// Messages and payload bytes this rank sent, carried by its
    /// [`Ev::Finish`].
    tel_messages: u64,
    tel_bytes: u64,
}

impl RankCtx {
    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.ranks
    }

    /// The platform's vector width in f64 lanes (1 = scalar; the
    /// FireSim targets run without vector units, §3.1.1).
    pub fn simd_lanes(&self) -> u32 {
        self.simd_lanes
    }

    /// Extra dynamic ops per 1000 from the platform's compiler
    /// generation (Table 3: GCC 9.4.0 on FireSim vs 13.2 on silicon).
    pub fn compiler_overhead_per_mille(&self) -> u32 {
        self.compiler_overhead
    }

    fn emit(&self, ev: Ev, uops: &[MicroOp]) {
        self.shared.sink.lock().emit(ev, uops);
    }

    /// Feeds a batch of micro-ops to this rank's simulated core: one
    /// whole segment.
    pub fn consume_batch(&mut self, uops: &[MicroOp]) {
        let rank = self.rank as u32;
        let (start, len) = (0, uops.len());
        self.emit(Ev::Consume { rank, start, len }, uops);
    }

    /// Opens a segment whose micro-ops arrive in pieces. The segment is
    /// one [`Ev::Consume`], exactly as if [`Self::consume_batch`] had
    /// been handed the concatenation; the [`Segment`] keeps this rank
    /// borrowed, so no other event of the rank can fall inside it (and
    /// none of another rank's can: the rank holds the turn throughout).
    pub fn segment(&mut self) -> Segment<'_> {
        self.consume_batch(&[]);
        Segment { ctx: self }
    }

    /// Advances this rank's clock by `cycles` of opaque work (used for
    /// costs that are modeled analytically rather than per-op).
    pub fn charge(&mut self, cycles: u64) {
        let rank = self.rank as u32;
        self.emit(Ev::Charge { rank, cycles }, &[]);
    }

    fn stall_check(&mut self, last_progress: u64, what: &str) {
        if self.shared.progress.load(Ordering::Relaxed) != last_progress {
            self.stalls = 0;
            return;
        }
        self.stalls += 1;
        if self.stalls > 8 * self.shared.ranks as u64 + 64 {
            self.shared.poison();
            panic!("MPI deadlock: rank {} stuck in {what}", self.rank);
        }
    }

    /// Sends `payload` to `dst` with `tag`. Non-blocking in virtual time
    /// beyond the sender-side overhead and copy cost.
    pub fn send(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        assert!(
            dst < self.shared.ranks && dst != self.rank,
            "invalid destination {dst}"
        );
        let nbytes = payload.len();
        let ev = Ev::Send {
            rank: self.rank as u32,
            dst: dst as u32,
            tag,
            nbytes,
        };
        self.emit(ev, &[]);
        self.tel_messages += 1;
        self.tel_bytes += nbytes as u64;
        self.shared
            .mail
            .lock()
            .entry((self.rank, dst, tag))
            .or_default()
            .push_back(payload);
        self.shared.bump();
    }

    /// Receives the next message from `src` with `tag`, blocking in both
    /// host time (turn-yielding) and virtual time (clock advance).
    pub fn recv(&mut self, src: usize, tag: u32) -> Vec<u8> {
        assert!(
            src < self.shared.ranks && src != self.rank,
            "invalid source {src}"
        );
        self.stalls = 0;
        loop {
            let last = self.shared.progress.load(Ordering::Relaxed);
            let msg = self
                .shared
                .mail
                .lock()
                .get_mut(&(src, self.rank, tag))
                .and_then(|q| q.pop_front());
            if let Some(payload) = msg {
                let ev = Ev::Recv {
                    rank: self.rank as u32,
                    src: src as u32,
                    tag,
                };
                self.emit(ev, &[]);
                self.shared.bump();
                return payload;
            }
            self.shared.yield_turn(self.rank);
            self.stall_check(last, "recv");
        }
    }

    /// Sends a slice of f64s (little-endian payload).
    pub fn send_f64s(&mut self, dst: usize, tag: u32, vals: &[f64]) {
        let mut payload = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.send(dst, tag, payload);
    }

    /// Receives a slice of f64s.
    pub fn recv_f64s(&mut self, src: usize, tag: u32) -> Vec<f64> {
        let raw = self.recv(src, tag);
        raw.chunks_exact(8)
            .map(|c| {
                let mut le = [0; 8];
                le.copy_from_slice(c);
                f64::from_le_bytes(le)
            })
            .collect()
    }

    /// Core of every collective: deposit a contribution, wait for all
    /// ranks, pick up the published result. `bytes` is this rank's
    /// contribution to the cost model.
    fn collective(&mut self, bytes: usize, deposit: impl FnOnce(&mut CollState)) -> CollResult {
        let rank = self.rank as u32;
        self.emit(Ev::CollEnter { rank, bytes }, &[]);
        let my_gen;
        {
            let mut s = self.shared.sched.lock();
            my_gen = s.coll.generation;
            deposit(&mut s.coll);
            s.coll.arrived += 1;
            if s.coll.arrived == self.shared.ranks {
                // Last arriver publishes.
                s.coll.result = if !s.coll.matrix.iter().all(|m| m.is_empty()) {
                    // alltoall: transpose the matrix into per-destination rows.
                    let n = self.shared.ranks;
                    let mut per_rank: Vec<Vec<u8>> = vec![Vec::new(); n * n];
                    for (src, row) in s.coll.matrix.iter_mut().enumerate() {
                        for (dst, payload) in row.drain(..).enumerate() {
                            per_rank[dst * n + src] = payload;
                        }
                    }
                    CollResult::PerRank(per_rank)
                } else if s.coll.reduce.is_empty() {
                    CollResult::None
                } else {
                    CollResult::F64s(std::mem::take(&mut s.coll.reduce))
                };
                s.coll.done_generation = my_gen + 1;
                s.coll.generation += 1;
                s.coll.arrived = 0;
                for m in &mut s.coll.matrix {
                    m.clear();
                }
                self.shared.bump();
            }
        }
        // Wait for publication.
        self.stalls = 0;
        loop {
            let last = self.shared.progress.load(Ordering::Relaxed);
            {
                let s = self.shared.sched.lock();
                if s.coll.done_generation > my_gen {
                    let result = s.coll.result.clone();
                    drop(s);
                    self.emit(Ev::CollExit { rank }, &[]);
                    return result;
                }
            }
            self.shared.yield_turn(self.rank);
            self.stall_check(last, "collective");
        }
    }

    /// Barrier: all ranks leave at `max(entry) + cost`.
    pub fn barrier(&mut self) {
        let _ = self.collective(0, |_| {});
    }

    /// Element-wise allreduce over f64 vectors.
    pub fn allreduce_f64(&mut self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let n = vals.len();
        let r = self.collective(n * 8, |c| {
            if c.reduce.is_empty() {
                c.reduce = vals.to_vec();
            } else {
                assert_eq!(c.reduce.len(), n, "allreduce length mismatch across ranks");
                for (acc, v) in c.reduce.iter_mut().zip(vals) {
                    *acc = match op {
                        ReduceOp::Sum => *acc + v,
                        ReduceOp::Max => acc.max(*v),
                        ReduceOp::Min => acc.min(*v),
                    };
                }
            }
        });
        match r {
            CollResult::F64s(v) => v,
            _ => unreachable!("allreduce publishes F64s"),
        }
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns the
    /// payloads received from every rank (index = source).
    pub fn alltoallv(&mut self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(
            sends.len(),
            self.shared.ranks,
            "one payload per destination"
        );
        let total: usize = sends.iter().map(Vec::len).sum();
        self.tel_messages += self.shared.ranks as u64 - 1;
        self.tel_bytes += total as u64;
        let rank = self.rank;
        let n = self.shared.ranks;
        let r = self.collective(total, move |c| {
            c.matrix[rank] = sends;
        });
        match r {
            CollResult::PerRank(flat) => flat[rank * n..(rank + 1) * n].to_vec(),
            _ => unreachable!("alltoall publishes PerRank"),
        }
    }
}

/// A rank's open micro-op segment ([`RankCtx::segment`]).
pub struct Segment<'a> {
    ctx: &'a mut RankCtx,
}

impl Segment<'_> {
    /// Feeds the segment's next micro-ops to the rank's simulated core.
    /// A live run times them now; nothing keeps them but a recording.
    pub fn extend(&mut self, uops: &[MicroOp]) {
        let rank = self.ctx.rank as u32;
        self.ctx.shared.sink.lock().extend(rank, uops);
    }
}

/// The MPI world: spawns rank threads over the cores of one SoC, runs
/// `program` on each, and reports.
pub struct MpiWorld;

impl MpiWorld {
    /// Runs `program` on `ranks` ranks over a fresh SoC built from `cfg`.
    ///
    /// `program` is invoked once per rank with that rank's [`RankCtx`].
    /// Execution is deterministic: a rank runs until it blocks (recv,
    /// collective) and the turn passes to the next runnable rank in
    /// round-robin order.
    pub fn run<F>(cfg: SocConfig, ranks: usize, net: NetConfig, program: F) -> WorldReport
    where
        F: Fn(&mut RankCtx) + Sync,
    {
        let lane = Timing::new(&cfg, ranks, net);
        Self::drive(&cfg, ranks, net, lane, program).into_report()
    }

    /// Runs `program` once without timing it and returns the recorded
    /// [`WorldTrace`], plus the world report of an SoC no rank touched
    /// (its message and byte totals are real, its cycles are not;
    /// callers keep it for the functional results it travels with).
    pub fn record<F>(
        cfg: SocConfig,
        ranks: usize,
        net: NetConfig,
        program: F,
    ) -> (WorldReport, WorldTrace)
    where
        F: Fn(&mut RankCtx) + Sync,
    {
        let trace = WorldTrace {
            ranks,
            simd_lanes: cfg.simd_lanes,
            compiler_overhead_per_mille: cfg.compiler_overhead_per_mille,
            ..WorldTrace::default()
        };
        let trace = Self::drive(&cfg, ranks, net, trace, program);
        let report = WorldReport {
            run: Soc::new(cfg).report(None),
            rank_cycles: vec![0; ranks],
            messages: trace.messages,
            bytes: trace.bytes,
        };
        (report, trace)
    }

    /// Runs the rank programs to completion, every event into `sink`.
    fn drive<S: EvSink + 'static>(
        cfg: &SocConfig,
        ranks: usize,
        net: NetConfig,
        sink: S,
        program: impl Fn(&mut RankCtx) + Sync,
    ) -> S {
        assert!(
            ranks >= 1 && ranks <= cfg.cores,
            "ranks must fit the SoC cores"
        );
        // Preflight the link model: degenerate bandwidth saturates to a
        // never-delivering link (safe but hung), so surface it up front.
        let net_report = net.lint(&format!("{}/net", cfg.name));
        if !net_report.is_clean() {
            eprintln!("{}", net_report.render());
        }
        let simd_lanes = cfg.simd_lanes;
        let compiler_overhead = cfg.compiler_overhead_per_mille;
        let sink = Arc::new(Mutex::new(sink));
        let shared = Arc::new(Shared {
            sink: sink.clone(),
            mail: Mutex::new(HashMap::new()),
            sched: Mutex::new(Sched {
                current: 0,
                finished: vec![false; ranks],
                poisoned: false,
                coll: CollState {
                    generation: 0,
                    arrived: 0,
                    reduce: Vec::new(),
                    matrix: vec![Vec::new(); ranks],
                    done_generation: 0,
                    result: CollResult::None,
                },
            }),
            cv: Condvar::new(),
            ranks,
            progress: AtomicU64::new(0),
        });

        crossbeam::thread::scope(|scope| {
            for rank in 0..ranks {
                let shared = Arc::clone(&shared);
                let program = &program;
                scope.spawn(move |_| {
                    shared.acquire_turn(rank);
                    let mut ctx = RankCtx {
                        shared: Arc::clone(&shared),
                        rank,
                        simd_lanes,
                        compiler_overhead,
                        stalls: 0,
                        tel_messages: 0,
                        tel_bytes: 0,
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        program(&mut ctx)
                    }));
                    if let Err(payload) = outcome {
                        shared.poison();
                        std::panic::resume_unwind(payload);
                    }
                    // Emitted while the rank still holds the turn, so a
                    // rank's counters register at its place in the
                    // schedule.
                    let ev = Ev::Finish {
                        rank: rank as u32,
                        messages: ctx.tel_messages,
                        bytes: ctx.tel_bytes,
                    };
                    ctx.emit(ev, &[]);
                    {
                        let mut s = shared.sched.lock();
                        s.finished[rank] = true;
                    }
                    shared.bump();
                    shared.pass_turn(rank);
                });
            }
        })
        .unwrap_or_else(|_| panic!("MPI deadlock or rank failure (world poisoned)"));

        // Every rank has returned, so a message still in a mailbox is one
        // no receive will ever match: fail the world naming them, sorted
        // (map order never reaches the message), rather than pass silently.
        let mut unmatched: Vec<_> = shared
            .mail
            .lock()
            .iter()
            .filter(|(_, queue)| !queue.is_empty())
            .map(|(&key, queue)| (key, queue.len()))
            .collect();
        if !unmatched.is_empty() {
            unmatched.sort_unstable();
            let list: Vec<String> = unmatched
                .iter()
                .map(|((src, dst, tag), n)| format!("({src}, {dst}, {tag}) × {n}"))
                .collect();
            panic!("MPI unmatched message(s) at world end: {}", list.join(", "));
        }

        drop(shared);
        match Arc::try_unwrap(sink) {
            Ok(sink) => sink.into_inner(),
            Err(_) => unreachable!("every rank thread, and its handle on the sink, is gone"),
        }
    }
}

/// How a world is launched, for code generic over it: [`Timed`] is
/// [`MpiWorld::run`], [`Recorded`] is [`MpiWorld::record`].
pub trait Launch {
    /// What the launch yields besides its report: `()` for a timed run,
    /// the [`WorldTrace`] for a recording.
    type Out;

    /// Runs `program` on `ranks` ranks of `cfg`.
    fn launch(
        cfg: SocConfig,
        ranks: usize,
        net: NetConfig,
        program: impl Fn(&mut RankCtx) + Sync,
    ) -> (WorldReport, Self::Out);
}

/// Launch mode of a timed run.
pub struct Timed;

/// Launch mode of a recording.
pub struct Recorded;

impl Launch for Timed {
    type Out = ();

    fn launch(
        cfg: SocConfig,
        ranks: usize,
        net: NetConfig,
        program: impl Fn(&mut RankCtx) + Sync,
    ) -> (WorldReport, ()) {
        (MpiWorld::run(cfg, ranks, net, program), ())
    }
}

impl Launch for Recorded {
    type Out = WorldTrace;

    fn launch(
        cfg: SocConfig,
        ranks: usize,
        net: NetConfig,
        program: impl Fn(&mut RankCtx) + Sync,
    ) -> (WorldReport, WorldTrace) {
        MpiWorld::record(cfg, ranks, net, program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    fn world<F: Fn(&mut RankCtx) + Sync>(ranks: usize, f: F) -> WorldReport {
        MpiWorld::run(
            configs::rocket1(ranks.max(1)),
            ranks,
            NetConfig::shared_memory(),
            f,
        )
    }

    #[test]
    fn ping_pong_orders_virtual_time() {
        let rep = world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1, 2, 3]);
                let back = ctx.recv(1, 8);
                assert_eq!(back, vec![4, 5]);
            } else {
                let msg = ctx.recv(0, 7);
                assert_eq!(msg, vec![1, 2, 3]);
                ctx.send(0, 8, vec![4, 5]);
            }
        });
        assert_eq!(rep.messages, 2);
        assert_eq!(rep.bytes, 5);
        // Round trip must cost at least two one-way latencies.
        let net = NetConfig::shared_memory();
        assert!(rep.rank_cycles[0] >= 2 * net.latency);
    }

    #[test]
    fn recv_waits_for_sender_virtual_time() {
        let rep = world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.charge(100_000); // sender is busy for a long time first
                ctx.send(1, 0, vec![9]);
            } else {
                let _ = ctx.recv(0, 0); // posted at t≈0
            }
        });
        assert!(
            rep.rank_cycles[1] >= 100_000,
            "receiver must wait for the sender's virtual send time: {:?}",
            rep.rank_cycles
        );
    }

    #[test]
    fn messages_match_fifo_per_tag() {
        world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1]);
                ctx.send(1, 1, vec![2]);
                ctx.send(1, 2, vec![3]);
            } else {
                assert_eq!(ctx.recv(0, 2), vec![3], "tags are independent queues");
                assert_eq!(ctx.recv(0, 1), vec![1], "FIFO within a tag");
                assert_eq!(ctx.recv(0, 1), vec![2]);
            }
        });
    }

    #[test]
    fn barrier_aligns_clocks() {
        let rep = world(4, |ctx| {
            ctx.charge(1000 * (ctx.rank() as u64 + 1)); // skewed work
            ctx.barrier();
        });
        let max = *rep.rank_cycles.iter().max().unwrap();
        let min = *rep.rank_cycles.iter().min().unwrap();
        assert_eq!(max, min, "all ranks leave a barrier at the same time");
        assert!(max >= 4000, "slowest rank dominates");
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let rep = world(4, |ctx| {
            let mine = vec![ctx.rank() as f64, 1.0];
            let total = ctx.allreduce_f64(&mine, ReduceOp::Sum);
            assert_eq!(total, vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
            let mx = ctx.allreduce_f64(&[ctx.rank() as f64], ReduceOp::Max);
            assert_eq!(mx, vec![3.0]);
        });
        assert_eq!(rep.messages, 0, "collectives are modeled natively");
    }

    #[test]
    fn alltoallv_transposes() {
        world(3, |ctx| {
            let me = ctx.rank() as u8;
            let sends: Vec<Vec<u8>> = (0..3)
                .map(|d| {
                    if d == ctx.rank() {
                        vec![]
                    } else {
                        vec![me * 10 + d as u8]
                    }
                })
                .collect();
            let got = ctx.alltoallv(sends);
            for (src, payload) in got.iter().enumerate() {
                if src == ctx.rank() {
                    assert!(payload.is_empty());
                } else {
                    assert_eq!(payload, &vec![src as u8 * 10 + me]);
                }
            }
        });
    }

    #[test]
    fn runs_are_deterministic() {
        let f = |ctx: &mut RankCtx| {
            let n = ctx.size();
            for round in 0..5u32 {
                let next = (ctx.rank() + 1) % n;
                let prev = (ctx.rank() + n - 1) % n;
                ctx.charge(123 + ctx.rank() as u64 * 7);
                ctx.send(next, round, vec![ctx.rank() as u8]);
                let _ = ctx.recv(prev, round);
                ctx.barrier();
            }
        };
        let a = world(4, f);
        let b = world(4, f);
        assert_eq!(
            a.rank_cycles, b.rank_cycles,
            "turn-taking must be deterministic"
        );
        assert_eq!(a.run.cycles, b.run.cycles);
    }

    #[test]
    fn compute_feeds_the_shared_soc() {
        let rep = world(2, |ctx| {
            let uop = MicroOp::alu(0x1_0000, bsim_uarch::Ureg::new(5), [None; 3]);
            ctx.consume_batch(&[uop; 500]);
            ctx.barrier();
        });
        assert!(rep.run.retired >= 1000, "both ranks' uops must be counted");
        assert!(rep.run.cycles >= 500);
    }

    #[test]
    fn telemetry_reports_per_rank_mpi_counters() {
        use bsim_soc::Bucket;
        let cfg = configs::rocket1(2).with_telemetry(bsim_soc::TelemetryConfig::counters());
        let rep = MpiWorld::run(cfg, 2, NetConfig::shared_memory(), |ctx| {
            if ctx.rank() == 0 {
                ctx.charge(50_000); // make the receiver demonstrably wait
                ctx.send(1, 0, vec![0u8; 256]);
            } else {
                let _ = ctx.recv(0, 0);
            }
            ctx.barrier();
        });
        let stacks = rep
            .run
            .telemetry
            .expect("telemetry enabled on the SoC config");
        assert!(stacks[0].get(Bucket::Base) >= 50_000, "the charge is base");
        assert!(stacks[0].get(Bucket::MpiSend) > 0);
        assert_eq!(stacks[1].get(Bucket::MpiSend), 0);
        assert!(
            stacks[1].get(Bucket::MpiWait) >= 50_000,
            "receiver waits out the sender's head start"
        );
        for (stack, cycles) in stacks.iter().zip(&rep.rank_cycles) {
            assert_eq!(stack.total(), *cycles);
        }
    }

    #[test]
    #[should_panic(expected = "MPI deadlock")]
    fn deadlock_is_detected() {
        world(2, |ctx| {
            // Both ranks receive first: classic deadlock.
            let other = 1 - ctx.rank();
            let _ = ctx.recv(other, 0);
        });
    }

    /// Rank 0 sends tag 3 twice and tag 4 once; rank 1 takes one tag-3
    /// message.
    fn one_too_many(ctx: &mut RankCtx) {
        if ctx.rank() == 0 {
            ctx.send(1, 3, vec![1]);
            ctx.send(1, 3, vec![2]);
            ctx.send(1, 4, vec![3]);
        } else {
            let _ = ctx.recv(0, 3);
        }
    }

    #[test]
    #[should_panic(
        expected = "MPI unmatched message(s) at world end: (0, 1, 3) × 1, (0, 1, 4) × 1"
    )]
    fn an_unreceived_message_fails_a_timed_world() {
        world(2, one_too_many);
    }

    #[test]
    #[should_panic(expected = "unmatched")]
    fn an_unreceived_message_fails_a_recording() {
        MpiWorld::record(
            configs::rocket1(2),
            2,
            NetConfig::shared_memory(),
            one_too_many,
        );
    }
}
