//! Micro-op trace generation for the application workloads.
//!
//! NPB, UME and the MD benchmarks are implemented as *real* Rust
//! computations (their numerical results are checked in tests) that
//! simultaneously emit a [`MicroOp`] stream shaped like the compiled
//! code would be: the same loads/stores with the same addresses and
//! strides, the same floating-point and integer operation mix, the same
//! loop branches with their actual outcomes. The timing cores consume
//! that stream exactly as they consume the MicroBench instruction
//! stream — the substitution (DESIGN.md §2) is at the ISA-encoding
//! level only, not at the architectural-behaviour level.
//!
//! Primitives place their ops at fixed synthetic PCs, one small PC
//! region per primitive, so the I-cache and branch predictors see the
//! loop-shaped code layout a compiled kernel would have.

use bsim_isa::OpClass;
use bsim_soc::RUN_QUANTUM;
use bsim_uarch::{MicroOp, Ureg};

/// Base of the synthetic PC regions for trace-generated code.
const TRACE_PC: u64 = 0x0008_0000;

/// Integer scratch registers used by generated ops (x8..x15).
const INT_REGS: [Ureg; 8] = [r(8), r(9), r(10), r(11), r(12), r(13), r(14), r(15)];
/// FP scratch registers (f8..f15 in unified numbering: 40..47).
const FP_REGS: [Ureg; 8] = [r(40), r(41), r(42), r(43), r(44), r(45), r(46), r(47)];

/// Unified register `n`. Only the constants above call it, so it runs
/// at compile time, and an `n` of 0 (x0, which no operand names) fails
/// the build.
const fn r(n: u8) -> Ureg {
    match Ureg::new(n) {
        Some(r) => r,
        None => panic!("x0 is not an operand"),
    }
}

/// What takes a generator's quanta.
type Flush<'a> = dyn FnMut(&[MicroOp]) + 'a;

/// Builds micro-ops in place, a quantum at a time: every primitive
/// writes its op straight into the next slot of one [`RUN_QUANTUM`]-slot
/// buffer, and the buffer is handed on as a slice each time it fills and
/// once more when the generator is dropped. Nothing hands a `&MicroOp`
/// across a call: an op built on the stack and then copied into the
/// quantum is read back with wide loads the host cannot forward from the
/// narrow field stores it has just made (the rule `bsim_isa`'s
/// `Cpu::step` follows for `Retired`).
pub struct TraceGen<'a> {
    /// The quantum under construction; never grows.
    buf: Vec<MicroOp>,
    /// Takes each full quantum, and the tail. [`with_trace`]'s holds the
    /// rank's open segment, so the segment outlives the tail flush.
    flush: Box<Flush<'a>>,
    rr: usize,
    lanes: u64,
    vf: u64,
    vi: u64,
    vd: u64,
    vloop: u64,
    vb: u64,
    /// Extra dynamic ops per 1000 (older-compiler codegen overhead).
    overhead_per_mille: u64,
    overhead_due: u64,
    /// Destination of the most recent load; the next chained flop
    /// consumes it, putting load latency on the dependence chain the way
    /// `acc += v * p[col]` does.
    last_load_reg: Option<Ureg>,
}

impl<'a> TraceGen<'a> {
    /// A scalar generator (one micro-op per operation) for tests and
    /// probes that want the ops one at a time: each flushed quantum is
    /// replayed through `sink`, which has therefore seen every op, in
    /// emission order, once the generator is dropped — not as each
    /// primitive returns.
    pub fn new(sink: &'a mut dyn FnMut(&MicroOp)) -> TraceGen<'a> {
        TraceGen::per_quantum(move |quantum| quantum.iter().for_each(&mut *sink), 1, 0)
    }

    /// A generator whose quanta go to `flush`, for a machine with a
    /// `lanes`-wide vector unit and a compiler that adds `per_mille`
    /// ops per 1000.
    ///
    /// Vectorizable operations (independent flops/int ops, vectorized
    /// loop overhead, per-element divides) are batched `lanes` at a
    /// time, exactly as an auto-vectorizing compiler would emit them;
    /// dependency chains, gathers and branches stay scalar. The overhead
    /// is extra scalar integer ops, modeling the older compiler the
    /// paper's FireSim images are stuck with (Table 3: GCC 9.4.0 on
    /// FireSim vs GCC 13.2 on the silicon).
    fn per_quantum(flush: impl FnMut(&[MicroOp]) + 'a, lanes: u32, per_mille: u32) -> TraceGen<'a> {
        TraceGen {
            buf: Vec::with_capacity(RUN_QUANTUM),
            // Once per generator (a traced loop nest), never per op.
            flush: Box::new(flush),
            rr: 0,
            lanes: lanes.max(1) as u64,
            vf: 0,
            vi: 0,
            vd: 0,
            vloop: 0,
            vb: 0,
            overhead_per_mille: per_mille as u64,
            overhead_due: 0,
            last_load_reg: None,
        }
    }

    /// Configured vector width in f64 lanes.
    pub fn lanes(&self) -> u32 {
        self.lanes as u32
    }

    /// Batches `n` vectorizable operations against counter `acc`,
    /// returning how many vector micro-ops to emit now.
    #[inline]
    fn batch(lanes: u64, acc: &mut u64, n: u64) -> u64 {
        *acc += n;
        let emit = *acc / lanes;
        *acc %= lanes;
        emit
    }

    /// Writes `uop` into the next slot. Inlined into every primitive so
    /// the op's fields are stored to the slot itself, never to a
    /// temporary that is then copied.
    #[inline(always)]
    fn push(&mut self, uop: MicroOp) {
        self.buf.push(uop);
        if self.buf.len() == RUN_QUANTUM {
            self.flush_quantum();
        }
    }

    #[inline(never)]
    fn flush_quantum(&mut self) {
        (self.flush)(&self.buf);
        self.buf.clear();
    }

    #[inline(always)]
    fn emit(&mut self, uop: MicroOp) {
        self.push(uop);
        if self.overhead_per_mille > 0 {
            self.overhead_due += self.overhead_per_mille;
            while self.overhead_due >= 1000 {
                self.overhead_due -= 1000;
                let pc = TRACE_PC + 0x3C0;
                self.push(MicroOp::alu(pc, Some(INT_REGS[3]), [None, None, None]));
            }
        }
    }

    #[inline]
    fn next_reg(&mut self, regs: &[Ureg; 8]) -> Ureg {
        self.rr = (self.rr + 1) % 8;
        regs[self.rr]
    }

    /// `n` integer ALU ops. `chain = true` makes them a serial
    /// dependency chain (never vectorized); independent ops are batched
    /// by the vector width.
    pub fn int_ops(&mut self, n: u64, chain: bool) {
        let pc = TRACE_PC;
        let emit = if chain {
            n
        } else {
            Self::batch(self.lanes, &mut self.vi, n)
        };
        for _ in 0..emit {
            let d = if chain {
                INT_REGS[0]
            } else {
                self.next_reg(&INT_REGS)
            };
            let s = if chain { Some(INT_REGS[0]) } else { None };
            self.emit(MicroOp::alu(pc, Some(d), [s, None, None]));
        }
    }

    /// `n` floating-point ops (FMA-class). `chain` as in [`Self::int_ops`].
    pub fn flops(&mut self, n: u64, chain: bool) {
        let pc = TRACE_PC + 0x40;
        let n = if chain {
            n
        } else {
            Self::batch(self.lanes, &mut self.vf, n)
        };
        for _ in 0..n {
            let d = if chain {
                FP_REGS[0]
            } else {
                self.next_reg(&FP_REGS)
            };
            let s = if chain { Some(FP_REGS[0]) } else { None };
            // A chained flop right after a load consumes it (the
            // `acc += v * p[col]` shape), exposing memory latency on the
            // dependence chain.
            let s2 = if chain {
                self.last_load_reg.take()
            } else {
                None
            };
            self.emit(MicroOp {
                pc,
                next_pc: pc + 4,
                class: OpClass::FpMul,
                dest: Some(d),
                srcs: [s, s2, None],
                mem_addr: None,
                is_store: false,
                branch: None,
            });
        }
    }

    /// One per-element FP divide (long latency, unpipelined); divides
    /// across independent elements batch into vector divides.
    pub fn fdiv(&mut self) {
        if Self::batch(self.lanes, &mut self.vd, 1) == 0 {
            return;
        }
        let pc = TRACE_PC + 0x80;
        self.emit(MicroOp {
            pc,
            next_pc: pc + 4,
            class: OpClass::FpDiv,
            dest: Some(FP_REGS[1]),
            srcs: [Some(FP_REGS[0]), None, None],
            mem_addr: None,
            is_store: false,
            branch: None,
        });
    }

    /// One sqrt (maps to the FP divide/sqrt unit).
    pub fn fsqrt(&mut self) {
        self.fdiv();
    }

    /// A load from `addr` whose result feeds later ops (independent of
    /// other loads — streaming or gather style).
    pub fn load(&mut self, addr: u64) {
        let pc = TRACE_PC + 0xC0;
        let d = self.next_reg(&INT_REGS);
        self.last_load_reg = Some(d);
        self.emit(MicroOp::load(pc, addr, Some(d), None));
    }

    /// A store to `addr`.
    pub fn store(&mut self, addr: u64) {
        let pc = TRACE_PC + 0x100;
        self.emit(MicroOp::store(pc, addr, [Some(INT_REGS[0]), None, None]));
    }

    /// An *indirect* load pair: first the index load from `index_addr`,
    /// then the data load from `data_addr` that depends on it (the UME /
    /// CG gather pattern — the data address is unknowable until the
    /// index arrives).
    pub fn gather(&mut self, index_addr: u64, data_addr: u64) {
        let pc = TRACE_PC + 0x140;
        let idx_reg = INT_REGS[6];
        self.emit(MicroOp::load(pc, index_addr, Some(idx_reg), None));
        let d = self.next_reg(&INT_REGS);
        self.last_load_reg = Some(d);
        self.emit(MicroOp::load(pc + 4, data_addr, Some(d), Some(idx_reg)));
    }

    /// `hops` serially dependent loads starting at `base`, `stride`
    /// apart (pointer-chase pattern).
    pub fn chase(&mut self, base: u64, hops: u64, stride: u64) {
        let pc = TRACE_PC + 0x180;
        let r = INT_REGS[7];
        for i in 0..hops {
            self.emit(MicroOp::load(pc, base + i * stride, Some(r), Some(r)));
        }
    }

    /// A conditional branch with its actual `taken` outcome, at a PC
    /// derived from `site` (distinct sites train distinct predictor
    /// entries).
    pub fn branch(&mut self, site: u64, taken: bool) {
        let pc = TRACE_PC + 0x1C0 + (site % 64) * 8;
        self.emit(MicroOp::cond_branch(
            pc,
            taken,
            pc.wrapping_sub(0x200),
            [None; 3],
        ));
    }

    /// Loop overhead for `trips` iterations of a vectorizable loop: one
    /// counter update and one backward branch per `lanes` trips (a
    /// vectorized loop retires `lanes` elements per iteration).
    pub fn loop_overhead(&mut self, site: u64, trips: u64) {
        let emit = Self::batch(self.lanes, &mut self.vloop, trips);
        for i in 0..emit {
            self.int_ops(1, true);
            self.branch(site, i + 1 != emit);
        }
    }

    /// A data-dependent branch inside a vectorizable loop. Scalar
    /// machines branch per element with the real outcome; vector
    /// machines use predication, leaving one well-predicted loop branch
    /// per `lanes` elements.
    pub(crate) fn masked_branch(&mut self, site: u64, taken: bool) {
        if self.lanes == 1 {
            self.branch(site, taken);
        } else if Self::batch(self.lanes, &mut self.vb, 1) >= 1 {
            self.branch(site, true);
        }
    }
}

impl Drop for TraceGen<'_> {
    /// Hands on the tail. Not while unwinding: a rank program that
    /// panics mid-segment must fail its cell, and a flush from here
    /// would call into the world it has just poisoned — a second panic,
    /// which aborts the process.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        self.flush_quantum();
        debug_assert_eq!(self.buf.capacity(), RUN_QUANTUM, "the quantum never grows");
    }
}

/// Base of rank `rank`'s private data segment (MPI ranks are separate
/// processes with separate address spaces; 64 MiB apart keeps their
/// simulated footprints disjoint in the shared hierarchy).
pub fn rank_base(rank: usize) -> u64 {
    0x1000_0000 + ((rank as u64) << 26)
}

/// Runs `f` with a [`TraceGen`] whose micro-ops are one segment of the
/// rank's core: each quantum of [`RUN_QUANTUM`] is fed to the core as it
/// fills, so a live run never holds more of the segment than that (a
/// recording keeps it, as one `Ev::Consume`). The generator owns the
/// open segment, which keeps the rank borrowed: the tail reaches the
/// core when the generator drops, before the segment closes and before
/// any other event of the rank.
/// The platform's vector width is applied automatically, so the same
/// workload code emits scalar ops on the FireSim targets (which run
/// "without enabling vector units", §3.1.1) and vector ops on the
/// silicon references.
pub fn with_trace(ctx: &mut bsim_mpi::RankCtx, f: impl FnOnce(&mut TraceGen<'_>)) {
    let lanes = ctx.simd_lanes();
    let overhead = ctx.compiler_overhead_per_mille();
    let mut segment = ctx.segment();
    let mut g = TraceGen::per_quantum(move |quantum| segment.extend(quantum), lanes, overhead);
    f(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::{configs, Soc};

    fn run_trace(build: impl FnOnce(&mut TraceGen<'_>)) -> u64 {
        let mut soc = Soc::new(configs::large_boom(1));
        {
            let mut sink = |u: &MicroOp| soc.consume(0, u);
            let mut gen = TraceGen::new(&mut sink);
            build(&mut gen);
        }
        soc.report(None).cycles
    }

    /// Every primitive, 18 ops an iteration on a scalar machine with a
    /// current compiler: three quanta and a tail.
    fn script(g: &mut TraceGen<'_>) {
        for i in 0..185u64 {
            g.int_ops(3, i % 2 == 0);
            g.load(0x10_0000 + i * 64);
            g.flops(2, true);
            g.flops(3, false);
            g.gather(0x20_0000 + i * 4, 0x30_0000 + (i * 7 % 64) * 8);
            g.fdiv();
            g.masked_branch(3, i % 3 == 0);
            g.store(0x40_0000 + i * 64);
            g.chase(0x50_0000 + i * 8, 2, 4096);
            g.loop_overhead(5, 1);
        }
    }

    /// FNV-1a over every field of every op, in order.
    fn digest(uops: &[MicroOp]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        let reg = |r: Option<Ureg>| r.map_or(0xFF, |r| u64::from(r.num()));
        for u in uops {
            word(u.pc);
            word(u.next_pc);
            word(u.class as u64);
            word(reg(u.dest));
            u.srcs.iter().for_each(|s| word(reg(*s)));
            word(u.mem_addr.map_or(u64::MAX, |a| a ^ 1));
            word(u64::from(u.is_store));
            word(
                u.branch
                    .map_or(0xFF, |(class, taken)| class as u64 * 2 + u64::from(taken)),
            );
        }
        h
    }

    /// The ops `script` emits on a `lanes`-wide machine whose compiler
    /// adds `per_mille`, and the size of each flush.
    fn emitted(lanes: u32, per_mille: u32) -> (Vec<MicroOp>, Vec<usize>) {
        let (mut uops, mut flushes) = (Vec::new(), Vec::new());
        let mut g = TraceGen::per_quantum(
            |quantum: &[MicroOp]| {
                uops.extend_from_slice(quantum);
                flushes.push(quantum.len());
            },
            lanes,
            per_mille,
        );
        script(&mut g);
        drop(g);
        (uops, flushes)
    }

    /// The literals are what the generator emitted while it still built
    /// each op on the stack and handed it to a per-op callback: in-place
    /// construction moves no op, overhead op or field.
    #[test]
    fn the_emitted_ops_are_the_per_op_generators() {
        let overhead_pc = TRACE_PC + 0x3C0;
        for (lanes, per_mille, len, fnv) in [
            (1, 0, 3330, 0x7f26_afc0_91e5_d4b6_u64),
            (1, 200, 3996, 0x2697_6afd_7da4_6ad2),
            (4, 0, 2150, 0x1acb_a9f6_44b7_e476),
            (1, 250, 4162, 0xbb92_721a_051b_24b6),
        ] {
            let (uops, flushes) = emitted(lanes, per_mille);
            let at = format!("lanes {lanes}, overhead {per_mille}");
            assert_eq!((uops.len(), digest(&uops)), (len, fnv), "{at}");
            let (tail, full) = flushes.split_last().expect("the tail is always flushed");
            assert!(full.iter().all(|n| *n == RUN_QUANTUM), "{at}: {flushes:?}");
            assert_eq!(*tail, len % RUN_QUANTUM, "{at}");
            // An overhead op closes a quantum at 200 and opens one at 250.
            match per_mille {
                200 => assert_eq!(uops[3 * RUN_QUANTUM - 1].pc, overhead_pc),
                250 => assert_eq!(uops[RUN_QUANTUM].pc, overhead_pc),
                _ => assert!(uops.iter().all(|u| u.pc != overhead_pc)),
            }
        }
    }

    #[test]
    fn a_per_op_sink_has_seen_every_op_in_order_once_the_generator_is_dropped() {
        let mut seen = Vec::new();
        {
            let mut sink = |u: &MicroOp| seen.push(*u);
            let mut g = TraceGen::new(&mut sink);
            script(&mut g);
        }
        let (uops, _) = emitted(1, 0);
        assert_eq!(seen.len(), uops.len());
        assert_eq!(digest(&seen), digest(&uops));
    }

    #[test]
    fn a_generator_dropped_by_a_panic_does_not_flush_its_tail() {
        let flushed = std::cell::Cell::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = TraceGen::per_quantum(|q| flushed.set(flushed.get() + q.len()), 1, 0);
            g.int_ops(RUN_QUANTUM as u64 + 10, true);
            // A rank program failing mid-segment (no hook: nothing printed).
            std::panic::resume_unwind(Box::new("mid-segment"));
        }));
        assert!(caught.is_err());
        assert_eq!(flushed.get(), RUN_QUANTUM, "the full quantum, not the tail");
    }

    #[test]
    fn chained_ints_slower_than_independent() {
        let chained = run_trace(|g| g.int_ops(10_000, true));
        let indep = run_trace(|g| g.int_ops(10_000, false));
        assert!(
            chained > 2 * indep,
            "chain {chained} vs independent {indep}"
        );
    }

    #[test]
    fn chase_slower_than_streaming_loads() {
        let base = 0x10_0000;
        let chase = run_trace(|g| g.chase(base, 5_000, 4096));
        let stream = run_trace(|g| {
            for i in 0..5_000u64 {
                g.load(base + i * 4096);
            }
        });
        assert!(
            chase as f64 > 1.5 * stream as f64,
            "dependent loads must serialize: chase {chase} vs stream {stream}"
        );
    }

    #[test]
    fn predictable_branches_cheaper_than_random() {
        let predictable = run_trace(|g| {
            for _ in 0..5_000 {
                g.branch(1, true);
            }
        });
        let mut x = 0x9E3779B97F4A7C15u64;
        let random = run_trace(|g| {
            for _ in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                g.branch(1, x & 1 == 0);
            }
        });
        assert!(
            random > predictable,
            "random {random} vs predictable {predictable}"
        );
    }

    #[test]
    fn gather_emits_dependent_pair() {
        // A gather's data load depends on its index load; compare with
        // two independent loads against a DRAM-distant region.
        let gathers = run_trace(|g| {
            for i in 0..3_000u64 {
                g.gather(0x100_0000 + i * 65536, 0x800_0000 + (i * 7 % 512) * 65536);
            }
        });
        let indep = run_trace(|g| {
            for i in 0..3_000u64 {
                g.load(0x100_0000 + i * 65536);
                g.load(0x800_0000 + (i * 7 % 512) * 65536);
            }
        });
        assert!(gathers > indep, "gather {gathers} vs independent {indep}");
    }
}
