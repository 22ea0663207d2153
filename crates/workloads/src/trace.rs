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
use bsim_uarch::MicroOp;

/// Base of the synthetic PC regions for trace-generated code.
const TRACE_PC: u64 = 0x0008_0000;

/// Integer scratch registers used by generated ops (x8..x15).
const INT_REGS: [u8; 8] = [8, 9, 10, 11, 12, 13, 14, 15];
/// FP scratch registers (f8..f15 in unified numbering: 40..47).
const FP_REGS: [u8; 8] = [40, 41, 42, 43, 44, 45, 46, 47];

/// Emits micro-ops into a sink: [`with_trace`]'s quantum on the MPI
/// path, `Soc::consume` in tests.
pub struct TraceGen<'a> {
    sink: &'a mut dyn FnMut(&MicroOp),
    rr: usize,
    lanes: u64,
    vf: u64,
    vi: u64,
    vd: u64,
    vloop: u64,
    vb: u64,
    /// Extra dynamic ops per 1000 (older-compiler codegen overhead).
    overhead_per_mille: u64,
    emitted: u64,
    overhead_due: u64,
    /// Destination of the most recent load; the next chained flop
    /// consumes it, putting load latency on the dependence chain the way
    /// `acc += v * p[col]` does.
    last_load_reg: Option<u8>,
}

impl<'a> TraceGen<'a> {
    /// Wraps a sink (scalar: one micro-op per operation).
    pub fn new(sink: &'a mut dyn FnMut(&MicroOp)) -> TraceGen<'a> {
        TraceGen::with_lanes(sink, 1)
    }

    /// Wraps a sink for a machine with a `lanes`-wide vector unit:
    /// vectorizable operations (independent flops/int ops, vectorized
    /// loop overhead, per-element divides) are batched `lanes` at a
    /// time, exactly as an auto-vectorizing compiler would emit them.
    /// Dependency chains, gathers and branches stay scalar.
    fn with_lanes(sink: &'a mut dyn FnMut(&MicroOp), lanes: u32) -> TraceGen<'a> {
        TraceGen {
            sink,
            rr: 0,
            lanes: lanes.max(1) as u64,
            vf: 0,
            vi: 0,
            vd: 0,
            vloop: 0,
            vb: 0,
            overhead_per_mille: 0,
            emitted: 0,
            overhead_due: 0,
            last_load_reg: None,
        }
    }

    /// Adds a codegen-overhead factor: `per_mille` extra scalar integer
    /// ops per 1000 emitted micro-ops, modeling the older compiler the
    /// paper's FireSim images are stuck with (Table 3: GCC 9.4.0 on
    /// FireSim vs GCC 13.2 on the silicon).
    fn with_compiler_overhead(mut self, per_mille: u32) -> TraceGen<'a> {
        self.overhead_per_mille = per_mille as u64;
        self
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

    #[inline]
    fn emit(&mut self, uop: MicroOp) {
        (self.sink)(&uop);
        if self.overhead_per_mille > 0 {
            self.emitted += 1;
            self.overhead_due += self.overhead_per_mille;
            while self.overhead_due >= 1000 {
                self.overhead_due -= 1000;
                let pc = TRACE_PC + 0x3C0;
                (self.sink)(&MicroOp::alu(pc, Some(INT_REGS[3]), [None, None, None]));
            }
        }
    }

    #[inline]
    fn next_reg(&mut self, regs: &[u8; 8]) -> u8 {
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

/// Base of rank `rank`'s private data segment (MPI ranks are separate
/// processes with separate address spaces; 64 MiB apart keeps their
/// simulated footprints disjoint in the shared hierarchy).
pub fn rank_base(rank: usize) -> u64 {
    0x1000_0000 + ((rank as u64) << 26)
}

/// Runs `f` with a [`TraceGen`] whose micro-ops are one segment of the
/// rank's core: they collect in a quantum of [`RUN_QUANTUM`] that is fed
/// to the core each time it fills, so a live run never holds more of
/// the segment than that (a recording keeps it, as one `Ev::Consume`).
/// The platform's vector width is applied automatically, so the same
/// workload code emits scalar ops on the FireSim targets (which run
/// "without enabling vector units", §3.1.1) and vector ops on the
/// silicon references.
pub fn with_trace(ctx: &mut bsim_mpi::RankCtx, f: impl FnOnce(&mut TraceGen<'_>)) {
    let lanes = ctx.simd_lanes();
    let overhead = ctx.compiler_overhead_per_mille();
    let mut segment = ctx.segment();
    let mut quantum: Vec<MicroOp> = Vec::with_capacity(RUN_QUANTUM);
    {
        let mut sink = |u: &MicroOp| {
            quantum.push(*u);
            if quantum.len() == RUN_QUANTUM {
                segment.extend(&quantum);
                quantum.clear();
            }
        };
        let mut g = TraceGen::with_lanes(&mut sink, lanes).with_compiler_overhead(overhead);
        f(&mut g);
    }
    segment.extend(&quantum);
    debug_assert_eq!(quantum.capacity(), RUN_QUANTUM, "the quantum never grows");
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
