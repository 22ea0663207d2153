//! Staged re-runs: one layer's public entry point, alone, on the inputs
//! a real cell used. The program itself is not instrumented, so these
//! are how a cell's host time is split between layers.

use crate::span::Tracer;
use silicon_bridge::isa::{Cpu, Program, RunResult};
use silicon_bridge::mem::{AccessKind, HierarchyConfig, MemoryHierarchy};
use silicon_bridge::mpi::{Ev, MpiWorld, NetConfig, RankCtx, ReduceOp, WorldTrace};
use silicon_bridge::soc::{Soc, SocConfig};
use silicon_bridge::uarch::MicroOp;
use silicon_bridge::workloads::microbench::MicroKernel;
use std::hint::black_box;
use std::time::Instant;

/// Cache line size the timing cores fetch by.
const LINE_MASK: u64 = !63;

/// The micro-ops of a MicroBench program: the traced functional run with
/// every retired instruction lowered.
pub fn lower(prog: &Program) -> Vec<MicroOp> {
    let mut cpu = Cpu::new(prog);
    let mut uops = Vec::new();
    cpu.run_traced(u64::MAX, |ret| uops.push(MicroOp::from_retired(ret)));
    uops
}

/// The functional run alone; returns retired instructions and exit code.
pub fn interpret(prog: &Program) -> (u64, Option<i64>) {
    let mut cpu = Cpu::new(prog);
    let exit = match cpu.run(u64::MAX) {
        RunResult::Exited(code) => Some(code),
        _ => None,
    };
    (cpu.instret, exit)
}

/// The `(core, micro-ops)` segments of a recorded world, in the order the
/// ranks consumed them.
pub fn segments(trace: &WorldTrace) -> impl Iterator<Item = (usize, &[MicroOp])> + Clone {
    trace.events.iter().filter_map(|ev| match *ev {
        Ev::Consume { rank, start, len } => Some((rank as usize, &trace.uops[start..start + len])),
        _ => None,
    })
}

/// The timing half: feeds each segment to its core of `soc`. This is
/// `uarch` with `mem` underneath it.
pub fn consume<'a>(soc: &mut Soc, segments: impl Iterator<Item = (usize, &'a [MicroOp])>) {
    for (core, uops) in segments {
        for uop in uops {
            soc.consume(core, uop);
        }
    }
}

/// The `mem` layer alone: the address stream the cores would send —
/// one instruction fetch per new line, every load and store — replayed
/// through a fresh hierarchy, one access per cycle. Returns the number
/// of accesses made.
pub fn hierarchy_replay<'a>(
    cfg: &HierarchyConfig,
    segments: impl Iterator<Item = (usize, &'a [MicroOp])>,
) -> u64 {
    let mut mem = MemoryHierarchy::new(cfg.clone());
    let mut fetch_line = vec![u64::MAX; cfg.cores];
    let (mut now, mut accesses) = (0u64, 0u64);
    for (core, uops) in segments {
        for uop in uops {
            let line = uop.pc & LINE_MASK;
            if line != fetch_line[core] {
                fetch_line[core] = line;
                now += 1;
                accesses += 1;
                black_box(mem.access(core, uop.pc, AccessKind::Ifetch, now));
            }
            if let Some(addr) = uop.mem_addr {
                let kind = if uop.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                now += 1;
                accesses += 1;
                black_box(mem.access(core, addr, kind, now));
            }
        }
    }
    black_box(mem.stats());
    accesses
}

/// The `mpi` layer alone: the recorded world's sends, receives and
/// collectives in the same order with the same sizes, and no compute
/// between them. Returns the number of collectives one rank entered.
pub fn comm_skeleton(cfg: &SocConfig, trace: &WorldTrace, net: NetConfig) -> u64 {
    let ranks = trace.ranks;
    let program = |ctx: &mut RankCtx| {
        let me = ctx.rank() as u32;
        for ev in &trace.events {
            match *ev {
                Ev::Send {
                    rank,
                    dst,
                    tag,
                    nbytes,
                } if rank == me => ctx.send(dst as usize, tag, vec![0; nbytes]),
                Ev::Recv { rank, src, tag } if rank == me => {
                    black_box(ctx.recv(src as usize, tag));
                }
                Ev::CollEnter { rank, bytes } if rank == me => {
                    if bytes == 0 {
                        ctx.barrier();
                    } else if ranks == 1 || bytes <= 64 {
                        black_box(ctx.allreduce_f64(&vec![0.0; bytes.div_ceil(8)], ReduceOp::Sum));
                    } else {
                        let each = bytes / (ranks - 1);
                        let sends = (0..ranks)
                            .map(|d| vec![0u8; if d as u32 == me { 0 } else { each }])
                            .collect();
                        black_box(ctx.alltoallv(sends));
                    }
                }
                _ => {}
            }
        }
    };
    black_box(MpiWorld::run(cfg.clone(), ranks, net, program));
    trace
        .events
        .iter()
        .filter(|ev| matches!(ev, Ev::CollEnter { rank: 0, .. }))
        .count() as u64
}

/// Totals over the MicroBench cells staged so far.
#[derive(Default)]
pub struct MicroStaged {
    pub cells: u32,
    pub uops: u64,
    pub lower_s: f64,
    pub new_ms: f64,
    pub report_ms: f64,
    pub mem_ns: f64,
    pub mem_accesses: u64,
}

/// Stages one MicroBench cell under the real span `parent`: assemble and
/// the lowered functional run (`isa`), `Soc::new` and `Soc::report`
/// (`soc`), the consume (`uarch`) and, nested in it by subtraction, the
/// hierarchy replay (`mem`).
pub fn micro_cell(
    tr: &mut Tracer,
    parent: Option<u32>,
    kernel: &MicroKernel,
    cfg: &SocConfig,
    scale: u32,
    acc: &mut MicroStaged,
) {
    acc.cells += 1;
    let prog = tr.staged(parent, "isa", "assemble", |_| kernel.build(scale));
    // The real cell streams each lowered micro-op straight into the core
    // model, so the staged `isa` run drops them too; the copy the staged
    // consume needs is made outside any span.
    let t = Instant::now();
    tr.staged(parent, "isa", "run_traced+lower", |_| {
        let mut cpu = Cpu::new(&prog);
        black_box(cpu.run_traced(u64::MAX, |ret| {
            black_box(MicroOp::from_retired(ret));
        }));
    });
    acc.lower_s += t.elapsed().as_secs_f64();
    let uops = lower(&prog);
    acc.uops += uops.len() as u64;
    let t = Instant::now();
    let mut soc = tr.staged(parent, "soc", "Soc::new", |_| Soc::new(cfg.clone()));
    acc.new_ms += t.elapsed().as_secs_f64() * 1e3;
    let stream = || std::iter::once((0, uops.as_slice()));
    tr.staged(parent, "uarch", "consume", |_| consume(&mut soc, stream()));
    // The replay is time the consume spent below the core model.
    let consume_span = tr.last_id();
    let t = Instant::now();
    acc.mem_accesses += tr.staged(consume_span, "mem", "hierarchy_replay", |_| {
        hierarchy_replay(&cfg.hierarchy, stream())
    });
    acc.mem_ns += t.elapsed().as_secs_f64() * 1e9;
    let t = Instant::now();
    tr.staged(parent, "soc", "Soc::report", |_| soc.report(Some(0)));
    acc.report_ms += t.elapsed().as_secs_f64() * 1e3;
}

impl MicroStaged {
    /// Sets the metrics these totals back.
    pub fn publish(&self, out: &mut super::Layers) {
        out.set(
            "isa.trace_minst_per_s",
            self.uops as f64 / self.lower_s / 1e6,
        );
        out.set(
            "mem.access_ns",
            self.mem_ns / self.mem_accesses.max(1) as f64,
        );
        out.set("soc.new_ms", self.new_ms / f64::from(self.cells.max(1)));
        out.set(
            "soc.report_ms",
            self.report_ms / f64::from(self.cells.max(1)),
        );
    }
}
