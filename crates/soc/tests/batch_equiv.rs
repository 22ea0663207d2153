//! `consume_batch(xs)` must equal `for x in xs { consume(x) }` — for both
//! timing cores and for the SoC in front of them, however the stream is
//! cut into batches, with telemetry off and on.

use bsim_isa::OpClass;
use bsim_mem::MemoryHierarchy;
use bsim_soc::{configs, RunReport, Soc, SocConfig, TelemetryConfig};
use bsim_uarch::{
    BranchClass, CoreStats, InOrderConfig, InOrderCore, MicroOp, OooConfig, OooCore, TimingCore,
};

/// A seeded micro-op stream with everything the cores branch on: ALU and
/// FP chains, the unpipelined divider, loads and stores that hit, miss
/// and share lines, fetch-line changes, calls and returns, and
/// conditional branches of which a quarter are coin flips (so they
/// mispredict, but windows still fill between flushes).
fn stream(seed: u64, n: usize) -> Vec<MicroOp> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut uops = Vec::with_capacity(n);
    while uops.len() < n {
        let r = next();
        let pc = 0x1_0000 + (r >> 40) % 96 * 4 + (r >> 8) % 12 * 64;
        let reg = |v: u64| Some((5 + v % 20) as u8);
        let srcs = [reg(r >> 3), (r & 4 != 0).then_some(7), None];
        let data = 0x10_0000 + (r >> 20) % 3 * 0x4_0000 + (r >> 12) % 640 * 8;
        uops.push(match r % 16 {
            0..=4 => MicroOp::alu(pc, reg(r >> 9), srcs),
            5..=7 => MicroOp::load(pc, data, reg(r >> 9), reg(r >> 3)),
            8 | 9 => MicroOp::store(pc, data, srcs),
            10 | 11 => MicroOp::cond_branch(pc, r & 0x60 != 0x60, pc ^ 0x140, srcs),
            12 => MicroOp {
                class: if r & 64 != 0 {
                    OpClass::IntDiv
                } else {
                    OpClass::FpMul
                },
                ..MicroOp::alu(pc, reg(r >> 9), srcs)
            },
            13 => MicroOp {
                class: OpClass::Jump,
                next_pc: pc + 0x400,
                branch: Some((BranchClass::Call, true)),
                ..MicroOp::alu(pc, Some(1), [None; 3])
            },
            14 => MicroOp {
                class: OpClass::Jump,
                // Right for half of the returns, wrong for the rest.
                next_pc: pc - 0x400 + 4 * (r >> 7 & 1),
                branch: Some((BranchClass::Return, true)),
                ..MicroOp::alu(pc + 0x400, None, [Some(1), None, None])
            },
            _ => MicroOp {
                class: OpClass::Jump,
                next_pc: 0x1_0000 + (r >> 30) % 4 * 64,
                branch: Some((BranchClass::Indirect, true)),
                ..MicroOp::alu(pc, None, srcs)
            },
        });
    }
    uops
}

/// Batch boundaries over `len` micro-ops: fixed sizes 1, 7 and 1024, and
/// cuts directly before and after index `at`.
fn cuts(len: usize, at: usize) -> Vec<Vec<usize>> {
    let fixed = |size: usize| (0..len).step_by(size).skip(1).collect::<Vec<_>>();
    vec![fixed(1), fixed(7), fixed(1024), vec![at], vec![at + 1]]
}

fn batches<'a>(uops: &'a [MicroOp], cuts: &[usize]) -> Vec<&'a [MicroOp]> {
    let mut out = Vec::new();
    let mut from = 0;
    for &cut in cuts {
        out.push(&uops[from..cut]);
        from = cut;
    }
    out.push(&uops[from..]);
    out
}

fn hierarchy(cfg: &SocConfig) -> MemoryHierarchy {
    MemoryHierarchy::new(cfg.hierarchy.clone())
}

/// Runs `uops` through `core` one by one, returning its final state.
fn one_by_one(mut core: impl TimingCore, cfg: &SocConfig, uops: &[MicroOp]) -> (u64, CoreStats) {
    let mut mem = hierarchy(cfg);
    for u in uops {
        core.consume(u, &mut mem, 0);
    }
    (core.finish(), core.stats())
}

fn batched(mut core: impl TimingCore, cfg: &SocConfig, parts: &[&[MicroOp]]) -> (u64, CoreStats) {
    let mut mem = hierarchy(cfg);
    for part in parts {
        core.consume_batch(part, &mut mem, 0);
    }
    (core.finish(), core.stats())
}

/// Index of the first micro-op `mispredicts` counts, found by replay.
fn first_mispredict(mut core: impl TimingCore, cfg: &SocConfig, uops: &[MicroOp]) -> usize {
    let mut mem = hierarchy(cfg);
    uops.iter()
        .position(|u| {
            core.consume(u, &mut mem, 0);
            core.stats().mispredicts > 0
        })
        .expect("coin-flip branches mispredict")
}

#[test]
fn inorder_batches_equal_single_consumes() {
    let cfg = configs::banana_pi_sim(1);
    let new = || InOrderCore::new(InOrderConfig::rocket());
    for seed in [3u64, 0xFEED_5EED] {
        let uops = stream(seed, 5000);
        let want = one_by_one(new(), &cfg, &uops);
        assert!(want.1.mispredicts > 50 && want.1.fetch_stall_cycles > 0);
        let at = first_mispredict(new(), &cfg, &uops);
        for cut in cuts(uops.len(), at) {
            let got = batched(new(), &cfg, &batches(&uops, &cut));
            assert_eq!(got, want, "seed {seed:#x}, {} batches", cut.len() + 1);
        }
    }
}

#[test]
fn ooo_batches_equal_single_consumes() {
    let cfg = configs::milkv_sim(1);
    let new = || OooCore::new(OooConfig::small_boom());
    for seed in [3u64, 0xFEED_5EED] {
        let uops = stream(seed, 5000);
        let want = one_by_one(new(), &cfg, &uops);
        assert!(
            want.1.mispredicts > 50 && want.1.structural_stall_cycles > 0,
            "{:?}",
            want.1
        );
        let at = first_mispredict(new(), &cfg, &uops);
        for cut in cuts(uops.len(), at) {
            let got = batched(new(), &cfg, &batches(&uops, &cut));
            assert_eq!(got, want, "seed {seed:#x}, {} batches", cut.len() + 1);
        }
    }
}

/// Everything a report says, telemetry export included.
fn facts(r: RunReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.cycles, r.retired, r.seconds.to_bits()),
        r.core_stats,
        r.mem_stats,
        r.telemetry,
    )
}

#[test]
fn soc_batches_equal_single_consumes_with_telemetry_off_and_on() {
    // A 64-entry trace ring and a 100-cycle sample window: the stream
    // wraps the ring many times and crosses hundreds of sample boundaries
    // inside batches.
    let observed = TelemetryConfig {
        enabled: true,
        sample_interval_cycles: 100,
        trace_capacity: 64,
        trace_sample_period: 1,
    };
    let uops = [stream(11, 4000), stream(12, 4000)];
    for base in [configs::banana_pi_sim(2), configs::milkv_sim(2)] {
        for cfg in [base.clone(), base.with_telemetry(observed)] {
            // Two cores take turns, a segment each, as MPI ranks do.
            let run = |cut: &[usize], batched: bool| {
                let mut soc = Soc::new(cfg.clone());
                let turns = batches(&uops[0], cut)
                    .into_iter()
                    .zip(batches(&uops[1], cut));
                for turn in turns {
                    for (core, part) in [turn.0, turn.1].into_iter().enumerate() {
                        if batched {
                            soc.consume_batch(core, part);
                        } else {
                            part.iter().for_each(|u| soc.consume(core, u));
                        }
                    }
                }
                soc.report(None)
            };
            for cut in cuts(4000, 2000) {
                let want = run(&cut, false);
                assert_eq!(want.telemetry.is_some(), cfg.telemetry.enabled);
                if let Some(t) = &want.telemetry {
                    assert!(
                        t.timeline.len() > 100 && t.trace.len() == 64,
                        "{} samples, {} trace entries",
                        t.timeline.len(),
                        t.trace.len()
                    );
                }
                let what = format!("{}, {} batches a core", cfg.name, cut.len() + 1);
                assert_eq!(facts(run(&cut, true)), facts(want), "{what}");
            }
        }
    }
}
