//! `consume_batch(xs)` must equal `for x in xs { consume(x) }` — for both
//! timing cores and for the SoC in front of them, however the stream is
//! cut into batches, with telemetry off and on. And a SoC that times from
//! another lane's recorded front-end decisions must report what a SoC of
//! its own config reports on its own.

use bsim_isa::OpClass;
use bsim_mem::{FrontRecord, MemoryHierarchy, Own};
use bsim_soc::{configs, CycleStack, RunReport, Soc, SocConfig, TelemetryConfig};
use bsim_uarch::{
    BranchClass, CoreStats, InOrderConfig, InOrderCore, MicroOp, OooConfig, OooCore, TimingCore,
    Ureg,
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
        let reg = |v: u64| Ureg::new((5 + v % 20) as u8);
        let srcs = [reg(r >> 3), Ureg::new(7).filter(|_| r & 4 != 0), None];
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
                ..MicroOp::alu(pc, Ureg::new(1), [None; 3])
            },
            14 => MicroOp {
                class: OpClass::Jump,
                // Right for half of the returns, wrong for the rest.
                next_pc: pc - 0x400 + 4 * (r >> 7 & 1),
                branch: Some((BranchClass::Return, true)),
                ..MicroOp::alu(pc + 0x400, None, [Ureg::new(1), None, None])
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
fn one_by_one(
    mut core: impl TimingCore,
    cfg: &SocConfig,
    uops: &[MicroOp],
) -> (u64, CoreStats, CycleStack) {
    let mut mem = hierarchy(cfg);
    for u in uops {
        core.consume(u, &mut mem, 0);
    }
    (core.finish(), core.stats(), core.stack())
}

fn batched(
    mut core: impl TimingCore,
    cfg: &SocConfig,
    parts: &[&[MicroOp]],
) -> (u64, CoreStats, CycleStack) {
    let mut mem = hierarchy(cfg);
    for part in parts {
        core.consume_batch(part, &mut mem, 0, &mut Own);
    }
    (core.finish(), core.stats(), core.stack())
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

/// Everything a report says, the cores' cycle stacks included.
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
    let observed = TelemetryConfig::counters();
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
                if let Some(stacks) = &want.telemetry {
                    let most = stacks.iter().map(|s| s.total()).max();
                    assert_eq!(most, Some(want.cycles), "the slowest core's stack");
                }
                let what = format!("{}, {} batches a core", cfg.name, cut.len() + 1);
                assert_eq!(facts(run(&cut, true)), facts(want), "{what}");
            }
        }
    }
}

/// `uops` with their data addresses spread sixteenfold, so the two cores'
/// working sets overflow every L1 and the L1s evict dirty lines.
fn spread(uops: Vec<MicroOp>) -> Vec<MicroOp> {
    let far = |addr: u64| 0x10_0000 + (addr - 0x10_0000) * 16;
    (uops.into_iter())
        .map(|u| MicroOp {
            mem_addr: u.mem_addr.map(far),
            ..u
        })
        .collect()
}

/// Configs that share `lead`'s core model and L1 geometry and differ in
/// everything else a lane may: L1 banks, hit latencies and MSHRs, the L2,
/// the prefetcher, the LLC, DRAM and clock, and telemetry.
fn followers(lead: &SocConfig, observed: TelemetryConfig) -> Vec<SocConfig> {
    let mut l1_timing = lead.clone();
    let h = &mut l1_timing.hierarchy;
    h.l1i.banks = 2;
    h.l1d.banks = 1;
    h.l1i.hit_latency = 4;
    h.l1d.hit_latency = 1;
    h.l1d.mshrs = 1;
    let mut below = lead.clone().with_telemetry(observed);
    let h = &mut below.hierarchy;
    h.l2.sets = 4096;
    h.l2.banks = 1;
    h.prefetch_degree = 3;
    h.llc = configs::milkv_hw(2).hierarchy.llc;
    h.dram = configs::milkv_hw(2).hierarchy.dram;
    let mut clock = lead.clone();
    clock.freq_ghz *= 2.0;
    clock.hierarchy.core_freq_ghz *= 2.0;
    clock.hierarchy.llc = None;
    vec![lead.clone(), l1_timing, below, clock]
}

#[test]
fn socs_that_follow_a_recorded_front_end_report_like_standalone_socs() {
    let observed = TelemetryConfig::counters();
    let uops = [spread(stream(21, 4000)), spread(stream(22, 4000))];
    for base in [configs::banana_pi_sim(2), configs::milkv_sim(2)] {
        for lead_cfg in [base.clone(), base.with_telemetry(observed)] {
            let lanes = followers(&lead_cfg, observed);
            for cut in cuts(4000, 2000) {
                // Two cores take turns, a segment each, as MPI ranks do;
                // each segment is one recorded quantum.
                let mut record = FrontRecord::default();
                let mut lead = Soc::new(lead_cfg.clone());
                let mut socs: Vec<Soc> = lanes.iter().map(|c| Soc::new(c.clone())).collect();
                let mut alone: Vec<Soc> = lanes.iter().map(|c| Soc::new(c.clone())).collect();
                let turns = batches(&uops[0], &cut)
                    .into_iter()
                    .zip(batches(&uops[1], &cut));
                for turn in turns {
                    for (core, part) in [turn.0, turn.1].into_iter().enumerate() {
                        lead.consume_batch_with(core, part, &mut record.lead());
                        for (soc, own) in socs.iter_mut().zip(&mut alone) {
                            let mut front = record.follow();
                            soc.consume_batch_with(core, part, &mut front);
                            assert!(front.done(), "a follower left decisions unread");
                            own.consume_batch(core, part);
                        }
                    }
                }
                for (lane, (mut soc, mut own)) in socs.into_iter().zip(alone).enumerate() {
                    let want = own.report(None);
                    let s = &want.mem_stats;
                    assert!(s.l1d_misses > 1000 && s.writebacks > 100, "{s:?}");
                    let batches = cut.len() + 1;
                    let what = format!("{} lane {lane}, {batches} batches a core", lead_cfg.name);
                    assert_eq!(facts(soc.report(None)), facts(want), "{what}");
                }
            }
        }
    }
}
