//! Property tests for the timing cores: monotone clocks, IPC bounds,
//! and predictor sanity over random micro-op streams.

use bsim_mem::{BusConfig, CacheConfig, DramConfig, HierarchyConfig, MemoryHierarchy};
use bsim_uarch::{InOrderConfig, InOrderCore, MicroOp, OooConfig, OooCore, TimingCore, Ureg};
use proptest::prelude::*;

fn mem(cores: usize) -> MemoryHierarchy {
    MemoryHierarchy::new(HierarchyConfig {
        cores,
        l1i: CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            banks: 1,
            hit_latency: 1,
            mshrs: 2,
        },
        l1d: CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            banks: 2,
            hit_latency: 2,
            mshrs: 4,
        },
        l2: CacheConfig {
            sets: 512,
            ways: 8,
            line_bytes: 64,
            banks: 2,
            hit_latency: 12,
            mshrs: 8,
        },
        bus: BusConfig {
            width_bits: 64,
            latency: 4,
        },
        llc: None,
        dram: DramConfig::ddr3_2000(1),
        core_freq_ghz: 1.6,
        l1_to_l2_latency: 2,
        prefetch_degree: 0,
    })
}

/// A random but decodable micro-op stream: ALU ops, loads, stores and
/// branches over a bounded address space and register set.
fn uop_stream() -> impl Strategy<Value = Vec<MicroOp>> {
    prop::collection::vec((0u8..4, 0u64..(1 << 20), any::<bool>(), 0u8..8), 1..400).prop_map(
        |spec| {
            spec.into_iter()
                .enumerate()
                .map(|(i, (kind, addr, flag, reg))| {
                    let pc = 0x1_0000 + 4 * (i as u64 % 64);
                    let reg = Ureg::new(8 + reg);
                    match kind {
                        0 => MicroOp::alu(pc, reg, [reg.filter(|_| flag), None, None]),
                        1 => MicroOp::load(pc, addr, reg, None),
                        2 => MicroOp::store(pc, addr, [reg, None, None]),
                        _ => MicroOp::cond_branch(pc, flag, 0x1_0000, [None; 3]),
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inorder_clock_is_monotone_and_bounded(uops in uop_stream()) {
        let mut core = InOrderCore::new(InOrderConfig::rocket());
        let mut m = mem(1);
        let mut last = 0;
        for u in &uops {
            core.consume(u, &mut m, 0);
            prop_assert!(core.cycles() >= last, "clock went backwards");
            last = core.cycles();
            prop_assert_eq!(core.stack().total(), last, "the stack is the clock");
        }
        let total = core.finish();
        prop_assert_eq!(core.stack().total(), total);
        prop_assert!(total >= uops.len() as u64 / 2, "single-issue cannot do > 1 IPC overall");
        prop_assert_eq!(core.retired(), uops.len() as u64);
    }

    #[test]
    fn ooo_retires_everything_in_finite_time(uops in uop_stream()) {
        let mut core = OooCore::new(OooConfig::large_boom());
        let mut m = mem(1);
        for u in &uops {
            core.consume(u, &mut m, 0);
            prop_assert_eq!(core.stack().total(), core.cycles(), "the stack is the clock");
        }
        let total = core.finish();
        prop_assert_eq!(core.stack().total(), total);
        prop_assert_eq!(core.retired(), uops.len() as u64);
        // Generous upper bound: nothing should cost > 10k cycles per uop.
        prop_assert!(total < 10_000 * uops.len() as u64 + 10_000);
        let s = core.stats();
        prop_assert!(s.mispredicts <= s.branches + uops.len() as u64);
    }

    #[test]
    fn wide_machine_never_slower_than_narrow(uops in uop_stream()) {
        let run = |cfg: OooConfig| {
            let mut core = OooCore::new(cfg);
            let mut m = mem(1);
            for u in &uops {
                core.consume(u, &mut m, 0);
            }
            core.finish()
        };
        let small = run(OooConfig::small_boom());
        let large = run(OooConfig::large_boom());
        // Allow a small tolerance: predictors differ in table sizes only.
        prop_assert!(
            large as f64 <= small as f64 * 1.10,
            "Large BOOM ({large}) must not lose to Small BOOM ({small})"
        );
    }

    #[test]
    fn same_stream_same_cycles(uops in uop_stream()) {
        let run = || {
            let mut core = InOrderCore::new(InOrderConfig::spacemit_k1());
            let mut m = mem(1);
            for u in &uops {
                core.consume(u, &mut m, 0);
            }
            core.finish()
        };
        prop_assert_eq!(run(), run(), "timing must be deterministic");
    }
}
