//! Property tests for the memory system: capacity/inclusion invariants,
//! MSHR bounds, DRAM monotonicity.

use bsim_mem::cache::{Cache, CacheConfig, MshrFile};
use bsim_mem::{AccessKind, DramConfig, DramModel, HierarchyConfig, MemoryHierarchy};
use proptest::prelude::*;

fn small_cache() -> CacheConfig {
    CacheConfig {
        sets: 8,
        ways: 2,
        line_bytes: 64,
        banks: 2,
        hit_latency: 2,
        mshrs: 4,
    }
}

fn hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::new(HierarchyConfig {
        cores: 2,
        l1i: small_cache(),
        l1d: small_cache(),
        l2: CacheConfig {
            sets: 64,
            ways: 4,
            line_bytes: 64,
            banks: 2,
            hit_latency: 10,
            mshrs: 8,
        },
        bus: bsim_mem::BusConfig {
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

proptest! {
    #[test]
    fn cache_never_exceeds_capacity(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = Cache::new(small_cache());
        for (t, &a) in addrs.iter().enumerate() {
            if !c.access(a, t % 3 == 0, t as u64).hit() {
                c.fill(a, t % 3 == 0, t as u64);
            }
        }
        prop_assert!(c.valid_lines() <= 16);
    }

    #[test]
    fn filled_lines_are_found(addrs in prop::collection::vec(0u64..100_000, 1..50)) {
        let mut c = Cache::new(small_cache());
        // The most recently filled line must always be resident.
        for (t, &a) in addrs.iter().enumerate() {
            c.access(a, false, t as u64);
            c.fill(a, false, t as u64);
            prop_assert!(c.contains(a), "just-filled line missing: {a:#x}");
        }
    }

    #[test]
    fn mshr_never_exceeds_capacity(times in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut m = MshrFile::new(3);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for &t in &sorted {
            let (slot, start) = m.admit(t);
            prop_assert!(start >= t);
            m.record(slot, start + 50);
            prop_assert!(m.outstanding(start) <= 3);
        }
    }

    #[test]
    fn dram_completion_after_issue(addrs in prop::collection::vec(0u64..(1u64 << 30), 1..100)) {
        let mut d = DramModel::new(DramConfig::ddr4_3200(2), 2.0);
        let mut now = 0;
        for &a in &addrs {
            let out = d.access(a, a % 2 == 0, now);
            prop_assert!(out.done > now, "completion must be after issue");
            now += 3;
        }
    }

    #[test]
    fn hierarchy_outcome_always_progresses(
        ops in prop::collection::vec((0u64..(1u64 << 22), 0u8..3), 1..150)
    ) {
        let mut h = hierarchy();
        let mut now = 0u64;
        for (addr, kind) in ops {
            let kind = match kind { 0 => AccessKind::Load, 1 => AccessKind::Store, _ => AccessKind::Ifetch };
            let out = h.access(0, addr, kind, now);
            prop_assert!(out.complete_at > now, "time must advance");
            now = out.complete_at;
        }
        let s = h.stats();
        prop_assert!(s.l1d_misses <= s.l1d_accesses);
        prop_assert!(s.l2_misses <= s.l2_accesses);
    }

    #[test]
    fn repeat_access_hits(addr in 0u64..(1u64 << 22)) {
        let mut h = hierarchy();
        let first = h.access(0, addr, AccessKind::Load, 0);
        let second = h.access(0, addr, AccessKind::Load, first.complete_at + 1);
        prop_assert_eq!(second.level, bsim_mem::HitLevel::L1);
    }
}
