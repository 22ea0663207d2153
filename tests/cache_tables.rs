//! A cache holds set records only for the chunks of sets it has filled,
//! and that moves no simulated number. Each cell's cycle count and whole
//! `MemStats` (compared through `Debug`) are the literals printed by the
//! last binary that kept four parallel `sets × ways` tables per cache.
//! Between them the MILK-V cells hit and miss the LLC, write dirty L2
//! victims into it, evict dirty LLC lines to DRAM (`milkv_sim`'s
//! `ML2_BW_st`) and train the prefetcher (`milkv_hw`'s `ML2_BW_ld`); the
//! Banana Pi cell has no LLC; the four-rank cell probes and invalidates
//! the other cores' L1Ds on every store.
//!
//! The out-of-order core's counters are pinned the same way: every
//! `CoreStats` field of both MILK-V platforms on two branch kernels, a
//! load-bandwidth kernel and `MM`, printed by the last binary that kept
//! the ROB as an eagerly drained ring. `rob_high_water` is the field a
//! change to the ROB bookkeeping gets wrong first.

use silicon_bridge::core::experiments::{microbench_cell, MpiWork, Sizes};
use silicon_bridge::mpi::Timed;
use silicon_bridge::soc::configs::{banana_pi_hw, milkv_hw, milkv_sim};
use silicon_bridge::soc::SocConfig;

/// `(kernel, platform, cycles, mem_stats)` of a scale-1 MicroBench cell.
type Pin = (&'static str, fn(usize) -> SocConfig, u64, &'static str);

const MILKV: [Pin; 8] = [
    (
        "ML2_BW_ld",
        milkv_hw,
        336_433,
        "MemStats { l1d_accesses: 144000, l1d_misses: 144000, \
         l1i_accesses: 36001, l1i_misses: 2, l2_accesses: 144002, l2_misses: 5, \
         llc_accesses: 5, llc_misses: 5, dram_reads: 2054, dram_writes: 0, \
         dram_row_hits: 1984, dram_row_misses: 70, dram_token_stall_cycles: 0, \
         writebacks: 0, bank_conflict_cycles: 255, mshr_stall_cycles: 7630776, \
         bus_busy_cycles: 10270, prefetches: 2049 }",
    ),
    (
        "ML2_BW_st",
        milkv_hw,
        620_350,
        "MemStats { l1d_accesses: 144000, l1d_misses: 144000, \
         l1i_accesses: 36001, l1i_misses: 2, l2_accesses: 144002, l2_misses: 5, \
         llc_accesses: 5, llc_misses: 5, dram_reads: 2051, dram_writes: 3, \
         dram_row_hits: 1984, dram_row_misses: 70, dram_token_stall_cycles: 0, \
         writebacks: 142976, bank_conflict_cycles: 2303914, \
         mshr_stall_cycles: 14443994, bus_busy_cycles: 10270, prefetches: 2049 }",
    ),
    (
        "MC",
        milkv_hw,
        433_219,
        "MemStats { l1d_accesses: 192000, l1d_misses: 192000, \
         l1i_accesses: 30001, l1i_misses: 5, l2_accesses: 192005, l2_misses: 8, \
         llc_accesses: 8, llc_misses: 8, dram_reads: 41, dram_writes: 0, \
         dram_row_hits: 18, dram_row_misses: 23, dram_token_stall_cycles: 0, \
         writebacks: 0, bank_conflict_cycles: 838, mshr_stall_cycles: 9789273, \
         bus_busy_cycles: 205, prefetches: 33 }",
    ),
    (
        "EM5",
        milkv_hw,
        150_273,
        "MemStats { l1d_accesses: 0, l1d_misses: 0, l1i_accesses: 50001, \
         l1i_misses: 2, l2_accesses: 2, l2_misses: 2, llc_accesses: 2, \
         llc_misses: 2, dram_reads: 2, dram_writes: 0, dram_row_hits: 0, \
         dram_row_misses: 2, dram_token_stall_cycles: 0, writebacks: 0, \
         bank_conflict_cycles: 0, mshr_stall_cycles: 0, bus_busy_cycles: 10, \
         prefetches: 0 }",
    ),
    (
        "ML2_BW_st",
        milkv_sim,
        645_975,
        "MemStats { l1d_accesses: 144000, l1d_misses: 144000, \
         l1i_accesses: 36001, l1i_misses: 2, l2_accesses: 144002, \
         l2_misses: 2050, llc_accesses: 2050, llc_misses: 2050, dram_reads: 2, \
         dram_writes: 2048, dram_row_hits: 1984, dram_row_misses: 66, \
         dram_token_stall_cycles: 2927, writebacks: 142976, \
         bank_conflict_cycles: 2381661, mshr_stall_cycles: 9895328, \
         bus_busy_cycles: 10250, prefetches: 0 }",
    ),
    (
        "CCh_st",
        milkv_sim,
        796_254,
        "MemStats { l1d_accesses: 50000, l1d_misses: 64, l1i_accesses: 125079, \
         l1i_misses: 3, l2_accesses: 67, l2_misses: 67, llc_accesses: 67, \
         llc_misses: 67, dram_reads: 3, dram_writes: 64, dram_row_hits: 60, \
         dram_row_misses: 7, dram_token_stall_cycles: 97, writebacks: 0, \
         bank_conflict_cycles: 2, mshr_stall_cycles: 0, bus_busy_cycles: 335, \
         prefetches: 0 }",
    ),
    (
        "MC",
        milkv_sim,
        433_476,
        "MemStats { l1d_accesses: 192000, l1d_misses: 192000, \
         l1i_accesses: 30001, l1i_misses: 5, l2_accesses: 192005, l2_misses: 37, \
         llc_accesses: 37, llc_misses: 37, dram_reads: 37, dram_writes: 0, \
         dram_row_hits: 16, dram_row_misses: 21, dram_token_stall_cycles: 26, \
         writebacks: 0, bank_conflict_cycles: 527, mshr_stall_cycles: 6334051, \
         bus_busy_cycles: 185, prefetches: 0 }",
    ),
    (
        "EM5",
        milkv_sim,
        175_310,
        "MemStats { l1d_accesses: 0, l1d_misses: 0, l1i_accesses: 50001, \
         l1i_misses: 2, l2_accesses: 2, l2_misses: 2, llc_accesses: 2, \
         llc_misses: 2, dram_reads: 2, dram_writes: 0, dram_row_hits: 0, \
         dram_row_misses: 2, dram_token_stall_cycles: 1, writebacks: 0, \
         bank_conflict_cycles: 0, mshr_stall_cycles: 0, bus_busy_cycles: 10, \
         prefetches: 0 }",
    ),
];

const BANANA_PI: Pin = (
    "ML2_BW_st",
    banana_pi_hw,
    603_972,
    "MemStats { l1d_accesses: 144000, l1d_misses: 144000, \
     l1i_accesses: 36001, l1i_misses: 2, l2_accesses: 144002, l2_misses: 5, \
     llc_accesses: 0, llc_misses: 0, dram_reads: 2050, dram_writes: 3, \
     dram_row_hits: 1920, dram_row_misses: 133, dram_token_stall_cycles: 0, \
     writebacks: 143488, bank_conflict_cycles: 333, \
     mshr_stall_cycles: 1749875, bus_busy_cycles: 10265, prefetches: 2048 }",
);

/// Smoke-size CG on `milkv_sim(4)`, four ranks.
const CG_4_RANKS: (u64, &str) = (
    135_176,
    "MemStats { l1d_accesses: 43324, l1d_misses: 786, l1i_accesses: 68652, \
     l1i_misses: 28, l2_accesses: 814, l2_misses: 712, llc_accesses: 712, \
     llc_misses: 697, dram_reads: 665, dram_writes: 32, dram_row_hits: 194, \
     dram_row_misses: 503, dram_token_stall_cycles: 704, writebacks: 22, \
     bank_conflict_cycles: 117736, mshr_stall_cycles: 198, \
     bus_busy_cycles: 3648, prefetches: 0 }",
);

/// `(kernel, platform, core_stats)` of a scale-1 MicroBench cell's one core.
type CorePin = (&'static str, fn(usize) -> SocConfig, &'static str);

const OOO_CORES: [CorePin; 8] = [
    (
        "Cca",
        milkv_hw,
        "CoreStats { cycles: 60172, retired: 240005, branches: 120000, \
         mispredicts: 3, fetch_stall_cycles: 127, data_stall_cycles: \
         2399573, structural_stall_cycles: 59979, tlb_stall_cycles: 0, \
         loads: 0, stores: 0, branch_lookups: 120000, fetch_lines: 4, \
         rob_high_water: 52, lsq_high_water: 0 }",
    ),
    (
        "Cce",
        milkv_hw,
        "CoreStats { cycles: 120204, retired: 330005, branches: 120000, \
         mispredicts: 5, fetch_stall_cycles: 131, data_stall_cycles: \
         6988358, structural_stall_cycles: 119952, tlb_stall_cycles: 0, \
         loads: 0, stores: 0, branch_lookups: 120000, fetch_lines: 6, \
         rob_high_water: 70, lsq_high_water: 0 }",
    ),
    (
        "ML2_BW_ld",
        milkv_hw,
        "CoreStats { cycles: 336433, retired: 360009, branches: 18000, \
         mispredicts: 2, fetch_stall_cycles: 72330, data_stall_cycles: \
         89259, structural_stall_cycles: 10779208, tlb_stall_cycles: 1280, \
         loads: 144000, stores: 0, branch_lookups: 18000, fetch_lines: \
         36001, rob_high_water: 160, lsq_high_water: 32 }",
    ),
    (
        "MM",
        milkv_hw,
        "CoreStats { cycles: 6920543, retired: 400007, branches: 40000, \
         mispredicts: 2, fetch_stall_cycles: 2946, data_stall_cycles: \
         878421251, structural_stall_cycles: 6917529, tlb_stall_cycles: \
         200000, loads: 320000, stores: 0, branch_lookups: 40000, \
         fetch_lines: 4, rob_high_water: 160, lsq_high_water: 1 }",
    ),
    (
        "Cca",
        milkv_sim,
        "CoreStats { cycles: 120187, retired: 240005, branches: 120000, \
         mispredicts: 3, fetch_stall_cycles: 144, data_stall_cycles: \
         3299611, structural_stall_cycles: 119975, tlb_stall_cycles: 0, \
         loads: 0, stores: 0, branch_lookups: 120000, fetch_lines: 4, \
         rob_high_water: 36, lsq_high_water: 0 }",
    ),
    (
        "Cce",
        milkv_sim,
        "CoreStats { cycles: 150220, retired: 330005, branches: 120000, \
         mispredicts: 5, fetch_stall_cycles: 148, data_stall_cycles: \
         5668936, structural_stall_cycles: 119964, tlb_stall_cycles: 0, \
         loads: 0, stores: 0, branch_lookups: 120000, fetch_lines: 6, \
         rob_high_water: 47, lsq_high_water: 0 }",
    ),
    (
        "ML2_BW_ld",
        milkv_sim,
        "CoreStats { cycles: 348748, retired: 360009, branches: 18000, \
         mispredicts: 2, fetch_stall_cycles: 72331, data_stall_cycles: \
         71340, structural_stall_cycles: 2892318, tlb_stall_cycles: 1280, \
         loads: 144000, stores: 0, branch_lookups: 18000, fetch_lines: \
         36001, rob_high_water: 96, lsq_high_water: 24 }",
    ),
    (
        "MM",
        milkv_sim,
        "CoreStats { cycles: 36596644, retired: 400007, branches: 40000, \
         mispredicts: 2, fetch_stall_cycles: 8637, data_stall_cycles: \
         2776778304, structural_stall_cycles: 36574616, tlb_stall_cycles: \
         200000, loads: 320000, stores: 0, branch_lookups: 40000, \
         fetch_lines: 4, rob_high_water: 96, lsq_high_water: 1 }",
    ),
];

fn check((kernel, platform, cycles, mem_stats): Pin) {
    let cfg = platform(1);
    let what = format!("{kernel} on {}", cfg.name);
    let rep = microbench_cell(cfg, kernel, 1).expect("a suite kernel");
    assert_eq!(rep.exit_code, Some(0), "{what}");
    assert_eq!(
        (rep.cycles, format!("{:?}", rep.mem_stats)),
        (cycles, mem_stats.to_string()),
        "{what}"
    );
}

#[test]
fn milkv_cells_report_what_the_parallel_tables_reported() {
    MILKV.into_iter().for_each(check);
}

#[test]
fn a_banana_pi_cell_without_an_llc_reports_what_it_did() {
    check(BANANA_PI);
}

#[test]
fn a_four_rank_milkv_cell_reports_what_it_did() {
    let (world, _) = MpiWork::Cg.launch::<Timed>(&Sizes::smoke(), milkv_sim(4), 4);
    let (cycles, mem_stats) = CG_4_RANKS;
    assert_eq!(
        (world.run.cycles, format!("{:?}", world.run.mem_stats)),
        (cycles, mem_stats.to_string())
    );
}

#[test]
fn milkv_ooo_cores_count_what_the_eager_rob_counted() {
    for (kernel, platform, core_stats) in OOO_CORES {
        let cfg = platform(1);
        let what = format!("{kernel} on {}", cfg.name);
        let rep = microbench_cell(cfg, kernel, 1).expect("a suite kernel");
        assert_eq!(rep.exit_code, Some(0), "{what}");
        assert_eq!(
            format!("{:?}", rep.core_stats),
            format!("[{core_stats}]"),
            "{what}"
        );
    }
}
