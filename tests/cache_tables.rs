//! A cache holds set records only for the chunks of sets it has filled,
//! and the out-of-order core's ROB is drained lazily; neither moves a
//! simulated number. Each test checks its MicroBench cells' whole
//! `RunReport` (cycles, `CoreStats`, `MemStats`) against the golden store
//! (`tests/golden.json`), whose entries equal what the last binary with
//! four parallel `sets × ways` tables per cache, and an eagerly drained
//! ROB ring, printed. The four-rank MILK-V world is
//! `golden.rs::mpi_worlds`'s.

mod common;
mod pins;

use pins::check;

/// MILK-V cells that hit and miss the LLC, write dirty L2 victims into
/// it, evict dirty LLC lines to DRAM and train the prefetcher.
#[test]
fn milkv_cells_report_what_the_parallel_tables_reported() {
    check(&[
        "micro EM5 milkv_hw",
        "micro MC milkv_hw",
        "micro ML2_BW_ld milkv_hw",
        "micro ML2_BW_st milkv_hw",
        "micro CCh_st milkv_sim",
        "micro EM5 milkv_sim",
        "micro MC milkv_sim",
        "micro ML2_BW_st milkv_sim",
    ]);
}

#[test]
fn a_banana_pi_cell_without_an_llc_reports_what_it_did() {
    check(&["micro ML2_BW_st banana_pi_hw"]);
}

/// Branch kernels and a load stream on both MILK-V platforms:
/// `rob_high_water` is the field a change to the ROB bookkeeping gets
/// wrong first.
#[test]
fn milkv_ooo_cores_count_what_the_eager_rob_counted() {
    check(&[
        "micro Cca milkv_hw",
        "micro Cce milkv_hw",
        "micro Cce milkv_sim",
        "micro ML2_BW_ld milkv_sim",
    ]);
}
