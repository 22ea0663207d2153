//! A program's data image exists once: the two pointer-ring kernels (MM,
//! MM_st) share one 40 MiB buffer per process, a CPU reads it in place
//! and owns only the pages it stores to — and none of that moves a
//! simulated number.

use silicon_bridge::isa::mem::PAGE_SIZE;
use silicon_bridge::isa::{Cpu, Program, RunResult};
use silicon_bridge::soc::{configs, Soc};
use silicon_bridge::workloads::microbench;
use std::sync::{Arc, Barrier};

/// `(cycles, retired, dram_reads, dram_writes)` of a scale-1 cell on
/// `milkv_hw(1)`, printed by the binary of the commit before the ring was
/// shared (every image copied into every CPU).
const MM: (u64, u64, u64, u64) = (6_920_543, 400_007, 320_006, 0);
const MM_ST: (u64, u64, u64, u64) = (22_272_105, 630_007, 280_005, 17_862);

fn build(kernel: &str, scale: u32) -> Program {
    microbench::find(kernel)
        .expect("a suite kernel")
        .build(scale)
}

fn cell(kernel: &str) -> (u64, u64, u64, u64) {
    let rep = Soc::new(configs::milkv_hw(1)).run_program(0, &build(kernel, 1), u64::MAX);
    assert_eq!(rep.exit_code, Some(0), "{kernel}");
    let mem = rep.mem_stats;
    (rep.cycles, rep.retired, mem.dram_reads, mem.dram_writes)
}

#[test]
fn ring_kernels_report_what_they_did_with_a_copied_image() {
    assert_eq!(cell("MM"), MM);
    assert_eq!(cell("MM_st"), MM_ST);
}

#[test]
fn every_ring_program_holds_the_one_buffer() {
    let mm = build("MM", 1);
    assert_eq!(mm.data.len(), 40 << 20);
    for (kernel, scale) in [("MM", 1), ("MM", 7), ("MM_st", 3)] {
        let other = build(kernel, scale);
        assert!(
            Arc::ptr_eq(&mm.data, &other.data),
            "{kernel} at scale {scale} built a second ring"
        );
    }
}

#[test]
fn a_cpu_owns_only_the_pages_it_wrote() {
    let code_pages = |p: &Program| (4 * p.len()).div_ceil(PAGE_SIZE);

    let mm = build("MM", 1);
    let mut cpu = Cpu::new(&mm);
    assert_eq!(cpu.run(u64::MAX), RunResult::Exited(0));
    assert_eq!(
        cpu.mem.resident_pages(),
        code_pages(&mm),
        "MM stores nothing"
    );

    // MM_st dirties nodes 1..=280 000, 64 B each: 4 375 pages and the
    // first line of the next.
    let st = build("MM_st", 1);
    let mut cpu = Cpu::new(&st);
    assert_eq!(cpu.run(u64::MAX), RunResult::Exited(0));
    let dirtied = 280_000 * 64 / PAGE_SIZE + 1;
    assert_eq!(cpu.mem.resident_pages(), code_pages(&st) + dirtied);

    // The stores landed in the CPU's pages, not in the shared ring: node 9
    // is written in the loop's second trip (counter 1) at offset 8.
    let slot = 9 * 64 + 8;
    assert_eq!(cpu.mem.read_u64(st.data_base + slot as u64), 1);
    assert_eq!(st.data[slot..slot + 8], [0; 8]);
    assert_eq!(Cpu::new(&st).mem.read_u64(st.data_base + slot as u64), 0);
}

#[test]
fn two_threads_over_the_shared_ring_each_match_the_sequential_report() {
    let start = Barrier::new(2);
    let reports = std::thread::scope(|s| {
        let run = || {
            start.wait();
            cell("MM_st")
        };
        let (a, b) = (s.spawn(run), s.spawn(run));
        [a.join().expect("no panic"), b.join().expect("no panic")]
    });
    assert_eq!(reports, [MM_ST, MM_ST]);
}
