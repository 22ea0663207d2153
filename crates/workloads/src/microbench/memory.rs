//! Memory kernels (Table 1, "Memory"): DRAM-bound pointer chases.
//!
//! These are the two kernels (MM, MM_st) where the paper measures the
//! *largest* simulation-vs-silicon gap — 35–37 % of Banana Pi and
//! 28–43 % of MILK-V performance — because they are bounded entirely by
//! the external memory, where FireSim's DDR3-2000 model (deep token
//! pipeline, no prefetcher in the Rocket/BOOM targets) meets the real
//! parts' LPDDR4-2666 / DDR4-3200 with hardware stride prefetchers.
//!
//! The list is laid out sequentially (nodes in allocation order, one
//! cache line per node) and the traversal visits each node exactly once
//! per run — cold misses all the way down, so no cache level (not even
//! the MILK-V's 64 MiB LLC) can capture the working set. The ring is
//! the programs' data image, so the timed region is the chase itself.
//!
//! The ring's bytes depend on [`NODES`], [`STRIDE`] and the data base
//! only, not on `scale` and not on the stores, so a program's image is
//! the ring's first `8·iters + 1` nodes: the ones its chase reads and the
//! one MM_st's last store lands on. A scale-1 MM needs 320 001 of the
//! 655 360 nodes, 20 MiB of the 40. [`ring`] keeps the longest ring
//! built so far and hands it to every program that fits in it, on any
//! thread; a program that needs more builds a longer ring, which is kept
//! in its place. A CPU reads the image in place and owns only the pages
//! MM_st's stores touch.

use bsim_isa::asm::DATA_BASE;
use bsim_isa::reg::*;
use bsim_isa::{Asm, Program};
use std::sync::{Arc, Mutex, PoisonError};

/// Ring geometry: 640 Ki nodes × 64 B = 40 MiB, visited at most once.
const NODES: u64 = 640 * 1024;
const STRIDE: u64 = 64;

/// The first `n` nodes of the pointer ring as a data image at
/// [`DATA_BASE`]: node i's first doubleword holds the address of node
/// i+1 (wrapping at [`NODES`]), the rest is zero.
fn build_ring(n: u64) -> Arc<[u8]> {
    let mut ring: Arc<[u8]> = std::iter::repeat_n(0, (n * STRIDE) as usize).collect();
    let bytes = Arc::get_mut(&mut ring).expect("not shared yet");
    for (i, node) in (1..).zip(bytes.chunks_exact_mut(STRIDE as usize)) {
        let next = DATA_BASE + (i % NODES) * STRIDE;
        node[..8].copy_from_slice(&next.to_le_bytes());
    }
    ring
}

/// At least the first `n` nodes of the ring: the longest ring built so
/// far if it holds them, else a new one of `n` nodes, kept in its place.
fn ring(n: u64) -> Arc<[u8]> {
    static RING: Mutex<Option<Arc<[u8]>>> = Mutex::new(None);
    // The slot is only ever replaced whole, so a poisoned lock holds a
    // complete ring or none.
    let mut kept = RING.lock().unwrap_or_else(PoisonError::into_inner);
    match &*kept {
        Some(ring) if ring.len() as u64 >= n * STRIDE => Arc::clone(ring),
        _ => Arc::clone(kept.insert(build_ring(n))),
    }
}

fn mm_kernel(iters: i64, store_too: bool) -> Program {
    let mut a = Asm::new();
    // The ring is the whole data section: its label is the section's start.
    let base = a.data_label("mm_ring");
    assert_eq!(base, DATA_BASE, "the ring is laid out for the data base");

    a.la(S6, "mm_ring");
    a.li(T0, 0);
    a.li(T1, iters);
    a.label("loop");
    for _ in 0..8 {
        a.ld(S6, 0, S6);
        if store_too {
            a.sd(T0, 8, S6);
        }
    }
    a.addi(T0, T0, 1);
    a.blt(T0, T1, "loop");
    a.exit(0);
    Program {
        // The chase reads nodes 0..8·iters; MM_st's last store lands on
        // node 8·iters.
        data: ring(8 * iters as u64 + 1),
        ..a.assemble().expect("MM kernel")
    }
}

/// MM — non-cache-resident linked-list traversal (DRAM bound).
pub(crate) fn mm(scale: u32) -> Program {
    // 8 chases per iteration; cap so we never wrap the ring.
    let iters = (40_000 * scale as i64).min(NODES as i64 / 8 - 1);
    mm_kernel(iters, false)
}

/// MM_st — the same chase, dirtying every visited node.
pub(crate) fn mm_st(scale: u32) -> Program {
    let iters = (35_000 * scale as i64).min(NODES as i64 / 8 - 1);
    mm_kernel(iters, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::{configs, Soc};

    #[test]
    fn a_program_holds_the_first_nodes_of_the_full_ring() {
        let full = build_ring(NODES);
        let node = STRIDE as usize;
        for n in [1, 2, 320_001, NODES] {
            let part = build_ring(n);
            assert_eq!(part.len(), n as usize * node);
            for (i, (a, b)) in part.chunks(node).zip(full.chunks(node)).enumerate() {
                assert_eq!(a, b, "node {i} of a {n}-node ring");
            }
        }
        // 8·iters + 1 nodes: 40 000 and 35 000 iterations per scale,
        // capped at NODES / 8 − 1. Another test may have kept a longer
        // ring, so an image holds at least its nodes.
        for (name, program, nodes) in [
            ("MM x1", mm(1), 320_001),
            ("MM_st x1", mm_st(1), 280_001),
            ("MM x2", mm(2), 640_001),
            ("MM_st x3", mm_st(3), 8 * 81_919 + 1),
        ] {
            let len = nodes * node;
            assert!(program.data.len() >= len, "{name} holds {nodes} nodes");
            assert!(program.data[..len] == full[..len], "{name}'s nodes");
        }
    }

    #[test]
    fn mm_is_dram_bound_even_with_an_llc() {
        let mut soc = Soc::new(configs::milkv_sim(1));
        let rep = soc.run_program(0, &mm(1), 400_000_000);
        assert_eq!(rep.exit_code, Some(0));
        let s = rep.mem_stats;
        // The chase must reach DRAM: every visited line is cold.
        assert!(
            s.llc_misses as f64 > 0.5 * s.llc_accesses as f64,
            "LLC cannot capture a cold chase: {} misses of {}",
            s.llc_misses,
            s.llc_accesses
        );
        assert!(s.dram_reads > 200_000, "chase must stream from DRAM");
    }

    #[test]
    fn mm_st_writes_back() {
        let mut soc = Soc::new(configs::rocket1(1));
        let rep = soc.run_program(0, &mm_st(1), 400_000_000);
        assert!(
            rep.mem_stats.dram_writes > 100_000,
            "dirty lines must be written back"
        );
    }
}
