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
//! The ring is a constant of the suite — its bytes depend on [`NODES`],
//! [`STRIDE`] and the data base only, not on `scale` and not on the
//! stores — so it is one 40 MiB buffer per process ([`ring`]), built on
//! first use, kept until exit and shared by every MM and MM_st program
//! at every scale. A CPU reads it in place and owns only the pages
//! MM_st's stores touch.

use bsim_isa::asm::DATA_BASE;
use bsim_isa::reg::*;
use bsim_isa::{Asm, Program};
use std::sync::{Arc, OnceLock};

/// Ring geometry: 640 Ki nodes × 64 B = 40 MiB, visited at most once.
const NODES: u64 = 640 * 1024;
const STRIDE: u64 = 64;

/// The pointer ring as a data image at [`DATA_BASE`]: node i's first
/// doubleword holds the address of node i+1 (wrapping), the rest is zero.
fn ring() -> Arc<[u8]> {
    static RING: OnceLock<Arc<[u8]>> = OnceLock::new();
    let build = || {
        let mut ring: Arc<[u8]> = std::iter::repeat_n(0, (NODES * STRIDE) as usize).collect();
        let bytes = Arc::get_mut(&mut ring).expect("not shared yet");
        for (i, node) in (1..=NODES).zip(bytes.chunks_exact_mut(STRIDE as usize)) {
            let next = DATA_BASE + (i % NODES) * STRIDE;
            node[..8].copy_from_slice(&next.to_le_bytes());
        }
        ring
    };
    Arc::clone(RING.get_or_init(build))
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
        data: ring(),
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
