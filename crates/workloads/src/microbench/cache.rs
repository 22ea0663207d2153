//! Cache kernels (Table 1, "Cache"): conflicts, bandwidth, latency and
//! store behaviour in the L1/L2 hierarchy.

use bsim_isa::reg::*;
use bsim_isa::{Asm, Program};

/// Scratch heap region used by the cache kernels (outside code/data).
const HEAP: i64 = 0x2000_0000;

fn loop_head(a: &mut Asm, iters: i64) {
    a.li(T0, 0);
    a.li(T1, iters);
    a.label("loop");
}

fn loop_tail(a: &mut Asm) {
    a.addi(T0, T0, 1);
    a.blt(T0, T1, "loop");
    a.exit(0);
}

/// Emits init code building a pointer ring: `nodes` nodes of `stride`
/// bytes (stride a power of two) starting at `base`; each node's first
/// doubleword points to the next node, wrapping at the end. Leaves the
/// ring head address in `s5`.
fn build_ring(a: &mut Asm, base: i64, nodes: i64, stride: i64) {
    assert!(stride.count_ones() == 1 && stride >= 8);
    let shift = stride.trailing_zeros() as u8;
    a.li(S5, base);
    a.li(T2, 0);
    a.li(T3, nodes);
    a.label("ring_init");
    a.slli(T4, T2, shift);
    a.add(T4, T4, S5); // addr of node i
    a.addi(T5, T2, 1);
    a.bne(T5, T3, "ring_nowrap");
    a.li(T5, 0);
    a.label("ring_nowrap");
    a.slli(T6, T5, shift);
    a.add(T6, T6, S5); // addr of node i+1 (mod nodes)
    a.sd(T6, 0, T4);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "ring_init");
}

/// A pointer-chase kernel over a ring of the given geometry.
fn chase_kernel(nodes: i64, stride: i64, iters: i64, store_too: bool) -> Program {
    let mut a = Asm::new();
    build_ring(&mut a, HEAP, nodes, stride);
    a.mv(S6, S5); // p = head
    loop_head(&mut a, iters);
    for _ in 0..8 {
        a.ld(S6, 0, S6);
        if store_too {
            a.sd(T0, 8, S6); // dirty the visited line
        }
    }
    loop_tail(&mut a);
    a.assemble().expect("chase kernel")
}

/// MD — linked-list traversal resident in the L1 D-cache
/// (256 nodes × 64 B = 16 KiB).
pub fn md(scale: u32) -> Program {
    chase_kernel(256, 64, 12_000 * scale as i64, false)
}

/// ML2 — linked-list traversal resident in the L2 but not the L1
/// (2048 nodes × 64 B = 128 KiB footprint).
pub(crate) fn ml2(scale: u32) -> Program {
    chase_kernel(2048, 64, 9_000 * scale as i64, false)
}

/// ML2_st — the L2 linked list with a store to every visited node.
pub(crate) fn ml2_st(scale: u32) -> Program {
    chase_kernel(2048, 64, 7_000 * scale as i64, true)
}

/// A streaming pass over an L2-resident region (128 KiB), with a
/// load/store mix selected per unrolled slot.
fn l2_stream_kernel(iters: i64, slot_is_store: [bool; 8]) -> Program {
    const REGION: i64 = 128 * 1024;
    let mut a = Asm::new();
    a.li(S5, HEAP);
    a.li(S6, 0); // offset
    a.li(S7, REGION - 1);
    loop_head(&mut a, iters);
    for (i, &st) in slot_is_store.iter().enumerate() {
        a.add(T2, S5, S6);
        if st {
            a.sd(T0, (i * 64) as i32, T2);
        } else {
            a.ld(T3, (i * 64) as i32, T2);
        }
    }
    a.addi(S6, S6, 512); // 8 lines consumed
    a.and(S6, S6, S7); // wrap inside the region
    loop_tail(&mut a);
    a.assemble().expect("l2 stream kernel")
}

/// ML2_BW_ld — bandwidth-limited loads over the L2 region.
pub(crate) fn ml2_bw_ld(scale: u32) -> Program {
    l2_stream_kernel(18_000 * scale as i64, [false; 8])
}

/// ML2_BW_st — bandwidth-limited stores over the L2 region.
pub(crate) fn ml2_bw_st(scale: u32) -> Program {
    l2_stream_kernel(18_000 * scale as i64, [true; 8])
}

/// ML2_BW_ldst — alternating loads and stores over the L2 region.
pub(crate) fn ml2_bw_ldst(scale: u32) -> Program {
    l2_stream_kernel(
        18_000 * scale as i64,
        [false, true, false, true, false, true, false, true],
    )
}

/// STL2 — repeated store passes over an L2-resident region.
pub(crate) fn stl2(scale: u32) -> Program {
    l2_stream_kernel(14_000 * scale as i64, [true; 8])
}

/// STL2b — mostly loads with an occasional store, L2 resident.
pub(crate) fn stl2b(scale: u32) -> Program {
    l2_stream_kernel(
        14_000 * scale as i64,
        [false, false, false, true, false, false, false, false],
    )
}

/// STc — repeated stores to one L1-resident cache line.
pub(crate) fn stc(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, HEAP);
    loop_head(&mut a, 40_000 * scale as i64);
    for i in 0..8 {
        a.sd(T0, i * 8, S5);
    }
    loop_tail(&mut a);
    a.assemble().expect("STc")
}

/// A conflict-miss kernel: 32 lines spaced one way-size apart, so many
/// more lines map to each L1 set than it has ways.
fn conflict_kernel(iters: i64, with_stores: bool) -> Program {
    const WAY_STRIDE: i64 = 4096; // >= sets*line for both L1 geometries
    let mut a = Asm::new();
    a.li(S5, HEAP);
    a.li(S7, WAY_STRIDE);
    loop_head(&mut a, iters);
    a.mv(T4, S5);
    for _ in 0..32 {
        a.ld(T2, 0, T4);
        if with_stores {
            a.sd(T2, 8, T4);
        }
        a.add(T4, T4, S7); // next same-set line, one way-size away
    }
    loop_tail(&mut a);
    a.assemble().expect("conflict kernel")
}

/// MC — conflict misses (32 same-set lines vs. 8 ways).
pub fn mc(scale: u32) -> Program {
    conflict_kernel(6_000 * scale as i64, false)
}

/// MCS — conflict misses with stores (dirty thrashing).
pub(crate) fn mcs(scale: u32) -> Program {
    conflict_kernel(5_000 * scale as i64, true)
}

/// MI — independent cache-resident loads that collide on one cache bank
/// (stride = bank period), stressing bank arbitration.
pub fn mi(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, HEAP);
    loop_head(&mut a, 25_000 * scale as i64);
    for i in 0..8 {
        a.ld(T2, i * 256, S5); // every 4th line: same bank when banks=4
    }
    loop_tail(&mut a);
    a.assemble().expect("MI")
}

/// MIM — independent cache-resident loads with no conflicts
/// (consecutive lines, distinct banks).
pub(crate) fn mim(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, HEAP);
    loop_head(&mut a, 25_000 * scale as i64);
    for i in 0..8 {
        a.ld(T2, i * 64, S5);
    }
    loop_tail(&mut a);
    a.assemble().expect("MIM")
}

/// MIM2 — pairs of loads to the same line (coalescing opportunity).
pub(crate) fn mim2(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, HEAP);
    loop_head(&mut a, 25_000 * scale as i64);
    for i in 0..4 {
        a.ld(T2, i * 64, S5);
        a.ld(T3, i * 64 + 8, S5);
    }
    loop_tail(&mut a);
    a.assemble().expect("MIM2")
}

/// MIP — instruction-cache misses: a straight-line code footprint much
/// larger than the L1 I-cache, walked every iteration.
pub(crate) fn mip(scale: u32) -> Program {
    const BLOCKS: usize = 1200; // 1200 * 64 B = 75 KiB of code
    let mut a = Asm::new();
    a.li(T0, 0);
    a.li(T1, 25 * scale as i64);
    a.label("top");
    a.blt(T0, T1, "body");
    a.j("done");
    a.label("body");
    for b in 0..BLOCKS {
        // 16 instructions = one 64-byte I-cache line per block.
        for k in 0..16 {
            a.addi(S5, S5, ((b + k) % 13) as i32);
        }
    }
    a.addi(T0, T0, 1);
    a.j("top");
    a.label("done");
    a.exit(0);
    a.assemble().expect("MIP")
}

/// M_Dyn — loads and stores with dynamic (value-dependent) address
/// dependencies: each address is computed from the previously loaded
/// value, serializing through the memory system.
pub(crate) fn m_dyn(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, HEAP);
    a.li(S6, 0x1234_5678);
    a.li(S7, 2040); // address mask (within 2 KiB, 8-byte aligned)
    loop_head(&mut a, 40_000 * scale as i64);
    // addr = base + ((x * 9) & mask)
    a.slli(T2, S6, 3);
    a.add(T2, T2, S6);
    a.and(T2, T2, S7);
    a.add(T2, T2, S5);
    a.sd(S6, 0, T2);
    a.ld(T3, 0, T2); // forwarded from the store
    a.addi(S6, T3, 1);
    loop_tail(&mut a);
    a.assemble().expect("M_Dyn")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_isa::{Cpu, RunResult};
    use bsim_soc::{configs, Soc};

    fn report(p: &Program) -> bsim_soc::RunReport {
        let mut soc = Soc::new(configs::rocket1(1));
        soc.run_program(0, p, 200_000_000)
    }

    #[test]
    fn md_stays_in_l1() {
        let rep = report(&md(1));
        let s = rep.mem_stats;
        // After the ring is built, traversal hits L1: overall miss rate tiny.
        assert!(
            s.l1d_miss_rate() < 0.02,
            "MD should be L1-resident, miss rate {}",
            s.l1d_miss_rate()
        );
    }

    #[test]
    fn ml2_misses_l1_hits_l2() {
        let rep = report(&ml2(1));
        let s = rep.mem_stats;
        assert!(
            s.l1d_miss_rate() > 0.3,
            "ML2 must thrash L1, got {}",
            s.l1d_miss_rate()
        );
        assert!(
            s.l2_miss_rate() < 0.1,
            "ML2 must fit L2, got {}",
            s.l2_miss_rate()
        );
    }

    #[test]
    fn conflict_kernel_thrashes_despite_tiny_footprint() {
        let rep = report(&mc(1));
        let s = rep.mem_stats;
        // 32 lines would easily fit the 512-line L1 if not for conflicts.
        assert!(
            s.l1d_miss_rate() > 0.5,
            "MC miss rate {}",
            s.l1d_miss_rate()
        );
        assert!(s.l2_miss_rate() < 0.1, "MC should still fit L2");
    }

    #[test]
    fn mim_is_cheaper_than_mi_on_banked_l1() {
        // Same load count; MI collides on one bank, MIM does not. Bank
        // arbitration only matters on a machine with more than one memory
        // port, so compare on the SG2042 hardware reference.
        let mut soc_a = Soc::new(configs::milkv_hw(1));
        let a = soc_a.run_program(0, &mi(1), 200_000_000).cycles;
        let mut soc_b = Soc::new(configs::milkv_hw(1));
        let b = soc_b.run_program(0, &mim(1), 200_000_000).cycles;
        assert!(a > b, "bank conflicts must cost cycles: MI {a} vs MIM {b}");
    }

    #[test]
    fn mip_misses_the_icache() {
        let rep = report(&mip(1));
        let s = rep.mem_stats;
        assert!(
            s.l1i_misses > 10_000,
            "MIP must generate I-cache misses, got {}",
            s.l1i_misses
        );
    }

    #[test]
    fn m_dyn_serializes_through_memory() {
        let mut cpu = Cpu::new(&m_dyn(1));
        assert!(matches!(cpu.run(100_000_000), RunResult::Exited(0)));
    }

    #[test]
    fn store_kernels_generate_writebacks() {
        let rep = report(&mcs(1));
        assert!(
            rep.mem_stats.writebacks > 1000,
            "dirty conflict lines must write back"
        );
    }
}
