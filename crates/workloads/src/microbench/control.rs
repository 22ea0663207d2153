//! Control-flow kernels (Table 1, "Control Flow").

use bsim_isa::asm::with_stack;
use bsim_isa::reg::*;
use bsim_isa::{Asm, Program};

/// Seeds the in-kernel LCG (state in `s2`, constants in `s3`/`s4`).
fn lcg_init(a: &mut Asm) {
    a.li(S2, 0x243F_6A88_85A3_08D3u64 as i64);
    a.li(S3, 6364136223846793005u64 as i64);
    a.li(S4, 1442695040888963407u64 as i64);
}

/// Advances the LCG: `s2 = s2 * s3 + s4`.
fn lcg_next(a: &mut Asm) {
    a.mul(S2, S2, S3);
    a.add(S2, S2, S4);
}

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

/// Cca — completely biased branch: taken every iteration.
pub(crate) fn cca(scale: u32) -> Program {
    let mut a = Asm::new();
    loop_head(&mut a, 60_000 * scale as i64);
    a.bge(T0, ZERO, "skip"); // always true
    a.addi(S5, S5, 1); // never executed
    a.label("skip");
    a.addi(S6, S6, 1);
    loop_tail(&mut a);
    a.assemble().expect("Cca")
}

/// Cce — alternating branches: taken/not-taken with period 2.
pub(crate) fn cce(scale: u32) -> Program {
    let mut a = Asm::new();
    loop_head(&mut a, 60_000 * scale as i64);
    a.andi(T2, T0, 1);
    a.beqz(T2, "even");
    a.addi(S5, S5, 1);
    a.label("even");
    a.addi(S6, S6, 1);
    loop_tail(&mut a);
    a.assemble().expect("Cce")
}

/// CCh — random control flow: branch direction from an LCG bit.
pub(crate) fn cch(scale: u32) -> Program {
    let mut a = Asm::new();
    lcg_init(&mut a);
    loop_head(&mut a, 50_000 * scale as i64);
    lcg_next(&mut a);
    a.srli(T2, S2, 60);
    a.andi(T2, T2, 1);
    a.beqz(T2, "not_taken");
    a.addi(S5, S5, 1);
    a.label("not_taken");
    a.addi(S6, S6, 1);
    loop_tail(&mut a);
    a.assemble().expect("CCh")
}

/// CCh_st — unpredictable control plus stores on both paths.
pub(crate) fn cch_st(scale: u32) -> Program {
    let mut a = Asm::new();
    lcg_init(&mut a);
    let buf = a.data_zeros(4096);
    a.li(S6, buf as i64);
    loop_head(&mut a, 50_000 * scale as i64);
    lcg_next(&mut a);
    a.srli(T2, S2, 60);
    a.andi(T2, T2, 1);
    a.andi(T3, T0, 511); // rotating slot in the buffer
    a.slli(T3, T3, 3);
    a.add(T3, T3, S6);
    a.beqz(T2, "path_b");
    a.sd(S2, 0, T3);
    a.j("join");
    a.label("path_b");
    a.sd(T0, 0, T3);
    a.label("join");
    loop_tail(&mut a);
    a.assemble().expect("CCh_st")
}

/// CCl — impossible-to-predict control selecting between two large
/// (48-instruction) basic blocks.
pub(crate) fn ccl(scale: u32) -> Program {
    let mut a = Asm::new();
    lcg_init(&mut a);
    loop_head(&mut a, 12_000 * scale as i64);
    lcg_next(&mut a);
    a.srli(T2, S2, 60);
    a.andi(T2, T2, 1);
    a.beqz(T2, "block_b");
    for i in 0..48 {
        a.addi(S5, S5, i % 7);
    }
    a.j("ccl_join");
    a.label("block_b");
    for i in 0..48 {
        a.addi(S6, S6, i % 5);
    }
    a.label("ccl_join");
    loop_tail(&mut a);
    a.assemble().expect("CCl")
}

/// CCm — heavily biased branches: taken ~15/16 of the time.
pub(crate) fn ccm(scale: u32) -> Program {
    let mut a = Asm::new();
    lcg_init(&mut a);
    loop_head(&mut a, 50_000 * scale as i64);
    lcg_next(&mut a);
    a.srli(T2, S2, 58);
    a.andi(T2, T2, 15);
    a.bnez(T2, "common"); // ~15/16 taken
    a.addi(S5, S5, 1); // rare path
    a.label("common");
    a.addi(S6, S6, 1);
    loop_tail(&mut a);
    a.assemble().expect("CCm")
}

/// CF1 — function-call overhead: tiny callee containing its own loop
/// (what a compiler would decide to inline or not).
pub(crate) fn cf1(scale: u32) -> Program {
    let mut a = Asm::new();
    with_stack(&mut a);
    loop_head(&mut a, 15_000 * scale as i64);
    a.call("leaf");
    loop_tail(&mut a);
    a.label("leaf");
    // 4-iteration inner loop in the callee.
    a.li(T2, 0);
    a.li(T3, 4);
    a.label("leaf_loop");
    a.add(S5, S5, T2);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "leaf_loop");
    a.ret();
    a.assemble().expect("CF1")
}

/// CRd — recursion 1000 deep, repeated.
pub(crate) fn crd(scale: u32) -> Program {
    let mut a = Asm::new();
    with_stack(&mut a);
    loop_head(&mut a, 60 * scale as i64);
    a.li(A0, 1000);
    a.call("rec");
    loop_tail(&mut a);
    // rec(n): if n == 0 return; rec(n - 1)
    a.label("rec");
    a.beqz(A0, "rec_done");
    a.addi(SP, SP, -16);
    a.sd(RA, 0, SP);
    a.addi(A0, A0, -1);
    a.call("rec");
    a.ld(RA, 0, SP);
    a.addi(SP, SP, 16);
    a.label("rec_done");
    a.ret();
    a.assemble().expect("CRd")
}

/// CRf — recursive Fibonacci (branchy, unbalanced call tree).
pub(crate) fn crf(scale: u32) -> Program {
    let mut a = Asm::new();
    with_stack(&mut a);
    loop_head(&mut a, 6 * scale as i64);
    a.li(A0, 17);
    a.call("fib");
    loop_tail(&mut a);
    // fib(n): n < 2 ? n : fib(n-1) + fib(n-2)
    a.label("fib");
    a.li(T2, 2);
    a.blt(A0, T2, "fib_base");
    a.addi(SP, SP, -32);
    a.sd(RA, 0, SP);
    a.sd(A0, 8, SP);
    a.addi(A0, A0, -1);
    a.call("fib");
    a.sd(A0, 16, SP); // fib(n-1)
    a.ld(A0, 8, SP);
    a.addi(A0, A0, -2);
    a.call("fib");
    a.ld(T3, 16, SP);
    a.add(A0, A0, T3);
    a.ld(RA, 0, SP);
    a.addi(SP, SP, 32);
    a.label("fib_base");
    a.ret();
    a.assemble().expect("CRf")
}

/// CRm — recursive merge sort over a 256-element array.
///
/// Excluded from all figure-level results, exactly as in the paper
/// (§3.2.1: CRm segfaulted on every platform); kept here so the suite
/// is complete and the kernel remains runnable.
pub(crate) fn crm(scale: u32) -> Program {
    const N: i64 = 256;
    let mut a = Asm::new();
    with_stack(&mut a);
    // Source array (pseudo-random) and scratch buffer.
    a.data_label("crm_src");
    a.data_zeros(N as usize * 8);
    a.data_label("crm_tmp");
    a.data_zeros(N as usize * 8);
    loop_head(&mut a, 6 * scale as i64);
    {
        // (Re)fill the array with LCG values each outer iteration.
        lcg_init(&mut a);
        a.la(S5, "crm_src");
        a.li(T2, 0);
        a.li(T3, N);
        a.label("fill");
        lcg_next(&mut a);
        a.slli(T4, T2, 3);
        a.add(T4, T4, S5);
        a.srli(T5, S2, 40);
        a.sd(T5, 0, T4);
        a.addi(T2, T2, 1);
        a.blt(T2, T3, "fill");
    }
    // msort(lo = a0, hi = a1) over crm_src using crm_tmp.
    a.li(A0, 0);
    a.li(A1, N);
    a.call("msort");
    loop_tail(&mut a);

    a.label("msort");
    // if hi - lo < 2: return
    a.sub(T2, A1, A0);
    a.li(T3, 2);
    a.blt(T2, T3, "msort_ret");
    a.addi(SP, SP, -48);
    a.sd(RA, 0, SP);
    a.sd(A0, 8, SP);
    a.sd(A1, 16, SP);
    // mid = (lo + hi) / 2
    a.add(T2, A0, A1);
    a.srli(T2, T2, 1);
    a.sd(T2, 24, SP);
    // msort(lo, mid)
    a.mv(A1, T2);
    a.call("msort");
    // msort(mid, hi)
    a.ld(A0, 24, SP);
    a.ld(A1, 16, SP);
    a.call("msort");
    // merge [lo, mid) and [mid, hi) into tmp, then copy back.
    a.ld(T2, 8, SP); // i = lo
    a.ld(T3, 24, SP); // j = mid
    a.ld(T4, 16, SP); // hi
    a.la(S5, "crm_src");
    a.la(S6, "crm_tmp");
    a.mv(T5, T2); // k = lo (tmp index)
    a.label("merge_loop");
    a.ld(T6, 24, SP); // mid
    a.bge(T2, T6, "take_right_if_any");
    a.bge(T3, T4, "take_left");
    // both sides non-empty: compare a[i] and a[j]
    a.slli(S7, T2, 3);
    a.add(S7, S7, S5);
    a.ld(S8, 0, S7); // a[i]
    a.slli(S9, T3, 3);
    a.add(S9, S9, S5);
    a.ld(S10, 0, S9); // a[j]
    a.bge(S10, S8, "take_left");
    a.j("take_right");
    a.label("take_right_if_any");
    a.bge(T3, T4, "merge_done");
    a.label("take_right");
    a.slli(S9, T3, 3);
    a.add(S9, S9, S5);
    a.ld(S8, 0, S9);
    a.addi(T3, T3, 1);
    a.j("emit");
    a.label("take_left");
    a.slli(S7, T2, 3);
    a.add(S7, S7, S5);
    a.ld(S8, 0, S7);
    a.addi(T2, T2, 1);
    a.label("emit");
    a.slli(S7, T5, 3);
    a.add(S7, S7, S6);
    a.sd(S8, 0, S7);
    a.addi(T5, T5, 1);
    a.blt(T5, T4, "merge_loop");
    a.label("merge_done");
    // copy tmp[lo..hi) back to src
    a.ld(T2, 8, SP);
    a.label("copy_back");
    a.bge(T2, T4, "copy_done");
    a.slli(S7, T2, 3);
    a.add(S8, S7, S6);
    a.ld(S9, 0, S8);
    a.add(S8, S7, S5);
    a.sd(S9, 0, S8);
    a.addi(T2, T2, 1);
    a.j("copy_back");
    a.label("copy_done");
    a.ld(RA, 0, SP);
    a.addi(SP, SP, 48);
    a.label("msort_ret");
    a.ret();
    a.assemble().expect("CRm")
}

/// Emits an 8-way computed-goto switch body; `pick` must leave the case
/// index (0–7) in `t2` each iteration.
fn switch_kernel(iters: i64, pick: impl Fn(&mut Asm)) -> Program {
    let mut a = Asm::new();
    lcg_init(&mut a);
    a.li(S6, 0); // CS3 phase counter
    a.li(S7, 0); // CS3 current case
    loop_head(&mut a, iters);
    pick(&mut a);
    // Compute the jump target: anchor + 16 (the 4 insts below) + case*32.
    a.jal(T4, "anchor");
    a.label("anchor");
    a.slli(T5, T2, 5);
    a.add(T4, T4, T5);
    a.addi(T4, T4, 16);
    a.jr(T4);
    for case in 0..8 {
        // Exactly 8 instructions (32 bytes) per case block.
        for k in 0..7 {
            a.addi(S5, S5, (case + k) % 9);
        }
        a.j("switch_join");
    }
    a.label("switch_join");
    loop_tail(&mut a);
    a.assemble().expect("switch kernel")
}

/// CS1 — switch taking a different (random) case every iteration.
pub(crate) fn cs1(scale: u32) -> Program {
    switch_kernel(25_000 * scale as i64, |a| {
        lcg_next(a);
        a.srli(T2, S2, 61); // top 3 bits: case 0..7
    })
}

/// CS3 — switch whose case changes every third iteration.
pub(crate) fn cs3(scale: u32) -> Program {
    switch_kernel(25_000 * scale as i64, |a| {
        a.addi(S6, S6, 1);
        a.li(T2, 3);
        a.blt(S6, T2, "keep_case");
        a.li(S6, 0);
        lcg_next(a);
        a.srli(S7, S2, 61);
        a.label("keep_case");
        a.mv(T2, S7);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_isa::{Cpu, RunResult};

    fn dyn_len(p: &Program) -> u64 {
        let mut cpu = Cpu::new(p);
        assert!(matches!(cpu.run(100_000_000), RunResult::Exited(0)));
        cpu.instret
    }

    #[test]
    fn ccl_has_large_basic_blocks() {
        // CCl should average far more instructions per branch than CCh.
        let cch_len = dyn_len(&cch(1)) as f64 / 50_000.0;
        let ccl_len = dyn_len(&ccl(1)) as f64 / 12_000.0;
        assert!(
            ccl_len > 3.0 * cch_len,
            "CCl {ccl_len:.1} vs CCh {cch_len:.1} inst/iter"
        );
    }

    #[test]
    fn recursion_depth_is_1000() {
        // CRd must touch ~1000 stack frames * 16 bytes below the stack top.
        let p = crd(1);
        let mut cpu = Cpu::new(&p);
        assert!(matches!(cpu.run(100_000_000), RunResult::Exited(0)));
        // 1000 frames * 16 B = 16 KiB = 4 pages + slack.
        assert!(cpu.mem.resident_pages() >= 4);
    }

    #[test]
    fn merge_sort_actually_sorts() {
        let p = crm(1);
        let mut cpu = Cpu::new(&p);
        assert!(matches!(cpu.run(100_000_000), RunResult::Exited(0)));
        // Find the array: it is the first data symbol (crm_src at DATA_BASE).
        let base = bsim_isa::asm::DATA_BASE;
        let vals: Vec<u64> = (0..256).map(|i| cpu.mem.read_u64(base + 8 * i)).collect();
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(vals, sorted, "CRm must leave the array sorted");
        assert!(vals.iter().any(|&v| v != 0), "array must have been filled");
    }

    #[test]
    fn switch_kernels_visit_all_cases() {
        // CS1's random selector should exercise every case block; we
        // check by instruction footprint: all 8 blocks execute.
        let p = cs1(1);
        let mut cpu = Cpu::new(&p);
        let mut pcs = std::collections::HashSet::new();
        let r = cpu.run_traced(100_000_000, |ret| {
            pcs.insert(ret.pc);
        });
        assert!(matches!(r, RunResult::Exited(0)));
        // 8 case blocks * 8 instructions each: at least 64 distinct PCs
        // beyond the loop scaffolding.
        assert!(pcs.len() > 64, "only {} distinct PCs", pcs.len());
    }
}
