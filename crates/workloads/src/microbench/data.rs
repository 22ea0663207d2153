//! Data-parallel kernels (Table 1, "Data"): FP loops over arrays.
//!
//! The original suite distinguishes single- and double-precision
//! variants; our ISA subset carries all FP values in double-precision
//! registers, so the "float" variants use cheaper operation mixes with
//! the same memory behaviour (see DESIGN.md §2).

use bsim_isa::reg::*;
use bsim_isa::{Asm, Program};

/// Array region used by the data kernels.
const ARRAY: i64 = 0x3000_0000;

/// Emits init code filling `n` doubles at [`ARRAY`] with `i * 0.5 + 1.0`.
fn fill_array(a: &mut Asm, n: i64) {
    a.li(S5, ARRAY);
    a.li(T2, 0);
    a.li(T3, n);
    let half = a.data_f64s(&[0.5, 1.0]);
    a.li(T4, half as i64);
    a.fld(FT8, 0, T4);
    a.fld(FT9, 8, T4);
    a.label("fill");
    a.fcvt_d_l(FT0, T2);
    a.fmadd_d(FT0, FT0, FT8, FT9);
    a.slli(T4, T2, 3);
    a.add(T4, T4, S5);
    a.fsd(FT0, 0, T4);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "fill");
}

/// A pass-based data-parallel kernel: `passes` sweeps over `n` doubles,
/// `body(asm, elem_reg)` transforming each element in `ft0`.
fn dp_kernel(n: i64, passes: i64, body: impl Fn(&mut Asm)) -> Program {
    let mut a = Asm::new();
    fill_array(&mut a, n);
    let consts = a.data_f64s(&[1.0000001, 0.9999999]);
    a.li(T4, consts as i64);
    a.fld(FT10, 0, T4);
    a.fld(FT11, 8, T4);
    a.li(T0, 0);
    a.li(T1, passes);
    a.label("pass");
    a.li(T2, 0);
    a.li(T3, n);
    a.mv(T4, S5);
    a.label("elem");
    a.fld(FT0, 0, T4);
    body(&mut a);
    a.fsd(FT0, 0, T4);
    a.addi(T4, T4, 8);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "elem");
    a.addi(T0, T0, 1);
    a.blt(T0, T1, "pass");
    a.exit(0);
    a.assemble().expect("dp kernel")
}

/// DP1d — double arithmetic: `a[i] = a[i] * c + d` (FMA).
pub(crate) fn dp1d(scale: u32) -> Program {
    dp_kernel(2048, 60 * scale as i64, |a| {
        a.fmadd_d(FT0, FT0, FT10, FT11);
    })
}

/// DP1f — "float" arithmetic: a single add per element (cheaper op mix,
/// same traffic).
pub(crate) fn dp1f(scale: u32) -> Program {
    dp_kernel(2048, 60 * scale as i64, |a| {
        a.fadd_d(FT0, FT0, FT11);
    })
}

/// DPT — `a[i] = sin(a[i])` (the libm-call stand-in `fsin.d`).
pub(crate) fn dpt(scale: u32) -> Program {
    dp_kernel(512, 16 * scale as i64, |a| {
        a.fsin_d(FT0, FT0);
    })
}

/// DPTd — double-precision sin: the transcendental plus a dependent
/// multiply (double-precision polynomial tail).
pub(crate) fn dptd(scale: u32) -> Program {
    dp_kernel(512, 14 * scale as i64, |a| {
        a.fsin_d(FT0, FT0);
        a.fmul_d(FT0, FT0, FT10);
    })
}

/// DPcvt — conversion-dominated loop: int → double → arithmetic →
/// back to int.
pub(crate) fn dpcvt(scale: u32) -> Program {
    let n: i64 = 2048;
    let passes = 40 * scale as i64;
    let mut a = Asm::new();
    // Integer array this time.
    a.li(S5, ARRAY);
    a.li(T2, 0);
    a.li(T3, n);
    a.label("fill");
    a.slli(T4, T2, 3);
    a.add(T4, T4, S5);
    a.sd(T2, 0, T4);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "fill");
    let consts = a.data_f64s(&[1.5]);
    a.li(T4, consts as i64);
    a.fld(FT10, 0, T4);
    a.li(T0, 0);
    a.li(T1, passes);
    a.label("pass");
    a.li(T2, 0);
    a.mv(T4, S5);
    a.label("elem");
    a.ld(T5, 0, T4);
    a.fcvt_d_l(FT0, T5);
    a.fmul_d(FT0, FT0, FT10);
    a.fcvt_l_d(T5, FT0);
    a.sd(T5, 0, T4);
    a.addi(T4, T4, 8);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "elem");
    a.addi(T0, T0, 1);
    a.blt(T0, T1, "pass");
    a.exit(0);
    a.assemble().expect("DPcvt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_isa::{Cpu, RunResult};
    use bsim_soc::{configs, Soc};

    #[test]
    fn dp1d_computes_the_recurrence() {
        let mut cpu = Cpu::new(&dp1d(1));
        assert!(matches!(cpu.run(100_000_000), RunResult::Exited(0)));
        // Element 0 starts at 1.0 and is multiplied 60 times by c plus d.
        let mut expect = 1.0f64;
        for _ in 0..60 {
            expect = expect * 1.0000001 + 0.9999999;
        }
        let got = cpu.mem.read_f64(ARRAY as u64);
        assert!((got - expect).abs() < 1e-9, "got {got}, expected {expect}");
    }

    #[test]
    fn dpt_applies_sin() {
        let mut cpu = Cpu::new(&dpt(1));
        assert!(matches!(cpu.run(100_000_000), RunResult::Exited(0)));
        let mut expect = 1.0f64; // element 0 initial value
        for _ in 0..16 {
            expect = expect.sin();
        }
        let got = cpu.mem.read_f64(ARRAY as u64);
        assert!((got - expect).abs() < 1e-12, "got {got}, expected {expect}");
    }

    #[test]
    fn transcendental_kernels_are_much_slower_per_element() {
        let mut s1 = Soc::new(configs::rocket1(1));
        let dp = s1.run_program(0, &dp1f(1), 200_000_000);
        let mut s2 = Soc::new(configs::rocket1(1));
        let tr = s2.run_program(0, &dpt(1), 200_000_000);
        // Per element-visit cost: DPT must be dominated by the fsin latency.
        let dp_cost = dp.cycles as f64 / (2048.0 * 60.0);
        let tr_cost = tr.cycles as f64 / (512.0 * 16.0);
        assert!(
            tr_cost > 5.0 * dp_cost,
            "DPT {tr_cost:.1} cyc/elem vs DP1f {dp_cost:.1}"
        );
    }

    #[test]
    fn dpcvt_roundtrips_integers() {
        let mut cpu = Cpu::new(&dpcvt(1));
        assert!(matches!(cpu.run(200_000_000), RunResult::Exited(0)));
        // Element 2: 2 * 1.5^40 truncated progressively; just check it grew.
        let got = cpu.mem.read_u64(ARRAY as u64 + 16);
        assert!(got > 2, "conversions must round-trip and grow, got {got}");
    }
}
