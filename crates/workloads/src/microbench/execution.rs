//! Execution kernels (Table 1, "Execution"): functional-unit throughput
//! versus dependency-chain latency.

use bsim_isa::reg::*;
use bsim_isa::{Asm, Program};

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

/// ED1 — serial integer ALU dependency chain (1 op per step, fully
/// serialized on every machine regardless of width).
pub(crate) fn ed1(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, 1);
    a.li(S6, 3);
    loop_head(&mut a, 40_000 * scale as i64);
    for _ in 0..16 {
        a.add(S5, S5, S6); // each add depends on the previous
    }
    loop_tail(&mut a);
    a.assemble().expect("ED1")
}

/// EM1 — serial integer *multiply* chain: exposes multiply latency.
pub(crate) fn em1(scale: u32) -> Program {
    let mut a = Asm::new();
    a.li(S5, 3);
    a.li(S6, 5);
    loop_head(&mut a, 25_000 * scale as i64);
    for _ in 0..8 {
        a.mul(S5, S5, S6);
    }
    loop_tail(&mut a);
    a.assemble().expect("EM1")
}

/// EM5 — five interleaved multiply chains: enough ILP to keep a
/// pipelined multiplier busy, so throughput-bound rather than
/// latency-bound.
pub(crate) fn em5(scale: u32) -> Program {
    let mut a = Asm::new();
    for (i, r) in [S5, S6, S7, S8, S9].iter().enumerate() {
        a.li(*r, 3 + i as i64);
    }
    a.li(S10, 7);
    loop_head(&mut a, 25_000 * scale as i64);
    for _ in 0..2 {
        for r in [S5, S6, S7, S8, S9] {
            a.mul(r, r, S10);
        }
    }
    loop_tail(&mut a);
    a.assemble().expect("EM5")
}

/// EF — 8 independent FP instructions per iteration.
pub(crate) fn ef(scale: u32) -> Program {
    let mut a = Asm::new();
    let consts = a.data_f64s(&[1.000000001, 0.999999999]);
    a.li(T2, consts as i64);
    a.fld(FT8, 0, T2);
    a.fld(FT9, 8, T2);
    for i in 0..8u8 {
        a.fmv_d(bsim_isa::FReg(i), FT8);
    }
    loop_head(&mut a, 25_000 * scale as i64);
    for i in 0..8u8 {
        a.fmul_d(bsim_isa::FReg(i), bsim_isa::FReg(i), FT9);
    }
    loop_tail(&mut a);
    a.assemble().expect("EF")
}

/// EI — 8 independent integer computations per iteration.
pub(crate) fn ei(scale: u32) -> Program {
    let mut a = Asm::new();
    for (i, r) in [S5, S6, S7, S8, S9, S10, S11, T3].iter().enumerate() {
        a.li(*r, i as i64 + 1);
    }
    loop_head(&mut a, 25_000 * scale as i64);
    for r in [S5, S6, S7, S8, S9, S10, S11, T3] {
        a.addi(r, r, 7);
    }
    loop_tail(&mut a);
    a.assemble().expect("EI")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_isa::{Cpu, RunResult};
    use bsim_soc::{configs, Soc};

    fn cycles_on(cfg: bsim_soc::SocConfig, p: &Program) -> u64 {
        let mut soc = Soc::new(cfg);
        let rep = soc.run_program(0, p, 100_000_000);
        assert_eq!(rep.exit_code, Some(0));
        rep.cycles
    }

    #[test]
    fn all_execute_functionally() {
        for (name, p) in [
            ("ED1", ed1(1)),
            ("EM1", em1(1)),
            ("EM5", em5(1)),
            ("EF", ef(1)),
            ("EI", ei(1)),
        ] {
            let mut cpu = Cpu::new(&p);
            assert!(
                matches!(cpu.run(100_000_000), RunResult::Exited(0)),
                "{name} failed to exit"
            );
        }
    }

    #[test]
    fn em1_latency_bound_em5_throughput_bound() {
        // Per multiply, the interleaved chains must be much cheaper than
        // the serial chain on an OoO machine.
        let em1_c = cycles_on(configs::large_boom(1), &em1(1)) as f64 / (25_000.0 * 8.0);
        let em5_c = cycles_on(configs::large_boom(1), &em5(1)) as f64 / (25_000.0 * 10.0);
        assert!(
            em1_c > 1.8 * em5_c,
            "EM1 ({em1_c:.2} cyc/mul) must be latency-bound vs EM5 ({em5_c:.2})"
        );
    }

    #[test]
    fn ei_benefits_from_width_ed1_does_not() {
        let wide = configs::large_boom(1);
        let narrow = configs::small_boom(1);
        let ei_ratio =
            cycles_on(narrow.clone(), &ei(1)) as f64 / cycles_on(wide.clone(), &ei(1)) as f64;
        let ed1_ratio = cycles_on(narrow, &ed1(1)) as f64 / cycles_on(wide, &ed1(1)) as f64;
        assert!(
            ei_ratio > 1.5,
            "independent ops should scale with width ({ei_ratio:.2})"
        );
        assert!(
            ed1_ratio < 1.3,
            "a serial chain should not ({ed1_ratio:.2})"
        );
    }
}
