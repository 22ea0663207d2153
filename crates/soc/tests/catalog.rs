//! Catalog-wide invariants: every named platform must build, run code,
//! and be timing-deterministic.

use bsim_isa::reg::*;
use bsim_isa::Asm;
use bsim_soc::{configs, CoreModel, Soc, SocConfig};

fn catalog() -> Vec<SocConfig> {
    vec![
        configs::rocket1(4),
        configs::rocket2(4),
        configs::banana_pi_sim(4),
        configs::fast_banana_pi_sim(4),
        configs::small_boom(4),
        configs::medium_boom(4),
        configs::large_boom(4),
        configs::milkv_sim(4),
        configs::banana_pi_hw(4),
        configs::milkv_hw(4),
    ]
}

fn probe() -> bsim_isa::Program {
    let mut a = Asm::new();
    let tbl = a.data_u64s(&[3, 5, 7, 11, 13, 17, 19, 23]);
    a.li(T0, tbl as i64);
    a.li(T1, 0); // sum
    a.li(T2, 0);
    a.li(T3, 2000);
    a.label("loop");
    a.andi(T4, T2, 7);
    a.slli(T4, T4, 3);
    a.add(T4, T4, T0);
    a.ld(T5, 0, T4);
    a.add(T1, T1, T5);
    a.addi(T2, T2, 1);
    a.blt(T2, T3, "loop");
    a.li(T6, 98);
    a.divu(A0, T1, T6); // 2000/8 * 98 / 98 = 250
    a.li(A7, 93);
    a.ecall();
    a.assemble().unwrap()
}

#[test]
fn every_platform_runs_and_is_deterministic() {
    let prog = probe();
    for cfg in catalog() {
        let name = cfg.name.clone();
        let run = || {
            let mut soc = Soc::new(cfg.clone());
            let rep = soc.run_program(0, &prog, 10_000_000);
            (rep.exit_code, rep.cycles)
        };
        let (code, cycles1) = run();
        let (_, cycles2) = run();
        assert_eq!(code, Some(250), "wrong functional result on {name}");
        assert_eq!(cycles1, cycles2, "{name} must be timing-deterministic");
        assert!(cycles1 > 2000, "{name}: at least one cycle per iteration");
    }
}

#[test]
fn simulation_flags_partition_the_catalog() {
    let (sims, hws): (Vec<_>, Vec<_>) = catalog().into_iter().partition(|c| c.is_simulation);
    assert_eq!(sims.len(), 8);
    assert_eq!(hws.len(), 2);
    for s in &sims {
        assert_eq!(
            s.simd_lanes, 1,
            "{}: FireSim targets run without vector units",
            s.name
        );
        assert_eq!(
            s.hierarchy.prefetch_degree, 0,
            "{}: stock Rocket/BOOM lack prefetchers",
            s.name
        );
    }
    for h in &hws {
        assert!(h.simd_lanes > 1, "{}: silicon has RVV", h.name);
        assert!(
            h.hierarchy.prefetch_degree > 0,
            "{}: silicon prefetches",
            h.name
        );
    }
}

#[test]
fn clocks_match_table5() {
    assert_eq!(configs::rocket1(1).freq_ghz, 1.6);
    assert_eq!(configs::banana_pi_hw(1).freq_ghz, 1.6);
    assert_eq!(configs::fast_banana_pi_sim(1).freq_ghz, 3.2);
    assert_eq!(configs::large_boom(1).freq_ghz, 2.0);
    assert_eq!(configs::milkv_hw(1).freq_ghz, 2.0);
}

#[test]
fn in_order_vs_ooo_split_matches_the_paper() {
    for cfg in catalog() {
        let expect_inorder = cfg.name.contains("Rocket") || cfg.name.contains("Banana");
        match (&cfg.core, expect_inorder) {
            (CoreModel::InOrder(_), true) | (CoreModel::Ooo(_), false) => {}
            _ => panic!("{} has the wrong core family", cfg.name),
        }
    }
}
