//! Cross-crate pipeline tests: the full path from assembly source to
//! figure data, exercised end to end.

use silicon_bridge::core::experiments;
use silicon_bridge::core::tuning::choose_best_model;
use silicon_bridge::core::Parallelism;
use silicon_bridge::isa::reg::*;
use silicon_bridge::isa::Asm;
use silicon_bridge::soc::{configs, Soc};
use silicon_bridge::workloads::microbench;

/// Hand-written program → assembler → interpreter → timing core →
/// report, on every catalog platform.
#[test]
fn custom_program_runs_on_every_platform() {
    let mut a = Asm::new();
    let data = a.data_f64s(&[2.0, 3.0]);
    a.li(T0, data as i64);
    a.fld(FT0, 0, T0);
    a.fld(FT1, 8, T0);
    a.li(T1, 0);
    a.li(T2, 500);
    a.label("loop");
    a.fmadd_d(FT2, FT0, FT1, FT2);
    a.addi(T1, T1, 1);
    a.blt(T1, T2, "loop");
    a.fcvt_l_d(A0, FT2); // 500 * 6 = 3000
    a.li(A7, 93);
    a.ecall();
    let prog = a.assemble().unwrap();

    for cfg in [
        configs::rocket1(1),
        configs::rocket2(1),
        configs::banana_pi_sim(1),
        configs::fast_banana_pi_sim(1),
        configs::small_boom(1),
        configs::medium_boom(1),
        configs::large_boom(1),
        configs::milkv_sim(1),
        configs::banana_pi_hw(1),
        configs::milkv_hw(1),
    ] {
        let name = cfg.name.clone();
        let mut soc = Soc::new(cfg);
        let rep = soc.run_program(0, &prog, 1_000_000);
        assert_eq!(rep.exit_code, Some(3000), "wrong result on {name}");
        assert!(
            rep.cycles >= 500,
            "{name} must charge at least one cycle per fmadd"
        );
    }
}

/// The microbenchmark suite runs end-to-end on both hardware references.
#[test]
fn suite_smoke_on_hardware_references() {
    for cfg in [configs::banana_pi_hw(1), configs::milkv_hw(1)] {
        for k in microbench::evaluated().iter().filter(|k| {
            // A category-spanning fast subset.
            ["Cce", "EM5", "MIM", "STc", "DPcvt"].contains(&k.name)
        }) {
            let mut soc = Soc::new(cfg.clone());
            let rep = soc.run_program(0, &k.build(1), u64::MAX);
            assert_eq!(rep.exit_code, Some(0), "{} failed on {}", k.name, cfg.name);
        }
    }
}

/// Figure generation produces complete, finite data.
#[test]
fn figure_generators_produce_complete_series() {
    let sizes = experiments::Sizes::smoke();
    let fig = experiments::figure("fig3a").run(sizes, Parallelism::Sequential);
    assert_eq!(fig.series.len(), 4);
    for s in &fig.series {
        assert_eq!(s.points.len(), 4, "series {} incomplete", s.name);
        for (label, v) in &s.points {
            assert!(v.is_finite() && *v > 0.0, "{}/{label} = {v}", s.name);
        }
    }
    let rendered = silicon_bridge::core::table::render(&fig);
    assert!(rendered.contains("CG") && rendered.contains("MG"));
}

/// The tuning loop agrees with the paper's model choice end to end.
#[test]
fn tuning_selects_large_boom_for_milkv() {
    let probes: Vec<_> = microbench::evaluated()
        .into_iter()
        .filter(|k| ["EI", "EM5", "MD"].contains(&k.name))
        .collect();
    let out = choose_best_model(
        &[configs::small_boom(1), configs::large_boom(1)],
        &configs::milkv_hw(1),
        &probes,
        1,
    );
    assert_eq!(out.best(), "Large BOOM");
}

/// Tables render with the key mismatches the paper highlights.
#[test]
fn tables_render() {
    let t4 = experiments::table4();
    let t5 = experiments::table5();
    assert!(t4.contains("Large BOOM"));
    assert!(
        t5.contains("DDR3-2000"),
        "the FireSim DDR3 limitation must be visible"
    );
    assert!(t5.contains("prefetch 0") && t5.contains("prefetch 3"));
}
