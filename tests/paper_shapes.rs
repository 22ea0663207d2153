//! Integration tests asserting the paper's qualitative findings hold in
//! the full pipeline, at smoke sizes. Each test names the paper section
//! whose claim it checks.

use silicon_bridge::core::experiments::{figure, npb_seconds, Sizes};
use silicon_bridge::core::metrics::relative_speedup;
use silicon_bridge::core::Parallelism;
use silicon_bridge::mpi::NetConfig;
use silicon_bridge::soc::{configs, Soc};
use silicon_bridge::workloads::microbench;
use silicon_bridge::workloads::npb::ep;
use silicon_bridge::workloads::ume::{self, UmeConfig};

fn kernel_seconds(cfg: silicon_bridge::soc::SocConfig, name: &str, scale: u32) -> f64 {
    let k = microbench::suite()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap();
    let mut soc = Soc::new(cfg);
    let rep = soc.run_program(0, &k.build(scale), u64::MAX);
    assert_eq!(rep.exit_code, Some(0));
    rep.seconds
}

/// §5.1 / Figure 1: the memory microbenchmarks (MM) show the largest gap
/// between the DDR3-bound FireSim model and the LPDDR4 silicon.
#[test]
fn mm_gap_is_the_largest_in_figure1() {
    let hw = configs::banana_pi_hw(1);
    let sim = configs::banana_pi_sim(1);
    let mm_rel = relative_speedup(
        kernel_seconds(hw.clone(), "MM", 1),
        kernel_seconds(sim.clone(), "MM", 1),
    );
    let cca_rel = relative_speedup(
        kernel_seconds(hw.clone(), "Cca", 1),
        kernel_seconds(sim.clone(), "Cca", 1),
    );
    let md_rel = relative_speedup(kernel_seconds(hw, "MD", 1), kernel_seconds(sim, "MD", 1));
    assert!(
        mm_rel < cca_rel && mm_rel < md_rel,
        "MM ({mm_rel:.2}) must show a larger gap than control flow ({cca_rel:.2}) \
         or cache-resident ({md_rel:.2}) kernels"
    );
    assert!(
        (0.15..=0.6).contains(&mm_rel),
        "MM band (paper: 0.35-0.37), got {mm_rel:.2}"
    );
}

/// §5.1 / Figure 1: the Fast (2x clock) Banana Pi model improves the
/// compute categories but NOT the DRAM-bound memory kernels.
#[test]
fn fast_model_helps_compute_not_memory() {
    let base = configs::banana_pi_sim(1);
    let fast = configs::fast_banana_pi_sim(1);
    // Compute kernel: time halves with the clock.
    let ei_gain = kernel_seconds(base.clone(), "EI", 1) / kernel_seconds(fast.clone(), "EI", 1);
    // DRAM-bound kernel: nearly clock-invariant.
    let mm_gain = kernel_seconds(base, "MM", 1) / kernel_seconds(fast, "MM", 1);
    assert!(
        ei_gain > 1.8,
        "EI must scale with clock, gained {ei_gain:.2}x"
    );
    assert!(
        mm_gain < 1.4,
        "MM must not scale with clock, gained {mm_gain:.2}x"
    );
}

/// §5.2.2 / Figure 4b: EP reaches near performance parity between the
/// MILK-V Simulation Model and the MILK-V hardware, on 1 and 4 ranks.
#[test]
fn ep_parity_on_milkv_pair() {
    for (ranks, key) in [(1usize, "fig4b1"), (4, "fig4b4")] {
        let fig = figure(key).run(Sizes::smoke(), Parallelism::Sequential);
        let milkv = fig
            .series
            .iter()
            .find(|s| s.name == "MILK-V Sim Model")
            .unwrap();
        let ep = milkv.points.iter().find(|(l, _)| l == "EP").unwrap().1;
        assert!(
            (0.5..=1.6).contains(&ep),
            "EP must be near parity at {ranks} ranks, got {ep:.2}"
        );
    }
}

/// §5.2.2: the MILK-V cache tuning (64 KiB L1, 1 MiB L2, LLC) improves
/// CG on 4 ranks relative to the stock Large BOOM.
#[test]
fn milkv_tuning_improves_cg_multicore() {
    // Needs a CG working set that overflows the stock 32 KiB L1 but
    // benefits from the 64 KiB tuning (smoke's n=256 fits either way).
    let sizes = Sizes {
        cg_n: 2048,
        cg_iters: 6,
        ..Sizes::smoke()
    };
    let fig = figure("fig4b4").run(sizes, Parallelism::Sequential);
    let get = |series: &str| {
        fig.series
            .iter()
            .find(|s| s.name == series)
            .unwrap()
            .points
            .iter()
            .find(|(l, _)| l == "CG")
            .unwrap()
            .1
    };
    let stock = get("Large BOOM");
    let tuned = get("MILK-V Sim Model");
    assert!(
        tuned > stock,
        "cache tuning must close the CG gap: stock {stock:.2} vs tuned {tuned:.2}"
    );
}

/// §5.2.1 / Figure 3: Rocket 1 and Rocket 2 perform nearly identically
/// on NPB (the L2 banking alone changes little).
#[test]
fn rocket1_and_rocket2_are_close_on_npb() {
    let sizes = Sizes::smoke();
    let a = npb_seconds(configs::rocket1(1), 1, sizes);
    let b = npb_seconds(configs::rocket2(1), 1, sizes);
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let ratio = x / y;
        assert!(
            (0.85..=1.18).contains(&ratio),
            "benchmark {i}: Rocket1/Rocket2 ratio {ratio:.3} should be ~1"
        );
    }
}

/// §5.3 / Figure 5: UME scales with MPI ranks on every platform, and the
/// simulation is slower than the silicon (relative speedup < 1).
#[test]
fn ume_scales_and_sim_is_slower() {
    // Large enough that per-rank compute dominates the collective costs
    // on the vectorized silicon model too (n=6 is comm-bound at 4 ranks).
    let cfg = UmeConfig { n: 10, passes: 2 };
    let net = NetConfig::shared_memory();
    for make in [
        configs::banana_pi_hw as fn(usize) -> _,
        configs::banana_pi_sim,
    ] {
        let t1 = ume::run(make(1), 1, cfg, net).report.run.cycles;
        let t4 = ume::run(make(4), 4, cfg, net).report.run.cycles;
        assert!(t4 < t1, "UME must strong-scale: {t1} -> {t4}");
    }
    let hw = ume::run(configs::banana_pi_hw(1), 1, cfg, net)
        .report
        .run
        .cycles;
    let sim = ume::run(configs::banana_pi_sim(1), 1, cfg, net)
        .report
        .run
        .cycles;
    // Same 1.6 GHz clock on both, so cycles compare directly.
    assert!(sim > hw, "the simulation must be slower ({sim} vs {hw})");
}

/// §5.2: the same EP binary produces identical *functional* results on
/// every platform — only the timing differs.
#[test]
fn functional_results_are_platform_independent() {
    let cfg = ep::EpConfig {
        pairs_per_rank: 1500,
    };
    let net = NetConfig::shared_memory();
    let a = ep::run(configs::rocket1(2), 2, cfg, net);
    let b = ep::run(configs::milkv_hw(2), 2, cfg, net);
    let c = ep::run(configs::fast_banana_pi_sim(2), 2, cfg, net);
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.accepted, c.accepted);
    assert_eq!(a.sx, b.sx);
    assert_eq!(a.counts, c.counts);
}

/// Determinism of the full stack: repeated runs of a multi-rank workload
/// produce bit-identical cycle counts (the FireSim guarantee).
#[test]
fn full_stack_is_deterministic() {
    let cfg = ep::EpConfig {
        pairs_per_rank: 1000,
    };
    let net = NetConfig::shared_memory();
    let a = ep::run(configs::milkv_sim(4), 4, cfg, net);
    let b = ep::run(configs::milkv_sim(4), 4, cfg, net);
    assert_eq!(a.report.run.cycles, b.report.run.cycles);
    assert_eq!(a.report.rank_cycles, b.report.rank_cycles);
}
