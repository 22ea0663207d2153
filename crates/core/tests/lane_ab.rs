//! End-to-end A/B coverage for the multi-lane sweep kernel: bit-identity
//! against scalar runs across workloads, seeded config grids,
//! fault-degraded links and the cells of every MPI paper subfigure;
//! sampled-replay determinism and error bounds; and the sampled-segment
//! counts a lane sweep reports.

use bsim_core::experiments::{figure, MpiWork, Sizes, Work};
use bsim_core::{cache_tuning_grid, replay_world, SampleCfg, TraceKey};
use bsim_mpi::NetConfig;
use bsim_soc::{configs, SocConfig, TelemetryConfig};
use bsim_workloads::npb::{cg, is, mg};
use proptest::prelude::*;

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("reports serialize")
}

/// A small cache-geometry grid around Large BOOM, including one config
/// that publishes its cycle stacks: a lane's stacks must equal its scalar
/// run's, and publishing them must not perturb lane timing.
fn small_grid(ranks: usize) -> Vec<SocConfig> {
    let mut grid = cache_tuning_grid(ranks, 3);
    let mut tele = configs::large_boom(ranks).with_telemetry(TelemetryConfig::counters());
    tele.name = "Large BOOM (counters)".to_string();
    grid.push(tele);
    grid
}

/// CG, IS, and MG each record once and replay bit-identical to their
/// scalar runs across a mixed grid (the lane publishing its cycle stacks
/// included).
#[test]
fn lane_replay_matches_scalar_across_npb_workloads() {
    let ranks = 2;
    let cfgs = small_grid(ranks);
    let net = NetConfig::shared_memory();

    let cg_wl = cg::CgConfig {
        n: 192,
        nnz_per_row: 5,
        iters: 2,
    };
    let (_, trace) = cg::record(cfgs[0].clone(), ranks, cg_wl, net);
    for (cfg, lane) in cfgs.iter().zip(replay_world(&trace, &cfgs, net, None)) {
        let scalar = cg::run(cfg.clone(), ranks, cg_wl, net);
        assert_eq!(
            json(&scalar.report),
            json(&lane.report),
            "CG lane '{}' drifted from scalar",
            cfg.name
        );
    }

    let is_wl = is::IsConfig {
        keys_per_rank: 1 << 10,
        max_key: 1024,
        iterations: 1,
    };
    let (_, trace) = is::record(cfgs[0].clone(), ranks, is_wl, net);
    for (cfg, lane) in cfgs.iter().zip(replay_world(&trace, &cfgs, net, None)) {
        let scalar = is::run(cfg.clone(), ranks, is_wl, net);
        assert!(scalar.sorted, "IS must verify on {}", cfg.name);
        assert_eq!(
            json(&scalar.report),
            json(&lane.report),
            "IS lane '{}' drifted from scalar",
            cfg.name
        );
    }

    let mg_wl = mg::MgConfig {
        n: 16,
        levels: 3,
        cycles: 1,
    };
    let (_, trace) = mg::record(cfgs[0].clone(), ranks, mg_wl, net);
    for (cfg, lane) in cfgs.iter().zip(replay_world(&trace, &cfgs, net, None)) {
        let scalar = mg::run(cfg.clone(), ranks, mg_wl, net);
        assert_eq!(
            json(&scalar.report),
            json(&lane.report),
            "MG lane '{}' drifted from scalar",
            cfg.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bit-identity must hold for *any* cache geometry in the sweepable
    /// envelope, and for worlds on a degraded or zero-latency link (the
    /// fault campaign's link rows) — replay shares the scalar path's
    /// `NetConfig`, so a link that stretches (or zeroes) must stretch
    /// every lane exactly like every scalar cell. The
    /// grid holds lanes that share a front end and lanes that do not: two
    /// BOOM lanes of one L1 geometry, a third that differs from the first
    /// only in L1 banks and hit latency, and an in-order pair.
    #[test]
    fn lane_bit_identity_over_seeded_geometry_and_faulted_links(
        l1_exp in 5u32..9,
        l2_exp in 9u32..12,
        pf in 0u32..3,
        fault in 0usize..3,
        factor in 2u32..5,
        seed in 0u64..1024,
    ) {
        let ranks = 2;
        let mut grid = Vec::new();
        for bump in 0u32..3 {
            let mut cfg = configs::large_boom(ranks);
            cfg.hierarchy.l1d.sets = 1 << (l1_exp + bump % 2);
            cfg.hierarchy.l1i.sets = 1 << l1_exp;
            cfg.hierarchy.l2.sets = 1 << l2_exp;
            cfg.hierarchy.prefetch_degree = pf + bump;
            cfg.name = format!("boom l1e{l1_exp}+{bump} l2e{l2_exp} pf{}", pf + bump);
            grid.push(cfg);
        }
        let mut banked = grid[0].clone();
        banked.hierarchy.l1d.banks = 1 << (seed % 3);
        banked.hierarchy.l1d.hit_latency = 1 + factor;
        banked.hierarchy.l1i.hit_latency = factor;
        banked.name = format!("{} l1 banks/latency", grid[0].name);
        grid.push(banked);
        for mut cfg in [configs::rocket1(ranks), configs::banana_pi_sim(ranks)] {
            cfg.hierarchy.l1d.sets = 1 << l1_exp;
            cfg.hierarchy.prefetch_degree = pf;
            grid.push(cfg);
        }
        let net = match fault {
            0 => NetConfig::shared_memory(),
            1 => NetConfig::shared_memory().degrade(factor),
            _ => NetConfig::shared_memory().zero_latency(),
        };
        // Big enough to overflow the smaller L1s, so lanes of different
        // L1 geometries decide differently.
        let wl = cg::CgConfig { n: 512, nnz_per_row: 6, iters: 2 };
        let (_, trace) = cg::record(grid[0].clone(), ranks, wl, net);
        let lanes = replay_world(&trace, &grid, net, None);
        for (cfg, lane) in grid.iter().zip(&lanes) {
            let scalar = cg::run(cfg.clone(), ranks, wl, net);
            prop_assert_eq!(
                json(&scalar.report),
                json(&lane.report),
                "lane '{}' (fault mode {}) drifted from scalar",
                cfg.name,
                fault
            );
        }
    }
}

/// Sampling with a fixed seed is a pure function of the trace and the
/// budget: two runs produce byte-identical reports, and the estimate
/// stays inside a sane envelope of the full replay with a finite
/// reported bound.
#[test]
fn sampled_replay_is_deterministic_and_within_bounds() {
    let ranks = 2;
    let cfgs = cache_tuning_grid(ranks, 4);
    let net = NetConfig::shared_memory();
    let wl = cg::CgConfig {
        n: 256,
        nnz_per_row: 6,
        iters: 8,
    };
    let (_, trace) = cg::record(cfgs[0].clone(), ranks, wl, net);
    let full = replay_world(&trace, &cfgs, net, None);
    let scfg = SampleCfg::default();
    let a = replay_world(&trace, &cfgs, net, Some(&scfg));
    let b = replay_world(&trace, &cfgs, net, Some(&scfg));
    for ((fa, sa), sb) in full.iter().zip(&a).zip(&b) {
        assert_eq!(
            json(&sa.report),
            json(&sb.report),
            "sampled replay must be deterministic (fixed seed)"
        );
        let (ra, rb) = (
            sa.sample.as_ref().expect("sampling was on"),
            sb.sample.as_ref().expect("sampling was on"),
        );
        assert_eq!(json(ra), json(rb), "sample reports must be deterministic");
        let fc = fa.report.run.cycles.max(1) as f64;
        let rel = (sa.report.run.cycles as f64 - fc).abs() / fc;
        assert!(rel < 0.25, "sampled err {rel:.3} out of envelope");
        let stderr = ra.rel_stderr("cycles").expect("cycles bound reported");
        assert!(
            stderr.is_finite() && stderr >= 0.0,
            "reported bound must be finite, got {stderr}"
        );
    }
}

/// The accuracy gate at calibrated scale: a 16-config cache-tuning
/// grid over 240 CG iterations, where each stratum's warm-up cost
/// amortizes and the measured uop fraction lands under 5 %. Both the
/// worst observed |sampled − full| / full cycle error and the worst
/// *reported* relative standard error must stay under 10 %. The
/// strided re-measurement budget is tightened below the default —
/// quiescence already validates each stratum online — and the cluster
/// cap is raised so long runs keep homogeneous strata. Wall-clock for
/// the same replays is the ledger's (`sweepx.replay_*_ms`), not this
/// test's.
#[test]
#[ignore = "240-iteration 16-lane replays are slow in debug; run with --ignored in release"]
fn sampled_error_and_reported_bound_stay_under_ten_percent_at_scale() {
    let ranks = 2;
    let cfgs = cache_tuning_grid(ranks, 16);
    let net = NetConfig::shared_memory();
    let wl = cg::CgConfig {
        iters: 240,
        ..cg::CgConfig::default()
    };
    let (_, trace) = cg::record(cfgs[0].clone(), ranks, wl, net);
    let full = replay_world(&trace, &cfgs, net, None);
    let scfg = SampleCfg {
        extra_rate: 0.02,
        max_clusters: 64,
        ..SampleCfg::default()
    };
    let sampled = replay_world(&trace, &cfgs, net, Some(&scfg));
    let (mut max_err, mut max_stderr) = (0.0f64, 0.0f64);
    for (f, s) in full.iter().zip(&sampled) {
        let fc = f.report.run.cycles.max(1) as f64;
        max_err = max_err.max((s.report.run.cycles as f64 - fc).abs() / fc);
        let rep = s.sample.as_ref().expect("sampling was on");
        max_stderr = max_stderr.max(rep.rel_stderr("cycles").expect("cycles bound reported"));
    }
    println!("sampled gate: max err {max_err:.4}, max reported stderr {max_stderr:.4}");
    assert!(
        max_err <= 0.10 && max_stderr <= 0.10,
        "sampled error out of bounds (err {max_err:.4}, reported stderr {max_stderr:.4}, limit 0.10)"
    );
}

/// A sampled lane sweep's cells report the segments they
/// fast-forwarded, and the counts ride each lane's JSON export.
#[test]
fn lane_sweep_counters_ride_the_json_and_csv_exports() {
    let ranks = 2;
    let cfgs = cache_tuning_grid(ranks, 3);
    let net = NetConfig::shared_memory();
    let wl = cg::CgConfig {
        n: 256,
        nnz_per_row: 6,
        iters: 6,
    };
    let (_, trace) = cg::record(cfgs[0].clone(), ranks, wl, net);
    let scfg = SampleCfg::default();
    let mut sampled_segments = 0;
    for lane in replay_world(&trace, &cfgs, net, Some(&scfg)) {
        let rep = lane.sample.expect("sampling was on");
        sampled_segments += rep.segments - rep.measured_segments;
        let exported = json(&rep);
        let field = format!("\"measured_segments\":{}", rep.measured_segments);
        assert!(exported.contains(&field), "{exported}");
    }
    assert!(
        sampled_segments > 0,
        "a sampled sweep must fast-forward some segments"
    );
}

/// Every MPI subfigure's cells, grouped by workload and [`TraceKey`]:
/// one recording per group, replayed on every member's config, gives
/// each cell the cycles `MpiWork::run` simulates for it alone.
#[test]
fn lane_series_match_scalar_for_the_npb_and_app_subfigures() {
    let net = NetConfig::shared_memory();
    for key in [
        "fig3a", "fig3b", "fig4a", "fig4b1", "fig4b4", "fig5", "fig6", "fig7",
    ] {
        let grid = figure(key).grid(Sizes::smoke());
        let mut groups: Vec<((MpiWork, TraceKey), Vec<usize>)> = Vec::new();
        for (i, cell) in grid.cells.iter().enumerate() {
            let Work::Mpi(work) = cell.work else {
                panic!("{key} is an MPI subfigure")
            };
            let group = (work, TraceKey::of(grid.cfg(i), grid.cfg(i).cores));
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, cells)) => cells.push(i),
                None => groups.push((group, vec![i])),
            }
        }
        assert!(
            groups.iter().any(|(_, cells)| cells.len() > 1),
            "{key}: no two cells share a recording"
        );
        for ((work, trace_key), cells) in groups {
            let cfgs: Vec<SocConfig> = cells.iter().map(|&i| grid.cfg(i).clone()).collect();
            let trace = work.record(&grid.sizes, cfgs[0].clone(), trace_key.ranks);
            for (cfg, lane) in cfgs.iter().zip(replay_world(&trace, &cfgs, net, None)) {
                let scalar = work.run(&grid.sizes, cfg.clone(), trace_key.ranks);
                assert_eq!(
                    lane.report.run.cycles,
                    scalar,
                    "{key}: {} on '{}' drifted from its scalar run",
                    work.label(),
                    cfg.name
                );
            }
        }
    }
}
