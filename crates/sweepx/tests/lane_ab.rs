//! End-to-end A/B coverage for the multi-lane sweep kernel: bit-identity
//! against scalar runs across workloads, seeded config grids, and
//! fault-degraded links; sampled-replay determinism and error bounds;
//! lane/scalar series parity and checkpoint/resume interop for every
//! paper subfigure; and the `host.sweep.*` telemetry counters riding
//! the JSON/CSV exports.

use bsim_core::experiments::{figure, subfigures, FigureSpec, Parallelism, Sizes};
use bsim_core::{run_grid_chunks_metered, run_grid_keyed, CellOutcome, ResultStore, RetryPolicy};
use bsim_mpi::NetConfig;
use bsim_resilience::fault::{FaultKind, FaultPlan, FaultTarget};
use bsim_soc::{configs, SocConfig, TelemetryConfig};
use bsim_sweepx::{cache_tuning_grid, replay_world, run_lanes, LaneOpts, SampleCfg};
use bsim_telemetry::{Telemetry, TelemetryConfig as TelCfg};
use bsim_workloads::npb::{cg, is, mg};
use proptest::prelude::*;

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("reports serialize")
}

/// A small cache-geometry grid around Large BOOM, including one config
/// with hardware telemetry counters enabled — instrumentation must not
/// perturb lane timing.
fn small_grid(ranks: usize) -> Vec<SocConfig> {
    let mut grid = cache_tuning_grid(ranks, 3);
    let mut tele = configs::large_boom(ranks).with_telemetry(TelemetryConfig::counters());
    tele.name = "Large BOOM (counters)".to_string();
    grid.push(tele);
    grid
}

/// Applies a [`FaultPlan`]'s link events to the world's [`NetConfig`],
/// the way the MPI layer maps `LinkDegrade`/`LinkZeroLatency` faults.
fn faulted_net(base: NetConfig, plan: &FaultPlan) -> NetConfig {
    plan.link_events().fold(base, |net, ev| match ev.kind {
        FaultKind::LinkDegrade { factor } => net.degrade(factor),
        FaultKind::LinkZeroLatency => net.zero_latency(),
        _ => net,
    })
}

/// CG, IS, and MG each record once and replay bit-identical to their
/// scalar runs across a mixed grid (telemetry-instrumented lane
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
    /// envelope, and for worlds whose link carries a seeded
    /// [`FaultPlan`]'s degradation faults — replay shares the scalar
    /// path's `NetConfig`, so a fault that stretches (or zeroes) the
    /// link must stretch every lane exactly like every scalar cell.
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
        let plan = match fault {
            0 => FaultPlan::new(seed),
            1 => FaultPlan::new(seed).inject(
                FaultTarget::Link,
                0,
                FaultKind::LinkDegrade { factor },
            ),
            _ => FaultPlan::new(seed).inject(FaultTarget::Link, 0, FaultKind::LinkZeroLatency),
        };
        let net = faulted_net(NetConfig::shared_memory(), &plan);
        let wl = cg::CgConfig { n: 96, nnz_per_row: 4, iters: 2 };
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

/// The executor is no part of a cell's key — a full lane replay and a
/// scalar run print the same series — so `--store` interoperates: a
/// store filled by the lane executor (through `flush`/`open`, the CLI's
/// on-disk round trip) answers the scalar run of the same keys without
/// resimulating a single cell.
#[test]
fn ckpt_resume_interops_between_lane_and_scalar_plans() {
    let sizes = Sizes::smoke();
    let par = Parallelism::Sequential;
    let policy = RetryPolicy::once();

    let plan: Vec<&'static FigureSpec> = subfigures("6").collect();
    let keys: Vec<String> = plan
        .iter()
        .map(|spec| format!("smoke/{}", spec.key))
        .collect();
    let on_lanes = |i: usize| run_lanes(&plan[i].grid(sizes), par, &LaneOpts::default());
    let path = std::env::temp_dir().join(format!("sweepx_lane_ab_{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let (mut store, _) = ResultStore::open(&path);
    let lane_out = run_grid_keyed(&keys, par, &policy, &mut store, |_| {}, on_lanes)
        .expect("lane plan stores cleanly");
    assert!(lane_out.all_ok());
    assert_eq!(store.len(), keys.len());

    store.flush().expect("store persists");
    let (mut resumed, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "{report}");
    std::fs::remove_file(&path).ok();

    let scalar = |i: usize| plan[i].run(sizes, par);
    let scalar_out = run_grid_keyed(&keys, par, &policy, &mut resumed, |_| {}, scalar)
        .expect("scalar plan replays cleanly");
    for ((sk, lo), so) in keys
        .iter()
        .zip(&lane_out.outcomes)
        .zip(&scalar_out.outcomes)
    {
        match so {
            CellOutcome::Ok { value, attempts } => {
                assert_eq!(*attempts, 0, "{sk} must restore from the lane run's store");
                assert_eq!(
                    json(lo.value().expect("lane cell ok")),
                    json(value),
                    "{sk} resumed bytes drifted"
                );
            }
            other => panic!("{sk} did not resume: {other:?}"),
        }
    }
}

/// A lane-chunked sweep's `host.sweep.lanes` and
/// `host.sweep.sampled_segments` counters ride the normal telemetry
/// export, appearing in both the JSON and CSV run dumps.
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
    let chunks = vec![(0..cfgs.len()).collect::<Vec<_>>()];
    let mut sweep = run_grid_chunks_metered(&chunks, Parallelism::Sequential, |_, cells| {
        let group: Vec<SocConfig> = cells.iter().map(|&c| cfgs[c].clone()).collect();
        replay_world(&trace, &group, net, Some(&scfg))
            .into_iter()
            .map(|o| {
                let cycles = o.report.run.cycles;
                (o.sample, cycles)
            })
            .collect::<Vec<_>>()
    });
    sweep.sampled_segments = sweep
        .results
        .iter()
        .flatten()
        .map(|rep| (rep.segments - rep.measured_segments) as u64)
        .sum();
    assert_eq!(sweep.lanes, 3, "the runner stamps the largest chunk");
    assert!(
        sweep.sampled_segments > 0,
        "a sampled sweep must fast-forward some segments"
    );

    let mut tel = Telemetry::new(TelCfg::counters());
    sweep.publish(tel.counters_mut());
    tel.tick(1_000);
    let snap = tel.snapshot().expect("counters enabled");
    assert_eq!(snap.counter("host.sweep.lanes"), Some(3));
    assert_eq!(
        snap.counter("host.sweep.sampled_segments"),
        Some(sweep.sampled_segments)
    );
    let js = snap.to_json();
    let csv = snap.counters_csv();
    for name in ["host.sweep.lanes", "host.sweep.sampled_segments"] {
        assert!(js.contains(name), "{name} missing from JSON export");
        assert!(csv.contains(name), "{name} missing from CSV export");
    }
}

/// The lane-executed figure must equal the scalar one in title and,
/// bit for bit, in every series — for each subfigure of the table. The
/// notes carry host-rate text and legitimately differ.
fn assert_lane_scalar_parity(keys: &[&str]) {
    let sizes = Sizes::smoke();
    let par = Parallelism::Sequential;
    for key in keys {
        let spec = figure(key);
        let scalar = spec.run(sizes, par);
        let lanes = run_lanes(&spec.grid(sizes), par, &LaneOpts::default());
        assert_eq!(scalar.title, lanes.title, "{key} title");
        assert_eq!(scalar.series, lanes.series, "{key} series moved on lanes");
        assert!(!scalar.series.is_empty(), "{key} plotted nothing");
    }
}

#[test]
fn lane_series_match_scalar_for_the_npb_and_app_subfigures() {
    assert_lane_scalar_parity(&[
        "fig3a", "fig3b", "fig4a", "fig4b1", "fig4b4", "fig5", "fig6", "fig7",
    ]);
}

/// Figures 1–2 run 39 kernels × 3–5 platforms twice: seconds in release,
/// minutes in debug. CI runs this in its release job.
#[test]
#[ignore = "fig1/fig2 sweeps are slow in debug; run with --ignored in release"]
fn lane_series_match_scalar_for_the_microbench_subfigures() {
    assert_lane_scalar_parity(&["fig1", "fig2"]);
}
