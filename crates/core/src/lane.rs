//! Lane-group partitioning: which platform configs may share one
//! recorded trace, and which lanes of a replay may share a front end.
//!
//! A [`bsim_mpi::WorldTrace`] is valid for every config whose *trace-shaping*
//! knobs match the recording run: the MPI rank count, the vector width
//! (`simd_lanes` changes how many dynamic ops the auto-vectorized trace
//! regions emit), and the compiler-overhead dial (same reason). Every
//! other knob — core model, cache geometry, DRAM timing, bus width,
//! clock — is pure timing and may differ per lane. [`TraceKey`] captures
//! exactly the trace-shaping triple; [`partition`] groups a config grid
//! by it so the sweep kernel ticks each group through one trace pass.
//!
//! Inside one replay, lanes with equal `FrontKey`s make the same
//! branch, TLB and L1 tag decisions (`bsim_mem::front`), so
//! [`front_groups`] picks the lanes whose first member decides for all.

use bsim_check::{Diagnostic, Report};
use bsim_soc::front::MAX_SHARED_WAYS;
use bsim_soc::{configs, CoreModel, SocConfig};

/// The trace-shaping knobs: two configs with equal keys (for a given
/// rank count) produce byte-identical operation traces and may ride the
/// same recorded trace as lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// MPI ranks the workload is decomposed over.
    pub ranks: usize,
    /// Vector-unit width (changes dynamic op counts in vectorizable
    /// trace regions).
    pub simd_lanes: u32,
    /// Compiler codegen overhead dial (changes dynamic op counts
    /// everywhere).
    pub compiler_overhead_per_mille: u32,
}

impl TraceKey {
    /// The key of `cfg` when run over `ranks` ranks.
    pub fn of(cfg: &SocConfig, ranks: usize) -> TraceKey {
        TraceKey {
            ranks,
            simd_lanes: cfg.simd_lanes,
            compiler_overhead_per_mille: cfg.compiler_overhead_per_mille,
        }
    }
}

/// What a lane's front-end decisions are a function of, besides the
/// trace: two configs with equal keys predict every branch alike, hit
/// the TLBs at the same levels, and make the same L1 tag decisions
/// (hit or miss, way, dirty victim) on any one recording. Bank counts,
/// hit latencies, MSHRs and everything below the L1s are timing and may
/// differ.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FrontKey {
    /// The core model, its TLB config included. It fixes the predictor
    /// and the fetch-line sequence. (The decisions depend only on the
    /// model's kind and TLB; keying on all of it keeps silicon references
    /// apart from the sim models that share their L1 geometry.)
    core: CoreModel,
    /// L1I (sets, ways, line bytes).
    l1i: (u32, u32, u32),
    /// L1D (sets, ways, line bytes).
    l1d: (u32, u32, u32),
    /// Cores: each has its own L1s, and a store invalidates the others'.
    cores: usize,
}

impl FrontKey {
    /// The key of `cfg`, or `None` when an L1 has more ways than a
    /// recorded decision can name (such a lane decides alone).
    pub(crate) fn of(cfg: &SocConfig) -> Option<FrontKey> {
        let (i, d) = (&cfg.hierarchy.l1i, &cfg.hierarchy.l1d);
        (i.ways <= MAX_SHARED_WAYS && d.ways <= MAX_SHARED_WAYS).then(|| FrontKey {
            core: cfg.core.clone(),
            l1i: (i.sets, i.ways, i.line_bytes),
            l1d: (d.sets, d.ways, d.line_bytes),
            cores: cfg.cores,
        })
    }
}

/// The lanes of a replay grouped by `FrontKey`: indices into `cfgs`,
/// groups in first-appearance order and ascending within a group, so a
/// group's first lane runs before the others in every quantum. A lane
/// without a key is a group of its own.
pub fn front_groups(cfgs: &[SocConfig]) -> Vec<Vec<usize>> {
    // A keyless lane's stand-in is its own index: equal to no other.
    let keys = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| FrontKey::of(cfg).ok_or(i));
    group_by_key(keys, usize::MAX)
        .into_iter()
        .map(|(_, lanes)| lanes)
        .collect()
}

/// One shareable-trace group: indices into the caller's config grid.
#[derive(Clone, Debug)]
pub struct LaneGroup {
    /// The trace-shaping key every member shares.
    pub key: TraceKey,
    /// Grid-cell indices, in first-appearance order.
    pub cells: Vec<usize>,
}

/// Groups grid cells (by index) under equal keys, at most `max_lanes`
/// cells per group. Groups appear in first-appearance order of their
/// key and cells keep grid order within a group, so the grouping is a
/// deterministic function of the grid. (A linear scan over a `Vec`
/// rather than a hash map: group count is tiny and the order must not
/// depend on hasher state.)
pub(crate) fn group_by_key<K: PartialEq>(
    keys: impl IntoIterator<Item = K>,
    max_lanes: usize,
) -> Vec<(K, Vec<usize>)> {
    let cap = max_lanes.max(1);
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        match groups
            .iter_mut()
            .find(|(k, cells)| *k == key && cells.len() < cap)
        {
            Some((_, cells)) => cells.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups
}

/// Partitions a config grid into lane groups of at most `max_lanes`
/// configs each, by [`TraceKey`].
pub fn partition(cfgs: &[SocConfig], ranks: usize, max_lanes: usize) -> Vec<LaneGroup> {
    group_by_key(cfgs.iter().map(|cfg| TraceKey::of(cfg, ranks)), max_lanes)
        .into_iter()
        .map(|(key, cells)| LaneGroup { key, cells })
        .collect()
}

/// The cache-tuning config grid: Large BOOM variants sweeping L1 sets,
/// L2 sets, and prefetch degree. All variants share one [`TraceKey`],
/// so the whole grid lanes onto a single recording.
pub fn cache_tuning_grid(ranks: usize, n: usize) -> Vec<SocConfig> {
    let mut grid = Vec::new();
    for &l1_sets in &[64u32, 128, 256, 512] {
        for &l2_sets in &[1024u32, 2048] {
            for &pf in &[0u32, 2] {
                let mut cfg = configs::large_boom(ranks);
                cfg.hierarchy.l1d.sets = l1_sets;
                cfg.hierarchy.l1i.sets = l1_sets;
                cfg.hierarchy.l2.sets = l2_sets;
                cfg.hierarchy.prefetch_degree = pf;
                cfg.name = format!("Large BOOM L1s{l1_sets} L2s{l2_sets} pf{pf}");
                grid.push(cfg);
                if grid.len() == n {
                    return grid;
                }
            }
        }
    }
    grid
}

/// CL081: warns when a lane plan degenerates to scalar execution —
/// either the lane cap disables grouping or the grid's keys are all
/// distinct, so every group is a singleton and the sweep pays recording
/// overhead with no amortization.
pub fn lint_lane_plan(cfgs: &[SocConfig], ranks: usize, max_lanes: usize, span: &str) -> Report {
    let mut report = Report::new();
    if max_lanes < 2 {
        report.push(
            Diagnostic::warning(
                "CL081",
                span,
                format!("lane cap {max_lanes} disables multi-lane grouping"),
            )
            .with_help("a cap of 2 or more lanes amortizes trace decode across configs"),
        );
        return report;
    }
    let groups = partition(cfgs, ranks, max_lanes);
    if cfgs.len() > 1 && groups.iter().all(|g| g.cells.len() < 2) {
        report.push(
            Diagnostic::warning(
                "CL081",
                span,
                format!(
                    "all {} configs land in singleton lane groups (no two share a trace key)",
                    cfgs.len()
                ),
            )
            .with_help(
                "grids that vary only timing knobs (cache geometry, core model, DRAM) form \
                 multi-config groups; grids that vary simd_lanes/compiler overhead cannot",
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_models_share_a_group_and_hw_is_singleton() {
        let cfgs = [
            configs::banana_pi_hw(1),
            configs::rocket1(1),
            configs::rocket2(1),
            configs::large_boom(1),
        ];
        let groups = partition(&cfgs, 1, 8);
        assert_eq!(groups.len(), 2, "{groups:?}");
        assert_eq!(groups[0].cells, vec![0], "silicon records its own trace");
        assert_eq!(groups[1].cells, vec![1, 2, 3], "sims share one trace");
    }

    #[test]
    fn max_lanes_splits_groups_deterministically() {
        let cfgs: Vec<_> = (0..5).map(|_| configs::rocket1(1)).collect();
        let groups = partition(&cfgs, 1, 2);
        let cells: Vec<_> = groups.iter().map(|g| g.cells.clone()).collect();
        assert_eq!(cells, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn grid_shares_one_trace_key_and_caps_at_n() {
        let g = cache_tuning_grid(2, 6);
        assert_eq!(g.len(), 6);
        let groups = partition(&g, 2, 16);
        assert_eq!(groups.len(), 1, "whole grid must lane together");
        let names: std::collections::BTreeSet<_> = g.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 6, "variant names must be distinct");
    }

    #[test]
    fn the_tuning_grid_shares_one_front_end_per_l1_geometry() {
        let grid = cache_tuning_grid(2, 16);
        let groups = front_groups(&grid);
        assert_eq!(groups.len(), 4, "{groups:?}");
        assert!(groups.iter().all(|g| g.len() == 4), "{groups:?}");
        // The ledger's `sweepx.distinct_l1`: one group per L1 geometry.
        for group in &groups {
            let sets = grid[group[0]].hierarchy.l1d.sets;
            assert!(group.iter().all(|&i| grid[i].hierarchy.l1d.sets == sets));
        }
        assert_eq!(groups[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn silicon_and_sim_models_never_share_a_front_end() {
        for cores in [1, 2, 4] {
            let cfgs = [configs::banana_pi_hw(cores), configs::rocket1(cores)];
            assert_eq!(front_groups(&cfgs), vec![vec![0], vec![1]]);
            let cfgs = [configs::milkv_hw(cores), configs::milkv_sim(cores)];
            assert_eq!(front_groups(&cfgs), vec![vec![0], vec![1]]);
        }
        // The Rocket family shares one L1 geometry and one core model.
        let rockets = [
            configs::rocket1(1),
            configs::banana_pi_hw(1),
            configs::rocket2(1),
            configs::banana_pi_sim(1),
            configs::fast_banana_pi_sim(1),
        ];
        assert_eq!(front_groups(&rockets), vec![vec![0, 2, 3, 4], vec![1]]);
    }

    #[test]
    fn l1_timing_knobs_share_a_front_end_and_l1_shape_does_not() {
        let base = configs::large_boom(2);
        let mut timing = base.clone();
        timing.hierarchy.l1d.banks = 1;
        timing.hierarchy.l1i.hit_latency = 5;
        timing.hierarchy.l1d.mshrs = 1;
        timing.hierarchy.l2.sets = 4096;
        let mut ways = base.clone();
        ways.hierarchy.l1i.ways = 4;
        let mut line = base.clone();
        line.hierarchy.l1d.line_bytes = 32;
        let cores = configs::large_boom(4);
        let mut tlb = base.clone();
        if let CoreModel::Ooo(c) = &mut tlb.core {
            c.tlb.l2_entries = None;
        }
        let cfgs = [base.clone(), ways, timing, line, cores, tlb, base];
        assert_eq!(
            front_groups(&cfgs),
            vec![vec![0, 2, 6], vec![1], vec![3], vec![4], vec![5]]
        );
    }

    #[test]
    fn an_l1_too_wide_for_a_note_decides_alone() {
        let mut wide = configs::large_boom(1);
        wide.hierarchy.l1d.ways = 2 * MAX_SHARED_WAYS;
        assert_eq!(FrontKey::of(&wide), None);
        let cfgs = [wide.clone(), wide];
        assert_eq!(front_groups(&cfgs), vec![vec![0], vec![1]]);
    }

    #[test]
    fn cl081_flags_degenerate_plans() {
        let cfgs = [configs::rocket1(1), configs::rocket2(1)];
        assert!(lint_lane_plan(&cfgs, 1, 1, "p").has_code("CL081"));
        let distinct = [configs::banana_pi_hw(1), configs::milkv_hw(1)];
        assert!(lint_lane_plan(&distinct, 1, 8, "p").has_code("CL081"));
        assert!(lint_lane_plan(&cfgs, 1, 8, "p").is_clean());
    }
}
