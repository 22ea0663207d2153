//! The paper's claims against the pipeline. Every row of
//! `core::claims::PAPER_CLAIMS` is scored on the smoke figure golden
//! (`crates/core/tests/figures_smoke.golden.json`, which
//! `figures_golden.rs` holds to what the binary computes) and its
//! verdict pinned here, so no claim test simulates what the golden
//! already pins. The named tests below score the rows behind one §5
//! finding each, so a moved verdict names the finding it breaks. A
//! changed verdict is a changed model: re-pin it in the same change that
//! re-blesses the golden, and say which claim moved.

use silicon_bridge::core::claims::{claim, Score, Verdict, PAPER_CLAIMS};
use silicon_bridge::core::experiments::{figure, Series, Sizes, FIGURES};
use silicon_bridge::core::{CkptStore, Parallelism};
use silicon_bridge::mpi::NetConfig;
use silicon_bridge::soc::configs;
use silicon_bridge::workloads::npb::ep;
use std::path::Path;
use std::sync::OnceLock;
use Verdict::{Deviates, Met, Partial};

/// Every claim's verdict at `Sizes::smoke()`, in table order.
const SMOKE_VERDICTS: [(&str, Verdict); 38] = [
    ("f1-memory-band", Partial),
    ("f1-mm-lowest", Met),
    ("f1-compute-below", Partial),
    ("f1-fast-compute", Met),
    ("f1-fast-cache", Met),
    ("f1-fast-memory", Partial),
    ("f2-memory-band", Partial),
    ("f2-large-boom-best", Met),
    ("f2-cr-best", Met),
    ("f2-ex-chains", Met),
    ("f2-ei-parity", Met),
    ("f2-mip", Deviates),
    ("f2-conflict", Partial),
    ("f2-cache-similar", Partial),
    ("f3-rocket12", Met),
    ("f3-bpi-improves", Met),
    ("f3-ep-slower", Met),
    ("f3-fast-closest", Met),
    ("f3-fast-mg", Deviates),
    ("f4-large-boom-closest", Met),
    ("f4-ep-close", Met),
    ("f4-npb-slower", Met),
    ("f4-tuning-cg", Deviates),
    ("f4-tuning-is-mg", Met),
    ("f4-tuning-cg-4", Partial),
    ("f4-multicore-gap", Partial),
    ("f4-mg-gap", Met),
    ("f4-ep-parity", Met),
    ("f4-ep-closest", Met),
    ("f5-scaling", Met),
    ("f5-bpi-close", Met),
    ("f5-milkv-gap", Partial),
    ("f6-bpi-gap", Partial),
    ("f6-milkv-gap", Partial),
    ("f6-scaling", Met),
    ("f7-bpi-gap", Partial),
    ("f7-milkv-gap", Partial),
    ("f7-scaling", Met),
];

/// Every subfigure of the smoke golden, in `FIGURES` order.
fn smoke_golden() -> &'static [(&'static str, Vec<Series>)] {
    static GOLDEN: OnceLock<Vec<(&'static str, Vec<Series>)>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/core/tests/figures_smoke.golden.json");
        let golden = CkptStore::load(&path).expect("golden file loads");
        FIGURES
            .iter()
            .map(|spec| {
                let series = golden.get(spec.key).expect("golden entry is well-formed");
                (
                    spec.key,
                    series.unwrap_or_else(|| panic!("{} missing from the golden", spec.key)),
                )
            })
            .collect()
    })
}

/// The claim `id` scored on the smoke golden.
fn smoke_score(id: &str) -> Score {
    let view: Vec<(&str, &[Series])> = smoke_golden()
        .iter()
        .map(|(key, s)| (*key, &s[..]))
        .collect();
    claim(id)
        .score(&view)
        .unwrap_or_else(|e| panic!("{id}: {e}"))
}

/// Each of `ids` scores its pinned verdict on the smoke golden.
fn assert_pinned(ids: &[&str]) {
    for id in ids {
        let (_, pinned) = SMOKE_VERDICTS
            .iter()
            .find(|(p, _)| p == id)
            .unwrap_or_else(|| panic!("{id} has no pinned verdict"));
        let score = smoke_score(id);
        assert_eq!(score.verdict, *pinned, "{id}: {}", score.measured);
    }
}

#[test]
fn every_claim_scores_its_pinned_verdict_on_the_smoke_golden() {
    let scored: Vec<(&str, Verdict)> = PAPER_CLAIMS
        .iter()
        .map(|c| (c.id, smoke_score(c.id).verdict))
        .collect();
    assert_eq!(scored, SMOKE_VERDICTS);
}

/// §5.1 / Figure 1: the memory microbenchmarks (MM) show the largest gap
/// between the DDR3-bound FireSim model and the LPDDR4 silicon.
#[test]
fn mm_gap_is_the_largest_in_figure1() {
    assert_pinned(&["f1-mm-lowest", "f1-memory-band"]);
}

/// §5.1 / Figure 1: the Fast (2x clock) Banana Pi model improves the
/// compute categories but NOT the DRAM-bound memory kernels.
#[test]
fn fast_model_helps_compute_not_memory() {
    assert_pinned(&["f1-fast-compute", "f1-fast-memory"]);
}

/// §5.2.2 / Figure 4b: EP reaches near performance parity between the
/// MILK-V Simulation Model and the MILK-V hardware, on 1 and 4 ranks.
#[test]
fn ep_parity_on_milkv_pair() {
    assert_pinned(&["f4-ep-parity"]);
}

/// §5.2.2's 4-core CG gain needs a CG working set that overflows the
/// stock 32 KiB L1 but fits the tuned 64 KiB one; smoke's n = 256 fits
/// either, so this one claim runs at its own size.
#[test]
fn milkv_tuning_improves_cg_multicore() {
    let sizes = Sizes {
        cg_n: 2048,
        cg_iters: 6,
        ..Sizes::smoke()
    };
    let fig = figure("fig4b4").run(sizes, Parallelism::Sequential);
    let score = claim("f4-tuning-cg-4")
        .score(&[("fig4b4", &fig.series)])
        .expect("fig4b4 has the points the claim reads");
    assert_eq!(score.verdict, Met, "{}", score.measured);
}

/// §5.2.1 / Figure 3: Rocket 1 and Rocket 2 perform nearly identically
/// on NPB (the L2 banking alone changes little).
#[test]
fn rocket1_and_rocket2_are_close_on_npb() {
    assert_pinned(&["f3-rocket12"]);
}

/// §5.3 / Figure 5: UME scales with MPI ranks on every platform, and the
/// Banana Pi simulation runs near, but below, the silicon.
#[test]
fn ume_scales_and_sim_is_slower() {
    assert_pinned(&["f5-scaling", "f5-bpi-close"]);
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
