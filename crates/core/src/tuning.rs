//! The paper's §4 tuning methodology, as a reusable loop.
//!
//! "We conducted empirical experiments using microbenchmarks to identify
//! performance differences. Based on these insights, we tuned the
//! micro-architectural parameters to more closely replicate the behavior
//! of the target processor."
//!
//! [`choose_best_model`] runs a kernel set on a hardware target and on
//! each candidate simulation model, scores each candidate by its mean
//! log-deviation from parity, and returns the ranking — exactly the
//! selection the paper performs between Small/Medium/Large BOOM before
//! tuning Large into the MILK-V Simulation Model.

use crate::metrics::{deviation_from_parity, relative_speedup};
use bsim_soc::{configs, Soc, SocConfig};
use bsim_telemetry::{GapReport, TelemetryConfig, TelemetrySnapshot};
use bsim_workloads::microbench::{self, MicroKernel};
use serde::{Deserialize, Serialize};

/// Ranked outcome of a model-selection run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Candidate names with their deviation scores, best (lowest) first.
    pub ranking: Vec<(String, f64)>,
    /// Per-candidate, per-kernel relative speedups.
    pub details: Vec<(String, Vec<(String, f64)>)>,
    /// Counter-level attribution of the remaining target-vs-best gap
    /// (which counter moved), from a telemetry re-run of both configs.
    pub attribution: Option<GapReport>,
}

impl TuningOutcome {
    /// Name of the best-matching candidate.
    pub fn best(&self) -> &str {
        &self.ranking[0].0
    }

    /// Renders the ranking plus the top counter deltas that explain the
    /// residual gap — the printable form of the §4 tuning step.
    pub fn explanation(&self, top: usize) -> String {
        let mut out = String::from("model ranking (mean |ln rel-speedup|, best first):\n");
        for (name, score) in &self.ranking {
            out.push_str(&format!("  {name:<24} {score:.4}\n"));
        }
        if let Some(gap) = &self.attribution {
            out.push_str(&gap.render(top));
        }
        out
    }
}

/// Runs `kernels` back-to-back on a single telemetry-enabled instance of
/// `cfg` and returns the accumulated counter export.
fn telemetry_profile(cfg: &SocConfig, kernels: &[MicroKernel], scale: u32) -> TelemetrySnapshot {
    assert!(!kernels.is_empty());
    let mut soc = Soc::new(cfg.clone().with_telemetry(TelemetryConfig::counters()));
    let mut last = None;
    for k in kernels {
        last = Some(soc.run_program(0, &k.build(scale), u64::MAX));
    }
    last.expect("at least one kernel")
        .telemetry
        .expect("telemetry enabled")
}

/// The "which counter moved" step of the §4 loop: profiles both platforms
/// over the same kernels and ranks every counter by its relative delta.
fn attribute_gap(a: &SocConfig, b: &SocConfig, kernels: &[MicroKernel], scale: u32) -> GapReport {
    GapReport::between(
        &a.name,
        &telemetry_profile(a, kernels, scale),
        &b.name,
        &telemetry_profile(b, kernels, scale),
    )
}

/// Runs `kernels` on `target` and all `candidates`; ranks candidates by
/// closeness to the target (mean |ln(relative speedup)|).
pub fn choose_best_model(
    candidates: &[SocConfig],
    target: &SocConfig,
    kernels: &[MicroKernel],
    scale: u32,
) -> TuningOutcome {
    assert!(!candidates.is_empty() && !kernels.is_empty());
    let mut target_secs = Vec::with_capacity(kernels.len());
    let progs: Vec<_> = kernels.iter().map(|k| k.build(scale)).collect();
    for prog in &progs {
        let rep = Soc::new(target.clone()).run_program(0, prog, u64::MAX);
        target_secs.push(rep.seconds);
    }
    let mut ranking = Vec::new();
    let mut details = Vec::new();
    for cand in candidates {
        let mut rels = Vec::with_capacity(kernels.len());
        let mut per_kernel = Vec::new();
        for (ki, prog) in progs.iter().enumerate() {
            let rep = Soc::new(cand.clone()).run_program(0, prog, u64::MAX);
            let rel = relative_speedup(target_secs[ki], rep.seconds);
            rels.push(rel);
            per_kernel.push((kernels[ki].name.to_string(), rel));
        }
        ranking.push((cand.name.clone(), deviation_from_parity(&rels)));
        details.push((cand.name.clone(), per_kernel));
    }
    ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best_cfg = candidates
        .iter()
        .find(|c| c.name == ranking[0].0)
        .expect("best candidate is one of the candidates");
    let attribution = Some(attribute_gap(target, best_cfg, kernels, scale));
    TuningOutcome {
        ranking,
        details,
        attribution,
    }
}

/// The paper's own §4 selection, as `bsim tune`, the service's `tune`
/// request and the dist workers all run it: eight probe kernels
/// spanning the MicroBench categories rank the stock Small/Medium/Large
/// BOOM against the MILK-V hardware.
pub fn tune_milkv(scale: u32) -> TuningOutcome {
    let probes: Vec<_> = microbench::evaluated()
        .into_iter()
        .filter(|k| ["Cca", "CCh", "ED1", "EI", "EM5", "MD", "ML2", "DP1d"].contains(&k.name))
        .collect();
    choose_best_model(
        &[
            configs::small_boom(1),
            configs::medium_boom(1),
            configs::large_boom(1),
        ],
        &configs::milkv_hw(1),
        &probes,
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast kernel subset spanning the categories.
    fn probe_kernels() -> Vec<MicroKernel> {
        microbench::evaluated()
            .into_iter()
            .filter(|k| ["Cca", "ED1", "EI", "MD", "DP1d"].contains(&k.name))
            .collect()
    }

    #[test]
    fn identical_config_wins_trivially() {
        let target = configs::large_boom(1);
        let candidates = vec![
            configs::small_boom(1),
            configs::large_boom(1),
            configs::medium_boom(1),
        ];
        let out = choose_best_model(&candidates, &target, &probe_kernels(), 1);
        assert_eq!(out.best(), "Large BOOM");
        let best_score = out.ranking[0].1;
        assert!(
            best_score < 1e-9,
            "identical config must score ~0, got {best_score}"
        );
    }

    #[test]
    fn larger_boom_matches_the_wide_silicon_best() {
        // The paper's §5.1 finding: among stock BOOMs, Large matches the
        // MILK-V best on compute microbenchmarks.
        let target = configs::milkv_hw(1);
        let candidates = vec![
            configs::small_boom(1),
            configs::medium_boom(1),
            configs::large_boom(1),
        ];
        let out = choose_best_model(&candidates, &target, &probe_kernels(), 1);
        assert_eq!(out.best(), "Large BOOM", "ranking: {:?}", out.ranking);
    }

    #[test]
    fn details_cover_every_candidate_and_kernel() {
        let out = choose_best_model(
            &[configs::rocket1(1)],
            &configs::banana_pi_hw(1),
            &probe_kernels(),
            1,
        );
        assert_eq!(out.details.len(), 1);
        assert_eq!(out.details[0].1.len(), 5);
    }

    #[test]
    fn attribution_surfaces_memory_counters_for_the_boom_gap() {
        // milkv_hw (DDR4-3200, big LLC) vs Large BOOM (FireSim DDR3-2000,
        // token quantization): the ranked deltas must include memory-system
        // counters — the paper's §5/§6 DRAM/LLC attribution.
        let gap = attribute_gap(
            &configs::milkv_hw(1),
            &configs::large_boom(1),
            &probe_kernels(),
            1,
        );
        assert!(!gap.rows.is_empty());
        assert!(
            gap.top(10).iter().any(|r| r.counter.starts_with("mem.")),
            "top deltas must mention the memory system: {}",
            gap.render(10)
        );
        let stall = gap
            .rows
            .iter()
            .find(|r| r.counter == "mem.dram.token_stall_cycles")
            .expect("token-stall counter present");
        assert_eq!(stall.a, 0, "silicon has no token quantization");
        assert!(
            stall.b > 0,
            "FireSim DDR3 model must pay quantization stalls"
        );
    }

    #[test]
    fn tuning_outcome_explains_which_counter_moved() {
        let out = choose_best_model(
            &[configs::large_boom(1)],
            &configs::milkv_hw(1),
            &probe_kernels(),
            1,
        );
        let text = out.explanation(5);
        assert!(text.contains("Large BOOM"));
        assert!(
            text.contains("gap report"),
            "explanation embeds the counter diff:\n{text}"
        );
    }
}
