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
use bsim_soc::{configs, Bucket, CycleStack, Soc, SocConfig, TelemetryConfig};
use bsim_workloads::microbench::{self, MicroKernel};
use serde::{Deserialize, Serialize};

/// Ranked outcome of a model-selection run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Candidate names with their deviation scores, best (lowest) first.
    pub ranking: Vec<(String, f64)>,
    /// Per-candidate, per-kernel relative speedups.
    pub details: Vec<(String, Vec<(String, f64)>)>,
    /// Each platform's cycle stack summed over the kernels: the target's
    /// first, then each candidate's in the order given.
    pub stacks: Vec<(String, CycleStack)>,
}

impl TuningOutcome {
    /// Name of the best-matching candidate.
    pub fn best(&self) -> &str {
        &self.ranking[0].0
    }

    /// Renders the ranking, then the target's and the best candidate's
    /// cycle stacks with each bucket's delta: the deltas sum to the gap
    /// in cycles. The printable form of the §4 tuning step.
    pub fn explanation(&self) -> String {
        let mut out = String::from("model ranking (mean |ln rel-speedup|, best first):\n");
        for (name, score) in &self.ranking {
            out.push_str(&format!("  {name:<24} {score:.4}\n"));
        }
        let (target, a) = &self.stacks[0];
        let (best, b) = self.stacks[1..]
            .iter()
            .find(|(name, _)| name == self.best())
            .expect("the best candidate has a stack");
        out.push_str(&format!(
            "cycle stacks over the kernels (delta = {best} - {target}):\n  {:<10} {:>16} {:>16} {:>14}\n",
            "bucket", target, best, "delta"
        ));
        let mut row = |name: &str, x: u64, y: u64| {
            let delta = y as i64 - x as i64;
            out.push_str(&format!("  {name:<10} {x:>16} {y:>16} {delta:>+14}\n"));
        };
        for bucket in Bucket::ALL {
            if a.get(bucket) > 0 || b.get(bucket) > 0 {
                row(bucket.name(), a.get(bucket), b.get(bucket));
            }
        }
        row("total", a.total(), b.total());
        out
    }
}

/// Runs each of `progs` on a fresh `cfg`: the seconds of each, and the
/// cycle stacks of all of them summed.
fn profile(cfg: &SocConfig, progs: &[bsim_isa::Program]) -> (Vec<f64>, CycleStack) {
    let observed = cfg.clone().with_telemetry(TelemetryConfig::counters());
    let mut stack = CycleStack::default();
    let mut secs = Vec::with_capacity(progs.len());
    for prog in progs {
        let rep = Soc::new(observed.clone()).run_program(0, prog, u64::MAX);
        for core in rep.telemetry.expect("telemetry enabled") {
            for b in Bucket::ALL {
                stack.charge(b, core.get(b));
            }
        }
        secs.push(rep.seconds);
    }
    (secs, stack)
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
    let progs: Vec<_> = kernels.iter().map(|k| k.build(scale)).collect();
    let (target_secs, target_stack) = profile(target, &progs);
    let mut ranking = Vec::new();
    let mut details = Vec::new();
    let mut stacks = vec![(target.name.clone(), target_stack)];
    for cand in candidates {
        let (secs, stack) = profile(cand, &progs);
        let rels: Vec<f64> = target_secs
            .iter()
            .zip(&secs)
            .map(|(&t, &c)| relative_speedup(t, c))
            .collect();
        let per_kernel = kernels.iter().zip(&rels);
        let per_kernel = per_kernel
            .map(|(k, &rel)| (k.name.to_string(), rel))
            .collect();
        ranking.push((cand.name.clone(), deviation_from_parity(&rels)));
        details.push((cand.name.clone(), per_kernel));
        stacks.push((cand.name.clone(), stack));
    }
    ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
    TuningOutcome {
        ranking,
        details,
        stacks,
    }
}

/// The paper's own §4 selection, as `bsim tune` and the service's `tune`
/// request both run it: eight probe kernels
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
    fn tuning_outcome_explains_which_counter_moved() {
        let out = choose_best_model(
            &[configs::large_boom(1)],
            &configs::milkv_hw(1),
            &probe_kernels(),
            1,
        );
        let text = out.explanation();
        assert!(text.contains("Large BOOM"));
        // The deltas sum to the gap, which the total row states.
        let delta =
            |line: &str| -> i64 { line.split_whitespace().last().unwrap().parse().unwrap() };
        let rows: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("bucket"))
            .skip(1)
            .collect();
        let (total, buckets) = rows.split_last().expect("a total row");
        assert!(total.trim_start().starts_with("total"), "{text}");
        assert_eq!(
            buckets.iter().map(|l| delta(l)).sum::<i64>(),
            delta(total),
            "{text}"
        );
        let (a, b) = (&out.stacks[0].1, &out.stacks[1].1);
        assert_eq!(delta(total), b.total() as i64 - a.total() as i64);
    }
}
