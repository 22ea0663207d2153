//! SimPoint-style sampled simulation over operation-segment traces.
//!
//! The classic SimPoint recipe clusters basic-block vectors (BBVs) of
//! fixed instruction intervals and runs detailed timing only on one
//! representative per cluster. The traces here are already cut into
//! natural segments — one [`bsim_mpi::Ev::Consume`] event per traced
//! workload region of a recorded MPI world — so the BBV analog is a per-segment *phase signature*:
//! the op-class mix, branch-taken rate, a memory-stride feature, and
//! the segment length. Segments are clustered with a small k-means
//! (deterministic strided init, fixed iteration count), refined by
//! occurrence parity ([`SampleCfg::phase_split`]), and each
//! cluster is measured in detail until it *quiesces* — consecutive
//! cycles-per-op measurements agree within `quiesce_tol`, meaning the
//! caches have warmed past the cold-start transient — after which every
//! further member fast-forwards the lane clock by the cluster's
//! stable-suffix cycles-per-op mean. A strided budget of extra
//! representatives keeps re-measuring each stratum across the run; a
//! representative whose rate drifts back out of tolerance un-quiesces
//! its stratum and detailed timing resumes until it restabilizes.
//!
//! Soundness (DESIGN.md §16): a representative is always *earlier in
//! the trace* than any segment it stands in for, and skipping needs a
//! quiesced stratum — at least two consecutive in-tolerance
//! measurements — so cold-start rates never extrapolate to warm
//! segments; communication events are never skipped, so cross-rank
//! orderings and all mail payloads are exact; and the per-metric
//! standard error is the stratified-sampling bound over each stratum's
//! stable suffix, surfaced in [`SampleReport`] and gated by
//! `tests/lane_ab.rs`.

use bsim_check::{Diagnostic, Report};
use bsim_isa::OpClass;
use bsim_uarch::MicroOp;

/// Number of features in a phase signature.
const SIG_DIM: usize = 8;

/// A segment phase signature: op-mix fractions (ALU/mul, div, FP,
/// load, store, control), branch-taken rate, mean log2 stride, and
/// log2 length.
pub type Signature = [f64; SIG_DIM];

/// Sampling budget knobs. Every one of them changes the estimate.
#[derive(Clone, Copy, Debug)]
pub struct SampleCfg {
    /// Cluster-count cap; the effective k is
    /// `min(max_clusters, ceil(sqrt(segments)))`.
    pub max_clusters: usize,
    /// Measured segments per cluster floor (2 gives a defined variance
    /// estimate; see CL086).
    pub min_measured_per_cluster: usize,
    /// Extra measured fraction per cluster beyond the floor, strided
    /// across the cluster's members.
    pub extra_rate: f64,
    /// Quiescence tolerance: a stratum may fast-forward once two
    /// consecutive measured cycles-per-op rates agree within this
    /// relative bound (cache warm-up has settled).
    pub quiesce_tol: f64,
    /// Phase-position splitting factor: each cluster is refined into
    /// `phase_split` strata by occurrence index modulo this value.
    /// Iterative workloads with ping-pong buffers alternate between
    /// two steady rates at period 2, which defeats consecutive-rate
    /// quiescence unless even and odd occurrences are separate strata.
    pub phase_split: usize,
    /// Deterministic seed folded into the k-means init stride.
    pub seed: u64,
}

impl Default for SampleCfg {
    fn default() -> SampleCfg {
        SampleCfg {
            max_clusters: 24,
            min_measured_per_cluster: 2,
            extra_rate: 0.05,
            quiesce_tol: 0.05,
            phase_split: 2,
            seed: 0x5EED,
        }
    }
}

impl SampleCfg {
    /// CL085/CL086/CL087: sampling-budget soundness lints.
    ///
    /// * **CL085** (error) — a degenerate budget (`max_clusters == 0`,
    ///   `phase_split == 0` or a non-positive `quiesce_tol`) cannot
    ///   produce a plan at all.
    /// * **CL086** (warning) — fewer than 2 measured segments per
    ///   cluster leaves the stratum variance undefined, so the reported
    ///   error bound degrades to the conservative 100%-of-stratum form.
    /// * **CL087** (warning) — an extra-rate above 0.5 measures most of
    ///   the trace in detail, so sampling overhead exceeds its savings;
    ///   a `quiesce_tol` above 0.5 accepts drifting strata as quiesced.
    pub fn lint(&self, span: &str) -> Report {
        let mut report = Report::new();
        if self.max_clusters == 0 {
            report.push(
                Diagnostic::error("CL085", span, "max_clusters is 0: no stratum can exist")
                    .with_help("use at least 1 cluster (k is capped at sqrt(segments) anyway)"),
            );
        }
        if self.phase_split == 0 {
            report.push(
                Diagnostic::error(
                    "CL085",
                    span,
                    "phase_split is 0: occurrence refinement is undefined",
                )
                .with_help("use 1 to disable phase splitting or 2 for ping-pong workloads"),
            );
        }
        // NaN must fail this check too, so it is not `<= 0.0`.
        if self.quiesce_tol.is_nan() || self.quiesce_tol <= 0.0 {
            report.push(
                Diagnostic::error(
                    "CL085",
                    span,
                    "quiesce_tol is not positive: no stratum can ever quiesce",
                )
                .with_help("use a small positive tolerance (default 0.05)"),
            );
        }
        if self.min_measured_per_cluster < 2 {
            report.push(
                Diagnostic::warning(
                    "CL086",
                    span,
                    format!(
                        "min_measured_per_cluster {} leaves stratum variance undefined",
                        self.min_measured_per_cluster
                    ),
                )
                .with_help(
                    "variance needs >= 2 samples per stratum; single-sample strata fall back \
                     to a conservative 100%-of-stratum error contribution",
                ),
            );
        }
        if self.extra_rate > 0.5 {
            report.push(
                Diagnostic::warning(
                    "CL087",
                    span,
                    format!(
                        "extra_rate {:.2} measures most segments in detail",
                        self.extra_rate
                    ),
                )
                .with_help("sampling pays when the detailed fraction stays well below half"),
            );
        }
        if self.quiesce_tol > 0.5 {
            report.push(
                Diagnostic::warning(
                    "CL087",
                    span,
                    format!(
                        "quiesce_tol {:.2} accepts wildly drifting strata as quiesced",
                        self.quiesce_tol
                    ),
                )
                .with_help("tolerances above 50% make the stable-suffix estimate meaningless"),
            );
        }
        report
    }
}

/// Computes the phase signature of one micro-op segment.
pub fn signature(uops: &[MicroOp]) -> Signature {
    let mut sig = [0.0; SIG_DIM];
    if uops.is_empty() {
        return sig;
    }
    let n = uops.len() as f64;
    let (mut branches, mut taken) = (0u64, 0u64);
    let mut last_addr: Option<u64> = None;
    let (mut strides, mut stride_sum) = (0u64, 0.0f64);
    for u in uops {
        let slot = match u.class {
            OpClass::IntAlu | OpClass::IntMul => 0,
            OpClass::IntDiv | OpClass::FpDiv | OpClass::FpTranscendental => 1,
            OpClass::FpAlu | OpClass::FpMul => 2,
            OpClass::Load => 3,
            OpClass::Store => 4,
            OpClass::Branch | OpClass::Jump => 5,
            OpClass::System => 0,
        };
        sig[slot] += 1.0;
        if let Some((_, t)) = u.branch {
            branches += 1;
            if t {
                taken += 1;
            }
        }
        if let Some(a) = u.mem_addr {
            if let Some(prev) = last_addr {
                let delta = a.abs_diff(prev).max(1);
                stride_sum += (delta as f64).log2();
                strides += 1;
            }
            last_addr = Some(a);
        }
    }
    for s in sig.iter_mut().take(6) {
        *s /= n;
    }
    sig[6] = if branches > 0 {
        taken as f64 / branches as f64
    } else {
        0.0
    };
    // Normalize the stride and length features into the same unit-ish
    // range as the fractions so no single axis dominates the distance.
    sig[7] = if strides > 0 {
        (stride_sum / strides as f64) / 64.0
    } else {
        0.0
    };
    sig
}

fn dist2(a: &Signature, b: &Signature) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means-lite: deterministic strided init (seed-rotated), fixed 8
/// Lloyd iterations, empty clusters keep their previous center. Returns
/// per-segment cluster ids and the cluster count.
pub fn cluster(sigs: &[Signature], cfg: &SampleCfg) -> (Vec<u32>, usize) {
    let n = sigs.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let k = cfg
        .max_clusters
        .max(1)
        .min((n as f64).sqrt().ceil() as usize)
        .min(n);
    let offset = (cfg.seed as usize) % n;
    let mut centers: Vec<Signature> = (0..k).map(|i| sigs[(i * n / k + offset) % n]).collect();
    let mut assign = vec![0u32; n];
    for _ in 0..8 {
        for (i, s) in sigs.iter().enumerate() {
            let mut best = (f64::INFINITY, 0u32);
            for (c, center) in centers.iter().enumerate() {
                let d = dist2(s, center);
                if d < best.0 {
                    best = (d, c as u32);
                }
            }
            assign[i] = best.1;
        }
        let mut sums = vec![[0.0; SIG_DIM]; k];
        let mut counts = vec![0usize; k];
        for (i, s) in sigs.iter().enumerate() {
            let c = assign[i] as usize;
            counts[c] += 1;
            for (acc, v) in sums[c].iter_mut().zip(s) {
                *acc += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for (ctr, sum) in centers[c].iter_mut().zip(&sums[c]) {
                    *ctr = sum / counts[c] as f64;
                }
            }
        }
    }
    (assign, k)
}

/// A sampling plan: which segments run in detail and which fast-forward.
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// Cluster id per segment, in trace order.
    pub cluster_of: Vec<u32>,
    /// Cluster count (k).
    pub clusters: usize,
    /// True where the segment is measured in detail.
    pub measured: Vec<bool>,
    /// Micro-op length per segment.
    pub seg_uops: Vec<usize>,
}

impl SamplePlan {
    /// Builds a plan from per-segment signatures and lengths.
    ///
    /// Within each cluster the *earliest* member is always measured —
    /// that is what makes skipping sound, since a skipped segment's
    /// estimate must come from an already-measured stratum mate — plus
    /// `min_measured_per_cluster`/`extra_rate` strided picks.
    pub fn build(sigs: &[Signature], seg_uops: Vec<usize>, cfg: &SampleCfg) -> SamplePlan {
        assert_eq!(sigs.len(), seg_uops.len());
        let (mut cluster_of, mut clusters) = cluster(sigs, cfg);
        // Phase-position refinement: the k-th occurrence of a cluster
        // joins stratum `cluster * split + k % split`, so workloads
        // whose per-phase rate alternates with buffer parity get one
        // constant-rate stratum per parity and quiescence can latch.
        let split = cfg.phase_split.max(1) as u32;
        if split > 1 {
            let mut occ = vec![0u32; clusters];
            for c in cluster_of.iter_mut() {
                let base = *c as usize;
                *c = *c * split + occ[base] % split;
                occ[base] += 1;
            }
            clusters *= split as usize;
        }
        let mut measured = vec![false; sigs.len()];
        for c in 0..clusters {
            let members: Vec<usize> = (0..sigs.len())
                .filter(|&i| cluster_of[i] == c as u32)
                .collect();
            if members.is_empty() {
                continue;
            }
            // The static plan pins only the earliest member (the
            // soundness anchor) plus an `extra_rate` stride of drift
            // tripwires; the `min_measured_per_cluster` statistical
            // floor is enforced *dynamically* by quiescence, which
            // keeps measuring until the stratum stabilizes.
            let extra = (cfg.extra_rate * members.len() as f64).ceil() as usize;
            let need = (1 + extra).min(members.len());
            for j in 0..need {
                measured[members[j * members.len() / need]] = true;
            }
            measured[members[0]] = true;
        }
        SamplePlan {
            cluster_of,
            clusters,
            measured,
            seg_uops,
        }
    }

    /// Number of measured segments.
    pub(crate) fn measured_count(&self) -> usize {
        self.measured.iter().filter(|&&m| m).count()
    }

    /// Total segments.
    pub fn segments(&self) -> usize {
        self.measured.len()
    }
}

/// One estimated metric with its standard error.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SampleMetric {
    /// Metric name (`cycles`, `cpi`, `seconds`).
    pub name: &'static str,
    /// Sampled estimate.
    pub value: f64,
    /// Stratified-sampling standard error of the estimate.
    pub stderr: f64,
}

/// Per-lane sampling outcome: the estimate plus its error bound.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SampleReport {
    /// Total trace segments.
    pub segments: usize,
    /// Segments run in detailed timing.
    pub measured_segments: usize,
    /// Cluster (stratum) count.
    pub clusters: usize,
    /// Micro-ops covered by measured segments.
    pub measured_uops: u64,
    /// Micro-ops in the whole trace.
    pub total_uops: u64,
    /// Estimated metrics with stratified standard errors.
    pub metrics: Vec<SampleMetric>,
}

impl SampleReport {
    /// Relative standard error (`stderr / value`) of a metric.
    pub fn rel_stderr(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| {
            if m.value != 0.0 {
                m.stderr / m.value.abs()
            } else {
                0.0
            }
        })
    }

    /// Detailed-simulation fraction by micro-op count.
    pub fn measured_fraction(&self) -> f64 {
        if self.total_uops == 0 {
            1.0
        } else {
            self.measured_uops as f64 / self.total_uops as f64
        }
    }

    /// One-line summary for figure notes and bench rows.
    pub fn describe(&self) -> String {
        format!(
            "sampled {}/{} segments ({:.1}% of ops) in {} strata, cycles +/-{:.2}%",
            self.measured_segments,
            self.segments,
            100.0 * self.measured_fraction(),
            self.clusters,
            100.0 * self.rel_stderr("cycles").unwrap_or(0.0),
        )
    }
}

/// Per-lane stratum accumulators the replay kernels feed while
/// measuring representatives, and drain for skips and error bounds.
///
/// A stratum is *quiesced* once it holds `min_measured` measurements
/// whose tail contains two consecutive cycles-per-op rates within
/// `tol` of each other — the cache-warm-up transient has settled.
/// Only quiesced strata may fast-forward, and estimates come from the
/// **stable suffix**: the samples after the last out-of-tolerance
/// jump. A later representative that drifts back out of tolerance
/// shrinks the suffix below two and the stratum automatically drops
/// back to detailed timing until it restabilizes.
#[derive(Clone, Debug)]
pub(crate) struct Strata {
    clusters: usize,
    /// Detailed cycles per stratum (all measurements).
    cycles: Vec<f64>,
    /// Detailed micro-ops per stratum (all measurements).
    uops: Vec<u64>,
    /// Per-segment cycles-per-op samples per stratum, in trace order.
    samples: Vec<Vec<f64>>,
    /// Start of the stable suffix per stratum: index just past the
    /// last adjacent pair that disagreed by more than `tol`.
    stable_from: Vec<usize>,
    /// Skipped micro-ops per stratum.
    skipped_uops: Vec<u64>,
    /// Relative tolerance for two adjacent rates to count as stable.
    tol: f64,
    /// Measurement-count floor before a stratum may quiesce.
    min_measured: usize,
}

impl Strata {
    pub(crate) fn new(clusters: usize, cfg: &SampleCfg) -> Strata {
        Strata {
            clusters,
            cycles: vec![0.0; clusters],
            uops: vec![0; clusters],
            samples: vec![Vec::new(); clusters],
            stable_from: vec![0; clusters],
            skipped_uops: vec![0; clusters],
            tol: cfg.quiesce_tol,
            min_measured: cfg.min_measured_per_cluster.max(1),
        }
    }

    /// The stratum's stable-suffix samples (empty until measured).
    fn stable(&self, c: usize) -> &[f64] {
        &self.samples[c][self.stable_from[c]..]
    }

    /// True when the stratum has quiesced: enough measurements overall
    /// and at least two consecutive in-tolerance rates at the tail.
    pub(crate) fn quiesced(&self, cluster: u32) -> bool {
        let c = cluster as usize;
        self.samples[c].len() >= self.min_measured && self.stable(c).len() >= 2
    }

    /// Records a measured segment: `len` ops took `cycles` lane cycles.
    pub(crate) fn measure(&mut self, cluster: u32, len: usize, cycles: u64) {
        let c = cluster as usize;
        self.cycles[c] += cycles as f64;
        self.uops[c] += len as u64;
        if len == 0 {
            return;
        }
        let rate = cycles as f64 / len as f64;
        if let Some(&prev) = self.samples[c].last() {
            if (rate - prev).abs() > self.tol * prev.max(1e-12) {
                // Out-of-tolerance jump: the stable suffix restarts at
                // this sample (warm-up still in progress, or a later
                // representative exposed drift).
                self.stable_from[c] = self.samples[c].len();
            }
        }
        self.samples[c].push(rate);
    }

    /// Estimated cycles for a skipped segment of `len` ops, from the
    /// stratum's stable-suffix cycles-per-op mean. Returns `None`
    /// until the stratum quiesces (the caller must then measure — the
    /// replay kernels guard every skip on [`Strata::quiesced`]).
    pub(crate) fn skip(&mut self, cluster: u32, len: usize) -> Option<u64> {
        if !self.quiesced(cluster) {
            return None;
        }
        let c = cluster as usize;
        self.skipped_uops[c] += len as u64;
        let stable = self.stable(c);
        let per_op = stable.iter().sum::<f64>() / stable.len() as f64;
        Some((per_op * len as f64).round() as u64)
    }

    /// Stratified standard error of the total-cycles estimate:
    /// `sqrt(sum_h (U_h^2 * s_h^2) / n_h)` where `U_h` is the stratum's
    /// skipped op count, `s_h` the per-op cycle standard deviation over
    /// its stable-suffix samples, and `n_h` the stable-sample count. A
    /// stratum with skips but fewer than two stable samples contributes
    /// its full estimated magnitude (the conservative bound CL086
    /// warns about).
    pub(crate) fn cycles_stderr(&self) -> f64 {
        let mut var = 0.0;
        for c in 0..self.clusters {
            let u = self.skipped_uops[c] as f64;
            if u == 0.0 {
                continue;
            }
            let stable = self.stable(c);
            let n = stable.len();
            if n < 2 {
                let mean = if self.uops[c] > 0 {
                    self.cycles[c] / self.uops[c] as f64
                } else {
                    0.0
                };
                var += (u * mean) * (u * mean);
                continue;
            }
            let mean = stable.iter().sum::<f64>() / n as f64;
            let s2 = stable.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            var += u * u * s2 / n as f64;
        }
        var.sqrt()
    }

    /// Assembles the per-lane report. `cycles` is the lane's final
    /// clock; `seconds_per_cycle` converts it for the seconds metric.
    pub(crate) fn report(
        &self,
        plan: &SamplePlan,
        cycles: u64,
        seconds_per_cycle: f64,
    ) -> SampleReport {
        let measured_uops: u64 = self.uops.iter().sum();
        let total_uops: u64 = plan.seg_uops.iter().map(|&l| l as u64).sum();
        let se = self.cycles_stderr();
        let cyc = cycles as f64;
        let metrics = vec![
            SampleMetric {
                name: "cycles",
                value: cyc,
                stderr: se,
            },
            SampleMetric {
                name: "cpi",
                value: if total_uops > 0 {
                    cyc / total_uops as f64
                } else {
                    0.0
                },
                stderr: if total_uops > 0 {
                    se / total_uops as f64
                } else {
                    0.0
                },
            },
            SampleMetric {
                name: "seconds",
                value: cyc * seconds_per_cycle,
                stderr: se * seconds_per_cycle,
            },
        ];
        SampleReport {
            segments: plan.segments(),
            measured_segments: plan.measured_count(),
            clusters: plan.clusters,
            measured_uops,
            total_uops,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_uarch::{MicroOp, Ureg};

    fn op(class: OpClass, addr: Option<u64>) -> MicroOp {
        MicroOp {
            pc: 0,
            next_pc: 4,
            class,
            dest: Ureg::new(1),
            srcs: [None; 3],
            mem_addr: addr,
            is_store: matches!(class, OpClass::Store),
            branch: None,
        }
    }

    #[test]
    fn signatures_separate_compute_from_memory_phases() {
        let alu: Vec<MicroOp> = (0..64).map(|_| op(OpClass::IntAlu, None)).collect();
        let mem: Vec<MicroOp> = (0..64).map(|i| op(OpClass::Load, Some(i * 4096))).collect();
        let sa = signature(&alu);
        let sm = signature(&mem);
        assert!(sa[0] > 0.9 && sm[3] > 0.9);
        assert!(dist2(&sa, &sm) > 0.5, "phases must be distinguishable");
        assert_eq!(signature(&[]), [0.0; SIG_DIM]);
    }

    #[test]
    fn plan_always_measures_the_earliest_stratum_member() {
        // Alternate two clearly distinct phases; every cluster's first
        // appearance must be measured so skips always have an estimate.
        let mut sigs = Vec::new();
        let mut lens = Vec::new();
        for i in 0..40 {
            let mut s = [0.0; SIG_DIM];
            s[i % 2] = 1.0;
            sigs.push(s);
            lens.push(100);
        }
        let plan = SamplePlan::build(&sigs, lens, &SampleCfg::default());
        let mut seen = vec![false; plan.clusters];
        for i in 0..plan.segments() {
            let c = plan.cluster_of[i] as usize;
            if !seen[c] {
                assert!(
                    plan.measured[i],
                    "first member of stratum {c} must be measured"
                );
                seen[c] = true;
            }
        }
        assert!(
            plan.measured_count() < plan.segments(),
            "some segments must skip"
        );
    }

    #[test]
    fn clustering_is_deterministic_and_respects_k_cap() {
        let sigs: Vec<Signature> = (0..100)
            .map(|i| {
                let mut s = [0.0; SIG_DIM];
                s[i % 4] = 1.0;
                s[7] = (i % 7) as f64 / 7.0;
                s
            })
            .collect();
        let cfg = SampleCfg {
            max_clusters: 6,
            ..SampleCfg::default()
        };
        let (a1, k1) = cluster(&sigs, &cfg);
        let (a2, k2) = cluster(&sigs, &cfg);
        assert_eq!((a1.clone(), k1), (a2, k2), "same input, same clustering");
        assert!(k1 <= 6);
        let (_, k_sqrt) = cluster(&sigs[..9], &SampleCfg::default());
        assert!(k_sqrt <= 3, "k capped at ceil(sqrt(n))");
    }

    #[test]
    fn skips_need_quiescence_and_use_the_stable_suffix() {
        let cfg = SampleCfg::default();
        let mut st = Strata::new(2, &cfg);
        // Cold-start transient (4.0 cyc/op) must not leak into the
        // estimate: only the 2.0-ish stable suffix counts.
        st.measure(0, 100, 400);
        assert_eq!(st.skip(0, 10), None, "one sample cannot quiesce");
        st.measure(0, 100, 200);
        assert_eq!(st.skip(0, 10), None, "jump restarted the suffix");
        st.measure(0, 100, 202);
        let est = st.skip(0, 1000).expect("two stable samples quiesce");
        assert_eq!(est, 2010, "mean(2.0, 2.02) cyc/op * 1000 ops");
        assert!(st.cycles_stderr() > 0.0);
        // A drifting late representative un-quiesces the stratum.
        st.measure(0, 100, 300);
        assert_eq!(st.skip(0, 10), None, "drift resumed detailed timing");
        st.measure(0, 100, 302);
        assert!(st.quiesced(0), "restabilized on the new plateau");
        // Unmeasured stratum refuses to estimate.
        assert_eq!(Strata::new(1, &cfg).skip(0, 10), None);
    }

    #[test]
    fn drift_after_skips_degrades_to_the_conservative_bound() {
        // Quiesce, skip, then drift: the stable suffix shrinks below
        // two samples while skipped ops remain on the books, so the
        // error bound must fall back to the full stratum magnitude.
        let cfg = SampleCfg::default();
        let mut st = Strata::new(1, &cfg);
        st.measure(0, 100, 200);
        st.measure(0, 100, 202);
        st.skip(0, 1000).expect("quiesced");
        let tight = st.cycles_stderr();
        st.measure(0, 100, 400);
        assert!(!st.quiesced(0), "drift must un-quiesce the stratum");
        let conservative = st.cycles_stderr();
        assert!(
            conservative > tight && conservative >= 1000.0 * 2.0,
            "bound must blow up to the stratum magnitude ({tight} -> {conservative})"
        );
    }

    #[test]
    fn lints_flag_unsound_budgets() {
        assert!(SampleCfg::default().lint("s").is_clean());
        let degenerate = SampleCfg {
            max_clusters: 0,
            phase_split: 0,
            ..SampleCfg::default()
        };
        let r = degenerate.lint("s");
        assert_eq!(r.error_count(), 2);
        assert!(r.has_code("CL085"));
        let thin = SampleCfg {
            min_measured_per_cluster: 1,
            ..SampleCfg::default()
        };
        assert!(thin.lint("s").has_code("CL086"));
        let fat = SampleCfg {
            extra_rate: 0.9,
            ..SampleCfg::default()
        };
        assert!(fat.lint("s").has_code("CL087"));
    }
}
