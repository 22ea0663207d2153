//! `sweep-lanes`: the 16-config cache-tuning grid on NPB CG at 2 ranks.
//! One pass replays one recording `REPLAYS` times over: all 16 lanes in
//! full, then sampled, with pace slices between the replays.
//!
//! Why it exists: the functional work is recorded once, in `setup`, so
//! measured time is `sweepx` + `mem` + `uarch` only — the target of
//! ROADMAP item 2 — and full beside sampled replay is the same layer
//! used two ways.

use super::stage;
use super::{pace_slices, Ctx, Layers, PassOut, Workload};
use silicon_bridge::mpi::{NetConfig, WorldReport, WorldTrace};
use silicon_bridge::soc::{Soc, SocConfig};
use silicon_bridge::sweepx::{cache_tuning_grid, lint_lane_plan, replay_world, SampleCfg};
use silicon_bridge::uarch::MicroOp;
use silicon_bridge::workloads::npb::cg::{self, CgConfig};
use std::collections::BTreeSet;
use std::time::Instant;

const RANKS: usize = 2;
const LANES: usize = 16;
/// Measured CG: a full replay of its recording is ≈ 0.8 s here, a
/// sampled one ≈ 0.5 s. Short replays, and `REPLAYS` of them in a pass,
/// so that the pace loop gets a word in every second: inside
/// `replay_world` there is no place for a slice.
const FULL: CgConfig = CgConfig {
    n: 1024,
    nnz_per_row: 11,
    iters: 12,
};
const REPLAYS: usize = 5;
const SLICES_PER_REPLAY: usize = 10;
const SMOKE: CgConfig = CgConfig {
    n: 256,
    nnz_per_row: 6,
    iters: 8,
};
/// A sampled lane may differ from its full replay by this much.
const SAMPLE_TOLERANCE: f64 = 0.10;
/// Every `STAGE_EVERY`-th lane is staged in the traced run, and its
/// times stand for the lanes between.
const STAGE_EVERY: usize = 4;

pub struct SweepLanes {
    wl: CgConfig,
    replays: usize,
    grid: Vec<SocConfig>,
    trace: WorldTrace,
    record_ms: f64,
    lint_ms: f64,
    /// Of the last replay pair of the last pass: full and sampled replay
    /// ms, full-replay span, mean measured fraction, worst error and worst
    /// reported stderr.
    last: LastPass,
}

#[derive(Default)]
struct LastPass {
    full_ms: f64,
    sampled_ms: f64,
    full_span: Option<u32>,
    measured_frac: f64,
    max_err: f64,
    max_stderr: f64,
    reports: Vec<WorldReport>,
}

impl SweepLanes {
    pub fn new(smoke: bool) -> SweepLanes {
        SweepLanes {
            wl: if smoke { SMOKE } else { FULL },
            replays: if smoke { 1 } else { REPLAYS },
            grid: Vec::new(),
            trace: WorldTrace::default(),
            record_ms: 0.0,
            lint_ms: 0.0,
            last: LastPass::default(),
        }
    }
}

fn report_text(r: &WorldReport) -> String {
    serde_json::to_string(r).expect("reports serialize")
}

impl Workload for SweepLanes {
    /// Grid + `lint_lane_plan` + the sixteen scalar anchor runs + `cg::record`.
    fn setup(&mut self, cx: &mut Ctx) -> (u64, u64) {
        let net = NetConfig::shared_memory();
        let t = Instant::now();
        self.grid = cache_tuning_grid(RANKS, LANES);
        let lint = cx.tracer.scope("sweepx", "lint_lane_plan", false, |_| {
            lint_lane_plan(&self.grid, RANKS, LANES, "ledger.sweep-lanes")
        });
        self.lint_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut failed = u64::from(lint.has_errors());
        let mut attempted = 1;

        // The goldens of this workload are *scalar* runs, so that every
        // full-lane replay is held to the scalar path bit for bit. Every
        // set-up re-runs all sixteen as live anchors: a lane that drifts
        // from today's scalar path fails even against a stale golden file.
        for cfg in &self.grid {
            let scalar = cx
                .tracer
                .scope("workloads", "cg::run (scalar anchor)", false, |_| {
                    cg::run(cfg.clone(), RANKS, self.wl, net)
                });
            attempted += 1;
            failed += u64::from(!cx.check.verify(&cfg.name, &report_text(&scalar.report)));
            pace_slices(&cx.pace, 2);
        }

        // Each set-up starts from scratch: no earlier recording stays alive.
        self.trace = WorldTrace::default();
        let t = Instant::now();
        let (result, trace) = cx.tracer.scope("workloads", "cg::record", false, |_| {
            cg::record(self.grid[0].clone(), RANKS, self.wl, net)
        });
        self.record_ms = t.elapsed().as_secs_f64() * 1e3;
        self.trace = trace;
        let functional = format!("{:?} {:?}", result.initial_residual, result.residual);
        failed += u64::from(!cx.check.verify("functional", &functional));
        (attempted + 1, failed)
    }

    fn pass(&mut self, cx: &mut Ctx, _pass: u32) -> PassOut {
        let net = NetConfig::shared_memory();
        let mut out = PassOut::default();
        // The sampler draws its k-means start from the run seed: the same
        // in every replay of a run, so every sampled replay is the same work.
        let scfg = SampleCfg {
            extra_rate: 0.02,
            max_clusters: 64,
            seed: cx.seed,
            ..SampleCfg::default()
        };
        for _ in 0..self.replays {
            let start = Instant::now();
            let full = replay_world(&self.trace, &self.grid, net, None);
            let end = Instant::now();
            let full_ms = (end - start).as_secs_f64() * 1e3;
            let full_span = cx.tracer.record("sweepx", "replay_world(full)", start, end);
            pace_slices(&cx.pace, SLICES_PER_REPLAY);

            let start = Instant::now();
            let sampled = replay_world(&self.trace, &self.grid, net, Some(&scfg));
            let end = Instant::now();
            let sampled_ms = (end - start).as_secs_f64() * 1e3;
            cx.tracer
                .record("sweepx", "replay_world(sampled)", start, end);
            pace_slices(&cx.pace, SLICES_PER_REPLAY);

            let mut last = LastPass {
                full_ms,
                sampled_ms,
                full_span,
                ..LastPass::default()
            };
            for ((cfg, f), s) in self.grid.iter().zip(&full).zip(&sampled) {
                // One op per swept config: its share of the full replay.
                out.op_ms.push(full_ms / LANES as f64);
                out.insts += f.report.run.retired + s.report.run.retired;
                out.failed += u64::from(!cx.check.verify(&cfg.name, &report_text(&f.report)));

                let fc = f.report.run.cycles.max(1) as f64;
                let err = (s.report.run.cycles as f64 - fc).abs() / fc;
                out.checks += 1;
                out.failed += u64::from(err > SAMPLE_TOLERANCE);
                last.max_err = last.max_err.max(err);
                if let Some(rep) = &s.sample {
                    last.measured_frac += rep.measured_fraction() / LANES as f64;
                    last.max_stderr = last.max_stderr.max(rep.rel_stderr("cycles").unwrap_or(0.0));
                }
            }
            last.reports = full.into_iter().map(|l| l.report).collect();
            self.last = last;
        }
        out
    }

    fn layers(&mut self, cx: &mut Ctx, out: &mut Layers) {
        let tr = &mut cx.tracer;
        let net = NetConfig::shared_memory();
        let last = &self.last;
        let full_s = last.full_ms / 1e3;
        let uops = self.trace.total_uops() as f64;

        out.set("sweepx.record_ms", self.record_ms);
        out.set("mpi.record_ms", self.record_ms);
        out.set("sweepx.replay_full_ms", last.full_ms);
        out.set("sweepx.replay_sampled_ms", last.sampled_ms);
        out.set(
            "sweepx.lane_muops_per_s",
            uops * LANES as f64 / full_s / 1e6,
        );
        let l1s: BTreeSet<(u32, u32)> = self
            .grid
            .iter()
            .map(|c| (c.hierarchy.l1d.sets, c.hierarchy.l1d.ways))
            .collect();
        out.set("sweepx.distinct_l1", l1s.len() as f64);
        out.set(
            "sweepx.trace_mb",
            uops * std::mem::size_of::<MicroOp>() as f64 / (1 << 20) as f64,
        );
        out.set("sweepx.sample_measured_frac", last.measured_frac);
        out.set("sweepx.sample_max_err_pct", 100.0 * last.max_err);
        out.set("sweepx.sample_stderr_pct", 100.0 * last.max_stderr);
        out.set("core.preflight_ms", self.lint_ms);

        // The ROADMAP item 2 decision ratio: 16 scalar runs against one
        // full-lane replay. Two scalar runs (first and last config)
        // stand for the sixteen.
        let t = Instant::now();
        for cfg in [&self.grid[0], &self.grid[LANES - 1]] {
            std::hint::black_box(cg::run(cfg.clone(), RANKS, self.wl, net));
        }
        let scalar_s = t.elapsed().as_secs_f64() / 2.0;
        out.set("sweepx.lane_vs_scalar", scalar_s * LANES as f64 / full_s);

        // Staged lanes: the scalar timing path on the same recording.
        let (mut mem_ns, mut accesses, mut new_ms, mut report_ms) = (0.0, 0u64, 0.0, 0.0);
        let first_staged = tr.spans().len();
        for cfg in self.grid.iter().step_by(STAGE_EVERY) {
            let t = Instant::now();
            let mut soc = tr.staged(last.full_span, "soc", "Soc::new", |_| Soc::new(cfg.clone()));
            new_ms += t.elapsed().as_secs_f64() * 1e3;
            tr.staged(last.full_span, "uarch", "consume", |_| {
                stage::consume(&mut soc, stage::segments(&self.trace))
            });
            let consume_span = tr.last_id();
            let t = Instant::now();
            accesses += tr.staged(consume_span, "mem", "hierarchy_replay", |_| {
                stage::hierarchy_replay(&cfg.hierarchy, stage::segments(&self.trace))
            });
            mem_ns += t.elapsed().as_secs_f64() * 1e9;
            let t = Instant::now();
            tr.staged(last.full_span, "soc", "Soc::report", |_| soc.report(None));
            report_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        let staged = (LANES / STAGE_EVERY) as f64;
        out.set("soc.new_ms", new_ms / staged);
        out.set("soc.report_ms", report_ms / staged);
        out.set("mem.access_ns", mem_ns / accesses.max(1) as f64);

        // Each staged lane stands for STAGE_EVERY lanes, so the staged
        // spans explain that share of the full replay. What the scalar
        // path does not explain is the lane kernel's own: no span
        // measures it, so it is the unattributed rest under `sweepx`'
        // name as well.
        let explained_s = full_s / STAGE_EVERY as f64;
        let rest = super::set_staged_shares(out, tr.spans(), first_staged, explained_s);
        out.set("sweepx.self_share", rest);

        let runs: Vec<_> = last.reports.iter().map(|r| &r.run).collect();
        super::set_sim_counts(out, &runs);
        out.set(
            "mpi.bytes",
            last.reports.iter().map(|r| r.bytes).sum::<u64>() as f64,
        );
    }
}
