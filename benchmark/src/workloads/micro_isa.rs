//! `micro-isa`: the Figure 1 ∪ Figure 2 cell list — every evaluated
//! MicroBench RV64 kernel on one in-order and one OoO simulation model
//! and on their silicon-side configs — through `microbench_cell`.
//!
//! Why it exists: it is the only workload where `isa` (assemble, the
//! traced functional run, lowering to micro-ops) is on the path at all,
//! next to an L1-resident `mem` stream and no `mpi`.

use super::stage;
use super::{pace_slices, pace_spent_ms, Ctx, Layers, PassOut, Workload};
use crate::seed::SplitMix64;
use silicon_bridge::core::experiments::microbench_cell;
use silicon_bridge::core::metrics::relative_speedup;
use silicon_bridge::core::{run_grid_metered, table, FigureData, Parallelism, Series};
use silicon_bridge::soc::{configs, preflight_all, RunReport, SocConfig};
use silicon_bridge::workloads::microbench::{self, MicroKernel};
use std::time::Instant;

/// MicroBench iteration scale of the measured cells.
const MICRO_SCALE: u32 = 1;

pub struct MicroIsa {
    smoke: bool,
    platforms: Vec<SocConfig>,
    kernels: Vec<MicroKernel>,
    /// Reports of the last pass, by cell index (kernel-major).
    last: Vec<Option<RunReport>>,
    /// Tracer span id and host ms of each cell of the last pass.
    last_cells: Vec<(Option<u32>, f64)>,
    last_grid_overhead_ms: f64,
    preflight_ms: f64,
}

impl MicroIsa {
    pub fn new(smoke: bool) -> MicroIsa {
        MicroIsa {
            smoke,
            platforms: Vec::new(),
            kernels: Vec::new(),
            last: Vec::new(),
            last_cells: Vec::new(),
            last_grid_overhead_ms: 0.0,
            preflight_ms: 0.0,
        }
    }

    fn cells(&self) -> usize {
        self.kernels.len() * self.platforms.len()
    }

    fn key(&self, cell: usize) -> String {
        let np = self.platforms.len();
        format!(
            "{}@{}",
            self.kernels[cell / np].name,
            self.platforms[cell % np].name
        )
    }

    /// The pass's results as the figure a user would get: one series per
    /// simulation model, relative speedup against its silicon side.
    fn figure(&self) -> Option<FigureData> {
        let np = self.platforms.len();
        let mut series = Vec::new();
        for (hw, sim) in (0..np).step_by(2).map(|i| (i, i + 1)) {
            let mut points = Vec::new();
            for (ki, k) in self.kernels.iter().enumerate() {
                let t_hw = self.last[ki * np + hw].as_ref()?.seconds;
                let t_sim = self.last[ki * np + sim].as_ref()?.seconds;
                points.push((k.name.to_string(), relative_speedup(t_hw, t_sim)));
            }
            series.push(Series {
                name: self.platforms[sim].name.clone(),
                points,
            });
        }
        Some(FigureData {
            title: "MicroBench — simulation models vs their silicon side".into(),
            note: None,
            series,
        })
    }
}

impl Workload for MicroIsa {
    /// Configs + `preflight_all` + assemble + functional `Cpu::run` of
    /// every kernel, which is also the functional-result check.
    fn setup(&mut self, cx: &mut Ctx) -> (u64, u64) {
        // Silicon side first, then its simulation model, pairwise.
        self.platforms = vec![
            configs::banana_pi_hw(1),
            configs::banana_pi_sim(1),
            configs::milkv_hw(1),
            configs::milkv_sim(1),
        ];
        // Every evaluated kernel at scale 1 but `MM_st`, the costlier of
        // the two DRAM-bound matrix multiplies: its four cells alone are
        // 3.5 s, and with them the driver's runs do not fit its time cap
        // when the host is at its slowest. A pass is ≈ 7 s at pace 1, half of
        // it the four cells of `MM`.
        self.kernels = microbench::evaluated();
        self.kernels.retain(|k| k.name != "MM_st");
        if self.smoke {
            self.platforms.truncate(2);
            self.kernels.truncate(4);
        }
        let t = Instant::now();
        let report = cx.tracer.scope("core", "preflight_all", false, |_| {
            preflight_all(self.platforms.iter())
        });
        self.preflight_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut failed = u64::from(report.has_errors());
        for k in &self.kernels {
            let prog = cx
                .tracer
                .scope("isa", "assemble", false, |_| k.build(MICRO_SCALE));
            let (insts, exit) = cx
                .tracer
                .scope("isa", "functional_run", false, |_| stage::interpret(&prog));
            let text = format!("{insts} {exit:?}");
            let ok = cx.check.verify(&format!("functional:{}", k.name), &text);
            failed += u64::from(exit != Some(0) || !ok);
            pace_slices(&cx.pace, 1);
        }
        (1 + self.kernels.len() as u64, failed)
    }

    fn pass(&mut self, cx: &mut Ctx, pass: u32) -> PassOut {
        let n = self.cells();
        let np = self.platforms.len();
        let order = SplitMix64::new(cx.seed, u64::from(pass)).permutation(n);
        let pace = &cx.pace;
        let slices_before_ms = pace_spent_ms(pace);
        let t = Instant::now();
        let sweep = cx.tracer.scope("core", "run_grid_metered", false, |_| {
            run_grid_metered(n, Parallelism::Sequential, |i| {
                let cell = order[i];
                let start = Instant::now();
                let rep = microbench_cell(
                    self.platforms[cell % np].clone(),
                    self.kernels[cell / np].name,
                    MICRO_SCALE,
                );
                let end = Instant::now();
                pace_slices(pace, 1);
                let cycles = rep.as_ref().map_or(0, |r| r.cycles);
                ((cell, rep, start, end), cycles)
            })
        });
        // The slices between the cells are not the grid's overhead.
        let grid_ms =
            t.elapsed().as_secs_f64() * 1e3 - (pace_spent_ms(&cx.pace) - slices_before_ms);

        let mut out = PassOut::default();
        self.last = vec![None; n];
        self.last_cells = vec![(None, 0.0); n];
        for (cell, rep, start, end) in sweep.results {
            let ms = (end - start).as_secs_f64() * 1e3;
            out.op_ms.push(ms);
            let id = cx.tracer.record("core", &self.key(cell), start, end);
            self.last_cells[cell] = (id, ms);
            let ok = rep.as_ref().is_some_and(|r| {
                out.insts += r.retired;
                r.exit_code == Some(0)
                    && cx.check.verify(
                        &self.key(cell),
                        &serde_json::to_string(r).expect("reports serialize"),
                    )
            });
            out.failed += u64::from(!ok);
            self.last[cell] = rep;
        }
        self.last_grid_overhead_ms = grid_ms - out.op_ms.iter().sum::<f64>();
        // The figure is one more op: it fails if any cell is missing.
        let fig_ok = self.figure().is_some_and(|f| {
            cx.check.verify(
                "figure",
                &serde_json::to_string(&f).expect("figures serialize"),
            )
        });
        out.checks += 1;
        out.failed += u64::from(!fig_ok);
        out
    }

    fn layers(&mut self, cx: &mut Ctx, out: &mut Layers) {
        let np = self.platforms.len();
        let tr = &mut cx.tracer;

        // isa alone, over the whole kernel list.
        let t = Instant::now();
        let progs: Vec<_> = self.kernels.iter().map(|k| k.build(MICRO_SCALE)).collect();
        out.set("isa.assemble_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let insts: u64 = progs.iter().map(|p| stage::interpret(p).0).sum();
        out.set(
            "isa.interp_minst_per_s",
            insts as f64 / t.elapsed().as_secs_f64() / 1e6,
        );

        // Every cell of the traced pass is staged.
        let mut real_s = 0.0;
        let mut staged = stage::MicroStaged::default();
        let first_staged = tr.spans().len();
        for (ki, kernel) in self.kernels.iter().enumerate() {
            for (p, cfg) in self.platforms.iter().enumerate() {
                let (parent, ms) = self.last_cells[ki * np + p];
                real_s += ms / 1e3;
                stage::micro_cell(tr, parent, kernel, cfg, MICRO_SCALE, &mut staged);
            }
        }
        staged.publish(out);
        // What no staged child explains is left on the real cell.
        super::set_staged_shares(out, tr.spans(), first_staged, real_s);

        // Exact counts of the traced pass.
        let reports: Vec<&RunReport> = self.last.iter().flatten().collect();
        out.set(
            "isa.insts",
            reports.iter().map(|r| r.retired).sum::<u64>() as f64,
        );
        super::set_sim_counts(out, &reports);

        out.set("core.grid_overhead_ms", self.last_grid_overhead_ms);
        out.set("core.preflight_ms", self.preflight_ms);
        if let Some(fig) = self.figure() {
            let t = Instant::now();
            std::hint::black_box(table::render(&fig));
            out.set("core.render_ms", t.elapsed().as_secs_f64() * 1e3);
        }
    }
}
