//! `apps-mpi`: the Figure 3–7 cells — NPB CG/EP/IS/MG, UME, and the
//! LAMMPS-style LJ melt and polymer Chain, each at 1, 2 and 4 ranks on a
//! Rocket-class and a BOOM-class simulation model.
//!
//! Why it exists: there is no `isa` here at all. Trace generation in
//! `workloads`, the multi-core `soc`, `mpi` collectives and a
//! DRAM-missing, write-back-heavy `mem` stream do the work — the same
//! `mem`/`uarch` code as `micro-isa`, used the other way, so a fast path
//! for L1 hits must show here as "no change".

use super::stage;
use super::{pace_slices, pace_spent_ms, Ctx, Layers, PassOut, Workload};
use crate::pace::Pace;
use crate::seed::SplitMix64;
use silicon_bridge::core::experiments::Sizes;
use silicon_bridge::core::{run_grid_metered, Parallelism};
use silicon_bridge::mpi::{NetConfig, WorldReport, WorldTrace};
use silicon_bridge::soc::{configs, preflight_all, RunReport, Soc, SocConfig};
use silicon_bridge::workloads::md::{chain, lj};
use silicon_bridge::workloads::npb::{cg, ep, is, mg};
use silicon_bridge::workloads::ume;
use std::sync::Mutex;
use std::time::Instant;

/// Measured sizes: a literal, so a pass is the same work on every commit.
/// A pass is ≈ 7 s at pace 1, a third of it LJ and a fifth Chain.
const FULL: Sizes = Sizes {
    micro_scale: 1,
    cg_n: 1024,
    cg_iters: 12,
    ep_pairs: 1 << 16,
    is_keys: 1 << 15,
    mg_n: 32,
    mg_cycles: 2,
    ume_n: 10,
    lj_cells: 4,
    md_steps: 4,
    chain_cells: 7,
};

/// Sizes of `smoke.sh` and of the untimed warm-up pass in `setup`; the
/// same numbers as `Sizes::smoke()`, spelled out for the same reason.
const SMOKE: Sizes = Sizes {
    micro_scale: 1,
    cg_n: 256,
    cg_iters: 4,
    ep_pairs: 1 << 13,
    is_keys: 1 << 12,
    mg_n: 16,
    mg_cycles: 1,
    ume_n: 6,
    lj_cells: 3,
    md_steps: 3,
    chain_cells: 6,
};

const RANKS: [usize; 3] = [1, 2, 4];
/// Pace slices after every cell: 42 cells make 126 slices a pass.
const SLICES_PER_CELL: usize = 3;
/// Every `STAGE_EVERY`-th cell is staged in the traced run. Coprime to
/// the six cells of an app, so the staged set walks through every
/// platform and rank count.
const STAGE_EVERY: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
enum App {
    Cg,
    Ep,
    Is,
    Mg,
    Ume,
    Lj,
    Chain,
}

const APPS: [App; 7] = [
    App::Cg,
    App::Ep,
    App::Is,
    App::Mg,
    App::Ume,
    App::Lj,
    App::Chain,
];

// The workload configs, as the figure generators derive them from `Sizes`.

fn cg_cfg(s: &Sizes) -> cg::CgConfig {
    cg::CgConfig {
        n: s.cg_n,
        nnz_per_row: 11,
        iters: s.cg_iters,
    }
}

fn ep_cfg(s: &Sizes, ranks: usize) -> ep::EpConfig {
    ep::EpConfig {
        pairs_per_rank: s.ep_pairs / ranks as u64,
    }
}

fn is_cfg(s: &Sizes, ranks: usize) -> is::IsConfig {
    is::IsConfig {
        keys_per_rank: s.is_keys / ranks,
        max_key: (s.is_keys as u32 / 2).max(1024),
        iterations: 1,
    }
}

fn mg_cfg(s: &Sizes) -> mg::MgConfig {
    mg::MgConfig {
        n: s.mg_n,
        levels: 3,
        cycles: s.mg_cycles,
    }
}

fn ume_cfg(s: &Sizes) -> ume::UmeConfig {
    ume::UmeConfig {
        n: s.ume_n,
        passes: 2,
    }
}

fn lj_cfg(s: &Sizes) -> lj::LjConfig {
    lj::LjConfig {
        cells: s.lj_cells,
        steps: s.md_steps,
        ..lj::LjConfig::default()
    }
}

fn chain_cfg(s: &Sizes) -> chain::ChainConfig {
    chain::ChainConfig {
        cells: s.chain_cells,
        chain_len: s.chain_cells,
        steps: s.md_steps,
        ..chain::ChainConfig::default()
    }
}

/// One timed run: the world report plus the functional result, as text
/// for the digest (reference math must not move either).
fn run(app: App, cfg: SocConfig, ranks: usize, s: &Sizes) -> (WorldReport, String) {
    let net = NetConfig::shared_memory();
    match app {
        App::Cg => {
            let r = cg::run(cfg, ranks, cg_cfg(s), net);
            let f = format!("{:?} {:?}", r.initial_residual, r.residual);
            (r.report, f)
        }
        App::Ep => {
            let r = ep::run(cfg, ranks, ep_cfg(s, ranks), net);
            let f = format!("{:?} {:?} {:?} {}", r.sx, r.sy, r.counts, r.accepted);
            (r.report, f)
        }
        App::Is => {
            let r = is::run(cfg, ranks, is_cfg(s, ranks), net);
            let f = format!("{} {}", r.sorted, r.total_keys);
            (r.report, f)
        }
        App::Mg => {
            let r = mg::run(cfg, ranks, mg_cfg(s), net);
            let f = format!("{:?} {:?}", r.initial_residual, r.final_residual);
            (r.report, f)
        }
        App::Ume => {
            let r = ume::run(cfg, ranks, ume_cfg(s), net);
            let f = format!(
                "{:?} {:?} {:?}",
                r.gather_sum, r.inverted_sum, r.total_face_area
            );
            (r.report, f)
        }
        App::Lj => {
            let r = lj::run(cfg, ranks, lj_cfg(s), net);
            let f = format!("{:?} {:?} {}", r.initial_energy, r.final_energy, r.atoms);
            (r.report, f)
        }
        App::Chain => {
            let r = chain::run(cfg, ranks, chain_cfg(s), net);
            let f = format!(
                "{:?} {:?} {} {:?}",
                r.initial_energy, r.final_energy, r.atoms, r.max_bond
            );
            (r.report, f)
        }
    }
}

/// The timing-free recording of the same cell.
fn record(app: App, cfg: SocConfig, ranks: usize, s: &Sizes) -> WorldTrace {
    let net = NetConfig::shared_memory();
    match app {
        App::Cg => cg::record(cfg, ranks, cg_cfg(s), net).1,
        App::Ep => ep::record(cfg, ranks, ep_cfg(s, ranks), net).1,
        App::Is => is::record(cfg, ranks, is_cfg(s, ranks), net).1,
        App::Mg => mg::record(cfg, ranks, mg_cfg(s), net).1,
        App::Ume => ume::record(cfg, ranks, ume_cfg(s), net).1,
        App::Lj => lj::record(cfg, ranks, lj_cfg(s), net).1,
        App::Chain => chain::record(cfg, ranks, chain_cfg(s), net).1,
    }
}

struct Cell {
    app: App,
    cfg: SocConfig,
    ranks: usize,
}

impl Cell {
    fn key(&self) -> String {
        format!("{:?}@{}x{}", self.app, self.cfg.name, self.ranks)
    }
}

/// One cell of a sweep: its number, its report and functional result
/// (`None` if it panicked), and when it started and ended.
type CellRun = (usize, Option<(WorldReport, String)>, Instant, Instant);

pub struct AppsMpi {
    smoke: bool,
    sizes: Sizes,
    cells: Vec<Cell>,
    last: Vec<Option<RunReport>>,
    last_world: Vec<(u64, u64)>,
    last_cells: Vec<(Option<u32>, f64)>,
    last_grid_overhead_ms: f64,
    preflight_ms: f64,
}

impl AppsMpi {
    pub fn new(smoke: bool) -> AppsMpi {
        AppsMpi {
            smoke,
            sizes: if smoke { SMOKE } else { FULL },
            cells: Vec::new(),
            last: Vec::new(),
            last_world: Vec::new(),
            last_cells: Vec::new(),
            last_grid_overhead_ms: 0.0,
            preflight_ms: 0.0,
        }
    }

    /// Runs every cell in `order`, with pace slices after each.
    fn sweep(&self, sizes: &Sizes, order: &[usize], pace: &Mutex<Pace>) -> Vec<CellRun> {
        run_grid_metered(order.len(), Parallelism::Sequential, |i| {
            let cell = &self.cells[order[i]];
            let start = Instant::now();
            let out =
                std::panic::catch_unwind(|| run(cell.app, cell.cfg.clone(), cell.ranks, sizes))
                    .ok();
            let end = Instant::now();
            pace_slices(pace, SLICES_PER_CELL);
            let cycles = out.as_ref().map_or(0, |(r, _)| r.run.cycles);
            ((order[i], out, start, end), cycles)
        })
        .results
    }
}

impl Workload for AppsMpi {
    /// Preflight + `Sizes::lint` + one untimed pass at smoke sizes, which
    /// warms the allocator and the page pool the rank threads draw on.
    fn setup(&mut self, cx: &mut Ctx) -> (u64, u64) {
        type Maker = fn(usize) -> SocConfig;
        let platforms: [Maker; 2] = [configs::banana_pi_sim, configs::milkv_sim];
        self.cells.clear();
        for app in APPS {
            for make in platforms {
                for ranks in RANKS {
                    self.cells.push(Cell {
                        app,
                        cfg: make(ranks),
                        ranks,
                    });
                }
            }
        }
        if self.smoke {
            self.cells.retain(|c| c.ranks != 4);
        }
        let t = Instant::now();
        let report = cx.tracer.scope("core", "preflight_all", false, |_| {
            let mut r = preflight_all(self.cells.iter().map(|c| &c.cfg));
            r.merge(self.sizes.lint("ledger.apps-mpi"));
            r
        });
        self.preflight_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut failed = u64::from(report.has_errors());

        let order: Vec<usize> = (0..self.cells.len()).collect();
        let pace = &cx.pace;
        let warm = cx.tracer.scope("core", "warm-up pass", false, |_| {
            self.sweep(&SMOKE, &order, pace)
        });
        for (cell, out, _, _) in &warm {
            let ok = out.as_ref().is_some_and(|(rep, functional)| {
                let text = format!(
                    "{} {functional}",
                    serde_json::to_string(rep).expect("reports serialize")
                );
                cx.check
                    .verify(&format!("warm-up:{}", self.cells[*cell].key()), &text)
            });
            failed += u64::from(!ok);
        }
        (1 + warm.len() as u64, failed)
    }

    fn pass(&mut self, cx: &mut Ctx, pass: u32) -> PassOut {
        let n = self.cells.len();
        let order = SplitMix64::new(cx.seed, u64::from(pass)).permutation(n);
        let sizes = self.sizes;
        let pace = &cx.pace;
        let slices_before_ms = pace_spent_ms(pace);
        let t = Instant::now();
        let results = cx.tracer.scope("core", "run_grid_metered", false, |_| {
            self.sweep(&sizes, &order, pace)
        });
        // The slices between the cells are not the grid's overhead.
        let grid_ms =
            t.elapsed().as_secs_f64() * 1e3 - (pace_spent_ms(&cx.pace) - slices_before_ms);

        let mut out = PassOut::default();
        self.last = vec![None; n];
        self.last_world = vec![(0, 0); n];
        self.last_cells = vec![(None, 0.0); n];
        for (cell, result, start, end) in results {
            let ms = (end - start).as_secs_f64() * 1e3;
            out.op_ms.push(ms);
            let key = self.cells[cell].key();
            let id = cx.tracer.record("core", &key, start, end);
            self.last_cells[cell] = (id, ms);
            let ok = result.is_some_and(|(rep, functional)| {
                out.insts += rep.run.retired;
                let text = format!(
                    "{} {functional}",
                    serde_json::to_string(&rep).expect("reports serialize")
                );
                self.last_world[cell] = (rep.messages, rep.bytes);
                self.last[cell] = Some(rep.run);
                cx.check.verify(&key, &text)
            });
            out.failed += u64::from(!ok);
        }
        self.last_grid_overhead_ms = grid_ms - out.op_ms.iter().sum::<f64>();
        out
    }

    fn layers(&mut self, cx: &mut Ctx, out: &mut Layers) {
        let tr = &mut cx.tracer;
        let net = NetConfig::shared_memory();
        let (mut real_s, mut mem_ns, mut mem_accesses) = (0.0, 0.0, 0u64);
        let (mut new_ms, mut report_ms, mut staged_cells) = (0.0, 0.0, 0u32);
        let (mut record_ms, mut skeleton_ms, mut collectives, mut uops) = (0.0, 0.0, 0u64, 0u64);
        let first_staged = tr.spans().len();
        for (i, cell) in self.cells.iter().enumerate().step_by(STAGE_EVERY) {
            let (parent, ms) = self.last_cells[i];
            real_s += ms / 1e3;
            staged_cells += 1;
            // The recording gives the staged re-runs their inputs. It is a
            // root span, not a child of the cell: it materialises every
            // micro-op in an arena the real cell never builds, and costs
            // more than the cell itself.
            let t = Instant::now();
            let trace = tr.staged(None, "workloads", "record", |_| {
                record(cell.app, cell.cfg.clone(), cell.ranks, &self.sizes)
            });
            record_ms += t.elapsed().as_secs_f64() * 1e3;
            uops += trace.total_uops();
            let t = Instant::now();
            collectives += tr.staged(parent, "mpi", "comm_skeleton", |_| {
                stage::comm_skeleton(&cell.cfg, &trace, net)
            });
            skeleton_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut soc = tr.staged(parent, "soc", "Soc::new", |_| Soc::new(cell.cfg.clone()));
            new_ms += t.elapsed().as_secs_f64() * 1e3;
            tr.staged(parent, "uarch", "consume", |_| {
                stage::consume(&mut soc, stage::segments(&trace))
            });
            let consume_span = tr.last_id();
            let t = Instant::now();
            mem_accesses += tr.staged(consume_span, "mem", "hierarchy_replay", |_| {
                stage::hierarchy_replay(&cell.cfg.hierarchy, stage::segments(&trace))
            });
            mem_ns += t.elapsed().as_secs_f64() * 1e9;
            let t = Instant::now();
            tr.staged(parent, "soc", "Soc::report", |_| soc.report(None));
            report_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        let tracegen_ms = (record_ms - skeleton_ms).max(1e-3);
        out.set("workloads.tracegen_ms", tracegen_ms);
        out.set(
            "workloads.tracegen_muops_per_s",
            uops as f64 / (tracegen_ms / 1e3) / 1e6,
        );
        out.set("mpi.skeleton_ms", skeleton_ms);
        out.set("mpi.record_ms", record_ms);
        out.set("mpi.collectives", collectives as f64);
        out.set("mem.access_ns", mem_ns / mem_accesses.max(1) as f64);
        out.set("soc.new_ms", new_ms / f64::from(staged_cells));
        out.set("soc.report_ms", report_ms / f64::from(staged_cells));
        // What the timing path, the SoC and the comm schedule leave of a
        // cell is the functional math and trace generation in `workloads`,
        // whose public entry points are the whole cell and the recording
        // above: no span measures it, so it is the unattributed rest under
        // `workloads`' name as well.
        let rest = super::set_staged_shares(out, tr.spans(), first_staged, real_s);
        out.set("workloads.self_share", rest);

        let reports: Vec<&RunReport> = self.last.iter().flatten().collect();
        super::set_sim_counts(out, &reports);
        out.set(
            "mpi.bytes",
            self.last_world.iter().map(|w| w.1).sum::<u64>() as f64,
        );
        out.set("core.grid_overhead_ms", self.last_grid_overhead_ms);
        out.set("core.preflight_ms", self.preflight_ms);
    }
}
