//! The paper's tables and figures.
//!
//! [`FIGURES`] defines every subfigure once, as data; [`FigureSpec::run`]
//! turns one into [`FigureData`]: labeled points per series, directly
//! renderable with [`crate::table::render`] and serializable to JSON.
//! `bsim fig N` / `bsim table N` print the same rows/series the paper
//! plots; [`crate::claims`] scores the paper's claims on them.

use crate::metrics::relative_speedup;
use crate::rate::{SimRate, SimRateMeter};
use crate::retry::{catch, CellOutcome};
use crate::snapshot::{restore_field, CkptError, Snapshot};
use bsim_mpi::{Launch, NetConfig, Recorded, Timed, WorldReport, WorldTrace};
use bsim_soc::{configs, RunReport, Soc, SocConfig};
use bsim_workloads::md::chain::{self, ChainConfig};
use bsim_workloads::md::lj::{self, LjConfig};
use bsim_workloads::microbench::{self, MicroKernel};
use bsim_workloads::npb::{cg, ep, is, mg};
use bsim_workloads::ume::{self, UmeConfig};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One plotted series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend name (matches the paper's legends).
    pub name: String,
    /// `(x-label, value)` points.
    pub points: Vec<(String, f64)>,
}

/// One figure or table worth of data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    /// Title (e.g. "Figure 1: MicroBench on Rocket models vs Banana Pi").
    pub title: String,
    /// Optional scaling/setup note.
    pub note: Option<String>,
    /// The series.
    pub series: Vec<Series>,
}

impl Snapshot for Series {
    fn save(&self) -> Value {
        Value::Map(vec![
            ("name".into(), self.name.save()),
            ("points".into(), self.points.save()),
        ])
    }
    fn restore(value: &Value) -> Result<Series, CkptError> {
        Ok(Series {
            name: restore_field(value, "name")?,
            points: restore_field(value, "points")?,
        })
    }
}

/// Figures are stored whole: a `bsim fig --store` run replays completed
/// subfigures from the store byte-for-byte instead of re-simulating
/// their grids (see [`crate::CellPool`]).
impl Snapshot for FigureData {
    fn save(&self) -> Value {
        Value::Map(vec![
            ("title".into(), self.title.save()),
            ("note".into(), self.note.save()),
            ("series".into(), self.series.save()),
        ])
    }
    fn restore(value: &Value) -> Result<FigureData, CkptError> {
        Ok(FigureData {
            title: restore_field(value, "title")?,
            note: restore_field(value, "note")?,
            series: restore_field(value, "series")?,
        })
    }
}

/// Workload sizes for the figure generators (reduced, class-A-shaped;
/// see DESIGN.md §5).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Sizes {
    /// MicroBench iteration scale.
    pub micro_scale: u32,
    /// CG matrix dimension.
    pub cg_n: usize,
    /// CG iterations.
    pub cg_iters: usize,
    /// EP total pairs (split over ranks).
    pub ep_pairs: u64,
    /// IS total keys (split over ranks).
    pub is_keys: usize,
    /// MG grid edge.
    pub mg_n: usize,
    /// MG V-cycles.
    pub mg_cycles: usize,
    /// UME zones per edge (paper: 32).
    pub ume_n: usize,
    /// LJ FCC cells per edge (paper: 20 → 32k atoms).
    pub lj_cells: usize,
    /// MD timesteps (paper: 100).
    pub md_steps: usize,
    /// Chain beads per edge.
    pub chain_cells: usize,
}

impl Default for Sizes {
    fn default() -> Sizes {
        Sizes {
            micro_scale: 1,
            cg_n: 1024,
            cg_iters: 10,
            ep_pairs: 1 << 16,
            is_keys: 1 << 15,
            mg_n: 32,
            mg_cycles: 1,
            ume_n: 10,
            lj_cells: 5,
            md_steps: 6,
            chain_cells: 10,
        }
    }
}

impl Sizes {
    /// Every size as `(field name, value)`, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("micro_scale", self.micro_scale as u64),
            ("cg_n", self.cg_n as u64),
            ("cg_iters", self.cg_iters as u64),
            ("ep_pairs", self.ep_pairs),
            ("is_keys", self.is_keys as u64),
            ("mg_n", self.mg_n as u64),
            ("mg_cycles", self.mg_cycles as u64),
            ("ume_n", self.ume_n as u64),
            ("lj_cells", self.lj_cells as u64),
            ("md_steps", self.md_steps as u64),
            ("chain_cells", self.chain_cells as u64),
        ]
    }

    /// Static lint over the workload sizes (`WL0xx` codes).
    ///
    /// `WL001` fires per zero-valued field: a zero size degenerates the
    /// workload (no iterations, no keys, empty mesh) so the figure runs
    /// instantly and reports meaningless speedups. Warnings, not errors —
    /// a deliberately empty axis can be a valid smoke probe.
    pub fn lint(&self, span: &str) -> bsim_check::Report {
        let mut report = bsim_check::Report::new();
        for (name, v) in self.fields() {
            if v == 0 {
                report.push(
                    bsim_check::Diagnostic::warning(
                        "WL001",
                        format!("{span}.{name}"),
                        format!("workload size {name} is 0: the benchmark degenerates to a no-op"),
                    )
                    .with_help("use Sizes::default() or Sizes::smoke() as a baseline"),
                );
            }
        }
        report
    }

    /// Parses a named preset (`default`, `smoke` or `paper`) — the name a
    /// figure cell carries on the wire and in its store key. Unknown
    /// names are `None`, not a panic — the caller turns them into an
    /// SV001-style diagnostic.
    pub fn parse(name: &str) -> Option<Sizes> {
        match name {
            "default" => Some(Sizes::default()),
            "smoke" => Some(Sizes::smoke()),
            "paper" => Some(Sizes::paper()),
            _ => None,
        }
    }

    /// Larger (slower) sizes closer to the paper's inputs (`bsim fig
    /// --paper`).
    pub fn paper() -> Sizes {
        Sizes {
            micro_scale: 4,
            cg_n: 4096,
            cg_iters: 15,
            ep_pairs: 1 << 18,
            is_keys: 1 << 17,
            mg_n: 48,
            mg_cycles: 2,
            ume_n: 16,
            lj_cells: 7,
            md_steps: 10,
            chain_cells: 12,
        }
    }

    /// Even smaller sizes for CI-grade smoke runs.
    pub fn smoke() -> Sizes {
        Sizes {
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
        }
    }
}

/// How many host workers an experiment grid may use. The grid cells of
/// every paper table/figure (platform × workload × rank-count) are
/// independent simulations, so they fan out across a scoped thread pool;
/// results are always assembled in grid order (never completion order),
/// which keeps every figure bit-identical to a sequential run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// One grid cell at a time (the pre-sweep-runner behavior).
    Sequential,
    /// One worker per available host core, capped at the cell count.
    Auto,
    /// Exactly this many workers (clamped to ≥ 1, capped at the cells).
    Workers(usize),
}

impl Parallelism {
    /// The worker count this knob resolves to for a `jobs`-cell grid.
    pub fn workers(self, jobs: usize) -> usize {
        let raw = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Workers(n) => n.max(1),
        };
        raw.min(jobs.max(1))
    }

    /// Parses a CLI/env flag: `seq`, `auto`, or a worker count.
    pub fn parse(s: &str) -> Option<Parallelism> {
        match s {
            "seq" | "sequential" => Some(Parallelism::Sequential),
            "auto" => Some(Parallelism::Auto),
            _ => s.parse::<usize>().ok().map(|n| {
                if n <= 1 {
                    Parallelism::Sequential
                } else {
                    Parallelism::Workers(n)
                }
            }),
        }
    }
}

/// The grid engine shared by every sweep entry point: runs `cell(i)`
/// for `i in 0..jobs` across a scoped worker pool (workers claim cells
/// from a shared counter, so an expensive cell never serializes the
/// cheap ones behind it) and returns the results **ordered by grid
/// index**. `cell` must not panic — every caller runs its cells under
/// [`catch`], which is what keeps a poisoned cell from killing its
/// worker thread and losing the cells that worker would have claimed
/// next.
pub(crate) fn drain_grid<R, F>(jobs: usize, par: Parallelism, cell: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = par.workers(jobs);
    if workers <= 1 {
        return (0..jobs).map(cell).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let r = cell(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    })
    .expect("grid cells are caught per-cell; workers cannot panic");
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every grid cell ran")
        })
        .collect()
}

/// Gate a sweep on the `bsim-check` platform preflight *before* any
/// cell fans out: a bad config inside the grid would otherwise panic in
/// a worker thread mid-sweep, after burning the cheap cells. Panics with
/// every platform's rendered diagnostics at once.
fn preflight_platforms(cfgs: &[SocConfig]) {
    let report = bsim_soc::preflight_all(cfgs.iter());
    if report.has_errors() {
        panic!(
            "platform preflight failed before sweep fan-out:\n{}",
            report.render()
        );
    }
}

/// Outcome of a metered sweep: per-cell results in grid order plus the
/// aggregate simulation rate across all workers — the figure the paper's
/// 60 MHz/15 MHz hosting-rate discussion maps to.
#[derive(Clone, Debug)]
pub struct SweepRun<T> {
    /// Per-cell results, ordered by grid index.
    pub results: Vec<T>,
    /// Aggregate target cycles vs host wall-clock across the whole grid.
    pub rate: SimRate,
    /// Worker threads the sweep actually used.
    pub workers: usize,
}

impl<T> SweepRun<T> {
    /// One-line host-sweep summary; host-dependent, so never a figure's.
    pub fn describe(&self) -> String {
        format!(
            "host sweep: {} cells on {} worker(s), {:.2} target-MHz aggregate",
            self.results.len(),
            self.workers,
            self.rate.mhz()
        )
    }
}

/// The metered grid runner: `f(i)` runs cell `i` and yields its result
/// and simulated cycles. Results come back **ordered by grid index**,
/// so figures remain bit-identical whatever the worker count, and a
/// [`SimRateMeter`] aggregates the cells' target cycles across workers.
///
/// Every cell runs even when one panics: each runs under [`catch`],
/// and the first failed cell's message (in grid order) is re-raised
/// only after the whole grid has drained. Callers that want the
/// completed cells *back* instead of a panic use [`crate::CellPool`].
pub fn run_grid_metered<T, F>(jobs: usize, par: Parallelism, f: F) -> SweepRun<T>
where
    T: Send,
    F: Fn(usize) -> (T, u64) + Sync,
{
    let workers = par.workers(jobs);
    let mut meter = SimRateMeter::start();
    let mut cycles = 0u64;
    let results = drain_grid(jobs, par, |i| catch(|| f(i)))
        .into_iter()
        .map(|outcome| match outcome {
            CellOutcome::Ok { value: (t, c), .. } => {
                cycles += c;
                t
            }
            CellOutcome::Failed { diag } => panic!("{diag}"),
        })
        .collect();
    meter.add_cycles(cycles);
    SweepRun {
        results,
        rate: meter.finish(),
        workers,
    }
}

/// Runs one MicroBench kernel on one platform and returns the full
/// [`RunReport`] — the unit cell the service scheduler decomposes sweep
/// requests into (one cell per platform × kernel × seed tuple, keyed by
/// its canonical content hash). Returns `None` for an unknown kernel
/// name; service callers preflight names first and reject with SV001.
pub fn microbench_cell(cfg: SocConfig, kernel: &str, scale: u32) -> Option<RunReport> {
    let prog = microbench::find(kernel)?.build(scale);
    Some(Soc::new(cfg).run_program(0, &prog, u64::MAX))
}

/// The MPI workloads the figures time, sized by [`Sizes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiWork {
    Cg,
    Ep,
    Is,
    Mg,
    Ume,
    Lj,
    Chain,
}

/// The one `Sizes` → workload-config mapping: every figure cell and
/// every recording sizes its workload here.
impl Sizes {
    fn cg(&self) -> cg::CgConfig {
        cg::CgConfig {
            n: self.cg_n,
            nnz_per_row: 11,
            iters: self.cg_iters,
        }
    }

    fn ep(&self, ranks: usize) -> ep::EpConfig {
        ep::EpConfig {
            pairs_per_rank: self.ep_pairs / ranks as u64,
        }
    }

    fn is(&self, ranks: usize) -> is::IsConfig {
        is::IsConfig {
            keys_per_rank: self.is_keys / ranks,
            max_key: (self.is_keys as u32 / 2).max(1024),
            iterations: 1,
        }
    }

    fn mg(&self) -> mg::MgConfig {
        mg::MgConfig {
            n: self.mg_n,
            levels: 3,
            cycles: self.mg_cycles,
        }
    }

    fn ume(&self) -> UmeConfig {
        UmeConfig {
            n: self.ume_n,
            passes: 2,
        }
    }

    fn lj(&self) -> LjConfig {
        LjConfig {
            cells: self.lj_cells,
            steps: self.md_steps,
            ..LjConfig::default()
        }
    }

    fn chain(&self) -> ChainConfig {
        ChainConfig {
            cells: self.chain_cells,
            chain_len: self.chain_cells,
            steps: self.md_steps,
            ..ChainConfig::default()
        }
    }
}

impl MpiWork {
    /// The NPB kernels of Figures 3–4, in plotted order.
    pub const NPB: [MpiWork; 4] = [MpiWork::Cg, MpiWork::Ep, MpiWork::Is, MpiWork::Mg];

    /// Point label on NPB figures; also what tells two workloads of one
    /// grid apart when cells are grouped onto shared recordings.
    pub fn label(self) -> &'static str {
        match self {
            MpiWork::Cg => "CG",
            MpiWork::Ep => "EP",
            MpiWork::Is => "IS",
            MpiWork::Mg => "MG",
            MpiWork::Ume => "UME",
            MpiWork::Lj => "LJ",
            MpiWork::Chain => "Chain",
        }
    }

    /// This workload at `sizes` under launch mode `L`: the world report
    /// and what the mode yields. Every figure cell, timed or recorded,
    /// starts here.
    pub fn launch<L: Launch>(
        self,
        sizes: &Sizes,
        cfg: SocConfig,
        ranks: usize,
    ) -> (WorldReport, L::Out) {
        let net = NetConfig::shared_memory();
        match self {
            MpiWork::Cg => {
                let (r, out) = cg::launch::<L>(cfg, ranks, sizes.cg(), net);
                (r.report, out)
            }
            MpiWork::Ep => {
                let (r, out) = ep::launch::<L>(cfg, ranks, sizes.ep(ranks), net);
                (r.report, out)
            }
            MpiWork::Is => {
                let platform = cfg.name.clone();
                let (r, out) = is::launch::<L>(cfg, ranks, sizes.is(ranks), net);
                assert!(r.sorted, "IS must verify on {platform}");
                (r.report, out)
            }
            MpiWork::Mg => {
                let (r, out) = mg::launch::<L>(cfg, ranks, sizes.mg(), net);
                (r.report, out)
            }
            MpiWork::Ume => {
                let (r, out) = ume::launch::<L>(cfg, ranks, sizes.ume(), net);
                (r.report, out)
            }
            MpiWork::Lj => {
                let (r, out) = lj::launch::<L>(cfg, ranks, sizes.lj(), net);
                (r.report, out)
            }
            MpiWork::Chain => {
                let (r, out) = chain::launch::<L>(cfg, ranks, sizes.chain(), net);
                (r.report, out)
            }
        }
    }

    /// One full timing run on `cfg`, returning the simulated cycles.
    pub fn run(self, sizes: &Sizes, cfg: SocConfig, ranks: usize) -> u64 {
        self.launch::<Timed>(sizes, cfg, ranks).0.run.cycles
    }

    /// The recording of the same problem [`MpiWork::run`] times,
    /// shareable by every config with `cfg`'s trace-shaping knobs: a
    /// [`crate::replay_world`] of it gives each of them `run`'s
    /// cycles.
    pub fn record(self, sizes: &Sizes, cfg: SocConfig, ranks: usize) -> WorldTrace {
        self.launch::<Recorded>(sizes, cfg, ranks).1
    }
}

/// A catalog platform constructor (`configs::rocket1`, …), applied to a
/// cell's MPI rank count.
pub type Platform = fn(usize) -> SocConfig;

/// What a subfigure sweeps and how its seconds become series.
enum Family {
    /// Figures 1–2: every evaluated MicroBench kernel on one core; one
    /// series per sim model, relative to `hw`.
    Micro {
        hw: Platform,
        sims: &'static [Platform],
    },
    /// Figures 3–4: the four NPB kernels at one rank count; one series
    /// per sim model, relative to `hw`.
    Npb {
        hw: Platform,
        sims: &'static [Platform],
        ranks: usize,
    },
    /// Figures 5–7: one application on [`APP_PLATFORMS`] ×
    /// [`APP_RANKS`]; `note` describes the problem size.
    App {
        work: MpiWork,
        note: fn(&Sizes) -> String,
    },
}

/// One paper subfigure, as data. [`FIGURES`] is the only place that
/// names a figure's key, title and platforms; `bsim fig` and the
/// service both read it.
pub struct FigureSpec {
    /// The `bsim fig <id>` this subfigure belongs to.
    pub id: &'static str,
    /// Name (`fig3a`, `fig4b4`, …): what `bsim fig`, a service response
    /// and the golden store call the subfigure. A display name,
    /// never a store key — [`crate::WireCell::key`] hashes it together
    /// with the size preset, seed and code version.
    pub key: &'static str,
    /// Title (e.g. "Figure 1: MicroBench — Rocket models vs Banana Pi hardware").
    pub title: &'static str,
    family: Family,
}

/// Figures 5–7 run on both hardware/model pairs at these rank counts.
const APP_RANKS: [usize; 3] = [1, 2, 4];
const APP_PLATFORMS: [(&str, Platform); 4] = [
    ("Banana Pi (hw)", configs::banana_pi_hw),
    ("Banana Pi Sim Model", configs::banana_pi_sim),
    ("MILK-V (hw)", configs::milkv_hw),
    ("MILK-V Sim Model", configs::milkv_sim),
];
/// `(hw, sim, label)` rows of [`APP_PLATFORMS`] behind each
/// relative-speedup series.
const APP_PAIRS: [(usize, usize, &str); 2] = [(0, 1, "Banana Pi"), (2, 3, "MILK-V")];

const ROCKET_SIMS: &[Platform] = &[
    configs::rocket1,
    configs::rocket2,
    configs::banana_pi_sim,
    configs::fast_banana_pi_sim,
];
const TUNED_BOOM_SIMS: &[Platform] = &[configs::large_boom, configs::milkv_sim];

/// Every subfigure of the paper's evaluation, in plan order.
pub static FIGURES: [FigureSpec; 10] = [
    FigureSpec {
        id: "1",
        key: "fig1",
        title: "Figure 1: MicroBench — Rocket models vs Banana Pi hardware",
        family: Family::Micro {
            hw: configs::banana_pi_hw,
            sims: &[configs::banana_pi_sim, configs::fast_banana_pi_sim],
        },
    },
    FigureSpec {
        id: "2",
        key: "fig2",
        title: "Figure 2: MicroBench — BOOM models vs MILK-V hardware",
        family: Family::Micro {
            hw: configs::milkv_hw,
            sims: &[
                configs::small_boom,
                configs::medium_boom,
                configs::large_boom,
                configs::milkv_sim,
            ],
        },
    },
    FigureSpec {
        id: "3",
        key: "fig3a",
        title: "Figure 3a: NPB — Rocket models vs Banana Pi (1 ranks)",
        family: Family::Npb {
            hw: configs::banana_pi_hw,
            sims: ROCKET_SIMS,
            ranks: 1,
        },
    },
    FigureSpec {
        id: "3",
        key: "fig3b",
        title: "Figure 3b: NPB — Rocket models vs Banana Pi (4 ranks)",
        family: Family::Npb {
            hw: configs::banana_pi_hw,
            sims: ROCKET_SIMS,
            ranks: 4,
        },
    },
    FigureSpec {
        id: "4",
        key: "fig4a",
        title: "Figure 4a: NPB — stock BOOM configs vs MILK-V (1 ranks)",
        family: Family::Npb {
            hw: configs::milkv_hw,
            sims: &[
                configs::small_boom,
                configs::medium_boom,
                configs::large_boom,
            ],
            ranks: 1,
        },
    },
    FigureSpec {
        id: "4",
        key: "fig4b1",
        title: "Figure 4b: NPB — tuned MILK-V Sim Model vs MILK-V (1 ranks)",
        family: Family::Npb {
            hw: configs::milkv_hw,
            sims: TUNED_BOOM_SIMS,
            ranks: 1,
        },
    },
    FigureSpec {
        id: "4",
        key: "fig4b4",
        title: "Figure 4b: NPB — tuned MILK-V Sim Model vs MILK-V (4 ranks)",
        family: Family::Npb {
            hw: configs::milkv_hw,
            sims: TUNED_BOOM_SIMS,
            ranks: 4,
        },
    },
    FigureSpec {
        id: "5",
        key: "fig5",
        title: "Figure 5: UME — simulation models vs hardware",
        family: Family::App {
            work: MpiWork::Ume,
            note: |s| {
                format!(
                    "{0}^3-zone mesh (paper: 32^3), kernels: gather + inverted + face-area",
                    s.ume_n
                )
            },
        },
    },
    FigureSpec {
        id: "6",
        key: "fig6",
        title: "Figure 6: LAMMPS LJ melt — simulation models vs hardware",
        family: Family::App {
            work: MpiWork::Lj,
            note: |s| {
                format!(
                    "{} atoms, {} steps (paper: 32,000 atoms, 100 steps)",
                    4 * s.lj_cells.pow(3),
                    s.md_steps
                )
            },
        },
    },
    FigureSpec {
        id: "7",
        key: "fig7",
        title: "Figure 7: LAMMPS Chain — simulation models vs hardware",
        family: Family::App {
            work: MpiWork::Chain,
            note: |s| {
                format!(
                    "{} beads, {} steps (paper: 32,000 atoms, 100 steps)",
                    s.chain_cells.pow(3),
                    s.md_steps
                )
            },
        },
    },
];

/// The figure ids `bsim fig` and the service accept, in CLI order.
pub const FIGURE_IDS: [&str; 7] = ["1", "2", "3", "4", "5", "6", "7"];

/// The subfigures of figure `id` in plan order; empty for an unknown id.
pub fn subfigures(id: &str) -> impl Iterator<Item = &'static FigureSpec> + '_ {
    FIGURES.iter().filter(move |f| f.id == id)
}

/// The subfigure named `key` (`fig3a`, …). Panics on a name that is not
/// in [`FIGURES`].
pub fn figure(key: &str) -> &'static FigureSpec {
    FIGURES
        .iter()
        .find(|f| f.key == key)
        .unwrap_or_else(|| panic!("unknown subfigure key {key}"))
}

/// What one grid cell simulates.
#[derive(Clone, Copy)]
pub enum Work {
    /// A single-core MicroBench program.
    Micro(MicroKernel),
    /// An MPI workload over as many ranks as the cell's platform has cores.
    Mpi(MpiWork),
}

impl Work {
    /// The cell's point label (kernel or benchmark name), unique per
    /// workload within one grid.
    pub fn label(&self) -> &'static str {
        match self {
            Work::Micro(k) => k.name,
            Work::Mpi(w) => w.label(),
        }
    }
}

/// One simulation of a subfigure's grid.
#[derive(Clone, Copy)]
pub struct GridCell {
    /// Index into [`FigureGrid::platforms`]; the platform's core count
    /// is the cell's MPI rank count.
    pub platform: usize,
    /// The workload.
    pub work: Work,
}

/// A subfigure instantiated at concrete [`Sizes`]: the platform configs
/// it builds and its cells in result order. [`FigureGrid::run`]
/// simulates each cell on its own; the grid layout, the note and the
/// series assembly read nothing else, so the figure is a function of
/// the cells' cycles alone.
pub struct FigureGrid {
    spec: &'static FigureSpec,
    /// The workload sizes every cell runs at.
    pub sizes: Sizes,
    /// Every platform config the grid instantiates, hardware reference
    /// first for Figures 1–4.
    pub platforms: Vec<SocConfig>,
    /// The cells, in result order.
    pub cells: Vec<GridCell>,
}

impl FigureSpec {
    /// Lays the subfigure's grid out at `sizes`.
    pub fn grid(&'static self, sizes: Sizes) -> FigureGrid {
        // Figures 1–4, workload-major over [hw, sims...]: row `w` of the
        // results is workload `w` on every platform, hardware first.
        let vs_hw = |hw: Platform, sims: &[Platform], ranks: usize, works: Vec<Work>| {
            let mut platforms = vec![hw(ranks)];
            platforms.extend(sims.iter().map(|make| make(ranks)));
            let cells = works
                .iter()
                .flat_map(|&work| {
                    (0..platforms.len()).map(move |platform| GridCell { platform, work })
                })
                .collect();
            (platforms, cells)
        };
        let (platforms, cells) = match self.family {
            Family::Micro { hw, sims } => {
                let kernels = microbench::evaluated().into_iter().map(Work::Micro);
                vs_hw(hw, sims, 1, kernels.collect())
            }
            Family::Npb { hw, sims, ranks } => {
                vs_hw(hw, sims, ranks, MpiWork::NPB.map(Work::Mpi).to_vec())
            }
            // Figures 5–7, platform-major × rank count: one config and
            // one cell per (platform, ranks).
            Family::App { work, .. } => {
                let platforms: Vec<SocConfig> = APP_PLATFORMS
                    .iter()
                    .flat_map(|(_, make)| APP_RANKS.map(make))
                    .collect();
                let work = Work::Mpi(work);
                let cells = (0..platforms.len())
                    .map(|platform| GridCell { platform, work })
                    .collect();
                (platforms, cells)
            }
        };
        FigureGrid {
            spec: self,
            sizes,
            platforms,
            cells,
        }
    }

    /// The subfigure at `sizes`, one scalar simulation per cell.
    pub fn run(&'static self, sizes: Sizes, par: Parallelism) -> FigureData {
        self.grid(sizes).run(par).0
    }
}

impl FigureGrid {
    /// The platform config cell `i` runs on.
    pub fn cfg(&self, i: usize) -> &SocConfig {
        &self.platforms[self.cells[i].platform]
    }

    /// Simulates cell `i` on its own, returning the simulated cycles.
    fn run_cell(&self, i: usize) -> u64 {
        let cfg = self.cfg(i).clone();
        match self.cells[i].work {
            Work::Micro(kernel) => {
                let prog = kernel.build(self.sizes.micro_scale);
                let rep = Soc::new(cfg).run_program(0, &prog, u64::MAX);
                assert_eq!(rep.exit_code, Some(0), "microbenchmark must exit cleanly");
                rep.cycles
            }
            Work::Mpi(work) => {
                let ranks = cfg.cores;
                work.run(&self.sizes, cfg, ranks)
            }
        }
    }

    /// The figure with every cell simulated on its own, and the host
    /// rate the sweep ran at. The figure depends on the cells' cycles
    /// only.
    pub fn run(&self, par: Parallelism) -> (FigureData, SimRate) {
        preflight_platforms(&self.platforms);
        let sweep = run_grid_metered(self.cells.len(), par, |i| {
            let cycles = self.run_cell(i);
            (self.cfg(i).seconds(cycles), cycles)
        });
        let fig = FigureData {
            title: self.spec.title.to_string(),
            note: Some(self.note_head()),
            series: self.series(&sweep.results),
        };
        (fig, sweep.rate)
    }

    fn note_head(&self) -> String {
        match self.spec.family {
            Family::Micro { .. } => format!(
                "39 kernels (CRm excluded, as in the paper); relative speedup vs {} (1.0 = match); scale {}",
                self.platforms[0].name, self.sizes.micro_scale
            ),
            Family::Npb { ranks, .. } => format!(
                "{ranks} MPI rank(s); relative speedup vs {} (1.0 = match)",
                self.platforms[0].name
            ),
            Family::App { note, .. } => note(&self.sizes),
        }
    }

    /// Per-cell seconds (grid order) → the plotted series.
    fn series(&self, secs: &[f64]) -> Vec<Series> {
        if let Family::App { .. } = self.spec.family {
            return app_series(secs);
        }
        // One series per sim model; one point per workload row, relative
        // to the row's hardware cell.
        let np = self.platforms.len();
        self.platforms[1..]
            .iter()
            .enumerate()
            .map(|(si, model)| Series {
                name: model.name.clone(),
                points: secs
                    .chunks(np)
                    .zip(self.cells.iter().step_by(np))
                    .map(|(row, cell)| {
                        let rel = relative_speedup(row[0], row[1 + si]);
                        (cell.work.label().to_string(), rel)
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Figures 5–7: a runtime series per platform over 1/2/4 ranks, then a
/// relative-speedup series per hardware/model pair (the figures' y-axis).
fn app_series(secs: &[f64]) -> Vec<Series> {
    let per_platform: Vec<&[f64]> = secs.chunks(APP_RANKS.len()).collect();
    let points = |value: &dyn Fn(usize) -> f64| -> Vec<(String, f64)> {
        APP_RANKS
            .iter()
            .enumerate()
            .map(|(k, r)| (format!("{r} ranks"), value(k)))
            .collect()
    };
    let runtimes = APP_PLATFORMS
        .iter()
        .zip(&per_platform)
        .map(|((name, _), row)| Series {
            name: format!("{name} runtime [s]"),
            points: points(&|k| row[k]),
        });
    let speedups = APP_PAIRS.iter().map(|&(hw, sim, pair)| Series {
        name: format!("{pair} rel. speedup"),
        points: points(&|k| relative_speedup(per_platform[hw][k], per_platform[sim][k])),
    });
    runtimes.chain(speedups).collect()
}

/// **Table 4**: the FireSim model catalog as a text table.
pub fn table4() -> String {
    let mut out = String::from(
        "== Table 4: FireSim Models ==\n\
         Model            Clock    Fetch/Decode  RoB   LSQ      L1 sets/ways  L2 banks  Bus\n",
    );
    let rows: Vec<(SocConfig, &str)> = vec![
        (configs::rocket1(4), "N/A"),
        (configs::rocket2(4), "N/A"),
        (configs::small_boom(4), "32"),
        (configs::medium_boom(4), "64"),
        (configs::large_boom(4), "96"),
    ];
    for (cfg, rob) in rows {
        let (fetch, decode, lsq) = match &cfg.core {
            bsim_soc::CoreModel::InOrder(c) => (c.fetch_width, 1, "N/A".to_string()),
            bsim_soc::CoreModel::Ooo(c) => (
                c.fetch_width,
                c.decode_width,
                format!("{}/{}", c.ldq, c.stq),
            ),
        };
        out.push_str(&format!(
            "{:16} {:.1} GHz  {}/{:<11} {:<5} {:<8} {}x{:<10} {:<9} {}-bit\n",
            cfg.name,
            cfg.freq_ghz,
            fetch,
            decode,
            rob,
            lsq,
            cfg.hierarchy.l1d.sets,
            cfg.hierarchy.l1d.ways,
            cfg.hierarchy.l2.banks,
            cfg.hierarchy.bus.width_bits,
        ));
    }
    out
}

/// **Table 5**: hardware vs simulation-model specs as a text table.
pub fn table5() -> String {
    let mut out = String::from("== Table 5: Platform specifications ==\n");
    for cfg in [
        configs::banana_pi_hw(4),
        configs::banana_pi_sim(4),
        configs::milkv_hw(4),
        configs::milkv_sim(4),
    ] {
        let h = &cfg.hierarchy;
        out.push_str(&format!(
            "{:22} {} cores @ {:.1} GHz | L1 {} KiB | L2 {} KiB | LLC {} | bus {}-bit | {} | prefetch {}\n",
            cfg.name,
            cfg.cores,
            cfg.freq_ghz,
            h.l1d.capacity() / 1024,
            h.l2.capacity() / 1024,
            h.llc
                .as_ref()
                .map(|l| format!("{} MiB", l.geometry.capacity() * l.slices as u64 / (1 << 20)))
                .unwrap_or_else(|| "none".into()),
            h.bus.width_bits,
            h.dram.name,
            h.prefetch_degree,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_lists_all_five_models() {
        let t = table4();
        for name in [
            "Rocket 1",
            "Rocket 2",
            "Small BOOM",
            "Medium BOOM",
            "Large BOOM",
        ] {
            assert!(t.contains(name), "missing {name}:\n{t}");
        }
    }

    #[test]
    fn table5_shows_the_ddr_mismatch() {
        let t = table5();
        assert!(t.contains("DDR3-2000"));
        assert!(t.contains("DDR4-3200"));
        assert!(t.contains("LPDDR4-2666"));
    }

    #[test]
    fn run_grid_orders_results_by_grid_index() {
        let grid = |jobs, par| run_grid_metered(jobs, par, |i| (i * i, 0)).results;
        assert_eq!(
            grid(32, Parallelism::Workers(8)),
            (0..32).map(|i| i * i).collect::<Vec<_>>()
        );
        // Degenerate shapes.
        assert!(grid(0, Parallelism::Auto).is_empty());
        assert_eq!(grid(1, Parallelism::Workers(16)), vec![0]);
    }

    #[test]
    fn run_grid_metered_aggregates_cycles_and_publishes_host_rate() {
        let sweep = run_grid_metered(10, Parallelism::Workers(4), |i| (i as u64, 100u64));
        assert_eq!(sweep.results, (0..10u64).collect::<Vec<_>>());
        assert_eq!(sweep.rate.target_cycles, 1000);
        assert_eq!(sweep.workers, 4);
        let note = sweep.describe();
        assert!(note.contains("10 cells on 4 worker(s)"), "{note}");
        assert!(note.contains("target-MHz aggregate"), "{note}");
    }

    #[test]
    fn grid_worker_panic_propagates_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_grid_metered(8, Parallelism::Workers(4), |i| {
                assert!(i != 5, "grid cell 5 died");
                (i, 0)
            })
        });
        let payload = caught.expect_err("the cell panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("grid cell 5 died"), "got: {msg}");
    }

    #[test]
    fn grid_panic_no_longer_strands_unclaimed_cells() {
        // Poison the first `workers` cells: before the per-cell catch,
        // every worker died on its first claim and the rest of the grid
        // never ran. Now the whole grid drains, the panic propagates
        // after, and the sequential path behaves identically.
        for par in [Parallelism::Workers(2), Parallelism::Sequential] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_grid_metered(8, par, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i >= 2, "cell {i} poisoned");
                    (i, 0)
                })
            }));
            assert!(caught.is_err(), "the cell panic must still propagate");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                8,
                "every cell must run despite the poisoned ones ({par:?})"
            );
        }
    }

    #[test]
    fn figure_data_snapshot_roundtrips() {
        let fig = FigureData {
            title: "Figure T".into(),
            note: None,
            series: vec![Series {
                name: "model".into(),
                points: vec![("CG".into(), 0.5), ("EP".into(), 1.25)],
            }],
        };
        assert_eq!(FigureData::restore(&fig.save()).unwrap(), fig);
        let noted = FigureData {
            note: Some("4 ranks".into()),
            ..fig
        };
        assert_eq!(FigureData::restore(&noted.save()).unwrap(), noted);
    }

    #[test]
    fn figure_table_covers_every_id_in_plan_order() {
        let keys: Vec<&str> = FIGURE_IDS
            .iter()
            .flat_map(|id| subfigures(id).map(|f| f.key))
            .collect();
        assert_eq!(
            keys,
            [
                "fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b1", "fig4b4", "fig5", "fig6",
                "fig7"
            ],
            "the golden store and every stored fig key are named after these"
        );
        assert_eq!(keys.len(), FIGURES.len(), "every row belongs to a CLI id");
        assert_eq!(subfigures("9").count(), 0);
        assert_eq!(figure("fig4b4").id, "4");
    }

    #[test]
    fn chunked_grid_orders_by_cell() {
        // Later cells finish first; results still come back in grid order.
        let sweep = run_grid_metered(5, Parallelism::Workers(2), |i| {
            std::thread::sleep(std::time::Duration::from_millis(5 * (5 - i as u64)));
            (i, 10u64)
        });
        assert_eq!(sweep.results, [0, 1, 2, 3, 4]);
        assert_eq!(sweep.rate.target_cycles, 50);
    }

    #[test]
    fn parallelism_flag_parses() {
        assert_eq!(Parallelism::parse("seq"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::parse("auto"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::parse("1"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::parse("6"), Some(Parallelism::Workers(6)));
        assert_eq!(Parallelism::parse("zero"), None);
        assert_eq!(Parallelism::Workers(5).workers(2), 2, "capped at the cells");
        assert_eq!(Parallelism::Workers(3).workers(100), 3);
        assert_eq!(Parallelism::Sequential.workers(100), 1);
        assert!(
            Parallelism::Auto.workers(100) >= 1,
            "auto is host-dependent"
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        // The sweep runner must order by grid index, so the figure
        // cannot depend on the worker count, its note included.
        let tiny = Sizes {
            lj_cells: 2,
            md_steps: 2,
            ..Sizes::smoke()
        };
        let seq = figure("fig6").run(tiny, Parallelism::Sequential);
        let par = figure("fig6").run(tiny, Parallelism::Auto);
        assert_eq!(seq, par);
    }

    #[test]
    fn sizes_lint_flags_zero_fields_and_passes_the_presets() {
        assert!(Sizes::default().lint("sizes").is_clean());
        assert!(Sizes::smoke().lint("sizes").is_clean());
        let degenerate = Sizes {
            cg_iters: 0,
            md_steps: 0,
            ..Sizes::default()
        };
        let report = degenerate.lint("sizes");
        assert_eq!(report.warning_count(), 2, "one WL001 per zero field");
        assert!(report.has_code("WL001"));
        assert!(!report.has_errors(), "WL001 is a warning");
        assert!(report.render().contains("sizes.cg_iters"));
    }

    #[test]
    fn npb_smoke_runs_on_one_platform() {
        let cfg = configs::rocket1(1);
        for w in MpiWork::NPB {
            let s = cfg.seconds(w.run(&Sizes::smoke(), cfg.clone(), 1));
            assert!(s > 0.0, "{w:?} produced no time");
        }
    }

    #[test]
    fn fig4b_shape_ep_is_closest_to_parity() {
        // §5.2.2: "the EP benchmark demonstrated near performance parity"
        // while CG/IS/MG run slower on the simulation model. Scored by
        // the claims table on freshly simulated subfigures.
        let runs = ["fig4b1", "fig4b4"].map(|key| {
            (
                key,
                figure(key).run(Sizes::smoke(), Parallelism::Sequential),
            )
        });
        let figs = runs.each_ref().map(|(key, fig)| (*key, &fig.series[..]));
        for id in ["f4-ep-closest", "f4-ep-parity"] {
            let score = crate::claims::claim(id).score(&figs).unwrap();
            assert_eq!(
                score.verdict,
                crate::claims::Verdict::Met,
                "{id}: {}",
                score.measured
            );
        }
    }
}
