//! The four workloads. Each is a closed loop of fixed work: `setup`
//! once, then identical measured passes whose inputs come from the run
//! seed. Sizes are literals in these files — never `Sizes::default()`,
//! never calibrated at run time — so a pass is the same work on every
//! commit.

pub mod apps_mpi;
pub mod micro_isa;
pub mod stage;
pub mod svc_mixed;
pub mod sweep_lanes;

use crate::golden::Check;
use crate::metrics::{Values, PER_LAYER};
use crate::pace::Pace;
use crate::span::{layer_self_s, Span, Tracer};
use silicon_bridge::soc::RunReport;
use std::sync::Mutex;

/// What one measured pass delivered.
#[derive(Default)]
pub struct PassOut {
    /// Host time of every op of the pass, in ms.
    pub op_ms: Vec<f64>,
    /// Retired target instructions the pass delivered.
    pub insts: u64,
    /// Output checks beyond one per op (they count as attempted).
    pub checks: u64,
    /// Ops and checks whose output was wrong, missing, refused or late.
    pub failed: u64,
}

/// Per-layer metric sink of the traced run.
pub struct Layers(pub Values);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.set(&PER_LAYER, name, value);
    }
}

/// Everything a workload needs besides its own state.
pub struct Ctx {
    pub seed: u64,
    pub check: Check,
    pub tracer: Tracer,
    /// The pace loop. A workload runs slices of it between its ops, never
    /// inside one, so that every stretch it is timed over knows how fast
    /// the host was. Behind a mutex because grid closures are `Fn`.
    pub pace: Mutex<Pace>,
}

/// Runs `n` pace slices.
pub fn pace_slices(pace: &Mutex<Pace>, n: usize) {
    pace.lock().expect("no slice panics").slices(n);
}

/// Host ms the pace slices of the current stretch took so far.
pub fn pace_spent_ms(pace: &Mutex<Pace>) -> f64 {
    pace.lock().expect("no slice panics").spent_s() * 1e3
}

pub trait Workload {
    /// Everything before the first measured pass. Returns the ops it
    /// checked and how many of them failed. The driver calls it several
    /// times and reports the median; each call starts from scratch.
    fn setup(&mut self, cx: &mut Ctx) -> (u64, u64);

    /// One measured pass of fixed work.
    fn pass(&mut self, cx: &mut Ctx, pass: u32) -> PassOut;

    /// After a traced pass: the staged spans that split it by layer, and
    /// the layers' counts.
    fn layers(&mut self, cx: &mut Ctx, out: &mut Layers);
}

/// The workload called `name`.
pub fn by_name(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "micro-isa" => Box::new(micro_isa::MicroIsa::new(smoke)),
        "apps-mpi" => Box::new(apps_mpi::AppsMpi::new(smoke)),
        "sweep-lanes" => Box::new(sweep_lanes::SweepLanes::new(smoke)),
        "svc-mixed" => Box::new(svc_mixed::SvcMixed::new(smoke)),
        _ => return None,
    })
}

/// Sets the exact simulated counts (`uarch.*`, `mem.*`) from the reports
/// of a traced pass. They are the model's output, not host time, so they
/// must repeat exactly on every run of the same cells.
pub fn set_sim_counts(out: &mut Layers, reports: &[&RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let (retired, cycles) = (sum(&|r| r.retired), sum(&|r| r.cycles));
    out.set("uarch.uops", retired);
    out.set("uarch.cycles", cycles);
    out.set(
        "uarch.mispredicts",
        sum(&|r| r.core_stats.iter().map(|c| c.mispredicts).sum()),
    );
    out.set("uarch.ipc", retired / cycles.max(1.0));
    let l1d = sum(&|r| r.mem_stats.l1d_accesses);
    let l2 = sum(&|r| r.mem_stats.l2_accesses);
    out.set("mem.accesses", l1d + sum(&|r| r.mem_stats.l1i_accesses));
    out.set(
        "mem.l1d_hit_ratio",
        1.0 - sum(&|r| r.mem_stats.l1d_misses) / l1d.max(1.0),
    );
    out.set(
        "mem.l2_hit_ratio",
        1.0 - sum(&|r| r.mem_stats.l2_misses) / l2.max(1.0),
    );
    out.set("mem.dram_reads", sum(&|r| r.mem_stats.dram_reads));
    out.set("mem.dram_writes", sum(&|r| r.mem_stats.dram_writes));
}

/// Sets `<layer>.self_share` for every layer with staged spans from id
/// `first` on that hang under a real call, as a share of `real_s` — the
/// host time of those real calls — and `core.unattributed_share` to what
/// they leave over, which is also returned. Run apart, a cell's layers
/// lose the overlap a superscalar host gives them when they interleave,
/// so the shares can sum past 1; nothing is left over then.
pub fn set_staged_shares(out: &mut Layers, spans: &[Span], first: usize, real_s: f64) -> f64 {
    let mut explained = 0.0;
    let explains = |s: &Span| s.staged && s.id as usize >= first && s.parent.is_some();
    for (layer, s) in layer_self_s(spans, explains) {
        out.set(&format!("{layer}.self_share"), s / real_s);
        explained += s;
    }
    let rest = (1.0 - explained / real_s).max(0.0);
    out.set("core.unattributed_share", rest);
    rest
}
