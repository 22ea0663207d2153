//! The lane executor for the paper's figures.
//!
//! `bsim_core::experiments::FIGURES` defines every subfigure once — its
//! grid, its note, its series. A scalar run gives each cell of that
//! grid its own full simulation; [`run_lanes`] instead chunks the grid
//! into lane groups (cells that time the same workload and share its
//! trace-shaping knobs), records each group's trace once and ticks
//! every member config through the multi-lane replay kernel. Both go
//! through `FigureGrid::run_chunked`, so they differ only in where a
//! cell's cycles come from. Full (unsampled) replay is bit-identical to
//! the scalar cells, so the series match point for point and only the
//! host-rate notes differ — which is why the executor is no part of a
//! cell's store key and `bsim fig --store` interoperates freely between
//! them. A sampled replay is an estimate and is keyed apart.

use crate::lane::{group_by_key, TraceKey};
use crate::prog::{record_program, replay_program};
use crate::replay::replay_world;
use crate::sample::{SampleCfg, SampleReport};
use bsim_core::experiments::{FigureData, FigureGrid, Parallelism, Work};
use bsim_mpi::NetConfig;
use bsim_soc::SocConfig;

/// Lane-sweep knobs threaded from `bsim fig --lanes N [--sample]`.
#[derive(Clone, Debug)]
pub struct LaneOpts {
    /// Maximum configs per lane group.
    pub lanes: usize,
    /// Sampled-simulation budget; `None` runs every segment in detail.
    pub sample: Option<SampleCfg>,
}

impl Default for LaneOpts {
    fn default() -> LaneOpts {
        LaneOpts {
            lanes: 8,
            sample: None,
        }
    }
}

impl LaneOpts {
    /// Panics on CL085-class budget errors before any cell fans out,
    /// mirroring the platform preflight gate.
    fn gate(&self) {
        if let Some(s) = &self.sample {
            let report = s.lint("sweepx.sample");
            if report.has_errors() {
                panic!("sampling budget failed preflight:\n{}", report.render());
            }
        }
    }
}

/// Aggregate sampling outcome across a sweep, for figure notes.
#[derive(Clone, Copy, Debug, Default)]
struct SampleAgg {
    /// Segments simulated in detail across all lanes.
    pub measured: u64,
    /// Segments fast-forwarded across all lanes.
    pub skipped: u64,
    /// Worst reported relative standard error on cycles.
    pub max_rel_stderr: f64,
}

impl SampleAgg {
    fn absorb(&mut self, rep: &SampleReport) {
        self.measured += rep.measured_segments as u64;
        self.skipped += (rep.segments - rep.measured_segments) as u64;
        let rel = rep.rel_stderr("cycles").unwrap_or(0.0);
        if rel > self.max_rel_stderr {
            self.max_rel_stderr = rel;
        }
    }

    fn note(&self, sampling: bool) -> String {
        if !sampling {
            return String::new();
        }
        format!(
            "; sampled {} segments detailed / {} fast-forwarded, max cycles stderr {:.2}%",
            self.measured,
            self.skipped,
            100.0 * self.max_rel_stderr
        )
    }
}

/// The subfigure `grid` on the lane kernel: one recording per lane
/// group, every member config replayed through it.
pub fn run_lanes(grid: &FigureGrid, par: Parallelism, opts: &LaneOpts) -> FigureData {
    opts.gate();
    let sample = opts.sample.as_ref();
    // Cells share a recording when they time the same workload at the
    // same trace-shaping knobs. Program traces carry none — the
    // functional ISA run never observes `simd_lanes` or compiler
    // overhead — so every platform, silicon included, lanes onto one
    // recording per MicroBench kernel.
    let keys = grid.cells.iter().enumerate().map(|(i, cell)| {
        let shaping = match cell.work {
            Work::Micro(_) => None,
            Work::Mpi(_) => Some(TraceKey::of(grid.cfg(i), grid.cfg(i).cores)),
        };
        (cell.work.label(), shaping)
    });
    let chunks: Vec<Vec<usize>> = group_by_key(keys, opts.lanes)
        .into_iter()
        .map(|(_, cells)| cells)
        .collect();
    grid.run_chunked(
        par,
        &chunks,
        |cells| replay_chunk(grid, cells, sample),
        |sweep| {
            let mut agg = SampleAgg::default();
            for rep in sweep.results.iter().filter_map(|(_, rep)| rep.as_ref()) {
                agg.absorb(rep);
            }
            format!(
                "; lane groups of {}{}",
                sweep.lanes,
                agg.note(sample.is_some())
            )
        },
    )
}

/// Records the workload the cells of one lane group share and replays
/// it on every cell's config: per cell, the simulated cycles and the
/// sampling report.
fn replay_chunk(
    grid: &FigureGrid,
    cells: &[usize],
    sample: Option<&SampleCfg>,
) -> Vec<(u64, Option<SampleReport>)> {
    let cfgs: Vec<SocConfig> = cells.iter().map(|&i| grid.cfg(i).clone()).collect();
    match grid.cells[cells[0]].work {
        Work::Micro(kernel) => {
            let trace = record_program(&kernel.build(grid.sizes.micro_scale), u64::MAX);
            assert_eq!(trace.exit_code, Some(0), "microbenchmark must exit cleanly");
            replay_program(&trace, &cfgs, sample)
                .into_iter()
                .map(|(rep, samp)| (rep.cycles, samp))
                .collect()
        }
        Work::Mpi(work) => {
            let trace = work.record(&grid.sizes, cfgs[0].clone(), cfgs[0].cores);
            replay_world(&trace, &cfgs, NetConfig::shared_memory(), sample)
                .into_iter()
                .map(|o| (o.report.run.cycles, o.sample))
                .collect()
        }
    }
}
