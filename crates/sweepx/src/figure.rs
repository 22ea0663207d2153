//! The lane executor for the paper's figures.
//!
//! `bsim_core::experiments::FIGURES` defines every subfigure once — its
//! grid, its note, its series. A scalar run gives each cell of that
//! grid its own full simulation; [`run_lanes`] instead chunks the grid
//! into lane groups (cells that time the same workload and share its
//! trace-shaping knobs), records each group's trace once and ticks
//! every member config through the multi-lane replay kernel. Both go
//! through `FigureGrid::run_chunked`, so they differ only in where a
//! cell's cycles come from. Replay is bit-identical to the scalar
//! cells, so the two print the same figure byte for byte — which is why
//! the executor is no part of a cell's store key and `bsim fig --store`
//! interoperates freely between them.

use crate::lane::{group_by_key, TraceKey};
use crate::prog::{record_program, replay_program};
use crate::replay::replay_world;
use bsim_core::experiments::{FigureData, FigureGrid, Parallelism, Work};
use bsim_core::SimRate;
use bsim_mpi::NetConfig;
use bsim_soc::SocConfig;

/// The subfigure `grid` on the lane kernel: one recording per lane
/// group of at most `lanes` configs, every member config replayed
/// through it. Returns the figure and the host rate the sweep ran at.
pub fn run_lanes(grid: &FigureGrid, par: Parallelism, lanes: usize) -> (FigureData, SimRate) {
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
    let chunks: Vec<Vec<usize>> = group_by_key(keys, lanes)
        .into_iter()
        .map(|(_, cells)| cells)
        .collect();
    grid.run_chunked(par, &chunks, |cells| replay_chunk(grid, cells))
}

/// Records the workload the cells of one lane group share and replays
/// it on every cell's config: per cell, the simulated cycles.
fn replay_chunk(grid: &FigureGrid, cells: &[usize]) -> Vec<u64> {
    let cfgs: Vec<SocConfig> = cells.iter().map(|&i| grid.cfg(i).clone()).collect();
    match grid.cells[cells[0]].work {
        Work::Micro(kernel) => {
            let trace = record_program(&kernel.build(grid.sizes.micro_scale), u64::MAX);
            assert_eq!(trace.exit_code, Some(0), "microbenchmark must exit cleanly");
            replay_program(&trace, &cfgs)
                .into_iter()
                .map(|rep| rep.cycles)
                .collect()
        }
        Work::Mpi(work) => {
            let trace = work.record(&grid.sizes, cfgs[0].clone(), cfgs[0].cores);
            replay_world(&trace, &cfgs, NetConfig::shared_memory(), None)
                .into_iter()
                .map(|o| o.report.run.cycles)
                .collect()
        }
    }
}
