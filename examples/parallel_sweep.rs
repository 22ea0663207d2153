//! Parallel experiment sweeps: the platform×workload grid behind every
//! figure fanned across host threads, with the aggregate simulation
//! rate each sweep hands back — the software analogue of the paper's
//! FireSim hosting rates (~60 MHz for Rocket, ~15 MHz for BOOM on an
//! FPGA; §3.2.2).
//!
//! The guarantee to watch for in the output: the figure is bit-identical
//! whether the grid runs on one worker or many; only host wall-clock and
//! the host rate beside the figure change.
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_sweep
//! ```

use silicon_bridge::core::experiments::{figure, run_grid_metered, Sizes};
use silicon_bridge::core::Parallelism;
use silicon_bridge::core::SimRate;
use silicon_bridge::soc::{configs, Soc};
use silicon_bridge::workloads::microbench;

fn main() {
    // --- Part 1: a raw metered sweep over a kernel×platform grid. ---
    let kernels: Vec<_> = microbench::evaluated().into_iter().take(6).collect();
    let platforms = [configs::rocket1(1), configs::banana_pi_hw(1)];
    let np = platforms.len();
    let par = Parallelism::Auto;
    println!(
        "sweeping {} cells ({} kernels x {} platforms) on {} worker(s)...",
        kernels.len() * np,
        kernels.len(),
        np,
        par.workers(kernels.len() * np)
    );

    let sweep = run_grid_metered(kernels.len() * np, par, |i| {
        let prog = kernels[i / np].build(1);
        let rep = Soc::new(platforms[i % np].clone()).run_program(0, &prog, u64::MAX);
        ((rep.platform.clone(), rep.cycles), rep.cycles)
    });
    for (kernel, row) in kernels.iter().zip(sweep.results.chunks(np)) {
        print!("  {:10}", kernel.name);
        for (platform, cycles) in row {
            print!("  {platform}: {cycles:>9} cycles");
        }
        println!();
    }
    println!("  {}", sweep.describe());

    // --- Part 2: a whole paper figure, sequential vs parallel. ---
    let sizes = Sizes {
        lj_cells: 2,
        md_steps: 2,
        ..Sizes::smoke()
    };
    let grid = figure("fig6").grid(sizes);
    let (seq, seq_rate) = grid.run(Parallelism::Sequential);
    let (auto, auto_rate) = grid.run(Parallelism::Auto);
    let rate = |r: SimRate| format!("{:.2} s at {:.2} target-MHz", r.host_seconds, r.mhz());
    let identical = seq == auto;
    println!(
        "\nFigure 6 (smoke sizes): sequential {}, parallel {}, \
         figure bit-identical: {identical}",
        rate(seq_rate),
        rate(auto_rate)
    );
    assert!(identical, "the sweep schedule leaked into figure data");
}
