//! Parallel experiment sweeps: the platform×workload grid behind every
//! figure fanned across host threads, with the aggregate simulation
//! rate exported under `host.rate.*` — the software analogue of the
//! paper's FireSim hosting rates (~60 MHz for Rocket, ~15 MHz for BOOM
//! on an FPGA; §3.2.2).
//!
//! Two guarantees to watch for in the output:
//!
//! 1. **Determinism** — the figure data is bit-identical whether the
//!    grid runs on one worker or many; only host wall-clock and the
//!    `host sweep:` note change.
//! 2. **Honest telemetry** — `host.rate.*` and `host.sweep.*` counters
//!    reflect the real schedule, not a formula.
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_sweep
//! ```

use silicon_bridge::core::experiments::{figure, run_grid_metered, Sizes};
use silicon_bridge::core::Parallelism;
use silicon_bridge::soc::{configs, Soc};
use silicon_bridge::telemetry::CounterBlock;
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

    // The aggregate rate exports like any other out-of-band counter.
    let mut block = CounterBlock::new(true);
    sweep.publish(&mut block);
    println!("\nexported host counters:");
    for name in [
        "host.rate.target_cycles",
        "host.rate.host_micros",
        "host.rate.milli_mhz",
        "host.sweep.workers",
        "host.sweep.cells",
    ] {
        println!("  {:26} {}", name, block.get(name).unwrap_or(0));
    }

    // --- Part 2: a whole paper figure, sequential vs parallel. ---
    let sizes = Sizes {
        lj_cells: 2,
        md_steps: 2,
        ..Sizes::smoke()
    };
    let t0 = std::time::Instant::now();
    let seq = figure("fig6").run(sizes, Parallelism::Sequential);
    let t_seq = t0.elapsed();
    let t0 = std::time::Instant::now();
    let auto = figure("fig6").run(sizes, Parallelism::Auto);
    let t_auto = t0.elapsed();

    let identical = seq.series == auto.series;
    println!(
        "\nFigure 6 (smoke sizes): sequential {:.2} s, parallel {:.2} s, \
         series bit-identical: {identical}",
        t_seq.as_secs_f64(),
        t_auto.as_secs_f64()
    );
    assert!(identical, "the sweep schedule leaked into figure data");
    if let Some(note) = &auto.note {
        println!("figure note: {note}");
    }
}
