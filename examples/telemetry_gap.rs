//! Gap attribution with out-of-band telemetry, the paper's §5 method:
//! run the same workload on a silicon reference and a FireSim-style
//! model, export both counter sets, and rank which counters moved.
//!
//! Here: NPB CG (the benchmark Figure 4 shows farthest from parity) on
//! the MILK-V Pioneer hardware model vs the stock Large BOOM FireSim
//! config. The top deltas point straight at the paper's §6 conclusion —
//! the DDR3-only FireSim memory system (token-quantized DRAM, small LLC)
//! is what separates the two.
//!
//! Run with:
//! ```text
//! cargo run --release --example telemetry_gap
//! ```

use silicon_bridge::core::experiments::{cg_telemetry, Sizes};
use silicon_bridge::soc::configs;
use silicon_bridge::telemetry::GapReport;

fn main() {
    let ranks = 2;
    let sizes = Sizes::smoke();
    println!(
        "running NPB CG (n = {}, {} iters, {ranks} ranks) with telemetry on both platforms...\n",
        sizes.cg_n, sizes.cg_iters
    );

    let hw = configs::milkv_hw(ranks);
    let sim = configs::large_boom(ranks);
    let hw_snap = cg_telemetry(hw.clone(), ranks, sizes);
    let sim_snap = cg_telemetry(sim.clone(), ranks, sizes);

    let gap = GapReport::between(&hw.name, &hw_snap, &sim.name, &sim_snap);
    print!("{}", gap.render(15));

    println!("\nmemory-system rows (the paper's DDR3/LLC attribution):");
    for row in gap
        .rows
        .iter()
        .filter(|r| r.counter.starts_with("mem."))
        .take(6)
    {
        println!(
            "  {:<36} {:>12} -> {:>12}  ln(B/A) {:+.3}",
            row.counter, row.a, row.b, row.log_ratio
        );
    }

    println!(
        "\nthe sim run's {} counters export as JSON (TelemetrySnapshot::to_json) or CSV:",
        sim_snap.counters.len()
    );
    for line in sim_snap.counters_csv().lines().take(6) {
        println!("  {line}");
    }
}
