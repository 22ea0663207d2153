//! Architectural design-space exploration — the use case the paper
//! motivates FireSim with ("rapidly prototype and evaluate architectural
//! innovations prior to tape-out").
//!
//! Sweeps BOOM window sizes and L1 capacities over a latency-bound and a
//! compute-bound workload, showing where each parameter matters — the
//! same trade-off reasoning the paper applies in §5.2.2 when doubling
//! the L1 recovers part of CG's runtime but does little for IS/MG (the
//! footer prints the paper's value, claim `f4-tuning-cg`).
//!
//! Run with:
//! ```text
//! cargo run --release --example design_space
//! ```

use silicon_bridge::core::claims::claim;
use silicon_bridge::mpi::NetConfig;
use silicon_bridge::soc::{configs, CoreModel, SocConfig};
use silicon_bridge::workloads::npb::{cg, ep};

fn run_pair(cfg: SocConfig) -> (f64, f64) {
    let net = NetConfig::shared_memory();
    let freq = cfg.freq_ghz;
    let cg_r = cg::run(
        cfg.clone(),
        1,
        cg::CgConfig {
            n: 6144,
            nnz_per_row: 11,
            iters: 4,
        },
        net,
    );
    let ep_r = ep::run(
        cfg,
        1,
        ep::EpConfig {
            pairs_per_rank: 1 << 13,
        },
        net,
    );
    (
        cg_r.report.run.cycles as f64 / (freq * 1e9) * 1e3,
        ep_r.report.run.cycles as f64 / (freq * 1e9) * 1e3,
    )
}

fn main() {
    println!("{:28} {:>12} {:>12}", "configuration", "CG [ms]", "EP [ms]");

    // ---- sweep 1: the stock BOOM ladder ---------------------------------
    for cfg in [
        configs::small_boom(1),
        configs::medium_boom(1),
        configs::large_boom(1),
    ] {
        let (cg_ms, ep_ms) = run_pair(cfg.clone());
        println!("{:28} {cg_ms:>12.3} {ep_ms:>12.3}", cfg.name);
    }

    // ---- sweep 2: ROB size at fixed width --------------------------------
    for rob in [32u32, 96, 192] {
        let mut cfg = configs::large_boom(1);
        if let CoreModel::Ooo(core) = &mut cfg.core {
            core.rob = rob;
            core.ldq = rob / 4;
            core.stq = rob / 4;
        }
        cfg.name = format!("Large BOOM, RoB={rob}");
        let (cg_ms, ep_ms) = run_pair(cfg.clone());
        println!("{:28} {cg_ms:>12.3} {ep_ms:>12.3}", cfg.name);
    }

    // ---- sweep 3: L1 capacity (the paper's §5.2.2 experiment) -----------
    for (sets, label) in [
        (64u32, "32 KiB L1"),
        (128, "64 KiB L1"),
        (256, "128 KiB L1"),
    ] {
        let mut cfg = configs::large_boom(1);
        cfg.hierarchy.l1d.sets = sets;
        cfg.hierarchy.l1i.sets = sets;
        cfg.name = format!("Large BOOM, {label}");
        let (cg_ms, ep_ms) = run_pair(cfg.clone());
        println!("{:28} {cg_ms:>12.3} {ep_ms:>12.3}", cfg.name);
    }

    println!(
        "\nExpected shape: CG (latency-bound gathers) improves with the machine size and\n\
         the memory-side tuning, EP (compute-bound) only with core width — the §5.2.2\n\
         trade-off (paper: CG {} from the L1). Run `cargo run --release --example\n\
         cache_tuning` for the full story.",
        claim("f4-tuning-cg").paper
    );
}
