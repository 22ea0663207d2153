//! Ablation E12 — the paper's §5.2.2 tuning: from the stock Large BOOM
//! to the MILK-V Simulation Model (64 KiB L1s, 1 MiB L2, 64 MiB LLC).
//!
//! The paper attributes a ~27.7% single-core CG improvement to the L1
//! doubling alone; in our model the L1-only step is smaller (the OoO
//! window hides most L1→L2 latency) and the gain arrives with the
//! L2/LLC steps — the end-to-end tuned-vs-stock shape of Figure 4b is
//! reproduced, the per-knob attribution is noted as a deviation in
//! EXPERIMENTS.md.
//!
//! Run with:
//! ```text
//! cargo run --release --example cache_tuning
//! ```

use silicon_bridge::core::experiments::Sizes;
use silicon_bridge::mpi::NetConfig;
use silicon_bridge::soc::{configs, SocConfig};
use silicon_bridge::workloads::npb::{cg, is, mg};

fn run_all(cfg: SocConfig, ranks: usize) -> (f64, f64, f64) {
    let s = Sizes {
        // CG's gathered vector must overflow the smaller caches.
        cg_n: 6144,
        cg_iters: 5,
        ..Sizes::default()
    };
    let net = NetConfig::shared_memory();
    let cg_c = cg::run(
        cfg.clone(),
        ranks,
        cg::CgConfig {
            n: s.cg_n,
            nnz_per_row: 11,
            iters: s.cg_iters,
        },
        net,
    )
    .report
    .run
    .cycles as f64;
    let is_c = is::run(
        cfg.clone(),
        ranks,
        is::IsConfig {
            keys_per_rank: s.is_keys / ranks,
            max_key: 1 << 13,
            iterations: 1,
        },
        net,
    )
    .report
    .run
    .cycles as f64;
    let mg_c = mg::run(
        cfg,
        ranks,
        mg::MgConfig {
            n: s.mg_n,
            levels: 3,
            cycles: s.mg_cycles,
        },
        net,
    )
    .report
    .run
    .cycles as f64;
    (cg_c, is_c, mg_c)
}

fn main() {
    for ranks in [1usize, 4] {
        let stock = run_all(configs::large_boom(ranks), ranks);
        let l1_only = {
            let mut cfg = configs::large_boom(ranks);
            cfg.hierarchy.l1d.sets = 128;
            cfg.hierarchy.l1i.sets = 128;
            run_all(cfg, ranks)
        };
        let full = run_all(configs::milkv_sim(ranks), ranks);
        println!("== Ablation: Large BOOM -> MILK-V tuning, {ranks} rank(s) (paper §5.2.2) ==");
        println!(
            "{:6} {:>14} {:>12} {:>12}",
            "bench", "stock cycles", "L1 64KiB", "full tuning"
        );
        for (name, s, l1, f) in [
            ("CG", stock.0, l1_only.0, full.0),
            ("IS", stock.1, l1_only.1, full.1),
            ("MG", stock.2, l1_only.2, full.2),
        ] {
            println!(
                "{name:6} {s:>14.0} {:>11.1}% {:>11.1}%",
                (1.0 - l1 / s) * 100.0,
                (1.0 - f / s) * 100.0
            );
        }
        println!("(columns 3-4: runtime reduction vs stock; paper: CG ~27.7% from L1 alone)\n");
    }
}
