//! Shared plumbing for the paper-reproduction bench harnesses.
//!
//! Every `[[bench]]` target in this crate regenerates one table or
//! figure of the paper (see DESIGN.md §4 for the index) and prints the
//! same rows/series the paper plots. Workload sizes default to the
//! reduced, class-A-shaped sizes of `bsim_core::experiments::Sizes`;
//! set `BSIM_SIZES=smoke` for a fast sanity pass or `BSIM_SIZES=paper`
//! for larger (slower) runs closer to the paper's inputs. Figure
//! harnesses sweep their platform×workload grid with `BSIM_PAR` host
//! workers (`seq`, `auto`, or a count; default `auto`) — the grid order
//! of every figure is deterministic regardless of the worker count.

use bsim_core::experiments::{FigureData, Sizes};
use bsim_core::table;
use bsim_core::Parallelism;

/// Resolves the size preset from `BSIM_SIZES`.
pub fn sizes() -> Sizes {
    match std::env::var("BSIM_SIZES").as_deref() {
        Ok("smoke") => Sizes::smoke(),
        Ok("paper") => Sizes {
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
        },
        _ => Sizes::default(),
    }
}

/// Host-side sweep parallelism from `BSIM_PAR` (default: one worker per
/// host core, capped at the grid size). Results are bit-identical for
/// every setting; only the host wall clock changes.
pub fn parallelism() -> Parallelism {
    match std::env::var("BSIM_PAR") {
        Ok(v) => Parallelism::parse(&v).unwrap_or_else(|| {
            eprintln!("BSIM_PAR={v} not understood (want seq, auto, or a count); using auto");
            Parallelism::Auto
        }),
        Err(_) => Parallelism::Auto,
    }
}

/// Prints a figure as text and, when `BSIM_JSON=1`, as JSON (for
/// plotting scripts).
pub fn emit(fig: &FigureData) {
    println!("{}", table::render(fig));
    if std::env::var("BSIM_JSON").as_deref() == Ok("1") {
        println!(
            "{}",
            serde_json::to_string_pretty(fig).expect("figure serializes")
        );
    }
}

/// Wall-clock banner so `cargo bench` output records harness cost.
pub fn with_timer(name: &str, f: impl FnOnce()) {
    let t0 = std::time::Instant::now();
    f();
    println!(
        "[{name}: completed in {:.1} s]\n",
        t0.elapsed().as_secs_f64()
    );
}
