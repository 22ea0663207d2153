//! # silicon-bridge
//!
//! A pure-Rust reproduction of *"Bridging Simulation and Silicon: A
//! Study of RISC-V Hardware and FireSim Simulation"* (SC 2025): a
//! trace-driven cycle-level simulation stack that models the paper's
//! FireSim targets (Rocket and BOOM SoCs with the DDR3-only FireSim
//! memory system) and its silicon references (Banana Pi BPI-F3 /
//! SpacemiT K1 and MILK-V Pioneer / SG2042), runs the paper's workloads
//! (the 40-kernel MicroBench suite, NPB CG/EP/IS/MG, the UME proxy app,
//! LAMMPS-style LJ and Chain), and regenerates every table and figure of
//! the evaluation.
//!
//! The crates re-exported here form the layering described in DESIGN.md:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`isa`] | `bsim-isa` | RV64IM(+D) encoder/decoder, assembler, interpreter |
//! | [`uarch`] | `bsim-uarch` | in-order (Rocket-like) and OoO (BOOM-like) timing cores |
//! | [`mem`] | `bsim-mem` | caches, bus, LLC models, FR-FCFS DRAM timing |
//! | [`telemetry`] | `bsim-telemetry` | per-core cycle stacks (the AutoCounter analogue) and named host counters |
//! | [`check`] | `bsim-check` | static model-graph analysis and config lints (preflight) |
//! | [`engine`] | `bsim-engine` | token channels, lockstep harness, fault injection, watchdog, cut token link |
//! | [`soc`] | `bsim-soc` | platform catalog (Tables 4/5) and the runnable SoC |
//! | [`mpi`] | `bsim-mpi` | deterministic virtual-time MPI over simulated cores |
//! | [`workloads`] | `bsim-workloads` | MicroBench, NPB, UME, MD |
//! | [`core`] | `bsim-core` | relative-speedup metrics, figure generators, tuning, cell identity, result store, multi-lane replay and sampling |
//! | [`svc`] | `bsim-svc` | `bsimd` service daemon over the result store |
//!
//! [`dist`] and [`sweepx`] are no crates: they hold, one `pub use` each,
//! the paths the ledger (`benchmark/src`) names under them, and [`svc`]
//! adds the two store items it names there.
//!
//! See `examples/quickstart.rs` for a five-minute tour; `bsim fig N` and
//! `bsim table N` (`src/bin/bsim.rs`) regenerate Figures 1–7 and
//! Tables 1/2/4/5.

pub mod bench;

pub use bsim_check as check;
pub use bsim_core as core;
pub use bsim_engine as engine;
pub use bsim_isa as isa;
pub use bsim_mem as mem;
pub use bsim_mpi as mpi;
pub use bsim_soc as soc;
pub use bsim_telemetry as telemetry;
pub use bsim_uarch as uarch;
pub use bsim_workloads as workloads;

/// The ledger's paths to the frame codec and the rank graph.
pub mod dist {
    pub use bsim_core::frame;
    pub use bsim_core::frame::Frame;
    pub use bsim_engine::graph;
    pub use bsim_engine::graph::RankGraph;
}

/// The service daemon, and the ledger's paths to the store items it
/// answers from.
pub mod svc {
    pub use bsim_core::key::micro_cell_key;
    pub use bsim_core::store::ResultStore;
    pub use bsim_svc::*;
}

/// The ledger's paths to multi-lane replay and sampled simulation.
pub mod sweepx {
    pub use bsim_core::lane::cache_tuning_grid;
    pub use bsim_core::lane::lint_lane_plan;
    pub use bsim_core::replay::replay_world;
    pub use bsim_core::sample::SampleCfg;
}

/// Crate version, for reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Every row of the `bsim faults` survival matrix, in print order: the
/// in-process campaign, then the service row.
pub fn fault_rows() -> impl Iterator<Item = &'static core::FaultRow> {
    core::campaign::ROWS.iter().chain(&svc::faults::ROWS)
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_fault_table_has_ten_uniquely_named_rows() {
        let rows: Vec<_> = crate::fault_rows().collect();
        assert_eq!(rows.len(), 10);
        let mut names: Vec<_> = rows.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "row names must be unique");
        assert_eq!(rows.last().map(|r| r.name), Some("store-corrupt"));
        let panicking: Vec<_> = rows.iter().filter(|r| r.panics).map(|r| r.name).collect();
        assert_eq!(panicking, ["token-drop", "token-duplicate", "rank-loss"]);
    }

    #[test]
    fn reexports_link() {
        let cfg = crate::soc::configs::rocket1(1);
        assert_eq!(cfg.name, "Rocket 1");
        assert!(!crate::VERSION.is_empty());
    }
}
