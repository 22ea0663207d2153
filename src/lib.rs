//! # silicon-bridge
//!
//! A pure-Rust reproduction of *"Bridging Simulation and Silicon: A
//! Study of RISC-V Hardware and FireSim Simulation"* (SC 2025): a
//! token-based cycle-coupled simulation stack that models the paper's
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
//! | [`telemetry`] | `bsim-telemetry` | AutoCounter/TracerV-style out-of-band counters, traces, gap reports |
//! | [`check`] | `bsim-check` | static model-graph analysis and config lints (preflight) |
//! | [`engine`] | `bsim-engine` | token channels, lockstep harness, sim-rate meter |
//! | [`soc`] | `bsim-soc` | platform catalog (Tables 4/5) and the runnable SoC |
//! | [`mpi`] | `bsim-mpi` | deterministic virtual-time MPI over simulated cores |
//! | [`workloads`] | `bsim-workloads` | MicroBench, NPB, UME, MD |
//! | [`core`] | `bsim-core` | relative-speedup metrics, figure generators, tuning |
//! | [`svc`] | `bsim-svc` | `bsimd` service daemon + content-addressed result cache |
//! | [`dist`] | `bsim-dist` | multi-process scale-out: socket token links, rank partitioning, process-loss recovery |
//! | [`sweepx`] | `bsim-sweepx` | vectorized multi-lane config sweeps and SimPoint-style sampled simulation |
//!
//! See `examples/quickstart.rs` for a five-minute tour; `bsim fig N` and
//! `bsim table N` (`src/bin/bsim.rs`) regenerate Figures 1–7 and
//! Tables 1/2/4/5.

pub use bsim_check as check;
pub use bsim_core as core;
pub use bsim_dist as dist;
pub use bsim_engine as engine;
pub use bsim_isa as isa;
pub use bsim_mem as mem;
pub use bsim_mpi as mpi;
pub use bsim_resilience as resilience;
pub use bsim_soc as soc;
pub use bsim_svc as svc;
pub use bsim_sweepx as sweepx;
pub use bsim_telemetry as telemetry;
pub use bsim_uarch as uarch;
pub use bsim_workloads as workloads;

/// Crate version, for reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Every row of the `bsim faults` survival matrix, in print order: the
/// in-process campaign, then the scale-out rows, then the service row.
pub fn fault_rows() -> impl Iterator<Item = &'static core::FaultRow> {
    core::campaign::ROWS
        .iter()
        .chain(&dist::faults::ROWS)
        .chain(&svc::faults::ROWS)
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_fault_table_has_thirteen_uniquely_named_rows() {
        let rows: Vec<_> = crate::fault_rows().collect();
        assert_eq!(rows.len(), 13);
        let mut names: Vec<_> = rows.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "row names must be unique");
        let named = |pick: fn(&crate::core::FaultRow) -> bool| -> Vec<_> {
            rows.iter().filter(|r| pick(r)).map(|r| r.name).collect()
        };
        assert_eq!(
            named(|r| r.guard),
            ["wire-bitflip", "slow-peer", "store-corrupt"]
        );
        assert_eq!(named(|r| r.needs_processes), ["process-kill"]);
        assert_eq!(named(|r| r.panics), ["token-duplicate", "rank-loss"]);
    }

    #[test]
    fn reexports_link() {
        let cfg = crate::soc::configs::rocket1(1);
        assert_eq!(cfg.name, "Rocket 1");
        assert!(!crate::VERSION.is_empty());
    }
}
