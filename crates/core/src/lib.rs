//! # bsim-core — the paper's experiments as a library
//!
//! This crate is the public face of `silicon-bridge`: it turns the
//! substrates (ISA, cores, memory, SoC, MPI, workloads) into the
//! experiments of *"Bridging Simulation and Silicon"* (SC 2025):
//!
//! * [`metrics`] — the paper's **relative speedup** metric (§5: "a
//!   relative speedup of 1.2 indicates that the simulation runs 20%
//!   faster than the real hardware; our goal is 1.0"),
//! * [`experiments`] — one generator per table/figure: Figure 1/2
//!   (microbenchmarks), Figure 3/4 (NPB), Figure 5 (UME), Figures 6/7
//!   (LAMMPS LJ and Chain), Tables 4/5 (platform catalogs),
//! * [`claims`] — [`claims::PAPER_CLAIMS`], each §5 claim of Figures 1–7
//!   once, with the check that scores it on a set of figures (`bsim score`),
//! * [`tuning`] — the paper's §4 methodology: run the microbenchmark
//!   suite against a hardware target and pick/adjust the simulation
//!   configuration that matches best,
//! * [`table`] — plain-text rendering of figure data, so the bench
//!   harnesses print rows directly comparable to the paper's plots,
//! * [`resilient`] — [`CellPool`], the one executor `bsim fig` and
//!   `bsimd` answer keyed cells through: it probes the
//!   result store first, runs each miss once under a claim, degrades a
//!   poisoned cell to a diagnosed failure row and stores the rest,
//! * [`rate`] — [`SimRateMeter`], target cycles per host second: the
//!   software analogue of the paper's FireSim hosting rates, printed on
//!   stderr and never part of a figure,
//! * [`campaign`] — the `bsim faults` fault-injection campaign: the
//!   [`FaultRow`] type every row of the survival matrix is written as,
//!   and the nine in-process rows.
//!
//! ## Quickstart
//!
//! ```
//! use bsim_core::metrics::relative_speedup;
//! use bsim_soc::{configs, Soc};
//! use bsim_workloads::microbench;
//!
//! // Run one microbenchmark on a FireSim model and on the silicon
//! // reference, then compare like Figure 1 does.
//! let kernel = microbench::suite().into_iter().find(|k| k.name == "Cca").unwrap();
//! let prog = kernel.build(1);
//! let sim = Soc::new(configs::banana_pi_sim(1)).run_program(0, &prog, u64::MAX);
//! let hw = Soc::new(configs::banana_pi_hw(1)).run_program(0, &prog, u64::MAX);
//! let rel = relative_speedup(hw.seconds, sim.seconds);
//! assert!(rel > 0.0);
//! ```

pub mod campaign;
pub mod claims;
pub mod experiments;
pub mod metrics;
pub mod rate;
pub mod resilient;
pub mod table;
pub mod tuning;

pub use campaign::{FaultRow, Scenario, SurvivalMatrix};
pub use experiments::{run_grid_metered, FigureData, Parallelism, Series, SweepRun};
pub use metrics::relative_speedup;
pub use rate::{SimRate, SimRateMeter};
pub use resilient::{CellPool, PoolRun};

// The resilience vocabulary the pool above speaks, re-exported so
// `bsim-core` users don't need a separate `bsim-resilience` import.
pub use bsim_resilience::{CellOutcome, CkptError, ResultStore, Snapshot};

/// FNV-1a 64 of `text`: the digest the counter pins in this crate's
/// tests compare against.
#[cfg(test)]
pub(crate) fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
