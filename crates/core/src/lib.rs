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
//! Cell identity and the result store, which `bsim fig`, `bsim score`
//! and `bsimd` share:
//!
//! * [`cells`] — [`WireCell`], the one unit of sweep work the pool runs,
//! * [`key`] — the content hash behind [`WireCell::key`], the only thing
//!   a result store is indexed by,
//! * [`store`] — [`ResultStore`], the one place a cell's result is kept:
//!   canonical bytes behind a per-read CRC in a [`CkptStore`] file
//!   ([`ckpt`]), with quarantine on open and the offline [`scrub`],
//! * [`snapshot`] — the [`Snapshot`] save/restore trait cell results
//!   implement,
//! * [`retry`] — [`catch`], the one place a cell panic is caught: a
//!   panicking cell becomes a [`CellOutcome::Failed`] row,
//! * [`guard`] — the [`crc32`] the store and the frame header stamp,
//! * [`frame`] — the length-prefixed, CRC-checked binary frame codec.
//!
//! Multi-lane replay and sampled simulation, for callers that sweep one
//! recorded workload over many configs (the ledger's `sweep-lanes`
//! workload, `examples/hostprof.rs`); no figure runs them, because
//! replaying a figure's lane groups measured no faster end to end
//! (EXPERIMENTS.md "Ruled out"):
//!
//! * [`lane`] — which configs may share one recording ([`TraceKey`],
//!   [`lane::partition`]) and which lanes may share a front end
//!   ([`front_groups`]); CL081 flags plans that degenerate to singletons,
//! * [`replay`] — [`replay_world`] ticks N configs through one
//!   `bsim_mpi::WorldTrace`, bit-identical to a scalar run per lane,
//! * [`sample`] — SimPoint-style sampling ([`SampleCfg`]), a library
//!   path of [`replay_world`] only, with stratified error bounds in a
//!   [`sample::SampleReport`] (CL085–CL087 lint the budget).
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
pub mod cells;
pub mod ckpt;
pub mod claims;
pub mod experiments;
pub mod frame;
pub mod guard;
pub mod key;
pub mod lane;
pub mod metrics;
pub mod rate;
pub mod replay;
pub mod resilient;
pub mod retry;
pub mod sample;
pub mod snapshot;
pub mod store;
pub mod table;
pub mod tuning;

pub use campaign::{FaultRow, Scenario, SurvivalMatrix};
pub use cells::WireCell;
pub use ckpt::CkptStore;
pub use experiments::{run_grid_metered, FigureData, Parallelism, Series, SweepRun};
pub use frame::Frame;
pub use guard::crc32;
pub use lane::{cache_tuning_grid, front_groups, lint_lane_plan, TraceKey};
pub use metrics::relative_speedup;
pub use rate::{SimRate, SimRateMeter};
pub use replay::replay_world;
pub use resilient::{CellPool, PoolRun};
pub use retry::{catch, CellOutcome};
pub use sample::SampleCfg;
pub use snapshot::Snapshot;
pub use store::{scrub, ResultStore};
