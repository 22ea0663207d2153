//! # bsim-check — static analysis before the first simulated cycle
//!
//! The paper's contribution is *trusting a simulator's numbers*, and a
//! FireSim-style token simulation only earns that trust if (a) the model
//! graph is well-formed — every channel decoupled, reset tokens present,
//! capacities sized for the quantum — and (b) the target configs
//! actually describe the silicon being modeled (§3.2's BPI-F3/Pioneer
//! tables). FireSim enforces (a) at target *elaboration*, before any
//! FPGA cycle runs; this crate is the software analogue, run before any
//! simulated cycle:
//!
//! * [`graph`] — lifts the engine's wire list into a [`graph::GraphSpec`]
//!   and proves deadlock-freedom, wiring completeness, and capacity
//!   sufficiency (`MG0xx` codes),
//! * [`lint`] + [`rules`] — a [`lint::Lint`] trait with registries of
//!   domain rules over the cache/bus/DRAM/TLB/core config structs
//!   (`CL0xx` codes),
//! * [`diag`] — the typed [`Diagnostic`]/[`Report`] values everything
//!   returns instead of panicking mid-run,
//! * [`audit`] — a workspace source audit banning panicking calls,
//!   `HashMap` iteration, and host clocks from deterministic paths
//!   (`AU0xx` codes, `// bsim: allow(..)` waivers).
//!
//! Platform-level rules live next to the types they judge: `SC0xx`
//! SoC-consistency and `PF0xx` paper-fidelity rules in
//! `bsim-soc::preflight`, the `NC001` network lint in `bsim-mpi`, and
//! `WL001` workload sizing in `bsim-core`. The `bsim check` CLI
//! subcommand runs all of them; `Soc::new` and the sweep drivers run the
//! relevant subset as a mandatory preflight so a bad sweep fails in
//! microseconds, not after an hour of simulation.
//!
//! Every diagnostic code is documented in `crates/check/README.md`.

pub mod audit;
pub mod diag;
pub mod graph;
pub mod lint;
pub mod rules;

pub use diag::{Diagnostic, Report, Severity};
pub use graph::{analyze, GraphSpec, ModelSpec, WireSpec};
pub use lint::{Lint, LintRegistry, Rule};
