//! # bsim-resilience — runtime robustness for long simulations
//!
//! The paper's FireSim experiments are multi-hour FPGA-hosted runs where
//! a single stalled token channel or crashed target model loses the
//! whole experiment. `bsim-check` (static analysis) catches
//! misconfigurations *before* cycle 0; this crate defends a run *at
//! runtime*:
//!
//! * [`fault`] — a deterministic [`FaultPlan`] describing token drops,
//!   duplicates, payload bit-flips, model stalls and host-thread delays,
//!   applied by the engine at `TokenChannel`/`TickModel` boundaries.
//!   Only engine tests and a ledger probe use it (and the watchdog):
//!   `bsim faults` injects from MPI rank programs, on the product path.
//! * [`watchdog`] — [`WatchdogConfig`] host-time budgets and the typed
//!   [`SimError`] the guarded harness returns instead of hanging, with a
//!   per-thread/per-channel [`StallReport`] progress snapshot.
//! * [`snapshot`] — the [`Snapshot`] trait (serde-`Value`-based
//!   save/restore) cell results implement so a [`ResultStore`] can keep
//!   them.
//! * [`ckpt`] — the versioned on-disk [`CkptStore`] file format.
//! * [`store`] — [`ResultStore`], the one place a cell's result is kept:
//!   canonical bytes behind a per-read CRC in a `CkptStore` file, with
//!   quarantine on open and the offline [`scrub`]. `bsim fig`, `bsim
//!   score` and `bsim serve` share it through `--store`.
//! * [`retry`] — [`catch`], the one place a cell panic is caught: a cell
//!   runs once, and a panicking one becomes the [`CellOutcome::Failed`]
//!   row resilient sweeps record instead of aborting.
//! * [`guard`] — the [`crc32`] the dist wire protocol and the result
//!   store stamp over payloads.
//!
//! A guarded run reports whether its watchdog fired through the
//! `bsim-telemetry` counter `host.resilience.watchdog_trips`.
//!
//! This crate sits *below* the engine (the engine applies the plans and
//! budgets), so it holds data types and policies only — the executable
//! fault campaign lives in `bsim-core::campaign`.

pub mod ckpt;
pub mod fault;
pub mod guard;
pub mod retry;
pub mod snapshot;
pub mod store;
pub mod watchdog;

pub use ckpt::CkptStore;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use guard::crc32;
pub use retry::{catch, CellOutcome};
pub use snapshot::{CkptError, Snapshot};
pub use store::{scrub, ResultStore, ScrubReport};
pub use watchdog::{ChannelProgress, SimError, StallReport, ThreadProgress, WatchdogConfig};
