//! # bsim-resilience — runtime robustness for long simulations
//!
//! The paper's FireSim experiments are multi-hour FPGA-hosted runs where
//! a single stalled token channel or crashed target model loses the
//! whole experiment. `bsim-check` (static analysis) catches
//! misconfigurations *before* cycle 0; this crate defends a run *at
//! runtime*:
//!
//! * [`fault`] — a deterministic, seeded [`FaultPlan`] describing token
//!   drops, duplicates, payload bit-flips, model stalls and host-thread
//!   delays, applied by the engine at `TokenChannel`/`TickModel`
//!   boundaries. Used by the built-in fault campaign (`bsim faults`) to
//!   prove the harness survives — or fails loudly — under every fault
//!   class.
//! * [`watchdog`] — [`WatchdogConfig`] host-time budgets and the typed
//!   [`SimError`] the guarded harness returns instead of hanging, with a
//!   per-thread/per-channel [`StallReport`] progress snapshot.
//! * [`snapshot`] — the [`Snapshot`] trait (serde-`Value`-based
//!   save/restore) cell results implement so a [`ResultStore`] can keep
//!   them and dist workers can ship final model states.
//! * [`ckpt`] — the versioned on-disk [`CkptStore`] file format.
//! * [`store`] — [`ResultStore`], the one place a cell's result is kept:
//!   canonical bytes behind a per-read CRC in a `CkptStore` file, with
//!   quarantine on open and the offline [`scrub`]. `bsim fig`, `bsim
//!   dist` and `bsim serve` share it through `--store`.
//! * [`retry`] — [`RetryPolicy`], the one place a cell panic is caught,
//!   and the [`CellOutcome`] rows resilient sweeps record instead of
//!   aborting.
//! * [`guard`] — bsim-guard hardening primitives: the [`crc32`] the
//!   dist wire protocol and the result store stamp over payloads, the
//!   seeded-jittered [`Backoff`] schedule both [`RetryPolicy`] and the
//!   dist launcher sleep on, and the per-rank circuit [`Breaker`] the
//!   launcher arms against flapping ranks.
//!
//! Config sanity is linted through `bsim-check` diagnostics under the
//! `RS0xx` codes (see `crates/check/README.md`), and a guarded run's
//! runtime events flow through `bsim-telemetry` counters
//! (`fault.injected.*`, `host.resilience.watchdog_trips`).
//!
//! This crate sits *below* the engine (the engine applies the plans and
//! budgets), so it holds data types and policies only — the executable
//! fault campaign lives in `bsim-core::campaign`.

pub mod ckpt;
pub mod fault;
pub mod guard;
pub mod peers;
pub mod retry;
pub mod snapshot;
pub mod store;
pub mod watchdog;

pub use ckpt::CkptStore;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use guard::{crc32, Backoff, Breaker, BreakerState};
pub use peers::PeerWatchdog;
pub use retry::{CellOutcome, RetryPolicy};
pub use snapshot::{CkptError, Snapshot};
pub use store::{scrub, ResultStore, ScrubReport};
pub use watchdog::{ChannelProgress, SimError, StallReport, ThreadProgress, WatchdogConfig};
