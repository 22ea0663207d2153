//! # bsim-engine — token-based cycle-coupled simulation engine
//!
//! FireSim's defining mechanism (Karandikar et al., ISCA'18) is
//! *token-based simulation*: every target model produces exactly one
//! token per target clock cycle on each of its output channels and
//! consumes one token per cycle from each input channel. A model that
//! has not yet received its cycle-N input tokens **stalls** — this is
//! what lets FireSim host target models at different host speeds
//! (FPGA-hosted cores, software-hosted DRAM models) while remaining
//! cycle-exact, and it is what the paper's §3.2.2 refers to when it says
//! the "token-based simulation models for DRAM and LLC ... deliberately
//! stall cores and memory to maintain the target execution frequency".
//!
//! This crate reproduces the mechanism in software:
//!
//! * [`TokenChannel`] — a bounded, cycle-stamped token queue,
//! * [`TickModel`] + [`Harness`] — target models wired by channels,
//!   advanced in lockstep either sequentially (skipping the ticks a
//!   quiescence hint promises are no-ops) or on parallel host threads,
//!   with bit-identical results either way (the determinism test that
//!   makes co-simulation trustworthy).
//!
//! Around them, what only the engine's own tests and the ledger's
//! `engine.*` / `dist.*` probes call:
//!
//! * [`fault`] — a deterministic [`FaultPlan`] of token drops,
//!   duplicates, payload bit-flips, model stalls and host-thread delays,
//!   applied at `TokenChannel`/`TickModel` boundaries,
//! * [`watchdog`] — [`WatchdogConfig`] host-time budgets and the typed
//!   [`SimError`] the guarded harness returns instead of hanging, with a
//!   per-thread/per-channel [`watchdog::StallReport`] progress snapshot;
//!   a guarded run counts its trips in `host.resilience.watchdog_trips`,
//! * [`link`] — [`link::RemoteSender`]/[`link::RemoteReceiver`], the two
//!   halves of a cut token link over any byte stream, speaking
//!   `bsim_core::frame` — including run-length `Run` frames, so the
//!   quiescence fast-forward works *across the wire*,
//! * [`graph`] — [`graph::RankGraph`], a per-rank lockstep driver for a
//!   partitioned model graph (FireSim's scale-out cut, DESIGN.md §9, in
//!   one process), bit-identical to the in-process [`Harness`].
//!
//! No figure cell and no `bsim faults` row runs the harness (the matrix
//! injects into `MpiWorld`).

pub mod channel;
pub mod fault;
pub mod graph;
pub mod harness;
pub mod link;
pub mod watchdog;

pub use channel::{ChannelError, TokenChannel, TokenLink};
pub use fault::{FaultKind, FaultPlan};
pub use harness::{Harness, TickModel, Wire};
pub use watchdog::{SimError, WatchdogConfig};

// The counter sink `run_guarded` writes its watchdog trip count into,
// so its caller (the ledger's probe) needs no `bsim-telemetry` import
// just to call it.
pub use bsim_telemetry::CounterBlock;
