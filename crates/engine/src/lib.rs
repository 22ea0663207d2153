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
//! No figure cell and no `bsim faults` row runs the harness (the matrix
//! injects into `MpiWorld`): it, its fault injection and its watchdog
//! serve their own tests and the ledger's `engine.*` / `dist.*` probes.

pub mod channel;
pub mod harness;

pub use channel::{ChannelError, TokenChannel, TokenLink};
pub use harness::{Harness, TickModel, Wire};

// Resilience vocabulary `run_guarded` speaks, so its caller (the
// ledger's probe) needs no `bsim-resilience` import just to call it.
pub use bsim_resilience::{FaultKind, FaultPlan, SimError, StallReport, WatchdogConfig};

// The counter sink `run_guarded` writes its watchdog trip count into,
// for the same reason.
pub use bsim_telemetry::CounterBlock;
