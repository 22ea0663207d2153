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
//!   advanced in lockstep either sequentially or on parallel host
//!   threads, with bit-identical results either way (the determinism
//!   test that makes co-simulation trustworthy),
//! * [`SimRateMeter`] — target-MHz / slowdown accounting mirroring the
//!   paper's "60 MHz Rocket ≈ 25× slower than a 1.6 GHz system" and
//!   "15 MHz BOOM ≈ 135× slower than 2.0 GHz" arithmetic.

pub mod channel;
pub mod harness;
pub mod rate;

pub use channel::{ChannelError, TokenChannel, TokenLink};
pub use harness::{Harness, TickModel, Wire};
pub use rate::{SimRate, SimRateMeter};

// Resilience vocabulary `run_guarded` speaks, so downstream crates
// don't need a separate `bsim-resilience` import just to call it.
pub use bsim_resilience::{FaultKind, FaultPlan, SimError, StallReport, WatchdogConfig};

// The counter sink `run_with_telemetry` and friends write into, for the
// same reason: callers shouldn't need `bsim-telemetry` just to read
// `host.engine.*` back out.
pub use bsim_telemetry::CounterBlock;
