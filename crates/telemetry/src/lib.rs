//! Telemetry: each core's cycle stack, and the host's named counters.
//!
//! FireSim attributes simulation-vs-silicon gaps by reading performance
//! counters out-of-band, without perturbing the target. This crate is the
//! software-simulation analogue:
//!
//! * [`CycleStack`] — where one core's cycles went, by [`Bucket`]. Every
//!   core keeps one and charges each advance of its clock to one bucket,
//!   so the stack sums to the core's cycles. A report carries the stacks
//!   when its [`TelemetryConfig`] is on.
//! * [`CounterBlock`] — hierarchically named `u64` counters for the host
//!   side: the token engine's run tallies and the service's `/metrics`.

pub mod config;
pub mod registry;
pub mod stack;

pub use config::TelemetryConfig;
pub use registry::CounterBlock;
pub use stack::{Bucket, CycleStack};
