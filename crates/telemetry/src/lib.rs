//! Out-of-band performance counters for the simulation stack.
//!
//! FireSim attributes simulation-vs-silicon gaps by reading performance
//! counters out-of-band, without perturbing the target. This crate is the
//! software-simulation analogue, read at the end of a run:
//!
//! * [`CounterBlock`] — hierarchically named `u64` counters; a disabled
//!   block (see [`TelemetryConfig`]) is a no-op that exports nothing. An
//!   observed SoC publishes its core, memory and MPI statistics into one
//!   block when it reports.
//! * [`TelemetrySnapshot`] — JSON/CSV export of a block's final values.
//! * [`GapReport`] — diffs two runs counter-by-counter and ranks the
//!   largest relative deltas, mechanizing the paper's §5 attribution.
//!
//! Counters whose name starts with `host.` (wall-clock rates, retry and
//! watchdog tallies) may differ between hosts or thread counts and are
//! excluded from deterministic exports and gap reports.

pub mod config;
pub mod gap;
pub mod registry;
pub mod snapshot;

pub use config::TelemetryConfig;
pub use gap::{GapReport, GapRow};
pub use registry::CounterBlock;
pub use snapshot::{CounterEntry, TelemetrySnapshot};
