//! # bsim-svc — simulation as a service
//!
//! The ROADMAP north-star in miniature: serve overlapping design-space
//! sweeps as fast as the host allows by never simulating the same cell
//! twice. `bsimd` (a [`Daemon`]) accepts figure/sweep/tune requests
//! over std-TCP HTTP-lite, preflights them through `bsim-check`,
//! decomposes them into **content-addressed cells** — keyed by
//! `bsim_dist::WireCell::key`, a stable hash of (canonicalized platform
//! config × workload × seed × code/schema version) — and fans the misses
//! across `run_grid_resilient` workers while hits and identical
//! in-flight cells are served from the memoizing [`ResultStore`]. Key
//! and store are the ones `bsim fig --store` and `bsim dist --store`
//! use, so a file filled by either serves a daemon and the reverse.
//!
//! Layering:
//!
//! | Module | Role |
//! |---|---|
//! | `splice` | compact → pretty re-indenter: responses are spliced from stored bytes, not rendered from trees |
//! | [`proto`] | hand-rolled HTTP-lite framing (`curl`-compatible, no network deps) |
//! | [`request`] | wire shapes, SV000–SV002 preflight, decomposition into keyed `bsim_dist::WireCell`s |
//! | [`daemon`] | job queue, worker pool, exactly-once cell execution, `/shutdown` drain |
//! | [`client`] | one-call helpers for the CLI and tests |
//! | [`faults`] | the store-corruption row for the `bsim faults` matrix |
//!
//! See README.md "Simulation as a service" for the wire workflow and
//! DESIGN.md §12 for the architecture.

pub mod client;
pub mod daemon;
pub mod faults;
pub mod proto;
pub mod request;
mod splice;

pub use bsim_dist::key::micro_cell_key;
pub use bsim_resilience::{scrub, ResultStore, ScrubReport};
pub use daemon::{Daemon, DaemonConfig, COUNTERS};
pub use proto::WireTimeouts;
pub use request::SvcRequest;
