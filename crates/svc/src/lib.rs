//! # bsim-svc — simulation as a service
//!
//! The ROADMAP north-star in miniature: serve overlapping design-space
//! sweeps as fast as the host allows by never simulating the same cell
//! twice. `bsimd` (a [`Daemon`]) accepts figure/sweep/tune requests
//! over std-TCP HTTP-lite, preflights them through `bsim-check`,
//! decomposes them into **content-addressed cells** — keyed by
//! `bsim_core::WireCell::key`, a stable hash of (canonicalized platform
//! config × workload × seed × code/schema version) — and hands them to a
//! `bsim_core::CellPool`, which runs the misses once while hits and
//! identical in-flight cells are served from the memoizing
//! `bsim_core::ResultStore`. Key, pool and store are the ones
//! `bsim fig --store` uses, so a file it filled serves a daemon and the
//! reverse (`tests/store.rs`).
//!
//! Layering:
//!
//! | Module | Role |
//! |---|---|
//! | `splice` | compact → pretty re-indenter: responses are spliced from stored bytes, not rendered from trees |
//! | [`proto`] | hand-rolled HTTP-lite framing (`curl`-compatible, no network deps) |
//! | [`request`] | wire shapes, SV000–SV002 preflight, decomposition into keyed `bsim_core::WireCell`s |
//! | [`daemon`] | job queue, worker pool, served fragments, `/shutdown` drain |
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

pub use daemon::{Daemon, DaemonConfig, COUNTERS};
pub use request::SvcRequest;
