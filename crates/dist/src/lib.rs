//! # bsim-dist — multi-process scale-out
//!
//! FireSim spans big targets across FPGAs by cutting the target graph
//! along its token links and carrying the cut links over the host
//! network; determinism survives because the links are *token* links —
//! every value crosses with ≥ 1 target-cycle of latency, so the
//! computation is independent of host timing (DESIGN.md §13). This
//! crate does the same across OS processes:
//!
//! * [`frame`] — the length-prefixed binary wire protocol,
//! * [`link`] — [`link::RemoteSender`]/[`link::RemoteReceiver`], the two
//!   halves of a cut token link, implementing the engine's
//!   [`bsim_engine::TokenLink`] surface over any byte stream (TCP, Unix
//!   socket pairs) — including run-length `Run` frames so the quiescence
//!   fast-forward works *across the wire*,
//! * [`graph`] — a per-rank lockstep driver for a partitioned model
//!   graph, bit-identical to the in-process [`bsim_engine::Harness`],
//! * [`cells`] — [`cells::WireCell`], the serializable unit of sweep
//!   work: what a worker process executes and what `bsim-svc` schedules
//!   in-process,
//! * [`key`] — cell identity: the content hash behind
//!   [`WireCell::key`], the only thing a result store is indexed by,
//! * [`plan`] — the partition plan a coordinator distributes, validated
//!   by the `DL`-series lints in `bsim-check`,
//! * [`launcher`] — spawns workers, distributes the plan, collects
//!   results into a [`bsim_resilience::ResultStore`], and — via
//!   [`bsim_resilience::PeerWatchdog`] — respawns and re-plans when a
//!   worker process dies,
//! * [`worker`] — the worker-process entry point (`bsim dist-worker`),
//! * [`faults`] — the process-kill survival scenario the `bsim faults`
//!   matrix appends to the in-process campaign.

pub mod cells;
pub mod faults;
pub mod frame;
pub mod graph;
pub mod key;
pub mod launcher;
pub mod link;
pub mod plan;
pub mod worker;

pub use cells::WireCell;
pub use frame::{Frame, FrameError};
pub use graph::RankGraph;
pub use launcher::{LaunchOpts, WorkerSpawn};
pub use link::{RemoteReceiver, RemoteSender};
pub use plan::PlanSpec;
