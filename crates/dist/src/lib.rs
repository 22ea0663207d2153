//! # bsim-dist — multi-process cell sweeps
//!
//! `bsim dist` fans a sweep of independent figure, microbenchmark and
//! tuning cells across worker processes, collects every result into the
//! one result store, and survives a worker's death by re-planning the
//! cells it had not delivered. Cells cross process boundaries as framed
//! JSON over loopback control sockets; no target model state does.
//!
//! * [`frame`] — the length-prefixed binary wire protocol,
//! * [`cells`] — [`cells::WireCell`], the serializable unit of sweep
//!   work: what a worker process executes and what `bsim-svc` schedules
//!   in-process,
//! * [`key`] — cell identity: the content hash behind
//!   [`WireCell::key`], the only thing a result store is indexed by,
//! * [`plan`] — the sweep plan a coordinator hands each worker,
//! * [`launcher`] — spawns workers, distributes the plans, stores
//!   results through a [`bsim_core::CellPool`], and respawns and
//!   re-plans, after a short capped delay, when a worker process dies
//!   or falls silent,
//! * [`worker`] — the worker-process entry point (`bsim dist-worker`),
//! * [`faults`] — the process-kill survival scenario the `bsim faults`
//!   matrix appends to the in-process campaign.
//!
//! Two modules carry FireSim's other scale-out mechanism, cutting a
//! target graph along its token links (DESIGN.md §13), in one process
//! only. They are what the ledger's `dist.rankgraph_mcps` and
//! `dist.cut_overhead_x` probes time:
//!
//! * [`link`] — [`link::RemoteSender`]/[`link::RemoteReceiver`], the two
//!   halves of a cut token link, implementing the engine's
//!   [`bsim_engine::TokenLink`] surface over any byte stream — including
//!   run-length `Run` frames so the quiescence fast-forward works
//!   *across the wire*,
//! * [`graph`] — a per-rank lockstep driver for a partitioned model
//!   graph, bit-identical to the in-process [`bsim_engine::Harness`].

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
