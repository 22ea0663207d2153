//! # bsim-dist — cell identity and the frame codec
//!
//! The cell type and its key, which `bsim fig`, `bsimd` and the result
//! store share, and the frame codec.
//!
//! * [`cells`] — [`cells::WireCell`], the one unit of sweep work: what
//!   `bsim fig` and `bsim-svc` run through the cell pool,
//! * [`key`] — cell identity: the content hash behind
//!   [`WireCell::key`], the only thing a result store is indexed by,
//! * [`frame`] — the length-prefixed, CRC-checked binary frame codec.
//!
//! Two modules carry FireSim's scale-out mechanism, cutting a
//! target graph along its token links (DESIGN.md §9), in one process
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
pub mod frame;
pub mod graph;
pub mod key;
pub mod link;

pub use cells::WireCell;
pub use frame::{Frame, FrameError};
pub use graph::RankGraph;
pub use link::{RemoteReceiver, RemoteSender};
