//! # bsim-sweepx — vectorized multi-lane sweeps and sampled simulation
//!
//! The scalar pipeline simulates one platform config per run, so a
//! config-grid sweep repeats the config-*independent* work — trace
//! decode, workload segment iteration — once per cell. This crate
//! splits that work out for callers that sweep one workload over many
//! configs (the ledger's `sweep-lanes` workload, `examples/hostprof.rs`):
//!
//! * **Recording** (`bsim_mpi::MpiWorld::record`) runs a workload once
//!   and keeps what its ranks did — the retired micro-op stream and the
//!   communication events, in order, without times — as a
//!   [`bsim_mpi::WorldTrace`].
//! * **Multi-lane replay** ([`replay_world`]) ticks N compatible
//!   configs ("lanes") through the shared trace in one pass: the
//!   decode/iteration happens once per quantum while per-lane cache
//!   timing, DRAM bank/row state, and stat counters live in each lane's
//!   own `Soc`. A lane is a [`bsim_mpi::Timing`], the applier a scalar
//!   `MpiWorld::run` drives live, so full replay is **bit-identical** to
//!   the scalar path by construction; root `tests/mpi_timing.rs` pins
//!   the model's numbers, `tests/lane_ab.rs` and the ledger's
//!   `sweep-lanes` goldens hold the plumbing and the sampler.
//! * **Shared front ends** ([`front_groups`]): lanes whose
//!   core model and L1 geometry agree make the same branch, TLB and L1
//!   tag decisions, so one lane per group decides them and the others
//!   time from its record (`bsim_mem::front`).
//! * **Lane grouping** ([`TraceKey`], [`partition`]) decides which
//!   grid cells may share a recording: configs agree on rank count and
//!   on everything the *functional* side observes (SIMD lanes,
//!   compiler overhead); [`replay_world`] refuses a lane that does not,
//!   and the CL081 lint flags plans that degenerate to singletons.
//! * **SimPoint-style sampling** ([`SampleCfg`], [`SamplePlan`]) cuts
//!   a recorded world into segments, clusters their op-mix/stride
//!   signatures with a k-means-lite pass, runs detailed timing only on
//!   cluster representatives, fast-forwards the rest, and reports
//!   stratified error bounds in a [`SampleReport`] (CL085–CL087 lint the
//!   budget). It is a library path of [`replay_world`] only: no figure
//!   runs it, because its reported bound does not hold its observed
//!   error.
//!
//! No figure runs here: `bsim fig` simulates every cell on its own
//! (`bsim_core::experiments::FigureGrid::run`), because replaying its
//! lane groups measured no faster end to end (EXPERIMENTS.md "Ruled
//! out"). Wall-clock for the lane and sampled paths is measured by the
//! ledger (`benchmark/`, metrics `sweepx.lane_vs_scalar`,
//! `sweepx.replay_{full,sampled}_ms`); the sampled error and its
//! reported bound are gated at calibrated scale by the release-only
//! test in `tests/lane_ab.rs`.

pub mod lane;
pub mod replay;
pub mod sample;

pub use lane::{cache_tuning_grid, front_groups, lint_lane_plan, partition, LaneGroup, TraceKey};
pub use replay::{replay_world, LaneOutcome};
pub use sample::{SampleCfg, SampleMetric, SamplePlan, SampleReport};
