//! # bsim-sweepx — vectorized multi-lane sweeps and sampled simulation
//!
//! The scalar pipeline simulates one platform config per run, so a
//! config-grid sweep (`bsim fig`, `examples/cache_tuning.rs`) repeats the
//! expensive, config-*independent* work — functional execution, trace
//! decode, workload segment iteration — once per cell. This crate
//! splits that work out:
//!
//! * **Recording** (`bsim_mpi::MpiWorld::record`; `prog::record_program`
//!   for MicroBench programs) runs a workload once and keeps what its
//!   ranks did — the retired micro-op stream and the communication
//!   events, in order, without times — as a [`bsim_mpi::WorldTrace`].
//! * **Multi-lane replay** ([`replay_world`]; `prog::replay_program`)
//!   ticks N compatible configs ("lanes") through the shared trace in
//!   one pass: the decode/iteration happens once per quantum while
//!   per-lane cache tags, LRU state, DRAM bank/row state, and stat
//!   counters live in each lane's own `Soc`. A lane is a
//!   [`bsim_mpi::Timing`], the applier a scalar `MpiWorld::run` drives
//!   live, so full replay is **bit-identical** to the scalar path by
//!   construction; root `tests/mpi_timing.rs` pins the model's
//!   numbers, `tests/lane_ab.rs` and the ledger's `sweep-lanes` goldens
//!   hold the plumbing and the sampler.
//! * **Lane grouping** ([`TraceKey`], [`partition`]) decides which
//!   grid cells may share a recording: configs agree on rank count and
//!   on everything the *functional* side observes (SIMD lanes,
//!   compiler overhead); [`replay_world`] refuses a lane that does not,
//!   and the CL081 lint flags plans that degenerate to singletons.
//! * **SimPoint-style sampling** ([`SampleCfg`], [`SamplePlan`]) cuts
//!   the trace into segments, clusters their op-mix/stride signatures
//!   with a k-means-lite pass, runs detailed timing only on cluster
//!   representatives, fast-forwards the rest, and reports stratified
//!   error bounds in a [`SampleReport`] (CL085–CL087 lint the budget).
//!
//! [`run_lanes`] is the lane executor for `bsim_core`'s figure table
//! (`bsim fig --lanes N [--sample]`). Wall-clock for the lane and
//! sampled paths is measured by the ledger (`benchmark/`, metrics
//! `sweepx.lane_vs_scalar`, `sweepx.replay_{full,sampled}_ms`); the
//! sampled error and its reported bound are gated at calibrated scale
//! by the release-only test in `tests/lane_ab.rs`.

pub mod figure;
pub mod lane;
pub mod prog;
pub mod replay;
pub mod sample;

pub use figure::{run_lanes, LaneOpts};
pub use lane::{cache_tuning_grid, lint_lane_plan, partition, LaneGroup, TraceKey};
pub use replay::{replay_world, LaneOutcome};
pub use sample::{SampleCfg, SampleMetric, SamplePlan, SampleReport};
