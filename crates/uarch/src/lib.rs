//! # bsim-uarch — cycle-level core timing models
//!
//! The two core microarchitectures the paper instantiates in FireSim,
//! plus the knobs needed to model the silicon they are compared against:
//!
//! * [`InOrderCore`] — a parameterised in-order pipeline in the style of
//!   Rocket (5-stage, single-issue) that also models the Banana Pi's
//!   SpacemiT K1 cores when configured as dual-issue with an 8-stage
//!   pipeline (Table 5's two columns),
//! * [`OooCore`] — a parameterised out-of-order window model in the style
//!   of BOOM (fetch buffer, ROB, issue queues, load/store queues, TAGE
//!   branch prediction) covering Small/Medium/Large BOOM and the SG2042
//!   cores of the MILK-V Pioneer (Table 4's BOOM rows).
//!
//! Both consume a stream of [`MicroOp`]s. Micro-ops come from two
//! frontends: the functional RV64 interpreter in `bsim-isa` (used by the
//! MicroBench suite) and the trace generators in `bsim-workloads` (used
//! by NPB/UME/LAMMPS); the timing model cannot tell them apart.
//!
//! The models are *one-pass*: each micro-op is folded into the pipeline
//! state in program order and the clock advances monotonically. This
//! captures the first-order effects the paper tunes for — issue width,
//! pipeline depth, ROB/LSQ capacity, cache/DRAM latency and bandwidth,
//! branch prediction — at simulation speeds high enough to run the full
//! benchmark matrix in minutes.

pub mod inorder;
pub mod latency;
pub mod ooo;
pub mod predictor;
pub mod stats;
pub mod tlb;
pub mod uop;

pub use inorder::{InOrderConfig, InOrderCore};
pub use latency::OpLatencies;
pub use ooo::{OooConfig, OooCore};
pub use predictor::{BoomPredictor, RocketPredictor};
pub use stats::CoreStats;
pub use tlb::{Tlb, TlbConfig};
pub use uop::{BranchClass, MicroOp};

use bsim_mem::MemoryHierarchy;

/// A timing core: consumes micro-ops, owns a cycle counter.
pub trait TimingCore {
    /// Folds `uops` into the pipeline model in program order. `mem` is
    /// the shared SoC memory hierarchy, `core_id` this core's index in it.
    /// This is the one loop that carries the per-micro-op model.
    fn consume_batch(&mut self, uops: &[MicroOp], mem: &mut MemoryHierarchy, core_id: usize);

    /// Folds one micro-op into the pipeline model: a batch of one.
    #[inline]
    fn consume(&mut self, uop: &MicroOp, mem: &mut MemoryHierarchy, core_id: usize) {
        self.consume_batch(std::slice::from_ref(uop), mem, core_id);
    }

    /// Drains in-flight state (stores, ROB) and returns the final cycle.
    fn finish(&mut self) -> u64;

    /// Current cycle count.
    fn cycles(&self) -> u64;

    /// Retired micro-op count.
    fn retired(&self) -> u64;

    /// Detailed statistics.
    fn stats(&self) -> CoreStats;

    /// Advances the local clock to at least `cycle` (used by the MPI layer
    /// to charge communication wait time to a core).
    fn advance_to(&mut self, cycle: u64);
}
