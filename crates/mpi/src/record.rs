//! The event stream of a world, and its recording.
//!
//! Everything a rank program does that a simulated core can see — the
//! micro-ops it retires, the analytic costs it charges, its sends,
//! receives and collectives, its return — is one [`Ev`], emitted while
//! the rank holds the world's turn, so the stream is in global turn
//! order. Events carry no times: [`crate::Timing`] derives those, per
//! lane, from the lane's own core clocks and the [`crate::NetConfig`]
//! cost functions.
//!
//! The stream does not depend on the platform beyond three knobs,
//! because a rank program can observe only `rank()`, `size()`,
//! `simd_lanes()`, `compiler_overhead_per_mille()` and message
//! *payloads* (pure functions of the numerics) — [`crate::RankCtx`] has
//! no way to read virtual time, and the turn scheduler never consults
//! it. So any two configs agreeing on `(ranks, simd_lanes,
//! compiler_overhead)` produce the identical stream; cache geometry,
//! core model and frequency are free to differ. That is what lets a
//! design-space sweep run the rank programs **once**, keep the stream as
//! a [`WorldTrace`] — micro-op segments in one shared arena — and time
//! it on N configs (`bsim-sweepx`), with each lane's report equal to
//! what [`crate::MpiWorld::run`] gives on that lane's config.

use bsim_uarch::MicroOp;

/// One SoC-visible action of a rank, in global turn order. Times are
/// deliberately absent: [`crate::Timing`] derives them per lane.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// A micro-op segment fed to `rank`'s core: `uops[start..start+len]`.
    Consume {
        /// Consuming rank.
        rank: u32,
        /// Start index into the arena the event travels with
        /// ([`WorldTrace::uops`] once recorded).
        start: usize,
        /// Segment length in micro-ops.
        len: usize,
    },
    /// An analytic cost charged to `rank`'s clock.
    Charge {
        /// Charged rank.
        rank: u32,
        /// Cycles of opaque work.
        cycles: u64,
    },
    /// A point-to-point send (`rank` → `dst`).
    Send {
        /// Sending rank.
        rank: u32,
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        nbytes: usize,
    },
    /// A matched receive completing on `rank` (FIFO per `(src,rank,tag)`).
    Recv {
        /// Receiving rank.
        rank: u32,
        /// Source rank.
        src: u32,
        /// Message tag.
        tag: u32,
    },
    /// `rank` deposits its contribution into the current collective.
    CollEnter {
        /// Entering rank.
        rank: u32,
        /// This rank's cost-model byte count for the collective.
        bytes: usize,
    },
    /// `rank` picks up a published collective result.
    CollExit {
        /// Exiting rank.
        rank: u32,
    },
    /// `rank`'s program returned; carries its timing-free MPI counters
    /// (message/byte counts — cycle counters are recomputed per lane).
    Finish {
        /// Finishing rank.
        rank: u32,
        /// Point-to-point + alltoall messages this rank sent.
        messages: u64,
        /// Payload bytes this rank sent.
        bytes: u64,
    },
}

impl Ev {
    /// The rank whose action this event records.
    pub fn rank(&self) -> usize {
        (match self {
            Ev::Consume { rank, .. }
            | Ev::Charge { rank, .. }
            | Ev::Send { rank, .. }
            | Ev::Recv { rank, .. }
            | Ev::CollEnter { rank, .. }
            | Ev::CollExit { rank }
            | Ev::Finish { rank, .. } => *rank,
        }) as usize
    }
}

/// A recorded world: one micro-op arena plus the globally-ordered event
/// stream, tagged with the trace-shaping knobs of the recording config.
#[derive(Clone, Debug, Default)]
pub struct WorldTrace {
    /// Rank count the trace was recorded with.
    pub ranks: usize,
    /// `simd_lanes` of the recording config (trace-shaping knob).
    pub simd_lanes: u32,
    /// `compiler_overhead_per_mille` of the recording config
    /// (trace-shaping knob).
    pub compiler_overhead_per_mille: u32,
    /// Shared micro-op arena; [`Ev::Consume`] events slice into it.
    pub uops: Vec<MicroOp>,
    /// SoC-visible actions in global turn order.
    pub events: Vec<Ev>,
    /// World-level point-to-point + alltoall message total.
    pub messages: u64,
    /// World-level payload byte total.
    pub bytes: u64,
}

impl WorldTrace {
    /// True when `(ranks, simd_lanes, compiler_overhead)` of a candidate
    /// lane config match the knobs this trace was shaped by.
    pub fn compatible(&self, simd_lanes: u32, compiler_overhead_per_mille: u32) -> bool {
        self.simd_lanes == simd_lanes
            && self.compiler_overhead_per_mille == compiler_overhead_per_mille
    }

    /// Total micro-ops across all [`Ev::Consume`] segments.
    pub fn total_uops(&self) -> u64 {
        self.uops.len() as u64
    }
}

/// Where a world's events go: a [`crate::Timing`] times them as they
/// happen, a [`WorldTrace`] keeps them. `uops` is the segment an
/// [`Ev::Consume`] slices into (its `start` is relative to it).
pub(crate) trait EvSink: Send {
    fn emit(&mut self, ev: Ev, uops: &[MicroOp]);
}

impl EvSink for WorldTrace {
    fn emit(&mut self, ev: Ev, uops: &[MicroOp]) {
        self.events.push(match ev {
            Ev::Consume { rank, start, len } => {
                let at = self.uops.len();
                self.uops.extend_from_slice(&uops[start..start + len]);
                Ev::Consume {
                    rank,
                    start: at,
                    len,
                }
            }
            Ev::Finish {
                messages, bytes, ..
            } => {
                self.messages += messages;
                self.bytes += bytes;
                ev
            }
            _ => ev,
        });
    }
}
