//! Timing-free world recording for multi-lane sweep replay.
//!
//! A design-space sweep re-executes the *same* rank programs — the same
//! numerics, the same operation segments, the same message pattern —
//! against N nearby platform configs. The scalar path pays for the
//! workload computation N times. Recording splits that cost off: the
//! world runs **once** with the timing simulation disabled (the turn
//! scheduler never consults virtual time, so the global order of every
//! SoC-visible action is identical to a timed run), and every action is
//! appended to a [`WorldTrace`] — micro-op segments into one shared
//! arena, communication as timestamp-free events in global turn order.
//!
//! Replay (`bsim-sweepx`) then recomputes all timing per lane from the
//! lane's own core clocks and the stateless [`crate::NetConfig`] cost
//! functions, in a single linear scan over the trace. Because the
//! scalar world derives every arrival/release time from those same pure
//! functions of rank-local virtual time, a full (unsampled) replay is
//! bit-identical to running [`crate::MpiWorld::run`] on that lane's
//! config.
//!
//! What makes the trace shareable across a lane group: the rank
//! programs only observe `rank()`, `size()`, `simd_lanes()`,
//! `compiler_overhead_per_mille()` and message *payloads* (which are
//! pure functions of the numerics) — never virtual time. So any two
//! configs agreeing on `(ranks, simd_lanes, compiler_overhead)` shape
//! the identical trace; cache geometry, core model and frequency are
//! free to differ per lane.

use bsim_soc::Soc;
use bsim_uarch::MicroOp;

/// One recorded SoC-visible action, in global turn order. All times are
/// deliberately absent: replay derives them per lane.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// A micro-op segment fed to `rank`'s core: `uops[start..start+len]`.
    Consume {
        /// Consuming rank.
        rank: u32,
        /// Start index into [`WorldTrace::uops`].
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

/// Publishes one finished rank's `mpi.rank{r}.*` counters, and its share
/// of the `mpi.*` totals, into `soc`'s telemetry registry (a no-op when
/// telemetry is disabled). The scalar world calls it when a rank's
/// program returns and replay at the rank's [`Ev::Finish`], the same
/// point of the global order, so counters register in the same order —
/// and exports carry the same bytes — either way.
pub fn publish_rank_counters(
    soc: &mut Soc,
    rank: usize,
    messages: u64,
    bytes: u64,
    send_cycles: u64,
    wait_cycles: u64,
) {
    let tel = soc.telemetry_mut();
    if !tel.enabled() {
        return;
    }
    let b = tel.counters_mut();
    b.set_named(&format!("mpi.rank{rank}.messages"), messages);
    b.set_named(&format!("mpi.rank{rank}.bytes"), bytes);
    b.set_named(&format!("mpi.rank{rank}.send_cycles"), send_cycles);
    b.set_named(&format!("mpi.rank{rank}.wait_cycles"), wait_cycles);
    b.add_named("mpi.messages", messages);
    b.add_named("mpi.bytes", bytes);
    b.add_named("mpi.wait_cycles", wait_cycles);
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

/// The mutable recording state behind `Shared.rec`. Methods are called
/// while the acting rank holds the world turn, so pushes land in global
/// order without any ordering logic here.
pub(crate) struct Recorder {
    trace: WorldTrace,
}

impl Recorder {
    pub(crate) fn new(ranks: usize, simd_lanes: u32, compiler_overhead_per_mille: u32) -> Recorder {
        Recorder {
            trace: WorldTrace {
                ranks,
                simd_lanes,
                compiler_overhead_per_mille,
                ..WorldTrace::default()
            },
        }
    }

    pub(crate) fn consume(&mut self, rank: usize, uops: &[MicroOp]) {
        let start = self.trace.uops.len();
        self.trace.uops.extend_from_slice(uops);
        self.trace.events.push(Ev::Consume {
            rank: rank as u32,
            start,
            len: uops.len(),
        });
    }

    pub(crate) fn charge(&mut self, rank: usize, cycles: u64) {
        self.trace.events.push(Ev::Charge {
            rank: rank as u32,
            cycles,
        });
    }

    pub(crate) fn send(&mut self, rank: usize, dst: usize, tag: u32, nbytes: usize) {
        self.trace.events.push(Ev::Send {
            rank: rank as u32,
            dst: dst as u32,
            tag,
            nbytes,
        });
    }

    pub(crate) fn recv(&mut self, rank: usize, src: usize, tag: u32) {
        self.trace.events.push(Ev::Recv {
            rank: rank as u32,
            src: src as u32,
            tag,
        });
    }

    pub(crate) fn coll_enter(&mut self, rank: usize, bytes: usize) {
        self.trace.events.push(Ev::CollEnter {
            rank: rank as u32,
            bytes,
        });
    }

    pub(crate) fn coll_exit(&mut self, rank: usize) {
        self.trace.events.push(Ev::CollExit { rank: rank as u32 });
    }

    pub(crate) fn finish(&mut self, rank: usize, messages: u64, bytes: u64) {
        self.trace.events.push(Ev::Finish {
            rank: rank as u32,
            messages,
            bytes,
        });
    }

    pub(crate) fn take(&mut self, messages: u64, bytes: u64) -> WorldTrace {
        let mut trace = std::mem::take(&mut self.trace);
        trace.messages = messages;
        trace.bytes = bytes;
        trace
    }
}
