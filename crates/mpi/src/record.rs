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
///
/// A segment may arrive in pieces: its [`Ev::Consume`] carries the first
/// (possibly empty) one and opens it, and [`EvSink::extend`] appends the
/// rest while no other event has followed. However it arrived, a
/// segment is one `Consume`.
pub(crate) trait EvSink: Send {
    fn emit(&mut self, ev: Ev, uops: &[MicroOp]);

    /// Appends `uops` to the segment `rank`'s [`Ev::Consume`] opened.
    ///
    /// Panics (naming the rank) when the sink's last event is not that
    /// `Consume`.
    fn extend(&mut self, rank: u32, uops: &[MicroOp]);
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

    fn extend(&mut self, rank: u32, uops: &[MicroOp]) {
        match self.events.last_mut() {
            // The open segment is the arena's tail, so appending to the
            // arena is appending to the segment.
            Some(Ev::Consume { rank: r, len, .. }) if *r == rank => {
                self.uops.extend_from_slice(uops);
                *len += uops.len();
            }
            last => panic!("rank {rank} extends a segment it has not open (last event: {last:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MpiWorld, NetConfig, RankCtx, Timing};
    use bsim_soc::{configs, SocConfig};

    /// Rank `rank`'s `seg`-th segment: a strided load / ALU / store loop
    /// in which every micro-op has its own address, so a slice of the
    /// arena identifies the ops it holds. The last segment is empty.
    fn segment_uops(rank: usize, seg: u64) -> Vec<MicroOp> {
        let base = 0x1000_0000 + ((rank as u64) << 26) + (seg << 20);
        let trips = [700, 1100, 0][seg as usize];
        (0..trips)
            .flat_map(|i| {
                [
                    MicroOp::load(0x8_0000, base + i * 64, Some(9), None),
                    MicroOp::alu(0x8_0004, Some(10), [Some(9), None, None]),
                    MicroOp::store(0x8_0008, base + 0x8_0000 + i * 64, [Some(10), None, None]),
                ]
            })
            .collect()
    }

    /// Three segments per rank, delivered whole (`pieces == 0`) or in
    /// `pieces` pieces and an empty tail, with a message and a collective
    /// from the peer between one segment and the next.
    fn program(pieces: usize) -> impl Fn(&mut RankCtx) + Sync {
        move |ctx| {
            let (me, peer) = (ctx.rank(), 1 - ctx.rank());
            for seg in 0..3 {
                let uops = segment_uops(me, seg);
                if pieces == 0 {
                    ctx.consume_batch(&uops);
                } else {
                    let mut open = ctx.segment();
                    for piece in uops.chunks(uops.len().div_ceil(pieces).max(1)) {
                        open.extend(piece);
                    }
                    open.extend(&[]);
                }
                ctx.send(peer, seg as u32, vec![me as u8; 96]);
                assert_eq!(ctx.recv(peer, seg as u32), vec![peer as u8; 96]);
                ctx.barrier();
            }
        }
    }

    fn cfg() -> SocConfig {
        configs::large_boom(2)
    }

    #[test]
    fn a_segment_is_one_consume_however_many_pieces_it_arrived_in() {
        let net = NetConfig::shared_memory();
        let whole = format!("{:?}", MpiWorld::run(cfg(), 2, net, program(0)));
        let addrs =
            |uops: &[MicroOp]| -> Vec<_> { uops.iter().map(|u| (u.pc, u.mem_addr)).collect() };
        for pieces in [1, 2, 7] {
            let (_, trace) = MpiWorld::record(cfg(), 2, net, program(pieces));
            for rank in 0..2 {
                let segments: Vec<_> = trace
                    .events
                    .iter()
                    .filter_map(|ev| match *ev {
                        Ev::Consume {
                            rank: r,
                            start,
                            len,
                        } if r as usize == rank => Some(addrs(&trace.uops[start..start + len])),
                        _ => None,
                    })
                    .collect();
                let expected: Vec<_> = (0..3).map(|s| addrs(&segment_uops(rank, s))).collect();
                assert_eq!(segments, expected, "rank {rank} in {pieces} pieces");
            }
            let timed = format!("{:?}", MpiWorld::run(cfg(), 2, net, program(pieces)));
            assert_eq!(timed, whole, "timed in {pieces} pieces");
        }
    }

    fn sinks() -> [Box<dyn EvSink>; 2] {
        let timing = Timing::new(&cfg(), 2, NetConfig::shared_memory());
        [Box::new(WorldTrace::default()), Box::new(timing)]
    }

    /// `sink.extend(rank, ..)` must panic, and say which rank did it.
    fn assert_refused(sink: &mut dyn EvSink, rank: u32, why: &str) {
        let uops = segment_uops(rank as usize, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sink.extend(rank, &uops[..8])
        }));
        let msg = caught.expect_err(why);
        let msg = msg.downcast_ref::<String>().expect("a formatted panic");
        let expected = format!("rank {rank} extends a segment it has not open");
        assert!(msg.contains(&expected), "{why}: {msg}");
    }

    #[test]
    fn extending_with_no_open_segment_names_the_rank() {
        for mut sink in sinks() {
            assert_refused(sink.as_mut(), 1, "nothing was opened");
        }
    }

    #[test]
    fn extending_past_an_intervening_event_names_the_rank() {
        let uops = segment_uops(0, 0);
        let consume = |rank| Ev::Consume {
            rank,
            start: 0,
            len: 8,
        };
        let intervening = [
            Ev::Charge { rank: 0, cycles: 5 },
            consume(1),
            Ev::CollEnter { rank: 1, bytes: 0 },
        ];
        for ev in intervening {
            for mut sink in sinks() {
                sink.emit(consume(0), &uops);
                sink.extend(0, &uops[8..16]);
                sink.emit(ev, &uops);
                assert_refused(sink.as_mut(), 0, &format!("closed by {ev:?}"));
            }
        }
    }
}
