//! The MPI timing model: what an [`Ev`] stream costs on one config.
//!
//! A [`Timing`] is one *lane*: a platform config's [`Soc`] plus the
//! virtual-time state of a world running on it. It takes the world's
//! events one at a time, in global turn order, and advances the core
//! clocks by them. This file and `net.rs` are the only places that know
//! what a message or a collective costs:
//!
//! * a send keeps the sender busy for `o_send + transfer(n)` and stamps
//!   the message `arrival(local, n)` from the clock before that advance;
//! * the matching receive (FIFO per `(src, dst, tag)`) completes at
//!   `max(arrival, local) + o_recv`;
//! * a collective releases every rank at `collective_cost(latest entry,
//!   ranks, largest contribution)`, computed when the last rank enters;
//! * the cycles a rank spends sending and waiting are counted and
//!   published as `mpi.rank{r}.*` when the rank finishes.
//!
//! [`crate::MpiWorld::run`] applies each event to one lane as its rank
//! program produces it; `bsim_sweepx::replay_world` applies a recorded
//! [`crate::WorldTrace`] to one lane per config. Lanes share nothing, so
//! a lane's report does not depend on how many ran beside it or on
//! whether the events came from a live world or from a recording.

use crate::net::NetConfig;
use crate::record::{Ev, EvSink};
use crate::world::WorldReport;
use bsim_soc::{Soc, SocConfig};
use bsim_uarch::MicroOp;
use std::collections::{HashMap, VecDeque};

/// One collective in flight. A fast rank may enter the next collective
/// before a slow one has left this one, so there can be two.
#[derive(Default)]
struct Coll {
    entered: usize,
    exited: usize,
    bytes: usize,
    /// Latest entry clock so far.
    max_entry: u64,
    /// Release clock, valid once every rank has entered.
    release: u64,
}

/// One lane: a config's SoC and the virtual-time state of the world
/// whose events it is applying.
pub struct Timing {
    net: NetConfig,
    soc: Soc,
    /// Arrival stamps of messages in flight, FIFO per `(src, dst, tag)`.
    /// Keyed lookups only — never iterated — so map order cannot leak
    /// into results.
    mail: HashMap<(u32, u32, u32), VecDeque<u64>>,
    /// Collectives some rank has entered and not every rank has left,
    /// oldest first; `retired` counts the ones before them.
    colls: VecDeque<Coll>,
    retired: usize,
    /// Per rank: collectives entered / left, cycles spent sending /
    /// waiting.
    entered: Vec<usize>,
    exited: Vec<usize>,
    send_cycles: Vec<u64>,
    wait_cycles: Vec<u64>,
    messages: u64,
    bytes: u64,
    /// The rank whose [`Ev::Consume`] was the last event applied: the
    /// one segment [`EvSink::extend`] may still lengthen.
    open: Option<u32>,
}

impl Timing {
    /// A fresh SoC built from `cfg`, for a world of `ranks` ranks on `net`.
    pub fn new(cfg: &SocConfig, ranks: usize, net: NetConfig) -> Timing {
        Timing {
            net,
            soc: Soc::new(cfg.clone()),
            mail: HashMap::new(),
            colls: VecDeque::new(),
            retired: 0,
            entered: vec![0; ranks],
            exited: vec![0; ranks],
            send_cycles: vec![0; ranks],
            wait_cycles: vec![0; ranks],
            messages: 0,
            bytes: 0,
            open: None,
        }
    }

    /// The lane's SoC.
    pub fn soc(&mut self) -> &mut Soc {
        &mut self.soc
    }

    /// Applies one event. `uops` is the micro-op arena an
    /// [`Ev::Consume`] slices into; other events ignore it.
    ///
    /// Panics on a stream no world can produce: a receive with no
    /// matching send, a collective left before every rank entered it.
    pub fn apply(&mut self, ev: Ev, uops: &[MicroOp]) {
        let (net, soc, ranks) = (self.net, &mut self.soc, self.entered.len());
        let r = ev.rank();
        let local = soc.core_cycles(r);
        self.open = None;
        match ev {
            Ev::Consume { rank, start, len } => {
                soc.consume_batch(r, &uops[start..start + len]);
                self.open = Some(rank);
            }
            Ev::Charge { cycles, .. } => soc.advance_core(r, local + cycles),
            Ev::Send {
                rank,
                dst,
                tag,
                nbytes,
            } => {
                let busy = net.o_send + net.transfer_cycles(nbytes);
                soc.advance_core(r, local + busy);
                self.send_cycles[r] += busy;
                let arrival = net.arrival(local, nbytes);
                self.mail
                    .entry((rank, dst, tag))
                    .or_default()
                    .push_back(arrival);
            }
            Ev::Recv { rank, src, tag } => {
                let arrival = self
                    .mail
                    .get_mut(&(src, rank, tag))
                    .and_then(|q| q.pop_front())
                    // A world emits Send before the matching Recv, so an
                    // empty queue is a corrupted stream.
                    // bsim: allow(AU002)
                    .expect("malformed event stream: recv with no matching send");
                let done = arrival.max(local) + net.o_recv;
                soc.advance_core(r, done);
                self.wait_cycles[r] += done.saturating_sub(local);
            }
            Ev::CollEnter { bytes, .. } => {
                let g = self.entered[r] - self.retired;
                if self.colls.len() == g {
                    self.colls.push_back(Coll::default());
                }
                let coll = &mut self.colls[g];
                coll.entered += 1;
                coll.bytes = coll.bytes.max(bytes);
                coll.max_entry = coll.max_entry.max(local);
                if coll.entered == ranks {
                    coll.release = net.collective_cost(coll.max_entry, ranks, coll.bytes);
                }
                self.entered[r] += 1;
            }
            Ev::CollExit { .. } => {
                let coll = &mut self.colls[self.exited[r] - self.retired];
                assert!(
                    coll.entered == ranks,
                    "malformed event stream: collective exit before all ranks entered"
                );
                soc.advance_core(r, coll.release);
                self.wait_cycles[r] += coll.release.saturating_sub(local);
                self.exited[r] += 1;
                coll.exited += 1;
                if coll.exited == ranks {
                    // Every rank left the older collectives first, so
                    // this one is the front.
                    self.colls.pop_front();
                    self.retired += 1;
                }
            }
            Ev::Finish {
                messages, bytes, ..
            } => {
                self.messages += messages;
                self.bytes += bytes;
                // Published here, at the rank's place in the global
                // order, so counters register in the same order — and
                // exports carry the same bytes — however the events
                // reached this lane.
                let tel = soc.telemetry_mut();
                if tel.enabled() {
                    let (send, wait) = (self.send_cycles[r], self.wait_cycles[r]);
                    let b = tel.counters_mut();
                    // bsim: allow(AU006) once per rank, telemetry on
                    let name = |what: &str| format!("mpi.rank{r}.{what}");
                    b.set_named(&name("messages"), messages);
                    b.set_named(&name("bytes"), bytes);
                    b.set_named(&name("send_cycles"), send);
                    b.set_named(&name("wait_cycles"), wait);
                    b.add_named("mpi.messages", messages);
                    b.add_named("mpi.bytes", bytes);
                    b.add_named("mpi.wait_cycles", wait);
                }
            }
        }
    }

    /// Drains the SoC into the world's report.
    pub fn into_report(mut self) -> WorldReport {
        WorldReport {
            rank_cycles: (0..self.entered.len())
                .map(|r| self.soc.core_cycles(r))
                .collect(),
            run: self.soc.report(None),
            messages: self.messages,
            bytes: self.bytes,
        }
    }
}

impl EvSink for Timing {
    fn emit(&mut self, ev: Ev, uops: &[MicroOp]) {
        self.apply(ev, uops);
    }

    /// Times the piece on arrival: [`Soc::consume_batch`] does not
    /// depend on where a stream is cut, so a segment costs the same in
    /// one piece or in many.
    fn extend(&mut self, rank: u32, uops: &[MicroOp]) {
        assert!(
            self.open == Some(rank),
            "rank {rank} extends a segment it has not open"
        );
        self.soc.consume_batch(rank as usize, uops);
    }
}
