//! Lockstep execution of one rank's partition of a model graph.
//!
//! [`RankGraph`] is the distributed sibling of the engine's
//! [`Harness`](crate::Harness): it owns the models assigned to
//! one rank, in-process [`TokenChannel`]s for the wires whose endpoints
//! both live here, and [`RemoteSender`]/[`RemoteReceiver`] halves for
//! the cut wires. The determinism argument is the paper's: every
//! inter-model value crosses a ≥ 1-cycle token link, so each model's
//! input sequence — and therefore its state trajectory — is fixed by
//! target-cycle arithmetic alone. Which side of a socket the producer
//! sits on cannot change a single token, and the tests here assert the
//! resulting states are *bit-identical* to `Harness::run`.
//!
//! Two liveness rules keep N ranks from deadlocking:
//!
//! * **flush-before-block** — a rank flushes every outgoing link before
//!   blocking on any incoming one, so the tokens a peer is waiting for
//!   are never parked in a local buffer;
//! * **verified fast-forward** — a quiescence skip is licensed only by
//!   *arrived* traffic (the leading all-zero run of each remote
//!   in-link), never by a guess about what a peer will send. The skip
//!   then travels compressed: the senders emit constant-size
//!   [`Frame::Run`](bsim_core::frame::Frame::Run) frames.
//!
//! No launcher runs a partition across processes. Over socket pairs in
//! one process, `RankGraph` is the primitive behind the ledger's
//! `dist.rankgraph_mcps` and `dist.cut_overhead_x` probes.

use crate::link::{RemoteReceiver, RemoteSender};
use crate::{TickModel, TokenChannel, TokenLink, Wire};
use std::io::{self, Read, Write};

/// Where one port of a local model connects.
#[derive(Clone, Copy, Debug)]
enum Port {
    Local(usize),
    Remote(usize),
}

/// A cut wire as seen from one rank: which global wire it is, which
/// local model/port it attaches to, and its latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutWire {
    pub wire: usize,
    pub model: usize,
    pub port: usize,
    pub latency: u64,
}

/// One rank's view of a partitioned graph, derived from the global
/// `(assignment, wires)` plan. `ins`/`outs` are in global wire order —
/// the order link streams must be supplied in.
#[derive(Clone, Debug, Default)]
pub struct RankView {
    /// Global model ids owned by this rank, ascending.
    pub local_models: Vec<usize>,
    /// Wires with both endpoints local, re-indexed to local model ids.
    pub local_wires: Vec<Wire>,
    /// Cut wires consumed here.
    pub ins: Vec<CutWire>,
    /// Cut wires produced here.
    pub outs: Vec<CutWire>,
}

/// Projects the global plan onto `rank`.
pub fn rank_view(assignment: &[usize], wires: &[Wire], rank: usize) -> RankView {
    let local_models: Vec<usize> = (0..assignment.len())
        .filter(|&m| assignment[m] == rank)
        .collect();
    let local_of = |global: usize| local_models.iter().position(|&m| m == global);
    let mut view = RankView {
        local_models: local_models.clone(),
        ..RankView::default()
    };
    for (id, w) in wires.iter().enumerate() {
        match (local_of(w.from_model), local_of(w.to_model)) {
            (Some(from), Some(to)) => view.local_wires.push(Wire {
                from_model: from,
                from_port: w.from_port,
                to_model: to,
                to_port: w.to_port,
                latency: w.latency,
            }),
            (Some(from), None) => view.outs.push(CutWire {
                wire: id,
                model: from,
                port: w.from_port,
                latency: w.latency,
            }),
            (None, Some(to)) => view.ins.push(CutWire {
                wire: id,
                model: to,
                port: w.to_port,
                latency: w.latency,
            }),
            (None, None) => {}
        }
    }
    view
}

/// One rank's partition, ready to run.
pub struct RankGraph<M: TickModel> {
    models: Vec<M>,
    /// `in_ports[m][p]` / `out_ports[m][p]`: where model `m`'s port `p`
    /// connects.
    in_ports: Vec<Vec<Port>>,
    out_ports: Vec<Vec<Port>>,
    chans: Vec<TokenChannel<u64>>,
    rxs: Vec<RemoteReceiver<Box<dyn Read + Send>>>,
    txs: Vec<RemoteSender<Box<dyn Write + Send>>>,
    cycle: u64,
    quantum: usize,
    fast_forward: bool,
    skipped: u64,
    scratch_in: Vec<u64>,
    scratch_out: Vec<u64>,
}

fn chan_capacity(latency: u64, quantum: usize) -> usize {
    // The harness auto-sizes to latency + quantum; one extra slot keeps
    // the sequential same-cycle producer-before-consumer order safe at
    // quantum 1.
    latency as usize + quantum + 1
}

impl<M: TickModel> RankGraph<M> {
    /// Builds a fresh partition. `models` are this rank's models in
    /// [`RankView::local_models`] order; `in_streams`/`out_streams`
    /// pair with [`RankView::ins`]/[`RankView::outs`] positionally.
    pub fn new(
        models: Vec<M>,
        view: &RankView,
        in_streams: Vec<Box<dyn Read + Send>>,
        out_streams: Vec<Box<dyn Write + Send>>,
        quantum: usize,
        fast_forward: bool,
    ) -> RankGraph<M> {
        assert!(quantum >= 1, "a quantum of zero advances nothing");
        assert_eq!(models.len(), view.local_models.len(), "one model per slot");
        assert_eq!(in_streams.len(), view.ins.len(), "one stream per in-link");
        assert_eq!(
            out_streams.len(),
            view.outs.len(),
            "one stream per out-link"
        );
        let mut in_ports: Vec<Vec<Option<Port>>> =
            models.iter().map(|m| vec![None; m.num_inputs()]).collect();
        let mut out_ports: Vec<Vec<Option<Port>>> =
            models.iter().map(|m| vec![None; m.num_outputs()]).collect();
        let claim = |slots: &mut Vec<Vec<Option<Port>>>, m: usize, p: usize, port: Port| {
            let slot = slots
                .get_mut(m)
                .and_then(|ports| ports.get_mut(p))
                .unwrap_or_else(|| panic!("wire names missing local port {m}.{p}"));
            assert!(slot.is_none(), "port {m}.{p} is wired twice");
            *slot = Some(port);
        };

        let mut chans = Vec::with_capacity(view.local_wires.len());
        for (i, w) in view.local_wires.iter().enumerate() {
            assert!(
                w.latency >= 1,
                "a zero-latency wire cannot decouple endpoints"
            );
            let mut chan = TokenChannel::new(chan_capacity(w.latency, quantum));
            for at in 0..w.latency {
                // bsim: allow(AU002) invariant stated in the message
                chan.push(at, 0).expect("reset window fits fresh capacity");
            }
            chans.push(chan);
            claim(&mut out_ports, w.from_model, w.from_port, Port::Local(i));
            claim(&mut in_ports, w.to_model, w.to_port, Port::Local(i));
        }

        let mut rxs = Vec::with_capacity(view.ins.len());
        for (i, (cut, stream)) in view.ins.iter().zip(in_streams).enumerate() {
            assert!(
                cut.latency >= 1,
                "a zero-latency cut wire cannot cross a socket"
            );
            rxs.push(RemoteReceiver::new(stream, cut.latency));
            claim(&mut in_ports, cut.model, cut.port, Port::Remote(i));
        }

        let mut txs = Vec::with_capacity(view.outs.len());
        for (i, (cut, stream)) in view.outs.iter().zip(out_streams).enumerate() {
            assert!(
                cut.latency >= 1,
                "a zero-latency cut wire cannot cross a socket"
            );
            txs.push(RemoteSender::new(stream, cut.latency));
            claim(&mut out_ports, cut.model, cut.port, Port::Remote(i));
        }

        let unwrap_ports = |slots: Vec<Vec<Option<Port>>>, dir: &str| -> Vec<Vec<Port>> {
            slots
                .into_iter()
                .enumerate()
                .map(|(m, ports)| {
                    ports
                        .into_iter()
                        .enumerate()
                        .map(|(p, port)| {
                            port.unwrap_or_else(|| panic!("{dir} port {m}.{p} is unwired"))
                        })
                        .collect()
                })
                .collect()
        };
        let in_ports = unwrap_ports(in_ports, "input");
        let out_ports = unwrap_ports(out_ports, "output");

        let scratch_in = vec![0; models.iter().map(M::num_inputs).max().unwrap_or(0)];
        let scratch_out = vec![0; models.iter().map(M::num_outputs).max().unwrap_or(0)];
        RankGraph {
            models,
            in_ports,
            out_ports,
            chans,
            rxs,
            txs,
            cycle: 0,
            quantum,
            fast_forward,
            skipped: 0,
            scratch_in,
            scratch_out,
        }
    }

    /// Current target cycle (cycles fully executed).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles this rank skipped via verified quiescence fast-forward.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// This rank's models, for final-state collection.
    pub fn models(&self) -> &[M] {
        &self.models
    }

    fn flush_all(&mut self) -> io::Result<()> {
        for tx in &mut self.txs {
            tx.flush()?;
        }
        Ok(())
    }

    /// How far this rank is *locally* idle: `Some(n)` when every model
    /// promises inactivity past the current cycle and every local
    /// channel holds only zeros, `None` otherwise. `n` is capped at
    /// `to`.
    fn idle_horizon(&self, to: u64) -> Option<u64> {
        let mut horizon = to;
        for m in &self.models {
            match m.next_activity() {
                Some(t) if t > self.cycle => horizon = horizon.min(t),
                _ => return None,
            }
        }
        for chan in &self.chans {
            if chan.buffered_tokens().any(|&t| t != 0) {
                return None;
            }
        }
        (horizon > self.cycle).then(|| horizon - self.cycle)
    }

    /// Attempts one fast-forward. Skips are licensed only by *verified*
    /// idle traffic — the leading zero run actually buffered on every
    /// remote in-link — so a locally idle rank whose license is merely
    /// *not here yet* blocks for the starving link's next frame (after
    /// flushing, so peers are never starved in turn) and retries,
    /// rather than falling back to stepping through the idle window.
    /// Returns `true` if any cycles were skipped.
    fn try_skip(&mut self, to: u64) -> io::Result<bool> {
        loop {
            let Some(want) = self.idle_horizon(to) else {
                return Ok(false);
            };
            let mut n = want;
            let mut starving = None;
            for (i, rx) in self.rxs.iter().enumerate() {
                if TokenLink::buffered(rx) == 0 {
                    starving.get_or_insert(i);
                } else {
                    let run = rx.leading_zero_run();
                    if run == 0 {
                        // A nonzero token at the head: the idle window
                        // is over on arrival; step() will consume it.
                        return Ok(false);
                    }
                    n = n.min(run);
                }
            }
            if let Some(i) = starving {
                self.flush_all()?;
                self.rxs[i].recv()?;
                continue;
            }
            self.skip(n)?;
            return Ok(true);
        }
    }

    fn skip(&mut self, n: u64) -> io::Result<()> {
        for chan in &mut self.chans {
            chan.fast_forward(n, 0);
        }
        for rx in &mut self.rxs {
            rx.fast_forward(n, 0);
        }
        for tx in &mut self.txs {
            tx.fast_forward(n, 0);
        }
        self.cycle += n;
        self.skipped += n;
        // Peers may be blocked waiting for exactly these idle spans —
        // a skip always flushes so the Run frames travel immediately.
        self.flush_all()
    }

    fn step(&mut self) -> io::Result<()> {
        let cycle = self.cycle;
        for m in 0..self.models.len() {
            for p in 0..self.in_ports[m].len() {
                let token = match self.in_ports[m][p] {
                    Port::Local(c) => self.chans[c]
                        .pop(cycle)
                        .expect("a local producer is never behind the reset window"), // bsim: allow(AU002) invariant stated in the message
                    Port::Remote(r) => {
                        if TokenLink::buffered(&self.rxs[r]) == 0 {
                            // Flush-before-block: our peers may need our
                            // tokens to produce the one we wait for.
                            for tx in &mut self.txs {
                                tx.flush()?;
                            }
                            self.rxs[r].ensure(1)?;
                        }
                        self.rxs[r].pop(cycle).expect("ensured above") // bsim: allow(AU002) invariant stated in the message
                    }
                };
                self.scratch_in[p] = token;
            }
            let (ni, no) = (self.in_ports[m].len(), self.out_ports[m].len());
            self.models[m].tick(cycle, &self.scratch_in[..ni], &mut self.scratch_out[..no]);
            for p in 0..no {
                let token = self.scratch_out[p];
                match self.out_ports[m][p] {
                    Port::Local(c) => {
                        let at = self.chans[c].producer_cycle();
                        self.chans[c]
                            .push(at, token)
                            .expect("capacity covers latency + quantum + 1"); // bsim: allow(AU002) invariant stated in the message
                    }
                    Port::Remote(t) => {
                        let at = self.txs[t].producer_cycle();
                        self.txs[t]
                            .push_batch(at, &[token])
                            .expect("sender buffering is infallible"); // bsim: allow(AU002) invariant stated in the message
                    }
                }
            }
        }
        self.cycle += 1;
        Ok(())
    }

    /// Advances to target cycle `to`, then flushes. Safe to call in
    /// segments — `run(s)` then `run(t)` is bit-identical to `run(t)`.
    pub fn run(&mut self, to: u64) -> io::Result<()> {
        while self.cycle < to {
            if self.fast_forward && self.try_skip(to)? {
                continue;
            }
            self.step()?;
            if self.cycle.is_multiple_of(self.quantum as u64) {
                self.flush_all()?;
            }
        }
        self.flush_all()
    }
}

/// The demo target the probes and tests partition: a bursty accumulator
/// node. Active for the first `burst` cycles of every `period`-cycle
/// window (mixing its input into its state and emitting a nonzero
/// token), idle otherwise — which makes ring graphs of these nodes
/// exercise both dense token traffic and long quiescent spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoNode {
    period: u64,
    burst: u64,
    state: u64,
    /// Cycle of the next promised activity, maintained by `tick`.
    next_burst: u64,
}

impl DemoNode {
    pub fn new(seed: u64, period: u64, burst: u64) -> DemoNode {
        assert!(burst >= 1 && burst <= period, "burst fits the period");
        DemoNode {
            period,
            burst,
            state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
            next_burst: 0,
        }
    }
}

impl TickModel for DemoNode {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
        let in_burst = cycle % self.period < self.burst;
        if in_burst || inputs[0] != 0 {
            self.state = self
                .state
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(inputs[0] ^ cycle)
                .rotate_left(7);
            outputs[0] = if in_burst { self.state | 1 } else { 0 };
        } else {
            outputs[0] = 0;
        }
        let next = cycle + 1;
        self.next_burst = if next % self.period < self.burst {
            next
        } else {
            next + self.period - next % self.period
        };
    }

    fn next_activity(&self) -> Option<u64> {
        Some(self.next_burst)
    }
}

/// A ring of `n` [`DemoNode`]s, node `i` feeding `i + 1 mod n` over a
/// `latency`-cycle wire — the same topology as the fault campaign's
/// mixer ring and the paper's nearest-neighbor MPI patterns.
pub fn demo_ring(n: usize, seed: u64, latency: u64) -> (Vec<DemoNode>, Vec<Wire>) {
    assert!(n >= 2, "a ring needs two nodes");
    let models = (0..n)
        .map(|i| DemoNode::new(seed.wrapping_add(i as u64), 64, 8))
        .collect();
    let wires = (0..n)
        .map(|i| Wire {
            from_model: i,
            from_port: 0,
            to_model: (i + 1) % n,
            to_port: 0,
            latency,
        })
        .collect();
    (models, wires)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Harness;
    use std::os::unix::net::UnixStream;

    const RING: usize = 4;
    const LATENCY: u64 = 2;
    const CYCLES: u64 = 500;
    const QUANTUM: usize = 16;
    const SEED: u64 = 0xB51D;

    fn reference() -> Vec<DemoNode> {
        let (models, wires) = demo_ring(RING, SEED, LATENCY);
        Harness::new(models, wires).run(CYCLES)
    }

    /// Socket plumbing for a 2-rank split of the demo ring: returns
    /// `(in_streams, out_streams)` per rank, in `RankView` order.
    #[allow(clippy::type_complexity)]
    fn two_rank_sockets(
        views: &[RankView; 2],
    ) -> [(Vec<Box<dyn Read + Send>>, Vec<Box<dyn Write + Send>>); 2] {
        // Each cut wire gets one unidirectional socketpair, keyed by
        // global wire id so the two ranks agree on which is which.
        let mut pairs: Vec<(usize, UnixStream, UnixStream)> = Vec::new();
        for cut in views.iter().flat_map(|v| v.outs.iter()) {
            let (w, r) = UnixStream::pair().expect("socketpair");
            pairs.push((cut.wire, w, r));
        }
        views
            .iter()
            .map(|view| {
                let ins = view
                    .ins
                    .iter()
                    .map(|cut| {
                        let at = pairs
                            .iter()
                            .position(|(id, _, _)| *id == cut.wire)
                            .expect("every in-link has a producer");
                        let stream = pairs[at].2.try_clone().expect("clone read half");
                        Box::new(stream) as Box<dyn Read + Send>
                    })
                    .collect();
                let outs = view
                    .outs
                    .iter()
                    .map(|cut| {
                        let at = pairs
                            .iter()
                            .position(|(id, _, _)| *id == cut.wire)
                            .expect("own out-link");
                        let stream = pairs[at].1.try_clone().expect("clone write half");
                        Box::new(stream) as Box<dyn Write + Send>
                    })
                    .collect();
                (ins, outs)
            })
            .collect::<Vec<_>>()
            .try_into()
            .map_err(|_| "two ranks")
            .expect("two ranks")
    }

    /// Runs the 2-rank partition with the given schedule and returns
    /// `(final models in global order, total skipped cycles)`.
    /// `segments` is the list of target-cycle boundaries each rank runs
    /// to in turn.
    fn partitioned(fast_forward: bool, segments: &[u64]) -> (Vec<DemoNode>, u64) {
        let (models, wires) = demo_ring(RING, SEED, LATENCY);
        let assignment = [0usize, 0, 1, 1];
        let views = [
            rank_view(&assignment, &wires, 0),
            rank_view(&assignment, &wires, 1),
        ];
        let [s0, s1] = two_rank_sockets(&views);
        let handles: Vec<_> = views
            .iter()
            .zip([s0, s1])
            .map(|(view, (ins, outs))| {
                let local: Vec<DemoNode> = view
                    .local_models
                    .iter()
                    .map(|&g| models[g].clone())
                    .collect();
                let mut g = RankGraph::new(local, view, ins, outs, QUANTUM, fast_forward);
                let segments = segments.to_vec();
                std::thread::spawn(move || {
                    for to in segments {
                        g.run(to).expect("segment runs");
                    }
                    g
                })
            })
            .collect();
        // Join every rank before any graph drops: a rank that finished
        // first must keep its sockets open while the other still
        // flushes its last tokens to it.
        let graphs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect();
        let skipped = graphs.iter().map(|g| g.skipped()).sum();
        let finals: Vec<Vec<DemoNode>> = graphs.iter().map(|g| g.models().to_vec()).collect();

        let mut all: Vec<DemoNode> = Vec::new();
        for (global, &rank) in assignment.iter().enumerate().take(RING) {
            let local = views[rank]
                .local_models
                .iter()
                .position(|&g| g == global)
                .expect("assignment covers the ring");
            all.push(finals[rank][local].clone());
        }
        (all, skipped)
    }

    #[test]
    fn partitioned_ring_matches_the_in_process_harness() {
        let (plain, _) = partitioned(false, &[CYCLES]);
        assert_eq!(plain, reference(), "2-rank schedule is bit-identical");
    }

    #[test]
    fn quiescence_fast_forward_crosses_the_wire_bit_identically() {
        let (ffed, skipped) = partitioned(true, &[CYCLES]);
        assert_eq!(
            ffed,
            reference(),
            "fast-forward changes host work, not state"
        );
        assert!(
            skipped > CYCLES / 4,
            "the idle windows actually skip (got {skipped} of {CYCLES} per-rank cycles)"
        );
    }

    #[test]
    fn a_mid_run_boundary_is_invisible() {
        let (segmented, _) = partitioned(true, &[250, CYCLES]);
        assert_eq!(segmented, reference());
    }

    #[test]
    fn rank_view_splits_the_ring_at_the_block_seams() {
        let (_, wires) = demo_ring(RING, SEED, LATENCY);
        let view0 = rank_view(&[0, 0, 1, 1], &wires, 0);
        assert_eq!(view0.local_models, vec![0, 1]);
        assert_eq!(view0.local_wires.len(), 1, "wire 0→1 stays local");
        assert_eq!(view0.outs.len(), 1, "wire 1→2 is cut outbound");
        assert_eq!(view0.ins.len(), 1, "wire 3→0 is cut inbound");
        assert_eq!(view0.outs[0].wire, 1);
        assert_eq!(view0.ins[0].wire, 3);
        let view1 = rank_view(&[0, 0, 1, 1], &wires, 1);
        assert_eq!(view1.ins[0].wire, 1);
        assert_eq!(view1.outs[0].wire, 3);
    }
}
