//! Lockstep execution of token-coupled target models.
//!
//! A [`Harness`] owns a set of [`TickModel`]s and the [`Wire`]s between
//! them, and advances all models in target-cycle lockstep. Two host
//! schedules are provided:
//!
//! * [`Harness::run`] — sequential, one host thread, skipping the ticks
//!   a [`TickModel::next_activity`] hint promises are no-ops,
//! * [`Harness::run_parallel`] — one host thread per model, synchronized
//!   *only* through the token channels (models spin when a channel has
//!   no token yet / no slack left), ticking every model every cycle;
//!   [`Harness::run_guarded`] is the same schedule under fault injection
//!   and a watchdog.
//!
//! Because every inter-model value crosses a channel with ≥ 1 cycle of
//! latency, the token protocol makes the computation independent of the
//! host schedule: both schedules produce bit-identical model state.
//! That property — host-time decoupling with target-time determinism —
//! is the core of FireSim's simulation soundness, and is asserted by the
//! tests here; the `bsim faults` matrix injects into `MpiWorld`, the
//! concurrency the product ships, and no longer runs this harness.

use crate::channel::TokenChannel;
use crate::fault::{FaultKind, FaultPlan};
use crate::watchdog::{ChannelProgress, SimError, StallReport, ThreadProgress, WatchdogConfig};
use bsim_check::graph::{GraphSpec, ModelSpec, WireSpec};
use bsim_check::{Diagnostic, Severity};
use bsim_core::retry::panic_message;
use bsim_telemetry::CounterBlock;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A target model advanced one cycle at a time.
pub trait TickModel: Send {
    /// Number of input ports.
    fn num_inputs(&self) -> usize;
    /// Number of output ports.
    fn num_outputs(&self) -> usize;
    /// Consumes one token per input port, produces one per output port.
    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]);

    /// Quiescence hint: `Some(T)` promises that on every cycle `c < T`
    /// whose input tokens are all zero (the idle/reset token), `tick(c)`
    /// would leave the model's state unchanged and write all-zero
    /// outputs. `None` (the default) makes no promise and the model is
    /// ticked every cycle.
    ///
    /// The promise is what lets the sequential [`Harness::run`]
    /// *fast-forward*: it skips the tick outright, and when every model
    /// is idle it synthesizes the zero tokens as run-length spans. A
    /// nonzero input token, or reaching cycle `T`, ends the skip — the
    /// model is ticked for real and asked again. The hint must be a pure
    /// function of model state: it is re-evaluated after every real
    /// tick, never during a skip (skipped ticks don't change state, by
    /// the promise above). The parallel schedule ticks every cycle.
    fn next_activity(&self) -> Option<u64> {
        None
    }
}

/// A directed connection between two model ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wire {
    /// Producing model index.
    pub from_model: usize,
    /// Producing port.
    pub from_port: usize,
    /// Consuming model index.
    pub to_model: usize,
    /// Consuming port.
    pub to_port: usize,
    /// Target-cycle latency (must be ≥ 1 to decouple the endpoints).
    pub latency: u64,
}

/// The wired target graph.
pub struct Harness<M: TickModel> {
    models: Vec<M>,
    wires: Vec<Wire>,
}

struct SharedChannel {
    chan: Mutex<TokenChannel<u64>>,
    /// Last model-produced token delivered through this channel, for the
    /// watchdog's stall report. Reset tokens don't count.
    last_token: AtomicU64,
    moved: AtomicBool,
}

impl SharedChannel {
    fn wrap(chan: TokenChannel<u64>) -> SharedChannel {
        SharedChannel {
            chan: Mutex::new(chan),
            last_token: AtomicU64::new(0),
            moved: AtomicBool::new(false),
        }
    }
}

/// First-panic latch shared by all model threads. Without it, a model
/// that dies inside `tick()` leaves every peer spinning forever on
/// `Empty`/`Full` — the run hangs instead of failing. Threads check the
/// flag in their stall loops and bail out; the harness re-raises the
/// original payload after the scope joins.
struct AbortFlag {
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl AbortFlag {
    fn new() -> AbortFlag {
        AbortFlag {
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    /// Records the first panic payload and raises the flag.
    fn poison(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.payload.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn take(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.payload.lock().take()
    }
}

/// A peer thread panicked; unwind the current thread's driver loop.
struct Aborted;

/// Bounded spin-then-park wait for channel stalls. Early retries are
/// cheap spins (the producer is usually one lock release away), then
/// yields, then short parks — a starved thread costs ~0 CPU instead of
/// pegging a core, and the park bound keeps poison-flag detection prompt.
struct SpinWait {
    step: u32,
}

impl SpinWait {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 16;
    const PARK_MICROS: u64 = 50;

    fn new() -> SpinWait {
        SpinWait { step: 0 }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn wait(&mut self) {
        if self.step < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < Self::YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(Self::PARK_MICROS));
        }
        self.step = self.step.saturating_add(1);
    }
}

impl<M: TickModel> Harness<M> {
    /// Builds a harness, validating the wiring. Panics with the rendered
    /// static-analysis diagnostics on a malformed graph; use
    /// [`Harness::try_new`] for the typed error path.
    pub fn new(models: Vec<M>, wires: Vec<Wire>) -> Harness<M> {
        match Harness::try_new(models, wires) {
            Ok(h) => h,
            Err(diags) => {
                let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                panic!("invalid model graph:\n{}", rendered.join("\n\n"))
            }
        }
    }

    /// Builds a harness, running the `bsim-check` model-graph analysis
    /// first. Returns the error-severity [`Diagnostic`]s (`MG0xx` codes:
    /// zero-latency wires, tokenless cycles, dangling ports, fan-in
    /// conflicts) instead of aborting the process, so sweep drivers can
    /// render or export them.
    pub fn try_new(models: Vec<M>, wires: Vec<Wire>) -> Result<Harness<M>, Vec<Diagnostic>> {
        let spec = GraphSpec {
            models: models
                .iter()
                .enumerate()
                .map(|(i, m)| ModelSpec::indexed(i, m.num_inputs(), m.num_outputs()))
                .collect(),
            wires: wires
                .iter()
                .map(|w| WireSpec::new(w.from_model, w.from_port, w.to_model, w.to_port, w.latency))
                .collect(),
        };
        // Quantum 1 is the weakest capacity requirement; the run methods
        // auto-size channels to `latency + quantum`, so larger quanta
        // only grow capacity and can never invalidate this analysis.
        let report = bsim_check::analyze(&spec, 1);
        let errors: Vec<Diagnostic> = report
            .diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if errors.is_empty() {
            Ok(Harness { models, wires })
        } else {
            Err(errors)
        }
    }

    /// One channel per wire with `slack` cycles of run-ahead, holding
    /// the reset tokens: the first `latency` cycles read zeros.
    fn reset_channels(&self, slack: usize) -> impl Iterator<Item = TokenChannel<u64>> + '_ {
        self.wires.iter().map(move |w| {
            let mut ch = TokenChannel::new(w.latency as usize + slack);
            for c in 0..w.latency {
                ch.push(c, 0).expect("reset tokens fit by construction"); // bsim: allow(AU002) invariant stated in the message
            }
            ch
        })
    }

    /// Runs `cycles` target cycles sequentially and returns the models.
    ///
    /// Quiescence fast-forward works at two levels: a model whose
    /// [`TickModel::next_activity`] promise covers the cycle and whose
    /// inputs are all idle is not ticked, and when every model is idle
    /// and every in-flight token is the idle token, the whole graph
    /// advances to the nearest promise in one run-length step per
    /// channel.
    pub fn run(mut self, cycles: u64) -> Vec<M> {
        // Unshared channels — the sequential schedule needs no mutex —
        // and per-model wire lists, so the hot loop indexes its channels
        // directly instead of scanning every wire twice per model per
        // cycle.
        let mut channels: Vec<TokenChannel<u64>> = self.reset_channels(1).collect();
        let n = self.models.len();
        let (ins, outs): (Vec<_>, Vec<_>) = (0..n).map(|mi| model_wires(&self.wires, mi)).unzip();
        let mut inputs: Vec<Vec<u64>> = self
            .models
            .iter()
            .map(|m| vec![0; m.num_inputs()])
            .collect();
        let mut outputs: Vec<Vec<u64>> = self
            .models
            .iter()
            .map(|m| vec![0; m.num_outputs()])
            .collect();
        // Cached quiescence hints: `cycle < idle_until[mi]` means model
        // `mi` promises zero-input ticks are no-ops until then. 0 (no
        // promise) never satisfies the comparison.
        let mut idle_until: Vec<u64> = self
            .models
            .iter()
            .map(|m| m.next_activity().unwrap_or(0))
            .collect();
        let mut cycle = 0u64;
        while cycle < cycles {
            // Global quiescence: every model idle past this cycle and
            // every in-flight token already the idle token. Bulk-advance
            // virtual time, synthesizing the idle spans as run-length
            // channel operations instead of per-cycle push/pop.
            let horizon = idle_until.iter().copied().min().unwrap_or(0);
            if horizon > cycle
                && channels
                    .iter()
                    .all(|ch| ch.buffered_tokens().all(|&t| t == 0))
            {
                let n_skip = horizon.min(cycles) - cycle;
                for ch in &mut channels {
                    ch.fast_forward(n_skip, 0);
                }
                cycle += n_skip;
                continue;
            }
            for mi in 0..n {
                for &(wi, port) in &ins[mi] {
                    // bsim: allow(AU002) invariant stated in the message
                    inputs[mi][port] = channels[wi].pop(cycle).expect("sequential order is safe");
                }
                // A model alone may also skip: its promise covers any
                // cycle before its horizon whose inputs are all idle.
                if cycle < idle_until[mi] && inputs[mi].iter().all(|&v| v == 0) {
                    outputs[mi].fill(0);
                } else {
                    self.models[mi].tick(cycle, &inputs[mi], &mut outputs[mi]);
                    idle_until[mi] = self.models[mi].next_activity().unwrap_or(0);
                }
                for &(wi, port, latency) in &outs[mi] {
                    channels[wi]
                        .push(cycle + latency, outputs[mi][port])
                        .expect("sequential order is safe"); // bsim: allow(AU002) invariant stated in the message
                }
            }
            cycle += 1;
        }
        self.models
    }

    /// Runs `cycles` target cycles with one host thread per model,
    /// synchronized only through the token channels. `quantum` is the
    /// channel slack in cycles — how far any model may run ahead of its
    /// consumers (FireSim's channel depth) — and, since the batched
    /// scheduler landed, also the token-exchange batch size: each thread
    /// moves up to `quantum` tokens per lock acquisition.
    ///
    /// If any model panics inside `tick()` (or violates the token
    /// protocol), the poison flag tears the whole harness down and this
    /// method re-raises the first panic payload — it never hangs.
    pub fn run_parallel(mut self, cycles: u64, quantum: usize) -> Vec<M> {
        match self.run_span(cycles, quantum.max(1), None) {
            Ok(()) => self.models,
            Err(RunFailure::Panicked(payload)) => resume_unwind(payload),
            Err(RunFailure::Stalled(_)) => unreachable!("no watchdog was armed"),
        }
    }

    /// [`Harness::run_parallel`] with fault injection and a watchdog:
    /// the run either completes, or comes back as a typed [`SimError`]
    /// — [`SimError::Stalled`] with a progress snapshot when no model
    /// advances within the watchdog budget, [`SimError::Panicked`] when
    /// a model dies or violates the token protocol. It never hangs and
    /// never unwinds into the caller.
    ///
    /// `tel` receives `host.resilience.watchdog_trips`: 1 when the
    /// watchdog tore the run down, 0 otherwise.
    ///
    /// A model that blocks forever *inside* `tick()` cannot be torn
    /// down — threads cannot be killed — so the watchdog covers stalls
    /// at token boundaries (where all protocol failures manifest);
    /// non-returning model code is a process-level concern for an outer
    /// timeout (see the CI `faults` job).
    pub fn run_guarded(
        mut self,
        cycles: u64,
        quantum: usize,
        faults: &FaultPlan,
        watchdog: WatchdogConfig,
        tel: &mut CounterBlock,
    ) -> Result<Vec<M>, SimError> {
        let outcome = self.run_span(cycles, quantum.max(1), Some((faults, watchdog)));
        let tripped = matches!(outcome, Err(RunFailure::Stalled(_)));
        tel.set_named("host.resilience.watchdog_trips", u64::from(tripped));
        match outcome {
            Ok(()) => Ok(self.models),
            Err(RunFailure::Stalled(report)) => Err(SimError::Stalled(report)),
            Err(RunFailure::Panicked(payload)) => Err(SimError::Panicked {
                message: panic_message(payload.as_ref()),
            }),
        }
    }

    /// The one parallel driver behind [`Harness::run_parallel`] and
    /// [`Harness::run_guarded`]: every model advances from cycle 0 to
    /// `cycles` on its own host thread. `guard` arms fault injection
    /// and the watchdog; without it a failure can only be a panic.
    fn run_span(
        &mut self,
        cycles: u64,
        quantum: usize,
        guard: Option<(&FaultPlan, WatchdogConfig)>,
    ) -> Result<(), RunFailure> {
        let no_faults = FaultPlan::default();
        let (faults, watchdog) = match guard {
            Some((faults, watchdog)) => (faults, Some(watchdog)),
            None => (&no_faults, None),
        };
        let wires = &self.wires;
        let channels: Arc<Vec<SharedChannel>> = Arc::new(
            self.reset_channels(quantum)
                .map(SharedChannel::wrap)
                .collect(),
        );
        let abort = Arc::new(AbortFlag::new());
        let progress: Arc<Vec<AtomicU64>> =
            Arc::new(self.models.iter().map(|_| AtomicU64::new(0)).collect());
        let epoch = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let stall_report: Arc<Mutex<Option<StallReport>>> = Arc::new(Mutex::new(None));

        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (mi, model) in self.models.iter_mut().enumerate() {
                let channels = Arc::clone(&channels);
                let abort = Arc::clone(&abort);
                let progress = Arc::clone(&progress);
                let epoch = Arc::clone(&epoch);
                let (my_in, my_out) = model_wires(wires, mi);
                let thread_faults = ThreadFaults::for_model(faults, mi, wires, &my_out);
                handles.push(scope.spawn(move |_| {
                    // Catch the panic here, not at the scope join: peers
                    // must see the poison flag while they are still
                    // spinning, or they would wait on tokens that will
                    // never arrive. An `Aborted` return needs nothing
                    // more: a peer already raised the flag.
                    let driven = catch_unwind(AssertUnwindSafe(|| {
                        drive_model(
                            model,
                            &DriveCtx {
                                cycles,
                                quantum,
                                channels: &channels,
                                my_in: &my_in,
                                my_out: &my_out,
                                abort: &abort,
                                faults: &thread_faults,
                                progress: &progress[mi],
                                epoch: &epoch,
                            },
                        )
                    }));
                    if let Err(payload) = driven {
                        abort.poison(payload);
                    }
                }));
            }
            if let Some(cfg) = watchdog {
                let channels = Arc::clone(&channels);
                let abort = Arc::clone(&abort);
                let progress = Arc::clone(&progress);
                let epoch = Arc::clone(&epoch);
                let done = Arc::clone(&done);
                let slot = Arc::clone(&stall_report);
                scope.spawn(move |_| {
                    watchdog_loop(
                        cfg, cycles, &channels, &abort, &progress, &epoch, &done, &slot,
                    );
                });
            }
            for h in handles {
                // A model thread catches its own panics, so a join
                // cannot fail.
                let _ = h.join();
            }
            // Model threads are joined; release the watchdog before the
            // scope waits for it.
            done.store(true, Ordering::Release);
        })
        .expect("model thread panicked"); // bsim: allow(AU002) invariant stated in the message

        if let Some(payload) = abort.take() {
            if payload.is::<StallMarker>() {
                let report = stall_report
                    .lock()
                    .take()
                    .expect("watchdog stores its report before poisoning"); // bsim: allow(AU002) invariant stated in the message
                return Err(RunFailure::Stalled(report));
            }
            return Err(RunFailure::Panicked(payload));
        }
        Ok(())
    }
}

/// Why a span did not complete.
enum RunFailure {
    /// A model panicked (or violated the token protocol); the first
    /// payload, for `resume_unwind` or message extraction.
    Panicked(Box<dyn Any + Send + 'static>),
    /// The watchdog tore the span down.
    Stalled(StallReport),
}

/// Poison payload the watchdog uses to distinguish its own teardown
/// from a real model panic.
struct StallMarker;

/// `(wire, input port)` of every wire into a model, in wire order.
type InWires = Vec<(usize, usize)>;
/// `(wire, output port, latency)` of every wire out of a model.
type OutWires = Vec<(usize, usize, u64)>;

fn model_wires(wires: &[Wire], mi: usize) -> (InWires, OutWires) {
    let wires = || wires.iter().enumerate();
    (
        wires()
            .filter(|(_, w)| w.to_model == mi)
            .map(|(wi, w)| (wi, w.to_port))
            .collect(),
        wires()
            .filter(|(_, w)| w.from_model == mi)
            .map(|(wi, w)| (wi, w.from_port, w.latency))
            .collect(),
    )
}

/// Samples the shared progress epoch; when it stays unchanged for a
/// whole budget, captures a [`StallReport`] and poisons the run.
#[allow(clippy::too_many_arguments)]
fn watchdog_loop(
    cfg: WatchdogConfig,
    target_cycles: u64,
    channels: &[SharedChannel],
    abort: &AbortFlag,
    progress: &[AtomicU64],
    epoch: &AtomicU64,
    done: &AtomicBool,
    slot: &Mutex<Option<StallReport>>,
) {
    let mut last_epoch = epoch.load(Ordering::Relaxed);
    let mut deadline = Instant::now() + cfg.budget; // bsim: allow(AU004) watchdog measures host stall, not target time
    loop {
        std::thread::sleep(cfg.poll);
        if done.load(Ordering::Acquire) || abort.is_poisoned() {
            return;
        }
        let e = epoch.load(Ordering::Relaxed);
        if e != last_epoch {
            last_epoch = e;
            deadline = Instant::now() + cfg.budget; // bsim: allow(AU004) watchdog measures host stall, not target time
            continue;
        }
        // bsim: allow(AU004) watchdog measures host stall, not target time
        if Instant::now() < deadline {
            continue;
        }
        let report = StallReport {
            target_cycles,
            budget_ms: cfg.budget.as_millis() as u64,
            threads: progress
                .iter()
                .enumerate()
                .map(|(mi, p)| ThreadProgress {
                    model: mi,
                    cycle: p.load(Ordering::Relaxed),
                })
                .collect(),
            channels: channels
                .iter()
                .enumerate()
                .map(|(wi, sc)| {
                    let ch = sc.chan.lock();
                    ChannelProgress {
                        wire: wi,
                        buffered: ch.buffered(),
                        producer_cycle: ch.producer_cycle(),
                        consumer_cycle: ch.consumer_cycle(),
                        last_token: if sc.moved.load(Ordering::Acquire) {
                            Some(sc.last_token.load(Ordering::Acquire))
                        } else {
                            None
                        },
                    }
                })
                .collect(),
        };
        *slot.lock() = Some(report);
        abort.poison(Box::new(StallMarker));
        return;
    }
}

/// One model thread's precomputed slice of a [`FaultPlan`].
#[derive(Clone, Debug, Default)]
struct ThreadFaults {
    /// Host-time delay before the thread starts driving, µs.
    start_delay_micros: u64,
    /// `(cycle, micros)` stalls inside the tick loop, sorted by cycle.
    stalls: Vec<(u64, u64)>,
    /// Per-output faults, parallel to the thread's `my_out` list.
    out_faults: Vec<OutFault>,
}

#[derive(Clone, Debug, Default)]
struct OutFault {
    /// Stop delivering tokens from this tick cycle on (token drop).
    sever_at: Option<u64>,
    /// `(cycle, xor mask)` payload corruptions, sorted by cycle.
    flips: Vec<(u64, u64)>,
    /// Cycles at which to re-push an already-delivered token, sorted.
    dups: Vec<u64>,
}

impl ThreadFaults {
    fn for_model(
        plan: &FaultPlan,
        mi: usize,
        wires: &[Wire],
        my_out: &[(usize, usize, u64)],
    ) -> ThreadFaults {
        if plan.is_empty() {
            return ThreadFaults {
                out_faults: vec![OutFault::default(); my_out.len()],
                ..ThreadFaults::default()
            };
        }
        let mut tf = ThreadFaults {
            out_faults: vec![OutFault::default(); my_out.len()],
            ..ThreadFaults::default()
        };
        for e in plan.model_events(mi) {
            match e.kind {
                FaultKind::HostThreadDelay { micros } => tf.start_delay_micros += micros,
                FaultKind::ModelStall { micros } => tf.stalls.push((e.cycle, micros)),
                _ => {}
            }
        }
        tf.stalls.sort_unstable();
        for (oi, &(wi, _, _)) in my_out.iter().enumerate() {
            debug_assert_eq!(wires[wi].from_model, mi);
            let of = &mut tf.out_faults[oi];
            for e in plan.wire_events(wi) {
                match e.kind {
                    FaultKind::TokenDrop => {
                        of.sever_at = Some(of.sever_at.map_or(e.cycle, |s| s.min(e.cycle)));
                    }
                    FaultKind::TokenDuplicate => of.dups.push(e.cycle),
                    FaultKind::PayloadBitFlip { bit } => {
                        of.flips.push((e.cycle, 1u64 << (bit % 64)));
                    }
                    _ => {}
                }
            }
            of.flips.sort_unstable();
            of.dups.sort_unstable();
        }
        tf
    }
}

/// Everything a model thread's driver loop needs besides the model.
#[derive(Clone, Copy)]
struct DriveCtx<'a> {
    cycles: u64,
    quantum: usize,
    channels: &'a [SharedChannel],
    my_in: &'a [(usize, usize)],
    my_out: &'a [(usize, usize, u64)],
    abort: &'a AbortFlag,
    faults: &'a ThreadFaults,
    progress: &'a AtomicU64,
    epoch: &'a AtomicU64,
}

/// Pushes as many pending output tokens as the channels accept right
/// now, one lock acquisition per wire. Returns how many tokens moved.
fn flush_pending(
    channels: &[SharedChannel],
    my_out: &[(usize, usize, u64)],
    pending: &mut [VecDeque<u64>],
    out_pushed: &mut [u64],
) -> usize {
    let mut moved = 0;
    for (oi, &(wi, _port, latency)) in my_out.iter().enumerate() {
        if pending[oi].is_empty() {
            continue;
        }
        // The reset tokens occupy cycles 0..latency, so the push cursor
        // for the k-th model output is latency + k.
        let start = latency + out_pushed[oi];
        let buf = pending[oi].make_contiguous();
        let n = match channels[wi].chan.lock().push_batch(start, buf) {
            Ok(n) => n,
            Err(e) => panic!("token protocol violation: {e}"),
        };
        if n > 0 {
            channels[wi].last_token.store(buf[n - 1], Ordering::Relaxed);
            channels[wi].moved.store(true, Ordering::Release);
        }
        pending[oi].drain(..n);
        out_pushed[oi] += n as u64;
        moved += n;
    }
    moved
}

/// One host thread's schedule: advance `model` from cycle 0 to
/// `ctx.cycles`, exchanging tokens in batches of up to `quantum` per lock
/// acquisition. Input tokens are staged locally (popping ahead of
/// consumption is safe — tokens arrive in cycle order and each will be
/// consumed), outputs are drained through [`flush_pending`]. Stall
/// loops watch `abort` so a dead peer aborts the schedule instead of
/// hanging it; `progress`/`epoch` feed the watchdog. Planned faults
/// from `ctx.faults` are applied at their tick cycles.
fn drive_model<M: TickModel>(model: &mut M, ctx: &DriveCtx<'_>) -> Result<(), Aborted> {
    let DriveCtx {
        cycles,
        quantum,
        channels,
        my_in,
        my_out,
        abort,
        faults,
        progress,
        epoch,
    } = *ctx;
    if faults.start_delay_micros > 0 {
        std::thread::sleep(Duration::from_micros(faults.start_delay_micros));
    }
    // Staging state, sized once: input stages, pending outputs, and the
    // scratch/io buffers, so the loop below allocates nothing.
    let stage = |n: usize| -> Vec<VecDeque<u64>> {
        (0..n).map(|_| VecDeque::with_capacity(quantum)).collect()
    };
    let (mut staged, mut pending) = (stage(my_in.len()), stage(my_out.len()));
    let mut scratch = vec![0u64; quantum];
    let mut inputs = vec![0u64; model.num_inputs()];
    let mut outputs = vec![0u64; model.num_outputs()];
    // Tokens this model has produced so far: one per tick cycle.
    let mut out_pushed = vec![0u64; my_out.len()];
    // Cursors into the sorted fault schedules.
    let mut stall_idx = 0;
    let mut flip_idx = vec![0usize; faults.out_faults.len()];
    let mut dup_idx = vec![0usize; faults.out_faults.len()];
    let mut cycle = 0u64;
    let mut spin = SpinWait::new();

    while cycle < cycles {
        let want = quantum.min((cycles - cycle) as usize);
        // Refill the input stages up to one batch's worth per channel.
        for (ii, &(wi, _)) in my_in.iter().enumerate() {
            let have = staged[ii].len();
            if have < want {
                let pop_from = cycle + have as u64;
                let got = match channels[wi]
                    .chan
                    .lock()
                    .pop_batch(pop_from, &mut scratch[..want - have])
                {
                    Ok(n) => n,
                    Err(e) => panic!("token protocol violation: {e}"),
                };
                staged[ii].extend(&scratch[..got]);
            }
        }
        // The tickable batch is bounded by the worst-fed input port.
        let batch = staged
            .iter()
            .map(|s| s.len())
            .min()
            .unwrap_or(want)
            .min(want);
        if batch == 0 {
            // Keep our consumers fed while we stall, or two mutually
            // blocked threads could starve each other.
            flush_pending(channels, my_out, &mut pending, &mut out_pushed);
            if abort.is_poisoned() {
                return Err(Aborted);
            }
            spin.wait();
            continue;
        }
        spin.reset();
        for k in 0..batch as u64 {
            let t = cycle + k;
            for (ii, &(_, port)) in my_in.iter().enumerate() {
                inputs[port] = staged[ii]
                    .pop_front()
                    .expect("batch bounded by stage depth"); // bsim: allow(AU002) invariant stated in the message
            }
            while stall_idx < faults.stalls.len() && faults.stalls[stall_idx].0 == t {
                std::thread::sleep(Duration::from_micros(faults.stalls[stall_idx].1));
                stall_idx += 1;
            }
            model.tick(t, &inputs, &mut outputs);
            for (oi, &(wi, port, _)) in my_out.iter().enumerate() {
                let of = &faults.out_faults[oi];
                let mut token = outputs[port];
                while flip_idx[oi] < of.flips.len() && of.flips[flip_idx[oi]].0 == t {
                    token ^= of.flips[flip_idx[oi]].1;
                    flip_idx[oi] += 1;
                }
                while dup_idx[oi] < of.dups.len() && of.dups[dup_idx[oi]] == t {
                    dup_idx[oi] += 1;
                    // Re-send a cycle the channel has already carried:
                    // the cycle-stamped protocol must reject this, and
                    // the rejection is the loud failure the duplicate
                    // fault class asserts.
                    // Which stamp is stale depends on how much of
                    // `pending` the host schedule has flushed, so the
                    // report names only the planned (cycle, wire).
                    let mut ch = channels[wi].chan.lock();
                    let stale = ch.producer_cycle().saturating_sub(1);
                    if ch.push(stale, token).is_err() {
                        panic!(
                            "token protocol violation (injected duplicate of cycle {t} on wire {wi})"
                        );
                    }
                }
                // A severed wire delivers nothing from the drop cycle
                // on; the consumer's starvation is the watchdog's to
                // report.
                if of.sever_at.is_none_or(|s| t < s) {
                    pending[oi].push_back(token);
                }
            }
        }
        cycle += batch as u64;
        progress.store(cycle, Ordering::Relaxed);
        epoch.fetch_add(1, Ordering::Relaxed);
        // Drain this batch's outputs before starting the next. A full
        // channel means its consumer holds a whole capacity of unread
        // tokens, so waiting here cannot deadlock.
        while pending.iter().any(|p| !p.is_empty()) {
            let moved = flush_pending(channels, my_out, &mut pending, &mut out_pushed);
            if moved == 0 {
                if abort.is_poisoned() {
                    return Err(Aborted);
                }
                spin.wait();
            } else {
                spin.reset();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little stateful model: accumulates a mix of its input and emits
    /// a function of its state. Deliberately order-sensitive so that any
    /// schedule dependence would corrupt the final state.
    #[derive(Debug)]
    struct Mixer {
        state: u64,
        seed: u64,
    }

    impl Mixer {
        fn new(seed: u64) -> Mixer {
            Mixer { state: seed, seed }
        }
    }

    impl TickModel for Mixer {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(inputs[0] ^ cycle ^ self.seed);
            outputs[0] = self.state >> 17;
        }
    }

    fn ring(n: usize, latency: u64) -> (Vec<Mixer>, Vec<Wire>) {
        let models: Vec<Mixer> = (0..n).map(|i| Mixer::new(0x9E37 + i as u64)).collect();
        let wires: Vec<Wire> = (0..n)
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

    #[test]
    fn sequential_run_is_reproducible() {
        let (m1, w1) = ring(4, 1);
        let (m2, w2) = ring(4, 1);
        let a = Harness::new(m1, w1).run(1000);
        let b = Harness::new(m2, w2).run(1000);
        let sa: Vec<u64> = a.iter().map(|m| m.state).collect();
        let sb: Vec<u64> = b.iter().map(|m| m.state).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (m1, w1) = ring(5, 2);
        let (m2, w2) = ring(5, 2);
        let seq = Harness::new(m1, w1).run(2000);
        let par = Harness::new(m2, w2).run_parallel(2000, 8);
        let ss: Vec<u64> = seq.iter().map(|m| m.state).collect();
        let ps: Vec<u64> = par.iter().map(|m| m.state).collect();
        assert_eq!(ss, ps, "token protocol must make host schedule invisible");
    }

    #[test]
    fn parallel_determinism_across_quanta() {
        // Different channel slack must not change target behavior.
        let (m1, w1) = ring(3, 1);
        let (m2, w2) = ring(3, 1);
        let a = Harness::new(m1, w1).run_parallel(1500, 1);
        let b = Harness::new(m2, w2).run_parallel(1500, 64);
        assert_eq!(
            a.iter().map(|m| m.state).collect::<Vec<_>>(),
            b.iter().map(|m| m.state).collect::<Vec<_>>()
        );
    }

    #[test]
    fn latency_changes_target_behavior() {
        // Unlike host scheduling, *target* latency is architectural:
        // a 1-cycle ring and a 3-cycle ring are different machines.
        let (m1, w1) = ring(4, 1);
        let (m2, w2) = ring(4, 3);
        let a = Harness::new(m1, w1).run(500);
        let b = Harness::new(m2, w2).run(500);
        assert_ne!(
            a.iter().map(|m| m.state).collect::<Vec<_>>(),
            b.iter().map(|m| m.state).collect::<Vec<_>>()
        );
    }

    #[test]
    fn disabled_telemetry_run_matches_plain_run() {
        let (m1, w1) = ring(3, 1);
        let (m2, w2) = ring(3, 1);
        let mut off = CounterBlock::new(false);
        let a = Harness::new(m1, w1).run(600);
        let b = Harness::new(m2, w2)
            .run_guarded(
                600,
                4,
                &FaultPlan::default(),
                WatchdogConfig::default(),
                &mut off,
            )
            .expect("a clean run completes");
        assert_eq!(
            a.iter().map(|m| m.state).collect::<Vec<_>>(),
            b.iter().map(|m| m.state).collect::<Vec<_>>()
        );
        assert_eq!(
            off.counters().count(),
            0,
            "disabled block must export nothing"
        );
    }

    /// A model that panics when it reaches cycle `at`, wrapping a
    /// well-behaved [`Mixer`] otherwise.
    struct PanicAt {
        at: u64,
        inner: Mixer,
    }

    impl TickModel for PanicAt {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
            assert!(cycle != self.at, "model exploded at cycle {cycle}");
            self.inner.tick(cycle, inputs, outputs);
        }
    }

    /// Regression test for the parallel-harness hang: before the poison
    /// flag, a model panicking inside `tick()` left every peer thread
    /// spinning forever on `Empty`/`Full` and `run_parallel` never
    /// returned. Now the first panic tears the harness down and its
    /// payload is re-raised from `run_parallel` itself.
    #[test]
    #[should_panic(expected = "model exploded at cycle 50")]
    fn panicking_model_tears_down_the_harness() {
        let models: Vec<PanicAt> = (0..4)
            .map(|i| PanicAt {
                at: if i == 0 { 50 } else { u64::MAX },
                inner: Mixer::new(0x5EED + i as u64),
            })
            .collect();
        let wires: Vec<Wire> = (0..4)
            .map(|i| Wire {
                from_model: i,
                from_port: 0,
                to_model: (i + 1) % 4,
                to_port: 0,
                latency: 1,
            })
            .collect();
        // Pre-fix this call never returns: models 1..3 spin on channels
        // model 0 will never feed again.
        let _ = Harness::new(models, wires).run_parallel(10_000, 4);
    }

    #[test]
    fn batched_schedule_is_deterministic_with_large_quanta() {
        // Quanta far larger than latency, cycle count not divisible by
        // the quantum, many threads: state must still be bit-identical
        // to the sequential schedule.
        let (m1, w1) = ring(6, 3);
        let (m2, w2) = ring(6, 3);
        let seq = Harness::new(m1, w1).run(1337);
        let par = Harness::new(m2, w2).run_parallel(1337, 256);
        assert_eq!(
            seq.iter().map(|m| m.state).collect::<Vec<_>>(),
            par.iter().map(|m| m.state).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "exactly one driver")]
    fn unwired_input_is_rejected() {
        let (m, _) = ring(2, 1);
        let _ = Harness::new(m, vec![]);
    }

    #[test]
    #[should_panic(expected = ">= 1 cycle latency")]
    fn zero_latency_wire_is_rejected() {
        let (m, mut w) = ring(2, 1);
        w[0].latency = 0;
        let _ = Harness::new(m, w);
    }

    /// Regression test for the diagnostic path: a zero-latency wire must
    /// come back as a typed `MG001` error from `try_new`, not abort the
    /// process the way the old bare `assert!` did.
    #[test]
    fn zero_latency_wire_reports_mg001_without_aborting() {
        let (m, mut w) = ring(2, 1);
        w[0].latency = 0;
        let Err(diags) = Harness::try_new(m, w) else {
            panic!("analysis must reject a zero-latency wire")
        };
        assert!(
            diags.iter().any(|d| d.code == "MG001"),
            "expected MG001, got: {:?}",
            diags.iter().map(|d| d.code.as_str()).collect::<Vec<_>>()
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn try_new_accepts_well_formed_graphs() {
        let (m, w) = ring(3, 2);
        let h = Harness::try_new(m, w).expect("healthy ring");
        let states: Vec<u64> = h.run(100).iter().map(|m| m.state).collect();
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn fan_in_conflict_reports_mg003() {
        let (m, mut w) = ring(2, 1);
        let dup = w[0];
        w.push(dup); // second driver for the same input port
        let Err(diags) = Harness::try_new(m, w) else {
            panic!("fan-in conflict must be rejected")
        };
        assert!(diags.iter().any(|d| d.code == "MG003"));
    }

    use crate::fault::FaultTarget;

    fn states(models: &[Mixer]) -> Vec<u64> {
        models.iter().map(|m| m.state).collect()
    }

    #[test]
    fn guarded_clean_run_matches_plain_parallel() {
        let (m1, w1) = ring(4, 2);
        let (m2, w2) = ring(4, 2);
        let mut tel = CounterBlock::new(true);
        let guarded = Harness::new(m1, w1)
            .run_guarded(
                1000,
                8,
                &FaultPlan::default(),
                WatchdogConfig::default(),
                &mut tel,
            )
            .expect("clean run completes");
        let plain = Harness::new(m2, w2).run_parallel(1000, 8);
        assert_eq!(states(&guarded), states(&plain));
        assert_eq!(tel.get("host.resilience.watchdog_trips"), Some(0));
    }

    /// The core host-time-decoupling claim, proven under adversity:
    /// stalling a model mid-run and delaying a thread's start must not
    /// change a single bit of target state.
    #[test]
    fn stall_and_delay_faults_survive_bit_identically() {
        let (m1, w1) = ring(3, 1);
        let (m2, w2) = ring(3, 1);
        let clean = Harness::new(m1, w1).run_parallel(500, 4);
        let plan = FaultPlan::new(1)
            .inject(
                FaultTarget::Model(1),
                100,
                FaultKind::ModelStall { micros: 2_000 },
            )
            .inject(
                FaultTarget::Model(2),
                0,
                FaultKind::HostThreadDelay { micros: 3_000 },
            );
        let mut tel = CounterBlock::new(true);
        let faulted = Harness::new(m2, w2)
            .run_guarded(500, 4, &plan, WatchdogConfig::default(), &mut tel)
            .expect("host-time faults must not kill the run");
        assert_eq!(states(&clean), states(&faulted));
        assert_eq!(tel.get("host.resilience.watchdog_trips"), Some(0));
    }

    #[test]
    fn bit_flip_survives_but_corrupts_the_result() {
        let (m1, w1) = ring(3, 1);
        let (m2, w2) = ring(3, 1);
        let clean = Harness::new(m1, w1).run_parallel(400, 4);
        let plan = FaultPlan::new(2).inject(
            FaultTarget::Wire(0),
            37,
            FaultKind::PayloadBitFlip { bit: 5 },
        );
        let mut tel = CounterBlock::new(false);
        let flipped = Harness::new(m2, w2)
            .run_guarded(400, 4, &plan, WatchdogConfig::default(), &mut tel)
            .expect("a bit flip is survivable corruption, not a crash");
        assert_ne!(
            states(&clean),
            states(&flipped),
            "the corruption must be visible in the final state"
        );
    }

    /// The watchdog satellite: a severed channel (the token-drop fault
    /// model) starves the ring, and the run must come back as a typed
    /// `SimError::Stalled` with a useful progress snapshot — not hang.
    #[test]
    fn severed_channel_trips_the_watchdog_within_budget() {
        let (m, w) = ring(3, 1);
        let plan = FaultPlan::new(3).inject(FaultTarget::Wire(1), 200, FaultKind::TokenDrop);
        let mut tel = CounterBlock::new(true);
        let started = Instant::now();
        let err = Harness::new(m, w)
            .run_guarded(1_000_000, 8, &plan, WatchdogConfig::tight(), &mut tel)
            .expect_err("a severed channel can never finish");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "teardown must be prompt, not a hang"
        );
        let SimError::Stalled(report) = err else {
            panic!("expected Stalled, got {err}");
        };
        assert_eq!(tel.get("host.resilience.watchdog_trips"), Some(1));
        assert_eq!(report.threads.len(), 3);
        assert_eq!(report.channels.len(), 3);
        // Every thread stalled shortly after the severed cycle: nobody
        // can get further than the drop cycle plus the pipeline depth.
        for t in &report.threads {
            assert!(
                t.cycle >= 200 && t.cycle < 300,
                "model {} stuck at implausible cycle {}",
                t.model,
                t.cycle
            );
        }
        // The starved channel is visible in the snapshot.
        let starved = report.most_starved().expect("someone is starved");
        assert_eq!(starved.buffered, 0);
    }

    #[test]
    fn duplicate_token_fails_loudly_with_protocol_violation() {
        let (m, w) = ring(3, 1);
        let plan = FaultPlan::new(4).inject(FaultTarget::Wire(0), 50, FaultKind::TokenDuplicate);
        let mut tel = CounterBlock::new(false);
        let err = Harness::new(m, w)
            .run_guarded(10_000, 4, &plan, WatchdogConfig::default(), &mut tel)
            .expect_err("a duplicated token must be rejected");
        let SimError::Panicked { message } = err else {
            panic!("expected Panicked, got {err}");
        };
        assert_eq!(
            message,
            "token protocol violation (injected duplicate of cycle 50 on wire 0)"
        );
    }

    /// A healthy-but-slow model must NOT trip the watchdog: progress
    /// resets the budget even when each quantum takes a while.
    #[test]
    fn slow_but_live_model_does_not_trip_the_watchdog() {
        let (m, w) = ring(2, 1);
        // Stall 5 ms every 100 cycles: far slower than normal, but each
        // stall is well under the 400 ms tight budget.
        let mut plan = FaultPlan::new(5);
        for c in (0..1000).step_by(100) {
            plan = plan.inject(
                FaultTarget::Model(0),
                c,
                FaultKind::ModelStall { micros: 5_000 },
            );
        }
        let mut tel = CounterBlock::new(true);
        Harness::new(m, w)
            .run_guarded(1000, 4, &plan, WatchdogConfig::tight(), &mut tel)
            .expect("slowness is not deadlock");
        assert_eq!(tel.get("host.resilience.watchdog_trips"), Some(0));
    }

    /// A model with genuine idle time, for the fast-forward tests. A
    /// `Pulse` fires a token every `period` cycles (and silently absorbs
    /// anything it receives); an `Echo` is purely reactive — it mixes a
    /// nonzero input into its state and forwards it with a decremented
    /// TTL (low three bits), so a pulse ripples a bounded distance round
    /// the ring and then everything is quiescent until the next pulse.
    /// Both variants honor the `next_activity` contract: on any promised
    /// cycle with all-zero inputs, `tick` is a state no-op emitting zero.
    #[derive(Debug)]
    enum Burst {
        Pulse {
            period: u64,
            next_pulse: u64,
            state: u64,
        },
        Echo {
            state: u64,
        },
    }

    fn mix(state: u64, with: u64) -> u64 {
        state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(with | 1)
    }

    impl TickModel for Burst {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
            match self {
                Burst::Pulse {
                    period,
                    next_pulse,
                    state,
                } => {
                    if inputs[0] != 0 {
                        *state = mix(*state, inputs[0] ^ cycle);
                    }
                    if cycle >= *next_pulse {
                        *state = mix(*state, cycle);
                        // TTL 3 in the low bits: the token survives two
                        // echo hops and dies at the third consumer.
                        outputs[0] = (*state | 1) << 3 | 3;
                        *next_pulse = cycle + *period;
                    } else {
                        outputs[0] = 0;
                    }
                }
                Burst::Echo { state } => {
                    if inputs[0] != 0 {
                        *state = mix(*state, inputs[0] ^ cycle);
                        let ttl = inputs[0] & 7;
                        outputs[0] = if ttl > 1 {
                            (*state | 1) << 3 | (ttl - 1)
                        } else {
                            0
                        };
                    } else {
                        outputs[0] = 0;
                    }
                }
            }
        }
        fn next_activity(&self) -> Option<u64> {
            match self {
                Burst::Pulse { next_pulse, .. } => Some(*next_pulse),
                // Purely reactive: idle forever absent input.
                Burst::Echo { .. } => Some(u64::MAX),
            }
        }
    }

    /// A [`Burst`] that counts the ticks the harness delivers to it, so
    /// a test sees skipping from the model's side. The count is not
    /// model state: the hint and the compared states ignore it.
    struct Counted {
        burst: Burst,
        ticks: u64,
    }

    impl TickModel for Counted {
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
            self.ticks += 1;
            self.burst.tick(cycle, inputs, outputs);
        }
        fn next_activity(&self) -> Option<u64> {
            self.burst.next_activity()
        }
    }

    /// A mostly-idle ring: one pulse source plus `echoes` reactive hops.
    fn burst_ring(echoes: usize, period: u64, latency: u64) -> (Vec<Counted>, Vec<Wire>) {
        let mut bursts = vec![Burst::Pulse {
            period,
            next_pulse: 0,
            state: 0x1234_5678,
        }];
        bursts.extend((0..echoes).map(|i| Burst::Echo {
            state: 0xE0 + i as u64,
        }));
        let n = bursts.len();
        let models = bursts
            .into_iter()
            .map(|burst| Counted { burst, ticks: 0 })
            .collect();
        let wires: Vec<Wire> = (0..n)
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

    fn burst_states(models: &[Counted]) -> Vec<u64> {
        models
            .iter()
            .map(|m| match m.burst {
                Burst::Pulse { state, .. } | Burst::Echo { state } => state,
            })
            .collect()
    }

    fn ticks(models: &[Counted]) -> u64 {
        models.iter().map(|m| m.ticks).sum()
    }

    /// The parallel schedule ticks every model every cycle, so it is the
    /// unskipped reference the sequential schedule's skips must match.
    #[test]
    fn sequential_fast_forward_is_bit_identical_and_skips() {
        for (echoes, period, latency, quantum) in [(3, 64, 1, 8), (4, 32, 2, 16)] {
            let (m1, w1) = burst_ring(echoes, period, latency);
            let (m2, w2) = burst_ring(echoes, period, latency);
            let seq = Harness::new(m1, w1).run(10_000);
            let par = Harness::new(m2, w2).run_parallel(10_000, quantum);
            assert_eq!(burst_states(&seq), burst_states(&par));
            let model_cycles = (echoes as u64 + 1) * 10_000;
            assert_eq!(
                ticks(&par),
                model_cycles,
                "the parallel schedule never skips"
            );
            assert!(
                ticks(&seq) < model_cycles / 2,
                "a {period}-cycle pulse period must leave most of {model_cycles} \
                 model-cycles idle, ticked {}",
                ticks(&seq)
            );
        }
    }

    #[test]
    fn unhinted_models_are_never_skipped() {
        // Swapping one echo of a 3-ring for a pulse with period 1 gives
        // it a neighbor that is busy every cycle, so nothing skips
        // globally; the echo it does not feed still skips alone, and the
        // result stays bit-identical to the parallel schedule's.
        let busy = || {
            let (mut models, wires) = burst_ring(2, 16, 1);
            models[2].burst = Burst::Pulse {
                period: 1,
                next_pulse: 0,
                state: 7,
            };
            (models, wires)
        };
        let (m1, w1) = busy();
        let (m2, w2) = busy();
        let seq = Harness::new(m1, w1).run(2_000);
        let par = Harness::new(m2, w2).run_parallel(2_000, 8);
        assert_eq!(burst_states(&seq), burst_states(&par));
        assert_eq!(seq[2].ticks, 2_000, "a busy model is ticked every cycle");
        assert_eq!(
            seq[0].ticks, 2_000,
            "the busy model feeds the pulse every cycle"
        );
        assert!(
            seq[1].ticks < 2_000 / 8,
            "the echo fed once per 16 cycles skips alone, ticked {}",
            seq[1].ticks
        );
        assert_eq!(par[1].ticks, 2_000);
    }
}
