//! The fault-injection campaign behind `bsim faults`.
//!
//! A scenario is a [`FaultRow`]: its name, the injected fault and the
//! *typed expectation* are data, and `run` yields what was observed and
//! whether it matched. [`ROWS`] holds the nine in-process rows, one per
//! entry in the fault taxonomy (DESIGN.md); `bsim-dist` and `bsim-svc`
//! add theirs and the root crate concatenates the tables. Crash-faults
//! must fail loudly in their expected shape (watchdog trip,
//! protocol-violation panic, MPI deadlock teardown), and survivable
//! faults must complete — bit-identically for pure host-timing
//! perturbations, visibly perturbed for payload corruption and link
//! degradation. The verdicts render as a survival matrix;
//! `--deny-unsurvived` turns any expectation miss into a non-zero exit,
//! which is what the CI `faults` job gates on.
//!
//! Determinism: every injection cycle and bit position derives from the
//! seed, and every expectation is exact — the matrix is reproducible
//! run-to-run, which is the property that makes fault injection usable
//! as a regression gate rather than a fuzzer.

use bsim_engine::{FaultKind, FaultPlan, Harness, SimError, TickModel, WatchdogConfig, Wire};
use bsim_mpi::{MpiWorld, NetConfig, RankCtx};
use bsim_resilience::fault::FaultTarget;
use bsim_resilience::retry::{CellOutcome, RetryPolicy};
use bsim_soc::configs;
use bsim_telemetry::CounterBlock;
use bsim_workloads::npb::ep;
use std::cell::Cell;

/// What a [`FaultRow`] runs against.
pub struct Ctx {
    /// Seed every injection cycle, bit and victim derives from.
    pub seed: u64,
    /// `bsim dist-worker`-style argv, for rows with
    /// [`FaultRow::needs_processes`].
    pub worker_cmd: Vec<String>,
    watchdog_trips: Cell<u64>,
}

impl Ctx {
    pub fn new(seed: u64, worker_cmd: Vec<String>) -> Ctx {
        Ctx {
            seed,
            worker_cmd,
            watchdog_trips: Cell::new(0),
        }
    }
}

/// One row of the `bsim faults` survival matrix, as data.
pub struct FaultRow {
    /// Scenario name (row label).
    pub name: &'static str,
    /// Injected fault, `FaultKind::label` spelling for the engine kinds.
    pub fault: &'static str,
    /// The typed expectation the scenario asserts.
    pub expected: &'static str,
    /// Spawns real worker processes; `--in-process` leaves it out.
    pub needs_processes: bool,
    /// A bsim-guard integrity row; `--guard` keeps only these.
    pub guard: bool,
    /// The expected outcome is a panic the row catches — the CLI silences
    /// the panic hook while it runs.
    pub panics: bool,
    /// Runs the scenario: what happened, in one line, and whether it
    /// matched `expected`.
    pub run: fn(&Ctx) -> (String, bool),
}

impl FaultRow {
    /// An in-process row outside the guard set that catches no panic.
    pub const fn new(
        name: &'static str,
        fault: &'static str,
        expected: &'static str,
        run: fn(&Ctx) -> (String, bool),
    ) -> FaultRow {
        FaultRow {
            name,
            fault,
            expected,
            needs_processes: false,
            guard: false,
            panics: false,
            run,
        }
    }

    /// Runs the row and records its verdict.
    pub fn scenario(&self, ctx: &Ctx) -> Scenario {
        let (observed, pass) = (self.run)(ctx);
        Scenario {
            name: self.name,
            fault: self.fault,
            expected: self.expected,
            observed,
            pass,
        }
    }
}

/// One row's verdict.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (row label).
    pub name: &'static str,
    /// Injected fault.
    pub fault: &'static str,
    /// The typed expectation the scenario asserts.
    pub expected: &'static str,
    /// What actually happened, one line.
    pub observed: String,
    /// Did the observation match the expectation?
    pub pass: bool,
}

/// The campaign's survival matrix.
#[derive(Clone, Debug)]
pub struct SurvivalMatrix {
    /// Seed the injection cycles/bits derive from.
    pub seed: u64,
    /// One row per scenario.
    pub scenarios: Vec<Scenario>,
    /// Watchdog trips observed across the campaign.
    pub watchdog_trips: u64,
}

impl SurvivalMatrix {
    /// The matrix of `scenarios`, all run against `ctx`.
    pub fn new(ctx: &Ctx, scenarios: Vec<Scenario>) -> SurvivalMatrix {
        SurvivalMatrix {
            seed: ctx.seed,
            scenarios,
            watchdog_trips: ctx.watchdog_trips.get(),
        }
    }

    /// True when every scenario behaved as its taxonomy entry predicts.
    pub fn all_pass(&self) -> bool {
        self.scenarios.iter().all(|s| s.pass)
    }

    /// Plain-text matrix, one row per scenario, columns sized from the
    /// rows.
    pub fn render(&self) -> String {
        let width = |header: &str, col: fn(&Scenario) -> &str| {
            let cells = self.scenarios.iter().map(|s| col(s).len());
            cells.chain([header.len()]).max().unwrap_or(0)
        };
        let (name_w, fault_w, expected_w) = (
            width("scenario", |s| s.name),
            width("fault", |s| s.fault),
            width("expected", |s| s.expected),
        );
        let line = |name: &str, fault: &str, expected: &str, verdict: &str, observed: &str| {
            format!(
                "{name:<name_w$} {fault:<fault_w$} {expected:<expected_w$} {verdict:<7} {observed}\n"
            )
        };
        let mut out = format!("== Fault-injection campaign (seed {}) ==\n", self.seed);
        out += &line("scenario", "fault", "expected", "verdict", "observed");
        for s in &self.scenarios {
            let verdict = if s.pass { "pass" } else { "MISS" };
            out += &line(s.name, s.fault, s.expected, verdict, &s.observed);
        }
        out.push_str(&format!(
            "{}/{} scenarios behaved as specified; {} watchdog trip(s)\n",
            self.scenarios.iter().filter(|s| s.pass).count(),
            self.scenarios.len(),
            self.watchdog_trips
        ));
        out
    }
}

/// The deterministic ring model the engine-level scenarios run: state
/// mixes its input token, so any dropped/duplicated/flipped token
/// changes (or stalls) every downstream state — corruption cannot hide.
struct Mixer {
    state: u64,
    salt: u64,
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
            .rotate_left(7)
            .wrapping_add(inputs[0] ^ cycle.wrapping_mul(self.salt));
        outputs[0] = self.state;
    }
}

const RING: usize = 3;
const CYCLES: u64 = 3_000;
const QUANTUM: usize = 16;

fn ring(seed: u64) -> (Vec<Mixer>, Vec<Wire>) {
    let models = (0..RING)
        .map(|i| Mixer {
            state: seed.wrapping_mul(i as u64 + 1),
            salt: 0x9e37_79b9_7f4a_7c15 ^ (i as u64),
        })
        .collect();
    let wires = (0..RING)
        .map(|i| Wire {
            from_model: i,
            from_port: 0,
            to_model: (i + 1) % RING,
            to_port: 0,
            latency: 1,
        })
        .collect();
    (models, wires)
}

/// The ring's final states under `fault` (none: the baseline), guarded
/// by the `tight` watchdog; a trip is counted on `ctx`.
fn run_ring(ctx: &Ctx, fault: Option<(FaultTarget, u64, FaultKind)>) -> Result<Vec<u64>, SimError> {
    let mut plan = FaultPlan::new(ctx.seed);
    if let Some((target, cycle, kind)) = fault {
        plan = plan.inject(target, cycle, kind);
    }
    let (models, wires) = ring(ctx.seed);
    let mut tel = CounterBlock::new(true);
    let out = Harness::new(models, wires)
        .run_guarded(CYCLES, QUANTUM, &plan, WatchdogConfig::tight(), &mut tel)
        .map(|ms| ms.iter().map(|m| m.state).collect());
    let trips = tel.get("host.resilience.watchdog_trips").unwrap_or(0);
    ctx.watchdog_trips.set(ctx.watchdog_trips.get() + trips);
    out
}

fn baseline(ctx: &Ctx) -> Vec<u64> {
    run_ring(ctx, None).expect("fault-free ring run completes")
}

/// The verdict for a ring run that took a shape its row has no arm for.
fn unexpected(got: Result<Vec<u64>, SimError>) -> (String, bool) {
    let observed = match got {
        Ok(_) => "unexpectedly completed".into(),
        Err(e) => format!("unexpected failure shape: {e}"),
    };
    (observed, false)
}

/// The tiny MPI workload the link-fault scenarios run.
fn ep_cycles(net: NetConfig) -> u64 {
    let r = ep::run(
        configs::rocket1(2),
        2,
        ep::EpConfig {
            pairs_per_rank: 1 << 9,
        },
        net,
    );
    r.report.run.cycles
}

/// The nine in-process rows. Wall-clock is dominated by the deliberate
/// teardowns (the token-drop watchdog budget and the MPI stall detector,
/// ~1 s total at the `tight` setting).
pub static ROWS: [FaultRow; 9] = [
    FaultRow::new(
        "token-drop",
        "token_drop",
        "watchdog trips (SimError::Stalled)",
        token_drop,
    ),
    FaultRow {
        panics: true,
        ..FaultRow::new(
            "token-duplicate",
            "token_duplicate",
            "loud protocol-violation failure",
            token_duplicate,
        )
    },
    FaultRow::new(
        "bit-flip",
        "payload_bit_flip",
        "survives; corruption visible",
        bit_flip,
    ),
    FaultRow::new(
        "model-stall",
        "model_stall",
        "survives bit-identically",
        |ctx| {
            let stall = FaultKind::ModelStall { micros: 5_000 };
            host_timing(ctx, (FaultTarget::Model(1), 50, stall))
        },
    ),
    FaultRow::new(
        "host-delay",
        "host_thread_delay",
        "survives bit-identically",
        |ctx| {
            let delay = FaultKind::HostThreadDelay { micros: 10_000 };
            host_timing(ctx, (FaultTarget::Model(0), 0, delay))
        },
    ),
    FaultRow::new(
        "link-degrade",
        "link_degrade",
        "survives; runtime stretches",
        link_degrade,
    ),
    FaultRow::new(
        "link-dead",
        "link_dead",
        "NC001 + cycles saturate to MAX",
        link_dead,
    ),
    FaultRow {
        panics: true,
        ..FaultRow::new(
            "rank-loss",
            "rank_loss",
            "loud MPI deadlock teardown",
            rank_loss,
        )
    },
    FaultRow::new(
        "link-zero-lat",
        "link_zero_latency",
        "survives; NC002 diagnostic",
        link_zero_latency,
    ),
];

/// The link is severed from the event cycle on, the consumer starves,
/// and the watchdog converts the would-be hang into a typed stall within
/// its host-time budget.
fn token_drop(ctx: &Ctx) -> (String, bool) {
    let fault = (
        FaultTarget::Wire(1),
        200 + ctx.seed % 64,
        FaultKind::TokenDrop,
    );
    match run_ring(ctx, Some(fault)) {
        Err(SimError::Stalled(report)) => (
            format!(
                "stalled as expected; {} thread(s) frozen near cycle {}",
                report.threads.len(),
                report
                    .threads
                    .iter()
                    .map(|t| t.cycle)
                    .max()
                    .unwrap_or_default()
            ),
            true,
        ),
        other => unexpected(other),
    }
}

/// Re-delivering an already-consumed cycle is a protocol violation; the
/// harness fails loudly and typed, never silently reorders.
fn token_duplicate(ctx: &Ctx) -> (String, bool) {
    let fault = (
        FaultTarget::Wire(0),
        150 + ctx.seed % 32,
        FaultKind::TokenDuplicate,
    );
    match run_ring(ctx, Some(fault)) {
        Err(SimError::Panicked { message }) if message.contains("token protocol violation") => {
            (format!("panicked as expected: {message}"), true)
        }
        other => unexpected(other),
    }
}

/// The run survives, but the corruption must be visible in the final
/// state — detectable, not masked.
fn bit_flip(ctx: &Ctx) -> (String, bool) {
    let flip = FaultKind::PayloadBitFlip {
        bit: (ctx.seed % 64) as u32,
    };
    match run_ring(ctx, Some((FaultTarget::Wire(2), 100 + ctx.seed % 16, flip))) {
        Ok(states) if states != baseline(ctx) => (
            "completed with final state diverged from baseline".into(),
            true,
        ),
        Ok(_) => ("completed but corruption was masked".into(), false),
        other => unexpected(other),
    }
}

/// A slow model thread or a delayed thread start changes *when* tokens
/// move in host time, never *what* they carry — the decoupling the token
/// protocol exists to provide. Bit-identical or the engine is broken.
fn host_timing(ctx: &Ctx, fault: (FaultTarget, u64, FaultKind)) -> (String, bool) {
    match run_ring(ctx, Some(fault)) {
        Ok(states) if states == baseline(ctx) => {
            ("completed; final state identical to baseline".into(), true)
        }
        Ok(_) => (
            "completed but diverged — host timing leaked into target state".into(),
            false,
        ),
        other => unexpected(other),
    }
}

/// The workload survives on a slower link and its virtual runtime
/// stretches.
fn link_degrade(_: &Ctx) -> (String, bool) {
    let base_cycles = ep_cycles(NetConfig::shared_memory());
    let slow_cycles = ep_cycles(NetConfig::shared_memory().degrade(8));
    (
        format!("EP cycles {base_cycles} -> {slow_cycles} at 8x degradation"),
        slow_cycles > base_cycles,
    )
}

/// NC001 territory: bandwidth zero saturates every transfer to "never
/// delivers" (`u64::MAX`). The safe-failure contract is that timestamps
/// pin to MAX instead of wrapping — the run completes with an unmissably
/// absurd cycle count, and NC001 is what flags the config before a cycle
/// is simulated.
fn link_dead(_: &Ctx) -> (String, bool) {
    let dead = NetConfig {
        bytes_per_cycle: 0.0,
        ..NetConfig::shared_memory()
    };
    let nc001 = dead.lint("campaign.dead").has_code("NC001");
    let dead_cycles = ep_cycles(dead);
    (
        format!("lint NC001={nc001}; virtual time pinned to {dead_cycles}"),
        nc001 && dead_cycles == u64::MAX,
    )
}

/// A rank waits on a message that is never sent (its peer is gone). The
/// MPI runtime's stall detector tears the world down with a typed "MPI
/// deadlock" panic instead of hanging the host — the MPI-layer analog of
/// the watchdog.
fn rank_loss(_: &Ctx) -> (String, bool) {
    let outcome = RetryPolicy::once().run(|| {
        MpiWorld::run(
            configs::rocket1(2),
            2,
            NetConfig::shared_memory(),
            |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    // The "lost" peer never answers.
                    let _ = ctx.recv(1, 7);
                }
            },
        )
    });
    match outcome {
        CellOutcome::Failed { diag, .. } => {
            (format!("torn down: {diag}"), diag.contains("MPI deadlock"))
        }
        CellOutcome::Ok { .. } => ("unexpectedly completed".into(), false),
    }
}

/// NC002: a survivable misconfiguration — the run completes, the lint is
/// what makes the vacuous-model hazard visible.
fn link_zero_latency(_: &Ctx) -> (String, bool) {
    let zero = NetConfig::shared_memory().zero_latency();
    let nc002 = zero.lint("campaign.zero").has_code("NC002");
    let zero_cycles = ep_cycles(zero);
    (
        format!("lint NC002={nc002}; completed in {zero_cycles} cycles"),
        nc002 && zero_cycles > 0 && zero_cycles <= ep_cycles(NetConfig::shared_memory()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_campaign(seed: u64) -> SurvivalMatrix {
        let ctx = Ctx::new(seed, Vec::new());
        SurvivalMatrix::new(&ctx, ROWS.iter().map(|row| row.scenario(&ctx)).collect())
    }

    #[test]
    fn campaign_is_deterministic_and_survives_as_specified() {
        let a = run_campaign(42);
        assert!(a.all_pass(), "matrix:\n{}", a.render());
        assert_eq!(a.scenarios.len(), 9);
        assert_eq!(a.watchdog_trips, 1, "exactly the token-drop scenario trips");
        let render = a.render();
        for label in [
            "token_drop",
            "token_duplicate",
            "payload_bit_flip",
            "model_stall",
            "host_thread_delay",
            "link_degrade",
            "link_dead",
            "rank_loss",
            "link_zero_latency",
        ] {
            assert!(render.contains(label), "{label} missing:\n{render}");
        }
        // Same seed, same verdicts and observations, whatever the host
        // schedule does (host-time figures are deliberately absent from
        // the rows).
        let rows = |m: &SurvivalMatrix| -> Vec<(String, bool)> {
            m.scenarios
                .iter()
                .map(|s| (s.observed.clone(), s.pass))
                .collect()
        };
        for rerun in 0..8 {
            assert_eq!(rows(&a), rows(&run_campaign(42)), "rerun {rerun}");
        }
    }

    #[test]
    fn columns_are_sized_from_the_rows() {
        let row = |name, fault| Scenario {
            name,
            fault,
            expected: "e",
            observed: "o".into(),
            pass: true,
        };
        let matrix = SurvivalMatrix {
            seed: 1,
            scenarios: vec![
                row("a", "a fault label well past eighteen columns"),
                row("bb", "f"),
            ],
            watchdog_trips: 0,
        };
        let render = matrix.render();
        let lines: Vec<&str> = render.lines().skip(1).take(3).collect();
        let verdict_at: Vec<_> = lines
            .iter()
            .map(|l| l.find("verdict").or_else(|| l.find("pass")))
            .collect();
        assert!(verdict_at[0].is_some(), "{render}");
        assert!(verdict_at.iter().all(|at| *at == verdict_at[0]), "{render}");
    }
}
