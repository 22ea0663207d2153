//! The fault-injection campaign behind `bsim faults`.
//!
//! A scenario is a [`FaultRow`]: its name, the injected fault and the
//! *typed expectation* are data, and `run` yields what was observed and
//! whether it matched. [`ROWS`] holds the nine in-process rows, one per
//! entry in the fault taxonomy (DESIGN.md); `bsim-svc` adds its one and
//! the root crate concatenates the tables. Every in-process row runs
//! the product's own concurrency, `MpiWorld`'s rank-per-thread turn
//! scheduler, and injects its fault from the rank program. Crash-faults must fail loudly in their expected shape (MPI
//! deadlock teardown, unmatched-message teardown at world end), and
//! survivable faults must complete — bit-identically for pure
//! host-timing perturbations, visibly perturbed for payload corruption
//! and link degradation. The verdicts render as a survival matrix;
//! `--deny-unsurvived` turns any expectation miss into a non-zero exit,
//! which is what the CI `faults` job gates on.
//!
//! Determinism: every injection round, bit and victim derives from the
//! seed, and every expectation is exact — the matrix is reproducible
//! run-to-run, which is the property that makes fault injection usable
//! as a regression gate rather than a fuzzer.

use crate::retry::{catch, CellOutcome};
use bsim_mpi::{MpiWorld, NetConfig, RankCtx, WorldReport};
use bsim_soc::configs;
use bsim_uarch::{MicroOp, Ureg};
use bsim_workloads::npb::ep;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One row of the `bsim faults` survival matrix, as data.
pub struct FaultRow {
    /// Scenario name (row label).
    pub name: &'static str,
    /// Injected fault, the snake_case name of its kind.
    pub fault: &'static str,
    /// The typed expectation the scenario asserts.
    pub expected: &'static str,
    /// The expected outcome is a panic the row catches — the CLI silences
    /// the panic hook while it runs.
    pub panics: bool,
    /// Runs the scenario at a seed: what happened, in one line, and
    /// whether it matched `expected`.
    pub run: fn(u64) -> (String, bool),
}

impl FaultRow {
    /// A row that catches no panic.
    pub const fn new(
        name: &'static str,
        fault: &'static str,
        expected: &'static str,
        run: fn(u64) -> (String, bool),
    ) -> FaultRow {
        FaultRow {
            name,
            fault,
            expected,
            panics: false,
            run,
        }
    }

    /// Runs the row at `seed` and records its verdict.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let (observed, pass) = (self.run)(seed);
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
}

impl SurvivalMatrix {
    /// The matrix of `scenarios`, all run at `seed`.
    pub fn new(seed: u64, scenarios: Vec<Scenario>) -> SurvivalMatrix {
        SurvivalMatrix { seed, scenarios }
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
            "{}/{} scenarios behaved as specified\n",
            self.scenarios.iter().filter(|s| s.pass).count(),
            self.scenarios.len(),
        ));
        out
    }
}

/// The fault a ring run's victim rank injects from its own program, at
/// the victim, round and bit [`ring`] derives from the seed.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Returns before round 0: its successor waits on a peer that never
    /// sends, and the stall detector tears the world down.
    Lost,
    /// Skips its send of the round: as for a lost rank, one round later.
    Drop,
    /// Sends the round's message twice: every receive is matched, so the
    /// copy is still in its mailbox at world end, and the world fails
    /// naming it.
    Duplicate,
    /// Flips one bit of the round's payload: the run completes, and the
    /// corruption must show in the final states.
    BitFlip,
    /// Sleeps 5 ms on the host before its send of the round: that
    /// changes when its thread runs, never what the turn scheduler lets
    /// any rank see, so the states and the world report must be
    /// bit-identical — the decoupling FireSim's token protocol provides,
    /// on the product path.
    Stall,
    /// Sleeps 10 ms on the host before its first op: as for a stall.
    Delay,
}

const RANKS: usize = 3;
const ROUNDS: u32 = 16;

/// Every rank's final state and the world's report after a ring run
/// under `fault` (none: the baseline). Each round a rank mixes its
/// state, feeds its core two micro-ops addressed by it, sends it to
/// `rank + 1` tagged with the round and mixes in what `rank - 1` sent, so
/// a lost, repeated or flipped message stalls, strands or changes every
/// state downstream.
fn ring(seed: u64, fault: Option<Fault>) -> CellOutcome<(Vec<u64>, WorldReport)> {
    let victim = seed as usize % RANKS;
    let at = (seed as usize / RANKS) as u32 % ROUNDS;
    let states: Vec<AtomicU64> = (0..RANKS).map(|_| AtomicU64::new(0)).collect();
    let program = |ctx: &mut RankCtx| {
        let me = ctx.rank();
        let injects = |f| me == victim && fault == Some(f);
        if injects(Fault::Lost) {
            return;
        }
        if injects(Fault::Delay) {
            std::thread::sleep(Duration::from_millis(10));
        }
        let salt = 0x9e37_79b9_7f4a_7c15 ^ me as u64;
        let mix = |state: u64, input: u64| state.rotate_left(7).wrapping_add(input ^ salt);
        let mut state = seed.wrapping_mul(me as u64 + 1);
        for round in 0..ROUNDS {
            state = mix(state, u64::from(round));
            let pc = 0x1_0000 + 8 * u64::from(round);
            ctx.consume_batch(&[
                MicroOp::load(pc, 0x8000_0000 + (state & 0xf_fff8), Ureg::new(5), None),
                MicroOp::alu(pc + 4, Ureg::new(6), [Ureg::new(5), None, None]),
            ]);
            let now = fault.filter(|&f| round == at && injects(f));
            if now == Some(Fault::Stall) {
                std::thread::sleep(Duration::from_millis(5));
            }
            let (payload, copies) = match now {
                Some(Fault::Drop) => (state, 0),
                Some(Fault::Duplicate) => (state, 2),
                Some(Fault::BitFlip) => (state ^ 1 << (seed % 64), 1),
                _ => (state, 1),
            };
            for _ in 0..copies {
                ctx.send((me + 1) % RANKS, round, payload.to_le_bytes().to_vec());
            }
            let got = ctx.recv((me + RANKS - 1) % RANKS, round).try_into();
            state = mix(state, u64::from_le_bytes(got.unwrap_or_default()));
        }
        states[me].store(state, Ordering::Relaxed);
    };
    catch(|| {
        let net = NetConfig::shared_memory();
        let report = MpiWorld::run(configs::rocket1(RANKS), RANKS, net, program);
        let states = states.iter().map(|s| s.load(Ordering::Relaxed));
        (states.collect(), report)
    })
}

/// The verdict for a ring run that must be torn down with a diagnostic
/// naming `cause`.
fn torn_down(seed: u64, fault: Fault, cause: &str) -> (String, bool) {
    match ring(seed, Some(fault)) {
        CellOutcome::Failed { diag } => (format!("torn down: {diag}"), diag.contains(cause)),
        CellOutcome::Ok { .. } => ("unexpectedly completed".into(), false),
    }
}

/// The verdict for a ring run that must complete, against the baseline:
/// a flipped bit must change the final states, a host sleep must change
/// neither them nor the world report.
fn completes(seed: u64, fault: Fault) -> (String, bool) {
    let end = |fault| match ring(seed, fault) {
        CellOutcome::Ok { value, .. } => Ok((value.0, format!("{:?}", value.1))),
        CellOutcome::Failed { diag } => Err(format!("unexpected failure: {diag}")),
    };
    let (base, end) = match (end(None), end(Some(fault))) {
        (Ok(base), Ok(end)) => (base, end),
        (Err(diag), _) | (_, Err(diag)) => return (diag, false),
    };
    let word = |same: bool| if same { "same as" } else { "diverged from" };
    let (states, report) = (end.0 == base.0, end.1 == base.1);
    let observed = format!(
        "completed; final states {} baseline, report {} baseline",
        word(states),
        word(report)
    );
    let pass = if fault == Fault::BitFlip {
        !states
    } else {
        states && report
    };
    (observed, pass)
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

/// The nine in-process rows. Wall-clock is dominated by the link rows'
/// EP runs and the deliberate host sleeps.
pub static ROWS: [FaultRow; 9] = [
    FaultRow {
        panics: true,
        ..FaultRow::new(
            "token-drop",
            "token_drop",
            "loud MPI deadlock teardown",
            |seed| torn_down(seed, Fault::Drop, "MPI deadlock"),
        )
    },
    FaultRow {
        panics: true,
        ..FaultRow::new(
            "token-duplicate",
            "token_duplicate",
            "teardown at world end names the unmatched message",
            |seed| torn_down(seed, Fault::Duplicate, "MPI unmatched message"),
        )
    },
    FaultRow::new(
        "bit-flip",
        "payload_bit_flip",
        "completes; final states differ from baseline",
        |seed| completes(seed, Fault::BitFlip),
    ),
    FaultRow::new(
        "model-stall",
        "model_stall",
        "states and WorldReport bit-identical to baseline",
        |seed| completes(seed, Fault::Stall),
    ),
    FaultRow::new(
        "host-delay",
        "host_thread_delay",
        "states and WorldReport bit-identical to baseline",
        |seed| completes(seed, Fault::Delay),
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
            |seed| torn_down(seed, Fault::Lost, "MPI deadlock"),
        )
    },
    FaultRow::new(
        "link-zero-lat",
        "link_zero_latency",
        "survives; NC002 diagnostic",
        link_zero_latency,
    ),
];

/// The workload survives on a slower link and its virtual runtime
/// stretches.
fn link_degrade(_: u64) -> (String, bool) {
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
fn link_dead(_: u64) -> (String, bool) {
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

/// NC002: a survivable misconfiguration — the run completes, the lint is
/// what makes the vacuous-model hazard visible.
fn link_zero_latency(_: u64) -> (String, bool) {
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
        SurvivalMatrix::new(seed, ROWS.iter().map(|row| row.scenario(seed)).collect())
    }

    #[test]
    fn campaign_is_deterministic_and_survives_as_specified() {
        let a = run_campaign(42);
        assert!(a.all_pass(), "matrix:\n{}", a.render());
        assert_eq!(a.scenarios.len(), 9);
        let panicking: Vec<&str> = ROWS.iter().filter(|r| r.panics).map(|r| r.name).collect();
        assert_eq!(panicking, ["token-drop", "token-duplicate", "rank-loss"]);
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
