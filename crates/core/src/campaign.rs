//! The built-in fault-injection campaign behind `bsim faults`.
//!
//! Nine scenarios, one per entry in the fault taxonomy (DESIGN.md),
//! each with a *typed expectation*: crash-faults must fail loudly in
//! their expected shape (watchdog trip, protocol-violation panic, MPI
//! deadlock teardown), and survivable faults must complete — bit-
//! identically for pure host-timing perturbations, visibly perturbed
//! for payload corruption and link degradation. The campaign renders a
//! survival matrix; `--deny-unsurvived` turns any expectation miss into
//! a non-zero exit, which is what the CI `faults` job gates on.
//!
//! Determinism: every injection cycle and bit position derives from the
//! seed, and every expectation is exact — the matrix is reproducible
//! run-to-run, which is the property that makes fault injection usable
//! as a regression gate rather than a fuzzer.

use bsim_engine::{FaultKind, FaultPlan, Harness, SimError, TickModel, WatchdogConfig, Wire};
use bsim_mpi::{MpiWorld, NetConfig, RankCtx};
use bsim_resilience::fault::FaultTarget;
use bsim_resilience::retry::panic_message;
use bsim_soc::configs;
use bsim_telemetry::CounterBlock;
use bsim_workloads::npb::ep;

/// One campaign scenario's verdict.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (row label).
    pub name: &'static str,
    /// Injected fault, `FaultKind::label` spelling.
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
    /// True when every scenario behaved as its taxonomy entry predicts.
    pub fn all_pass(&self) -> bool {
        self.scenarios.iter().all(|s| s.pass)
    }

    /// Plain-text matrix, one row per scenario.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== Fault-injection campaign (seed {}) ==\n{:<18} {:<18} {:<34} {:<7} observed\n",
            self.seed, "scenario", "fault", "expected", "verdict"
        );
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<18} {:<18} {:<34} {:<7} {}\n",
                s.name,
                s.fault,
                s.expected,
                if s.pass { "pass" } else { "MISS" },
                s.observed
            ));
        }
        out.push_str(&format!(
            "{}/{} scenarios behaved as specified; {} watchdog trip(s)\n",
            self.scenarios.iter().filter(|s| s.pass).count(),
            self.scenarios.len(),
            self.watchdog_trips
        ));
        out
    }

    /// Publishes the campaign verdict under `host.resilience.campaign.*`.
    pub fn publish(&self, block: &mut CounterBlock) {
        block.set_named(
            "host.resilience.campaign.scenarios",
            self.scenarios.len() as u64,
        );
        block.set_named(
            "host.resilience.campaign.passed",
            self.scenarios.iter().filter(|s| s.pass).count() as u64,
        );
        block.set_named("host.resilience.watchdog_trips", self.watchdog_trips);
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

fn run_ring(seed: u64, plan: &FaultPlan, tel: &mut CounterBlock) -> Result<Vec<u64>, SimError> {
    let (models, wires) = ring(seed);
    Harness::new(models, wires)
        .run_guarded(CYCLES, QUANTUM, plan, WatchdogConfig::tight(), tel)
        .map(|ms| ms.iter().map(|m| m.state).collect())
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

/// Runs the nine-scenario campaign. Wall-clock is dominated by the
/// deliberate teardowns (the token-drop watchdog budget and the MPI
/// stall detector, ~1 s total at the `tight` setting).
pub fn run_campaign(seed: u64) -> SurvivalMatrix {
    let mut tel = CounterBlock::new(true);
    let mut trips = 0u64;
    let mut rows = Vec::new();

    let baseline =
        run_ring(seed, &FaultPlan::new(seed), &mut tel).expect("fault-free ring run completes");

    // 1. Token drop: the link is severed from the event cycle on, the
    //    consumer starves, and the watchdog converts the would-be hang
    //    into a typed stall within its host-time budget.
    let drop_cycle = 200 + seed % 64;
    let plan = FaultPlan::new(seed).inject(FaultTarget::Wire(1), drop_cycle, FaultKind::TokenDrop);
    rows.push(match run_ring(seed, &plan, &mut tel) {
        Err(SimError::Stalled(report)) => {
            trips += 1;
            Scenario {
                name: "token-drop",
                fault: "token_drop",
                expected: "watchdog trips (SimError::Stalled)",
                observed: format!(
                    "stalled as expected; {} thread(s) frozen near cycle {}",
                    report.threads.len(),
                    report
                        .threads
                        .iter()
                        .map(|t| t.cycle)
                        .max()
                        .unwrap_or_default()
                ),
                pass: true,
            }
        }
        other => miss(
            "token-drop",
            "token_drop",
            "watchdog trips (SimError::Stalled)",
            &other,
        ),
    });

    // 2. Token duplicate: re-delivering an already-consumed cycle is a
    //    protocol violation; the harness fails loudly and typed, never
    //    silently reorders.
    let plan = FaultPlan::new(seed).inject(
        FaultTarget::Wire(0),
        150 + seed % 32,
        FaultKind::TokenDuplicate,
    );
    rows.push(match run_ring(seed, &plan, &mut tel) {
        Err(SimError::Panicked { message }) if message.contains("token protocol violation") => {
            Scenario {
                name: "token-duplicate",
                fault: "token_duplicate",
                expected: "loud protocol-violation failure",
                observed: format!("panicked as expected: {message}"),
                pass: true,
            }
        }
        other => miss(
            "token-duplicate",
            "token_duplicate",
            "loud protocol-violation failure",
            &other,
        ),
    });

    // 3. Payload bit-flip: the run survives, but the corruption must be
    //    visible in the final state — detectable, not masked.
    let plan = FaultPlan::new(seed).inject(
        FaultTarget::Wire(2),
        100 + seed % 16,
        FaultKind::PayloadBitFlip {
            bit: (seed % 64) as u32,
        },
    );
    rows.push(match run_ring(seed, &plan, &mut tel) {
        Ok(states) if states != baseline => Scenario {
            name: "bit-flip",
            fault: "payload_bit_flip",
            expected: "survives; corruption visible",
            observed: "completed with final state diverged from baseline".into(),
            pass: true,
        },
        Ok(_) => Scenario {
            name: "bit-flip",
            fault: "payload_bit_flip",
            expected: "survives; corruption visible",
            observed: "completed but corruption was masked".into(),
            pass: false,
        },
        other => miss(
            "bit-flip",
            "payload_bit_flip",
            "survives; corruption visible",
            &other,
        ),
    });

    // 4./5. Host-timing perturbations: a slow model thread and a delayed
    //    thread start change *when* tokens move in host time, never
    //    *what* they carry — the decoupling the token protocol exists
    //    to provide. Bit-identical or the engine is broken.
    for (name, fault, plan) in [
        (
            "model-stall",
            "model_stall",
            FaultPlan::new(seed).inject(
                FaultTarget::Model(1),
                50,
                FaultKind::ModelStall { micros: 5_000 },
            ),
        ),
        (
            "host-delay",
            "host_thread_delay",
            FaultPlan::new(seed).inject(
                FaultTarget::Model(0),
                0,
                FaultKind::HostThreadDelay { micros: 10_000 },
            ),
        ),
    ] {
        rows.push(match run_ring(seed, &plan, &mut tel) {
            Ok(states) if states == baseline => Scenario {
                name,
                fault,
                expected: "survives bit-identically",
                observed: "completed; final state identical to baseline".into(),
                pass: true,
            },
            Ok(_) => Scenario {
                name,
                fault,
                expected: "survives bit-identically",
                observed: "completed but diverged — host timing leaked into target state".into(),
                pass: false,
            },
            other => miss(name, fault, "survives bit-identically", &other),
        });
    }

    // 6. Link degrade: the workload survives on a slower link and its
    //    virtual runtime stretches.
    let base_cycles = ep_cycles(NetConfig::shared_memory());
    let slow_cycles = ep_cycles(NetConfig::shared_memory().degrade(8));
    rows.push(Scenario {
        name: "link-degrade",
        fault: "link_degrade",
        expected: "survives; runtime stretches",
        observed: format!("EP cycles {base_cycles} -> {slow_cycles} at 8x degradation"),
        pass: slow_cycles > base_cycles,
    });

    // 7. Dead link (NC001 territory): bandwidth zero saturates every
    //    transfer to "never delivers" (`u64::MAX`). The safe-failure
    //    contract is that timestamps pin to MAX instead of wrapping —
    //    the run completes with an unmissably absurd cycle count, and
    //    NC001 is what flags the config before a cycle is simulated.
    let dead = NetConfig {
        bytes_per_cycle: 0.0,
        ..NetConfig::shared_memory()
    };
    let nc001 = dead.lint("campaign.dead").has_code("NC001");
    let dead_cycles = ep_cycles(dead);
    rows.push(Scenario {
        name: "link-dead",
        fault: "link_dead",
        expected: "NC001 + cycles saturate to MAX",
        observed: format!("lint NC001={nc001}; virtual time pinned to {dead_cycles}"),
        pass: nc001 && dead_cycles == u64::MAX,
    });

    // 8. Rank loss: a rank waits on a message that is never sent (its
    //    peer is gone). The MPI runtime's stall detector tears the
    //    world down with a typed "MPI deadlock" panic instead of
    //    hanging the host — the MPI-layer analog of the watchdog.
    let outcome = std::panic::catch_unwind(|| {
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
    rows.push(match outcome {
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            Scenario {
                name: "rank-loss",
                fault: "rank_loss",
                expected: "loud MPI deadlock teardown",
                observed: format!("torn down: {msg}"),
                pass: msg.contains("MPI deadlock"),
            }
        }
        Ok(_) => Scenario {
            name: "rank-loss",
            fault: "rank_loss",
            expected: "loud MPI deadlock teardown",
            observed: "unexpectedly completed".into(),
            pass: false,
        },
    });

    // 9. Zero-latency link (NC002): a survivable misconfiguration — the
    //    run completes, the lint is what makes the vacuous-model hazard
    //    visible.
    let zero = NetConfig::shared_memory().zero_latency();
    let nc002 = zero.lint("campaign.zero").has_code("NC002");
    let zero_cycles = ep_cycles(zero);
    rows.push(Scenario {
        name: "link-zero-lat",
        fault: "link_zero_latency",
        expected: "survives; NC002 diagnostic",
        observed: format!("lint NC002={nc002}; completed in {zero_cycles} cycles"),
        pass: nc002 && zero_cycles > 0 && zero_cycles <= base_cycles,
    });

    SurvivalMatrix {
        seed,
        scenarios: rows,
        watchdog_trips: trips,
    }
}

fn miss(
    name: &'static str,
    fault: &'static str,
    expected: &'static str,
    got: &Result<Vec<u64>, SimError>,
) -> Scenario {
    Scenario {
        name,
        fault,
        expected,
        observed: match got {
            Ok(_) => "unexpectedly completed".into(),
            Err(e) => format!("unexpected failure shape: {e}"),
        },
        pass: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let mut block = CounterBlock::new(true);
        a.publish(&mut block);
        assert_eq!(block.get("host.resilience.campaign.passed"), Some(9));
        assert_eq!(block.get("host.resilience.watchdog_trips"), Some(1));
    }
}
