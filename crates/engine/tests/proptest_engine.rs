//! Property tests for the token engine: host-schedule invisibility over
//! random model graphs, including the telemetry export.

use bsim_engine::{FaultPlan, Harness, TickModel, WatchdogConfig, Wire};
use bsim_telemetry::{CounterBlock, Sampler, TelemetrySnapshot, TraceRing};
use proptest::prelude::*;

struct Mixer {
    state: u64,
    inputs: usize,
}

impl TickModel for Mixer {
    fn num_inputs(&self) -> usize {
        self.inputs
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
        for (i, x) in inputs.iter().enumerate() {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(x ^ cycle ^ i as u64);
        }
        outputs[0] = self.state >> 11;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_equals_sequential_on_random_rings(
        n in 2usize..6,
        latency in 1u64..4,
        cycles in 10u64..400,
        seed in any::<u64>(),
        quantum in 1usize..32,
    ) {
        let build = || {
            let models: Vec<Mixer> =
                (0..n).map(|i| Mixer { state: seed ^ (i as u64) << 8, inputs: 1 }).collect();
            let wires: Vec<Wire> = (0..n)
                .map(|i| Wire {
                    from_model: i,
                    from_port: 0,
                    to_model: (i + 1) % n,
                    to_port: 0,
                    latency,
                })
                .collect();
            Harness::new(models, wires)
        };
        let seq: Vec<u64> = build().run(cycles).iter().map(|m| m.state).collect();
        let par: Vec<u64> =
            build().run_parallel(cycles, quantum).iter().map(|m| m.state).collect();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn fan_in_graphs_are_schedule_invariant(seed in any::<u64>(), cycles in 10u64..200) {
        // Two producers feeding one consumer, consumer feeding both back.
        let build = || {
            let models = vec![
                Mixer { state: seed, inputs: 1 },
                Mixer { state: seed ^ 0xAB, inputs: 1 },
                Mixer { state: seed ^ 0xCD, inputs: 2 },
            ];
            let wires = vec![
                Wire { from_model: 0, from_port: 0, to_model: 2, to_port: 0, latency: 1 },
                Wire { from_model: 1, from_port: 0, to_model: 2, to_port: 1, latency: 2 },
                Wire { from_model: 2, from_port: 0, to_model: 0, to_port: 0, latency: 1 },
                Wire { from_model: 2, from_port: 0, to_model: 1, to_port: 0, latency: 3 },
            ];
            // Model 2's output fans out to both: one wire per consumer.
            Harness::new(models, wires)
        };
        let a: Vec<u64> = build().run(cycles).iter().map(|m| m.state).collect();
        let b: Vec<u64> = build().run_parallel(cycles, 8).iter().map(|m| m.state).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn telemetry_deterministic_export_is_byte_identical_across_schedules(
        n in 2usize..6,
        latency in 1u64..4,
        cycles in 10u64..400,
        seed in any::<u64>(),
        quantum in 2usize..32,
    ) {
        // One host thread (sequential), n host threads with quantum 1,
        // and n host threads with a random quantum must all export the
        // same deterministic counter JSON, byte for byte. Host-dependent
        // `host.*` counters (spins, quanta, threads) are stripped by
        // `deterministic()` — everything else may not move.
        let build = || {
            let models: Vec<Mixer> =
                (0..n).map(|i| Mixer { state: seed ^ (i as u64) << 8, inputs: 1 }).collect();
            let wires: Vec<Wire> = (0..n)
                .map(|i| Wire {
                    from_model: i,
                    from_port: 0,
                    to_model: (i + 1) % n,
                    to_port: 0,
                    latency,
                })
                .collect();
            Harness::new(models, wires)
        };
        let export = |block: &CounterBlock| {
            TelemetrySnapshot::capture(block, &Sampler::new(0), &TraceRing::off())
                .deterministic()
                .to_json()
        };
        let mut seq = CounterBlock::new(true);
        build().run_with_telemetry(cycles, &mut seq);
        let par = |quantum: usize| {
            let mut tel = CounterBlock::new(true);
            build()
                .run_guarded(cycles, quantum, &FaultPlan::default(), WatchdogConfig::default(), &mut tel)
                .expect("a clean run completes");
            tel
        };
        let (par1, parq) = (par(1), par(quantum));
        let j = export(&seq);
        prop_assert!(j.contains("engine.cycles"));
        prop_assert_eq!(&j, &export(&par1));
        prop_assert_eq!(&j, &export(&parq));
    }
}

#[test]
fn disabled_telemetry_records_nothing_and_preserves_results() {
    let build = || {
        let models: Vec<Mixer> = (0..3)
            .map(|i| Mixer {
                state: 7 ^ (i as u64) << 8,
                inputs: 1,
            })
            .collect();
        let wires: Vec<Wire> = (0..3)
            .map(|i| Wire {
                from_model: i,
                from_port: 0,
                to_model: (i + 1) % 3,
                to_port: 0,
                latency: 1,
            })
            .collect();
        Harness::new(models, wires)
    };
    let plain: Vec<u64> = build().run(200).iter().map(|m| m.state).collect();
    let mut off = CounterBlock::new(false);
    let instrumented: Vec<u64> = build()
        .run_with_telemetry(200, &mut off)
        .iter()
        .map(|m| m.state)
        .collect();
    assert_eq!(
        plain, instrumented,
        "disabled telemetry must not change simulation results"
    );
    assert!(
        off.is_empty(),
        "a disabled block registers and exports nothing"
    );
    assert_eq!(off.counters().count(), 0);
}
