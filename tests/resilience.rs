//! Cross-crate resilience tests: fault injection, watchdog teardown and
//! store/replay exercised end to end through the public facade.

use std::time::{Duration, Instant};

use silicon_bridge::core::{run_grid_keyed, Parallelism, ResultStore, RetryPolicy};
use silicon_bridge::engine::{FaultKind, FaultPlan, Harness, SimError, TickModel, Wire};
use silicon_bridge::resilience::fault::FaultTarget;
use silicon_bridge::resilience::WatchdogConfig;
use silicon_bridge::soc::{configs, Soc};
use silicon_bridge::telemetry::CounterBlock;
use silicon_bridge::workloads::microbench;

/// A minimal pass-through stage for a two-model token ring.
#[derive(Debug)]
struct Relay;

impl TickModel for Relay {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
        outputs[0] = inputs[0].wrapping_add(cycle);
    }
}

fn ring() -> Harness<Relay> {
    Harness::new(
        vec![Relay, Relay],
        vec![
            Wire {
                from_model: 0,
                from_port: 0,
                to_model: 1,
                to_port: 0,
                latency: 1,
            },
            Wire {
                from_model: 1,
                from_port: 0,
                to_model: 0,
                to_port: 0,
                latency: 1,
            },
        ],
    )
}

/// Satellite (c), part 1: a deliberately wedged channel — one token
/// dropped mid-run — must surface as a typed `SimError::Stalled` within
/// the watchdog budget, never as a hang.
#[test]
fn dropped_token_trips_typed_stall_within_budget() {
    let plan = FaultPlan::new(7).inject(FaultTarget::Wire(0), 300, FaultKind::TokenDrop);
    let mut tel = CounterBlock::new(true);
    let started = Instant::now();
    let err = ring()
        .run_guarded(10_000, 8, &plan, WatchdogConfig::tight(), &mut tel)
        .expect_err("a severed channel cannot complete");
    // tight() budgets 400ms of zero progress; leave generous CI headroom
    // while still proving the run did not wait out the full target time.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog took {:?}, far beyond its budget",
        started.elapsed()
    );
    match err {
        SimError::Stalled(report) => {
            assert_eq!(report.target_cycles, 10_000);
            assert!(
                report.threads.iter().all(|t| t.cycle < 10_000),
                "every thread must have been cut short of the target"
            );
            assert!(
                report.most_starved().is_some(),
                "the stall report must name a starving channel"
            );
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    assert_eq!(tel.get("fault.injected.token_drop"), Some(1));
    assert_eq!(tel.get("host.resilience.watchdog_trips"), Some(1));
}

/// Satellite (c), part 2: a store flushed mid-sweep resumes to
/// bit-identical results — the stored cells replay from the file and
/// the freshly computed ones reproduce the original run exactly.
#[test]
fn mid_sweep_checkpoint_resumes_bit_identical_run_reports() {
    // A 2 platforms × 2 kernels grid, each cell a full SoC run; what a
    // cell stores is (cycles, (retired, exit code)).
    type Cell = (u64, (u64, Option<u64>));
    let platforms = [configs::rocket1(1), configs::small_boom(1)];
    let kernels: Vec<_> = microbench::evaluated()
        .into_iter()
        .filter(|k| ["EM5", "STc"].contains(&k.name))
        .collect();
    assert_eq!(kernels.len(), 2);
    let cell = |i: usize| -> Cell {
        let cfg = platforms[i / kernels.len()].clone();
        let k = &kernels[i % kernels.len()];
        let rep = Soc::new(cfg).run_program(0, &k.build(1), u64::MAX);
        assert!(
            rep.cycles > 0 && rep.retired > 0,
            "cell {i} simulated nothing"
        );
        (rep.cycles, (rep.retired, rep.exit_code.map(|c| c as u64)))
    };
    let keys: Vec<String> = (0..platforms.len() * kernels.len())
        .map(|i| format!("grid/cell{i}"))
        .collect();
    let once = RetryPolicy::once();

    // The reference sweep, fully simulated.
    let mut full = ResultStore::ephemeral();
    let par = Parallelism::Workers(2);
    let baseline = run_grid_keyed(&keys, par, &once, &mut full, |_| {}, cell).unwrap();
    assert!(baseline.all_ok());
    assert_eq!(baseline.restored, 0);

    // Simulate a run killed after two cells: only their entries
    // survive, round-tripped through the store file.
    let path = std::env::temp_dir().join(format!("bsim-resilience-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let (mut partial, _) = ResultStore::open(&path);
    for i in [0usize, 2] {
        partial.put_bytes(&keys[i], full.get_bytes(&keys[i]).unwrap());
    }
    partial.flush().unwrap();
    let (mut resumed_store, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "{report}");
    std::fs::remove_file(&path).ok();
    let par = Parallelism::Sequential; // different host schedule on purpose
    let mut saves = 0;
    let resumed =
        run_grid_keyed(&keys, par, &once, &mut resumed_store, |_| saves += 1, cell).unwrap();
    assert!(resumed.all_ok());
    assert_eq!(resumed.restored, 2);
    assert_eq!(saves, 2, "only the two missing cells are simulated");

    // Bit-identical whether the cell was replayed from disk or
    // re-simulated, and so is what the two runs leave in their stores.
    for (i, (a, b)) in baseline.outcomes.iter().zip(&resumed.outcomes).enumerate() {
        assert_eq!(a.value(), b.value(), "cell {i} diverged");
        assert!(full.get_bytes(&keys[i]).is_some());
        assert_eq!(
            full.get_bytes(&keys[i]),
            resumed_store.get_bytes(&keys[i]),
            "cell {i} stored bytes diverged"
        );
    }
}
