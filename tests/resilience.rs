//! Cross-crate resilience tests: fault injection, watchdog teardown and
//! store/replay exercised end to end through the public facade.

use std::time::{Duration, Instant};

use silicon_bridge::core::{CellPool, Parallelism, ResultStore, Snapshot};
use silicon_bridge::engine::fault::FaultTarget;
use silicon_bridge::engine::{
    FaultKind, FaultPlan, Harness, SimError, TickModel, WatchdogConfig, Wire,
};
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
    let cell = |i: usize| {
        let cfg = platforms[i / kernels.len()].clone();
        let k = &kernels[i % kernels.len()];
        let rep = Soc::new(cfg).run_program(0, &k.build(1), u64::MAX);
        assert!(
            rep.cycles > 0 && rep.retired > 0,
            "cell {i} simulated nothing"
        );
        let value: Cell = (rep.cycles, (rep.retired, rep.exit_code.map(|c| c as u64)));
        Ok(value.save())
    };
    let keys: Vec<String> = (0..platforms.len() * kernels.len())
        .map(|i| format!("grid/cell{i}"))
        .collect();

    // The reference sweep, fully simulated.
    let full = CellPool::new(ResultStore::ephemeral());
    let par = Parallelism::Workers(2);
    let baseline = full.run(&keys, par, cell);
    assert!(baseline.all_ok());
    assert_eq!(baseline.restored(), 0);

    // Simulate a run killed after two cells: only their entries
    // survive, round-tripped through the store file.
    let path = std::env::temp_dir().join(format!("bsim-resilience-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let (mut partial, _) = ResultStore::open(&path);
    for i in [0usize, 2] {
        partial.put_bytes(&keys[i], full.get(&keys[i]).unwrap());
    }
    partial.flush().unwrap();
    let (resumed_store, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "{report}");
    std::fs::remove_file(&path).ok();
    let par = Parallelism::Sequential; // different host schedule on purpose
    let saves = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counted = std::sync::Arc::clone(&saves);
    let resumed_store = CellPool::with_on_put(resumed_store, move |_| {
        counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    let resumed = resumed_store.run(&keys, par, cell);
    assert!(resumed.all_ok());
    assert_eq!(resumed.restored(), 2);
    let saves = saves.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(saves, 2, "only the two missing cells are simulated");

    // Bit-identical whether the cell was replayed from disk or
    // re-simulated, and so is what the two runs leave in their stores.
    for (i, (a, b)) in baseline.outcomes.iter().zip(&resumed.outcomes).enumerate() {
        assert_eq!(a.value(), b.value(), "cell {i} diverged");
        assert!(full.get(&keys[i]).is_some());
        assert_eq!(
            full.get(&keys[i]),
            resumed_store.get(&keys[i]),
            "cell {i} stored bytes diverged"
        );
    }
}
