//! Fast-forward determinism, end to end: the quiescence fast-forward
//! (`TickModel::next_activity` + `Harness::fast_forward`) is a host
//! optimization and must be invisible in every serialized artifact —
//! the figure pipeline's stored JSON for every subfigure, and harness
//! run results under seeded fault plans.

use bsim_core::experiments::{subfigures, FigureData, Sizes, FIGURE_IDS};
use bsim_core::{run_grid_keyed, CellOutcome, Parallelism, ResultStore};
use bsim_engine::{CounterBlock, FaultKind, FaultPlan, Harness, TickModel, WatchdogConfig, Wire};
use bsim_resilience::ckpt::CkptStore;
use bsim_resilience::snapshot::{field, CkptError, Snapshot};
use serde::Value;

/// Sizes small enough to run every figure three times in one test.
fn tiny() -> Sizes {
    Sizes {
        lj_cells: 2,
        md_steps: 2,
        chain_cells: 2,
        ume_n: 4,
        ..Sizes::smoke()
    }
}

/// Runs each figure id through the storing path and returns every
/// `(key, value)` cell, panicking on any failed subfigure. [`tiny`] is
/// no named preset, so the keys are this test's own.
fn sweep(ids: &[&str], store: &mut ResultStore) -> Vec<(String, FigureData)> {
    let mut out = Vec::new();
    for id in ids {
        let plan: Vec<_> = subfigures(id).collect();
        let keys: Vec<String> = plan
            .iter()
            .map(|spec| format!("tiny/{}", spec.key))
            .collect();
        let cells = run_grid_keyed(
            &keys,
            Parallelism::Sequential,
            store,
            |_| {},
            |i| plan[i].run(tiny(), Parallelism::Sequential),
        )
        .expect("stored entries are figures");
        for (key, outcome) in keys.iter().zip(cells.outcomes) {
            match outcome {
                CellOutcome::Ok { value, .. } => out.push((key.to_string(), value)),
                CellOutcome::Failed { diag } => panic!("figure {id} cell {key}: {diag}"),
            }
        }
    }
    out
}

/// Figure cells as checkpoint JSON with the `note` field cleared: notes
/// carry host-rate text (`… target-MHz aggregate`) and are the one
/// documented host-dependent field; everything else must be byte-stable.
fn dense_json(cells: &[(String, FigureData)]) -> String {
    let mut store = CkptStore::new();
    for (key, value) in cells {
        let mut value = value.clone();
        value.note = None;
        store.put(key, &value);
    }
    store.to_json()
}

/// Fresh reruns and `--store` replays must serialize each figure key
/// to byte-identical JSON (modulo the host-rate note). The
/// figure paths are trace-driven, so their fast-forward (the cores'
/// bulk `stall_to` clock jumps) is always on; byte-stable JSON across
/// runs is what proves the jumps never leak into results.
fn check_figures_byte_identical(ids: &[&str]) {
    let path = std::env::temp_dir().join(format!(
        "bsim-ff-determinism-{}-{}.json",
        ids.concat(),
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let (mut store, _) = ResultStore::open(&path);
    let first = sweep(ids, &mut store);
    let first_json = dense_json(&first);

    // Fresh second run: identical bytes.
    let second = sweep(ids, &mut ResultStore::ephemeral());
    assert_eq!(
        first_json,
        dense_json(&second),
        "figure JSON drifted across runs"
    );

    // Replay through the store file: every cell restores from the
    // store instead of re-simulating, byte-identically.
    store.flush().expect("store file is writable");
    let flushed = std::fs::read(&path).expect("store file was written");
    let (mut reopened, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "{report}");
    let replayed = sweep(ids, &mut reopened);
    assert_eq!(
        first_json,
        dense_json(&replayed),
        "replay changed the figure bytes"
    );
    reopened.flush().expect("store file is writable");
    assert!(
        flushed == std::fs::read(&path).expect("store file was written"),
        "replay must not rewrite the store"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn figure_json_is_byte_identical_across_reruns_and_resume() {
    // figs 3..7 — the NPB, UME, and MD figures — run in seconds at tiny
    // sizes; the MicroBench suites (figs 1 and 2) take minutes in debug
    // and run in the release-mode `--ignored` variant below.
    check_figures_byte_identical(&["3", "4", "5", "6", "7"]);
}

/// The full fig1…fig7 sweep, double-run. Minutes-long in debug, so CI
/// runs it in release: `cargo test --release -p bsim-core --test
/// ff_determinism -- --ignored`.
#[test]
#[ignore = "fig1/fig2 sweeps are slow in debug; run with --ignored in release"]
fn all_figures_byte_identical_across_reruns_and_resume() {
    check_figures_byte_identical(&FIGURE_IDS);
}

/// Pulses every `period` cycles, idle (and hinted idle) in between.
struct Beacon {
    period: u64,
    next: u64,
    state: u64,
}

impl TickModel for Beacon {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, cycle: u64, inputs: &[u64], outputs: &mut [u64]) {
        if inputs[0] != 0 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(inputs[0]);
        }
        if cycle >= self.next {
            outputs[0] = self.state | 1;
            self.next = cycle + self.period;
        } else {
            outputs[0] = 0;
        }
    }
    fn next_activity(&self) -> Option<u64> {
        Some(self.next)
    }
}

impl Snapshot for Beacon {
    fn save(&self) -> Value {
        Value::Map(vec![
            ("period".to_string(), Value::U64(self.period)),
            ("next".to_string(), Value::U64(self.next)),
            ("state".to_string(), Value::U64(self.state)),
        ])
    }
    fn restore(value: &Value) -> Result<Beacon, CkptError> {
        Ok(Beacon {
            period: u64::restore(field(value, "period")?)?,
            next: u64::restore(field(value, "next")?)?,
            state: u64::restore(field(value, "state")?)?,
        })
    }
}

fn ring(n: usize, period: u64) -> (Vec<Beacon>, Vec<Wire>) {
    let models = (0..n)
        .map(|i| Beacon {
            period,
            next: 0,
            state: i as u64 + 1,
        })
        .collect();
    let wires = (0..n)
        .map(|i| Wire {
            from_model: i,
            from_port: 0,
            to_model: (i + 1) % n,
            to_port: 0,
            latency: 1,
        })
        .collect();
    (models, wires)
}

/// Serializes a finished run — final model states plus the
/// deterministic (non-`host.`) counters — the way a run export would.
fn run_json(models: &[Beacon], tel: &CounterBlock) -> String {
    let mut store = CkptStore::new();
    for (i, m) in models.iter().enumerate() {
        store.put(&format!("model{i}"), m);
    }
    for (name, v) in tel.deterministic_counters() {
        store.put(&format!("counter/{name}"), &v);
    }
    store.to_json()
}

/// FF on vs off must produce byte-identical run JSON under a seeded
/// fault plan — faults landing inside would-be idle spans force a span
/// split, not a divergence.
#[test]
fn guarded_run_json_is_byte_identical_with_ff_toggled_under_faults() {
    const CYCLES: u64 = 4_000;
    let plan = FaultPlan::scatter(7, FaultKind::PayloadBitFlip { bit: 9 }, 4, CYCLES, 6);
    let run = |ff: bool| {
        let (m, w) = ring(4, 128);
        let mut tel = CounterBlock::new(true);
        let models = Harness::new(m, w)
            .with_fast_forward(ff)
            .run_guarded(CYCLES, 8, &plan, WatchdogConfig::default(), &mut tel)
            .expect("guarded run completes");
        (run_json(&models, &tel), tel)
    };
    let (ff_json, ff_tel) = run(true);
    let (noff_json, noff_tel) = run(false);
    assert_eq!(ff_json, noff_json, "fault-injected run JSON diverged");
    assert!(
        ff_tel.get("host.engine.skipped_cycles").unwrap_or(0) > 0,
        "the idle-heavy ring should fast-forward"
    );
    assert_eq!(
        noff_tel.get("host.engine.skipped_cycles"),
        Some(0),
        "disabled fast-forward must not skip"
    );

    // And a clean plan differs from the faulted one — the faults were real.
    let (m, w) = ring(4, 128);
    let mut tel = CounterBlock::new(true);
    let clean = Harness::new(m, w)
        .run_guarded(
            CYCLES,
            8,
            &FaultPlan::new(0),
            WatchdogConfig::default(),
            &mut tel,
        )
        .expect("clean run completes");
    assert_ne!(
        run_json(&clean, &tel),
        ff_json,
        "faults must perturb the run"
    );
}
