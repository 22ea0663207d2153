//! Resilient sweep runners: retry, degrade, checkpoint, resume.
//!
//! [`crate::run_grid_metered`] re-raises a poisoned cell's panic after
//! the grid drains. Long sweeps want the opposite: keep every completed
//! cell, retry the poisoned one with backoff, and degrade it to a
//! diagnosed failure row instead of aborting hours of simulation —
//! [`run_grid_resilient`]. [`run_grid_keyed`] adds checkpointing by cell
//! key, so `bsim fig --resume` replays completed subfigures from disk
//! byte-for-byte.

use crate::experiments::{drain_grid, Parallelism};
use bsim_resilience::ckpt::CkptStore;
use bsim_resilience::retry::{CellOutcome, RetryPolicy};
use bsim_resilience::snapshot::{CkptError, Snapshot};
use bsim_telemetry::CounterBlock;
use std::sync::Mutex;

/// Outcome of a resilient sweep: one [`CellOutcome`] per grid cell, in
/// grid order, plus the host-side accounting the run export publishes
/// under `host.resilience.*`.
#[derive(Clone, Debug)]
pub struct ResilientSweep<T> {
    /// Per-cell outcomes, ordered by grid index.
    pub outcomes: Vec<CellOutcome<T>>,
    /// Worker threads the sweep used.
    pub workers: usize,
    /// Cells answered from a checkpoint store instead of simulated.
    pub restored: usize,
}

impl<T> ResilientSweep<T> {
    /// Attempts beyond the first, summed over all cells.
    pub fn retries(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retries() as u64).sum()
    }

    /// Cells that failed every attempt.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_ok()).count()
    }

    /// True when every cell produced a value.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }

    /// Publishes the sweep's resilience accounting under
    /// `host.resilience.*` — the counters ride the normal telemetry
    /// export, so they appear in the JSON and CSV run dumps next to
    /// `host.sweep.*` and `host.rate.*`.
    pub fn publish(&self, block: &mut CounterBlock) {
        block.set_named("host.resilience.cells", self.outcomes.len() as u64);
        block.set_named("host.resilience.retries", self.retries());
        block.set_named("host.resilience.failed_cells", self.failed() as u64);
        block.set_named("host.resilience.ckpt_cells", self.restored as u64);
    }
}

/// [`crate::run_grid_metered`] that survives poisoned cells: each cell runs
/// under `policy` (catch + exponential backoff between attempts), and a
/// cell that fails every attempt degrades to
/// [`CellOutcome::Failed`] with the panic message as its diagnostic —
/// the other cells' results are kept, not unwound away.
pub fn run_grid_resilient<T, F>(
    jobs: usize,
    par: Parallelism,
    policy: &RetryPolicy,
    f: F,
) -> ResilientSweep<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.workers(jobs);
    let outcomes = drain_grid(jobs, par, |i| policy.run(|| f(i)));
    ResilientSweep {
        outcomes,
        workers,
        restored: 0,
    }
}

/// [`run_grid_resilient`] over keyed cells with checkpoint/resume — the
/// one loop that skips a stored cell. Cell `i` is answered from `store`
/// when `keys[i]` is there (`attempts == 0` marks it replayed) and
/// otherwise runs `f(i)` under `policy`; a cell that succeeds is written
/// back under its key and `on_ckpt` fires at once — `bsim fig --ckpt`
/// persists the store to disk there, so a run killed mid-sweep still
/// leaves every finished cell resumable. A cell that fails every attempt
/// degrades to a [`CellOutcome::Failed`] row, is not stored, and is
/// retried by the next resume. Without a store this is
/// [`run_grid_resilient`].
///
/// `bsim fig <id>` passes the [`FigureSpec::key`]s of its plan
/// (`fig3a`, …) and runs each subfigure scalar or on the lane executor;
/// keys and store are the same either way, so `--ckpt`/`--resume`
/// interoperate between them. Under a parallel `par` cells are stored in
/// completion order.
///
/// A present-but-malformed entry is a loud [`CkptError`] before any cell
/// runs, not a silent recompute — a checkpoint that has started lying
/// should stop the run, not quietly waste it.
///
/// [`FigureSpec::key`]: crate::experiments::FigureSpec::key
pub fn run_grid_keyed<T, F>(
    keys: &[impl AsRef<str> + Sync],
    par: Parallelism,
    policy: &RetryPolicy,
    store: Option<&mut CkptStore>,
    on_ckpt: impl FnMut(&CkptStore) + Send,
    f: F,
) -> Result<ResilientSweep<T>, CkptError>
where
    T: Snapshot + Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<CellOutcome<T>>> = Vec::with_capacity(keys.len());
    for key in keys {
        let stored = match &store {
            Some(store) => store.get::<T>(key.as_ref())?,
            None => None,
        };
        slots.push(stored.map(|value| CellOutcome::Ok { value, attempts: 0 }));
    }
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| slots[i].is_none()).collect();
    let sink = store.map(|store| Mutex::new((store, on_ckpt)));
    let fresh = drain_grid(missing.len(), par, |k| {
        let outcome = policy.run(|| f(missing[k]));
        if let (Some(sink), CellOutcome::Ok { value, .. }) = (&sink, &outcome) {
            let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
            let (store, on_ckpt) = &mut *sink;
            store.put(keys[missing[k]].as_ref(), value);
            on_ckpt(store);
        }
        outcome
    });
    for (&i, outcome) in missing.iter().zip(fresh) {
        slots[i] = Some(outcome);
    }
    Ok(ResilientSweep {
        outcomes: slots
            .into_iter()
            .map(|s| s.expect("every cell restored or simulated"))
            .collect(),
        workers: par.workers(missing.len()),
        restored: keys.len() - missing.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{subfigures, FigureData, Sizes};
    use bsim_telemetry::{Telemetry, TelemetryConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resilient_grid_keeps_completed_cells_and_diagnoses_the_poisoned_one() {
        let sweep = run_grid_resilient(6, Parallelism::Workers(3), &RetryPolicy::once(), |i| {
            assert!(i != 4, "cell 4 is poisoned");
            i * 10
        });
        assert_eq!(sweep.outcomes.len(), 6);
        assert_eq!(sweep.failed(), 1);
        assert!(!sweep.all_ok());
        for (i, o) in sweep.outcomes.iter().enumerate() {
            if i == 4 {
                assert!(o.diag().unwrap().contains("cell 4 is poisoned"));
            } else {
                assert_eq!(o.value(), Some(&(i * 10)), "cell {i} result kept");
            }
        }
    }

    #[test]
    fn retry_policy_recovers_a_flaky_cell_and_counts_retries() {
        let tries = AtomicUsize::new(0);
        let sweep = run_grid_resilient(1, Parallelism::Sequential, &RetryPolicy::default(), |_| {
            // Fails twice, then succeeds: a host-transient stand-in.
            assert!(tries.fetch_add(1, Ordering::Relaxed) >= 2, "transient");
            7u64
        });
        assert!(sweep.all_ok());
        assert_eq!(sweep.retries(), 2);
        let mut block = CounterBlock::new(true);
        sweep.publish(&mut block);
        assert_eq!(block.get("host.resilience.retries"), Some(2));
        assert_eq!(block.get("host.resilience.failed_cells"), Some(0));
    }

    /// `run_grid_keyed` over `t/cell<i>` keys, sequential, one attempt.
    fn keyed<T: Snapshot + Send>(
        store: &mut CkptStore,
        jobs: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<ResilientSweep<T>, CkptError> {
        let keys: Vec<String> = (0..jobs).map(|i| format!("t/cell{i}")).collect();
        run_grid_keyed(
            &keys,
            Parallelism::Sequential,
            &RetryPolicy::once(),
            Some(store),
            |_| {},
            f,
        )
    }

    #[test]
    fn checkpointed_grid_resumes_without_resimulating() {
        let ran = AtomicUsize::new(0);
        let cell = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            (i as u64) * 3
        };
        let mut store = CkptStore::new();
        let first = keyed(&mut store, 5, cell).unwrap();
        assert!(first.all_ok());
        assert_eq!(first.restored, 0);
        assert_eq!(ran.load(Ordering::Relaxed), 5);

        // Round-trip the store through its JSON wire format, as a
        // `--resume` run would, then rerun: zero cells re-simulate and
        // the values are identical.
        let mut reloaded = CkptStore::from_json(&store.to_json()).unwrap();
        let second = keyed(&mut reloaded, 5, cell).unwrap();
        assert_eq!(second.restored, 5);
        assert_eq!(ran.load(Ordering::Relaxed), 5, "nothing re-simulated");
        let vals = |s: &ResilientSweep<u64>| -> Vec<u64> {
            s.outcomes.iter().map(|o| *o.value().unwrap()).collect()
        };
        assert_eq!(vals(&first), vals(&second));
    }

    #[test]
    fn mid_sweep_checkpoint_only_fills_the_missing_cells() {
        // Simulate a sweep torn down after 2 of 4 cells: the resumed run
        // computes exactly the missing ones.
        let mut store = CkptStore::new();
        store.put("t/cell0", &10u64);
        store.put("t/cell2", &30u64);
        let ran = AtomicUsize::new(0);
        let sweep = keyed(&mut store, 4, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            (i as u64 + 1) * 10
        })
        .unwrap();
        assert_eq!(sweep.restored, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        let vals: Vec<u64> = sweep.outcomes.iter().map(|o| *o.value().unwrap()).collect();
        assert_eq!(vals, [10, 20, 30, 40]);
        // A failed cell is not written back: the next resume retries it.
        let mut store2 = CkptStore::new();
        let s2 = keyed(&mut store2, 2, |i| {
            assert!(i != 1, "poisoned");
            5u64
        })
        .unwrap();
        assert_eq!(s2.failed(), 1);
        assert!(store2.contains("t/cell0"));
        assert!(!store2.contains("t/cell1"));
    }

    #[test]
    fn malformed_checkpoint_entry_is_a_loud_error() {
        let mut store = CkptStore::new();
        store.put("t/cell0", &String::from("not a u64"));
        let err = keyed(&mut store, 1, |_| 1u64).expect_err("a lying checkpoint must stop the run");
        assert!(matches!(err, CkptError::WrongType { .. }));
    }

    #[test]
    fn figure_run_checkpoints_and_resumes_byte_identically() {
        let tiny = Sizes {
            lj_cells: 2,
            md_steps: 2,
            ..Sizes::smoke()
        };
        let plan: Vec<_> = subfigures("6").collect();
        let keys: Vec<&str> = plan.iter().map(|spec| spec.key).collect();
        let run = |i: usize| plan[i].run(tiny, Parallelism::Sequential);
        let once = RetryPolicy::once();
        let mut store = CkptStore::new();
        let mut saves = 0usize;
        let first = run_grid_keyed(
            &keys,
            Parallelism::Sequential,
            &once,
            Some(&mut store),
            |_| saves += 1,
            run,
        )
        .unwrap();
        assert_eq!(first.outcomes.len(), 1);
        assert_eq!(saves, 1, "on_ckpt fires once per completed subfigure");
        assert!(store.contains("fig6"));

        // Resume through the JSON wire format: the subfigure is replayed
        // from the store (attempts == 0), not re-simulated, and is
        // byte-identical to the first run's.
        let mut reloaded = CkptStore::from_json(&store.to_json()).unwrap();
        let second: ResilientSweep<FigureData> = run_grid_keyed(
            &keys,
            Parallelism::Sequential,
            &once,
            Some(&mut reloaded),
            |_| {},
            run,
        )
        .unwrap();
        assert_eq!(second.restored, 1);
        match (&first.outcomes[0], &second.outcomes[0]) {
            (
                CellOutcome::Ok { value: a, .. },
                CellOutcome::Ok {
                    value: b,
                    attempts: 0,
                },
            ) => assert_eq!(a, b, "resumed figure must match the original"),
            other => panic!("unexpected outcomes: {other:?}"),
        }
    }

    #[test]
    fn resilience_counters_ride_the_json_and_csv_exports() {
        let sweep = run_grid_resilient(3, Parallelism::Sequential, &RetryPolicy::once(), |i| i);
        let mut tel = Telemetry::new(TelemetryConfig::counters());
        sweep.publish(tel.counters_mut());
        tel.tick(1000);
        let snap = tel.snapshot().expect("telemetry enabled");
        assert_eq!(snap.counter("host.resilience.cells"), Some(3));
        let json = snap.to_json();
        let csv = snap.counters_csv();
        for name in [
            "host.resilience.cells",
            "host.resilience.retries",
            "host.resilience.failed_cells",
            "host.resilience.ckpt_cells",
        ] {
            assert!(json.contains(name), "{name} missing from JSON export");
            assert!(csv.contains(name), "{name} missing from CSV export");
        }
    }
}
