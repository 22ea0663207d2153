//! Resilient sweep runners: degrade, store, replay.
//!
//! [`crate::run_grid_metered`] re-raises a poisoned cell's panic after
//! the grid drains. Long sweeps want the opposite: keep every completed
//! cell and degrade the poisoned one to a diagnosed failure row instead
//! of aborting hours of simulation — [`run_grid_resilient`].
//! [`run_grid_keyed`] adds a [`ResultStore`], so `bsim fig --store`
//! replays completed subfigures byte-for-byte.

use crate::experiments::{drain_grid, Parallelism};
use bsim_resilience::retry::{catch, CellOutcome};
use bsim_resilience::snapshot::{CkptError, Snapshot};
use bsim_resilience::ResultStore;
use std::sync::Mutex;

/// Outcome of a resilient sweep: one [`CellOutcome`] per grid cell, in
/// grid order.
#[derive(Clone, Debug)]
pub struct ResilientSweep<T> {
    /// Per-cell outcomes, ordered by grid index.
    pub outcomes: Vec<CellOutcome<T>>,
    /// Cells answered from a result store instead of simulated.
    pub restored: usize,
}

impl<T> ResilientSweep<T> {
    /// Cells that failed.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_ok()).count()
    }

    /// True when every cell produced a value.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }
}

/// [`crate::run_grid_metered`] that survives poisoned cells: each cell runs
/// once under [`catch`], and a cell that panics degrades to
/// [`CellOutcome::Failed`] with the panic message as its diagnostic —
/// the other cells' results are kept, not unwound away.
pub fn run_grid_resilient<T, F>(jobs: usize, par: Parallelism, f: F) -> ResilientSweep<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    ResilientSweep {
        outcomes: drain_grid(jobs, par, |i| catch(|| f(i))),
        restored: 0,
    }
}

/// [`run_grid_resilient`] over keyed cells and a result store — the one
/// loop that skips a stored cell. Cell `i` is answered from `store` when
/// `keys[i]` is there (`restored` marks it replayed) and otherwise runs
/// `f(i)` once under [`catch`]; a cell that succeeds is stored under its
/// key and `on_put` fires at once — `bsim fig --store` flushes the file
/// there, so a run killed mid-sweep still leaves every finished cell to
/// the next one. A cell that panics degrades to a
/// [`CellOutcome::Failed`] row, is not stored, and runs again next time.
///
/// What a key is made of is the caller's side of the contract: `bsim fig`
/// passes each subfigure's `bsim_dist::WireCell::key`, which names the
/// figure, the size preset and the code version but not the executor —
/// scalar or lanes, any `par` — because that does not change the series.
/// Under a parallel `par` cells are stored in completion order.
///
/// A stored entry that verifies but does not restore as a `T` is a loud
/// [`CkptError`] before any cell runs, not a silent recompute — a store
/// that has started lying should stop the run, not quietly waste it.
pub fn run_grid_keyed<T, F>(
    keys: &[impl AsRef<str> + Sync],
    par: Parallelism,
    store: &mut ResultStore,
    on_put: impl FnMut(&ResultStore) + Send,
    f: F,
) -> Result<ResilientSweep<T>, CkptError>
where
    T: Snapshot + Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<CellOutcome<T>>> = Vec::with_capacity(keys.len());
    for key in keys {
        let stored = store.get(key.as_ref());
        let value = stored.as_ref().map(T::restore).transpose()?;
        slots.push(value.map(|value| CellOutcome::Ok {
            value,
            restored: true,
        }));
    }
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| slots[i].is_none()).collect();
    let sink = Mutex::new((store, on_put));
    let fresh = drain_grid(missing.len(), par, |k| {
        let outcome = catch(|| f(missing[k]));
        if let CellOutcome::Ok { value, .. } = &outcome {
            let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
            let (store, on_put) = &mut *sink;
            store.put(keys[missing[k]].as_ref(), &value.save());
            on_put(store);
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
        restored: keys.len() - missing.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{subfigures, FigureData, Sizes};
    use serde::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resilient_grid_keeps_completed_cells_and_diagnoses_the_poisoned_one() {
        let poisoned_calls = AtomicUsize::new(0);
        let sweep = run_grid_resilient(6, Parallelism::Workers(3), |i| {
            if i == 4 {
                poisoned_calls.fetch_add(1, Ordering::Relaxed);
            }
            assert!(i != 4, "cell 4 is poisoned");
            i * 10
        });
        assert_eq!(sweep.outcomes.len(), 6);
        assert_eq!(sweep.failed(), 1);
        assert!(!sweep.all_ok());
        assert_eq!(
            poisoned_calls.load(Ordering::Relaxed),
            1,
            "a failed cell runs exactly once"
        );
        for (i, o) in sweep.outcomes.iter().enumerate() {
            if i == 4 {
                assert!(o.diag().unwrap().contains("cell 4 is poisoned"));
            } else {
                assert_eq!(o.value(), Some(&(i * 10)), "cell {i} result kept");
            }
        }
    }

    /// A scratch store file no other test (or process) shares, absent.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bsim-core-resilient-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    /// The store at `path`, which must open without findings.
    fn open_clean(path: &std::path::Path) -> ResultStore {
        let (store, report) = ResultStore::open(path);
        assert!(report.is_clean(), "{report}");
        store
    }

    /// `run_grid_keyed` over `t/cell<i>` keys, sequential.
    fn keyed<T: Snapshot + Send>(
        store: &mut ResultStore,
        jobs: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<ResilientSweep<T>, CkptError> {
        let keys: Vec<String> = (0..jobs).map(|i| format!("t/cell{i}")).collect();
        run_grid_keyed(&keys, Parallelism::Sequential, store, |_| {}, f)
    }

    #[test]
    fn checkpointed_grid_resumes_without_resimulating() {
        let ran = AtomicUsize::new(0);
        let cell = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            (i as u64) * 3
        };
        let path = scratch("replay");
        let mut store = open_clean(&path);
        let first = keyed(&mut store, 5, cell).unwrap();
        assert!(first.all_ok());
        assert_eq!(first.restored, 0);
        assert_eq!(ran.load(Ordering::Relaxed), 5);

        // Round-trip the store through its file, as the next `--store`
        // run would, then rerun: zero cells re-simulate and the values
        // are identical.
        store.flush().unwrap();
        let mut reloaded = open_clean(&path);
        std::fs::remove_file(&path).ok();
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
        // Simulate a sweep torn down after 2 of 4 cells: the next run
        // computes exactly the missing ones.
        let mut store = ResultStore::ephemeral();
        store.put("t/cell0", &10u64.save());
        store.put("t/cell2", &30u64.save());
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
        assert_eq!(store.len(), 4);
        // A failed cell is not stored: the next run retries it.
        let mut store2 = ResultStore::ephemeral();
        let s2 = keyed(&mut store2, 2, |i| {
            assert!(i != 1, "poisoned");
            5u64
        })
        .unwrap();
        assert_eq!(s2.failed(), 1);
        assert!(store2.get("t/cell0").is_some());
        assert!(store2.get("t/cell1").is_none());
    }

    #[test]
    fn malformed_checkpoint_entry_is_a_loud_error() {
        let mut store = ResultStore::ephemeral();
        store.put("t/cell0", &Value::Str("not a u64".into()));
        let err = keyed(&mut store, 1, |_| 1u64).expect_err("a lying store must stop the run");
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
        // Any distinct strings do here; `bsim fig` passes content hashes.
        let keys: Vec<String> = plan.iter().map(|spec| format!("t/{}", spec.key)).collect();
        let run = |i: usize| plan[i].run(tiny, Parallelism::Sequential);
        let path = scratch("figure");
        let mut store = open_clean(&path);
        let mut puts = 0usize;
        let first = run_grid_keyed(
            &keys,
            Parallelism::Sequential,
            &mut store,
            |_| puts += 1,
            run,
        )
        .unwrap();
        assert_eq!(first.outcomes.len(), 1);
        assert_eq!(puts, 1, "on_put fires once per completed subfigure");
        assert!(store.get("t/fig6").is_some());

        // The next run, through the file: the subfigure is replayed from
        // the store (`restored`), not re-simulated, and is
        // byte-identical to the first run's.
        store.flush().unwrap();
        let mut reloaded = open_clean(&path);
        std::fs::remove_file(&path).ok();
        let second: ResilientSweep<FigureData> =
            run_grid_keyed(&keys, Parallelism::Sequential, &mut reloaded, |_| {}, run).unwrap();
        assert_eq!(second.restored, 1);
        match (&first.outcomes[0], &second.outcomes[0]) {
            (
                CellOutcome::Ok { value: a, .. },
                CellOutcome::Ok {
                    value: b,
                    restored: true,
                },
            ) => assert_eq!(a, b, "replayed figure must match the original"),
            other => panic!("unexpected outcomes: {other:?}"),
        }
    }
}
