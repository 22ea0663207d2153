//! The cell pool: the one way `bsim fig` and `bsimd` reach the result
//! store.
//!
//! A [`CellPool`] owns the [`ResultStore`], the keys being run and an
//! `on_put` hook. [`CellPool::run`] probes every key before it schedules
//! anything: a hit is the store's CRC-verified canonical bytes, never
//! parsed. A miss re-probes under the claim lock, waits while another
//! caller holds its key, then claims it and runs once under [`catch`].
//! The holder stores the canonical bytes and fires `on_put` **before** a
//! drop guard releases the claim, so a key runs at most once however
//! many callers want it. A cell's `Err` or panic is a failure row, not
//! stored.

use crate::experiments::{drain_grid, Parallelism};
use crate::retry::{catch, CellOutcome};
use crate::snapshot::CkptError;
use crate::store::canonical;
use crate::ResultStore;
use serde::Value;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Locks a pool mutex, recovering from poisoning: the store and the
/// claim set stay structurally valid across a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn answer(value: Arc<str>, restored: bool) -> CellOutcome<Arc<str>> {
    CellOutcome::Ok { value, restored }
}

/// The result store, the keys being run, and what happens after a put.
pub struct CellPool {
    store: Mutex<ResultStore>,
    claims: Mutex<HashSet<String>>,
    released: Condvar,
    on_put: Box<dyn Fn(&ResultStore) + Send + Sync>,
}

/// What one [`CellPool::run`] answered.
#[derive(Clone, Debug)]
pub struct PoolRun {
    /// Per key, in key order: its verified canonical bytes (`restored`
    /// when the store held them), or why there are none.
    pub outcomes: Vec<CellOutcome<Arc<str>>>,
    /// Keys that found another caller's claim and waited on it.
    pub waited: usize,
}

impl PoolRun {
    /// Keys answered from the store.
    pub fn restored(&self) -> usize {
        let restored = |o: &&CellOutcome<_>| matches!(o, CellOutcome::Ok { restored: true, .. });
        self.outcomes.iter().filter(restored).count()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.is_ok()).count()
    }

    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }
}

/// A held claim; dropping it releases the key and wakes its waiters.
struct Claim<'a>(&'a CellPool, &'a str);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        lock(&self.0.claims).remove(self.1);
        self.0.released.notify_all();
    }
}

impl CellPool {
    /// A pool over `store` whose puts fire nothing.
    pub fn new(store: ResultStore) -> CellPool {
        CellPool::with_on_put(store, |_| {})
    }

    /// A pool over `store` that calls `on_put` after every put, with the
    /// store locked: `--store` commands flush the file there, so a run
    /// killed midway leaves every finished cell to the next one.
    pub fn with_on_put(
        store: ResultStore,
        on_put: impl Fn(&ResultStore) + Send + Sync + 'static,
    ) -> CellPool {
        CellPool {
            store: Mutex::new(store),
            claims: Mutex::new(HashSet::new()),
            released: Condvar::new(),
            on_put: Box::new(on_put),
        }
    }

    /// The bytes stored under `key` if their checksum verifies: the very
    /// allocation the store holds.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        lock(&self.store).get_bytes(key)
    }

    /// Stores `bytes`, a result's [`canonical`] rendering, under `key`
    /// and fires `on_put`.
    fn put(&self, key: &str, bytes: Arc<str>) {
        let mut store = lock(&self.store);
        store.put_bytes(key, bytes);
        (self.on_put)(&store);
    }

    /// Answers `keys`: hits from the store, each miss by `cell(i)` run
    /// once across `par` workers and stored as its canonical bytes.
    pub fn run<K, F>(&self, keys: &[K], par: Parallelism, cell: F) -> PoolRun
    where
        K: AsRef<str> + Sync,
        F: Fn(usize) -> Result<Value, String> + Sync,
    {
        let stored = keys
            .iter()
            .map(|key| Some(answer(self.get(key.as_ref())?, true)));
        let mut slots: Vec<Option<CellOutcome<Arc<str>>>> = stored.collect();
        let misses: Vec<usize> = (0..keys.len()).filter(|&i| slots[i].is_none()).collect();
        let answered = drain_grid(misses.len(), par, |m| {
            self.answer_miss(keys[misses[m]].as_ref(), || cell(misses[m]))
        });
        let mut waited = 0;
        for (&i, (outcome, waits)) in misses.iter().zip(answered) {
            waited += usize::from(waits);
            slots[i] = Some(outcome);
        }
        // Every slot is a hit or an answered miss.
        let outcomes = slots.into_iter().flatten().collect();
        PoolRun { outcomes, waited }
    }

    /// Claims and runs one missed key, or answers it from the store when
    /// another caller got there first; also whether it waited on a claim.
    fn answer_miss(
        &self,
        key: &str,
        cell: impl FnOnce() -> Result<Value, String>,
    ) -> (CellOutcome<Arc<str>>, bool) {
        let mut waited = false;
        let mut claims = lock(&self.claims);
        while claims.contains(key) {
            waited = true;
            claims = self
                .released
                .wait(claims)
                .unwrap_or_else(|p| p.into_inner());
        }
        // A holder stores its bytes before it releases its claim, so no
        // claim and no entry here proves nobody has run this key.
        if let Some(value) = self.get(key) {
            return (answer(value, true), waited);
        }
        claims.insert(key.to_string());
        drop(claims);
        let _claim = Claim(self, key);
        let outcome = match catch(cell) {
            CellOutcome::Ok {
                value: Ok(tree), ..
            } => {
                let bytes: Arc<str> = canonical(&tree).into();
                self.put(key, Arc::clone(&bytes));
                answer(bytes, false)
            }
            CellOutcome::Ok {
                value: Err(diag), ..
            }
            | CellOutcome::Failed { diag } => CellOutcome::Failed { diag },
        };
        (outcome, waited)
    }

    /// Keys claimed right now (the `host.svc.cells.inflight` gauge).
    pub fn claims(&self) -> usize {
        lock(&self.claims).len()
    }

    /// Stored entries (the `host.svc.cache.entries` gauge).
    pub fn len(&self) -> usize {
        lock(&self.store).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn flush(&self) -> Result<u64, CkptError> {
        lock(&self.store).flush()
    }

    /// [`ResultStore::flip_resident_bit`]: fault injection for tests.
    pub fn flip_resident_bit(&self, key: &str) {
        lock(&self.store).flip_resident_bit(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{subfigures, FigureData, Sizes};
    use crate::snapshot::Snapshot;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// `t/cell<i>` for each of `jobs` cells.
    fn keys(jobs: usize) -> Vec<String> {
        (0..jobs).map(|i| format!("t/cell{i}")).collect()
    }

    /// `pool.run` over [`keys`], sequential.
    fn keyed(
        pool: &CellPool,
        jobs: usize,
        f: impl Fn(usize) -> Result<Value, String> + Sync,
    ) -> PoolRun {
        pool.run(&keys(jobs), Parallelism::Sequential, f)
    }

    /// The `u64` each outcome's bytes render.
    fn vals(run: &PoolRun) -> Vec<u64> {
        let value = |o: &CellOutcome<Arc<str>>| o.value().unwrap().parse().unwrap();
        run.outcomes.iter().map(value).collect()
    }

    #[test]
    fn resilient_grid_keeps_completed_cells_and_diagnoses_the_poisoned_one() {
        let poisoned_calls = AtomicUsize::new(0);
        let pool = CellPool::new(ResultStore::ephemeral());
        let sweep = pool.run(&keys(6), Parallelism::Workers(3), |i| {
            if i == 4 {
                poisoned_calls.fetch_add(1, Ordering::Relaxed);
            }
            assert!(i != 4, "cell 4 is poisoned");
            Ok((i as u64 * 10).save())
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
                let want = (i * 10).to_string();
                assert_eq!(
                    o.value().map(|v| &**v),
                    Some(&*want),
                    "cell {i} result kept"
                );
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

    /// A pool over the store at `path`, which must open without findings.
    fn open_clean(path: &std::path::Path) -> CellPool {
        let (store, report) = ResultStore::open(path);
        assert!(report.is_clean(), "{report}");
        CellPool::new(store)
    }

    #[test]
    fn checkpointed_grid_resumes_without_resimulating() {
        let ran = AtomicUsize::new(0);
        let cell = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok((i as u64 * 3).save())
        };
        let path = scratch("replay");
        let pool = open_clean(&path);
        let first = keyed(&pool, 5, cell);
        assert!(first.all_ok());
        assert_eq!(first.restored(), 0);
        assert_eq!(ran.load(Ordering::Relaxed), 5);

        // Round-trip the store through its file, as the next `--store`
        // run would, then rerun: zero cells re-simulate and the values
        // are identical.
        pool.flush().unwrap();
        let reloaded = open_clean(&path);
        std::fs::remove_file(&path).ok();
        let second = keyed(&reloaded, 5, cell);
        assert_eq!(second.restored(), 5);
        assert_eq!(ran.load(Ordering::Relaxed), 5, "nothing re-simulated");
        assert_eq!(vals(&first), vals(&second));
    }

    #[test]
    fn mid_sweep_checkpoint_only_fills_the_missing_cells() {
        // Simulate a sweep torn down after 2 of 4 cells: the next run
        // computes exactly the missing ones.
        let mut store = ResultStore::ephemeral();
        store.put("t/cell0", &10u64.save());
        store.put("t/cell2", &30u64.save());
        let pool = CellPool::new(store);
        let ran = AtomicUsize::new(0);
        let sweep = keyed(&pool, 4, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(((i as u64 + 1) * 10).save())
        });
        assert_eq!(sweep.restored(), 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(vals(&sweep), [10, 20, 30, 40]);
        assert_eq!(pool.len(), 4);
        // A failed cell is not stored: the next run retries it.
        let pool2 = CellPool::new(ResultStore::ephemeral());
        let s2 = keyed(&pool2, 2, |i| {
            assert!(i != 1, "poisoned");
            Ok(5u64.save())
        });
        assert_eq!(s2.failed(), 1);
        assert!(pool2.get("t/cell0").is_some());
        assert!(pool2.get("t/cell1").is_none());
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
        let run = |i: usize| Ok(plan[i].run(tiny, Parallelism::Sequential).save());
        let path = scratch("figure");
        let (store, report) = ResultStore::open(&path);
        assert!(report.is_clean(), "{report}");
        let puts = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&puts);
        let pool = CellPool::with_on_put(store, move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
        });
        let first = pool.run(&keys, Parallelism::Sequential, run);
        assert_eq!(first.outcomes.len(), 1);
        assert_eq!(
            puts.load(Ordering::Relaxed),
            1,
            "on_put fires once per completed subfigure"
        );
        assert!(pool.get("t/fig6").is_some());

        // The next run, through the file: the subfigure is replayed from
        // the store (`restored`), not re-simulated, and is
        // byte-identical to the first run's.
        pool.flush().unwrap();
        let reloaded = open_clean(&path);
        std::fs::remove_file(&path).ok();
        let second = reloaded.run(&keys, Parallelism::Sequential, run);
        assert_eq!(second.restored(), 1);
        match (&first.outcomes[0], &second.outcomes[0]) {
            (
                CellOutcome::Ok { value: a, .. },
                CellOutcome::Ok {
                    value: b,
                    restored: true,
                },
            ) => {
                assert_eq!(a, b, "replayed figure must match the original");
                let figure = |bytes: &str| {
                    FigureData::restore(&serde_json::from_str(bytes).unwrap()).unwrap()
                };
                assert_eq!(figure(a), figure(b));
            }
            other => panic!("unexpected outcomes: {other:?}"),
        }
    }

    #[test]
    fn an_all_hit_call_runs_no_closure() {
        let pool = CellPool::new(ResultStore::ephemeral());
        let first = keyed(&pool, 3, |i| Ok((i as u64).save()));
        let second = keyed(&pool, 3, |_| panic!("a hit must not run its cell"));
        assert_eq!(second.restored(), 3);
        assert_eq!(vals(&first), vals(&second));
        // A hit is the store's own allocation, not a copy of it.
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert!(Arc::ptr_eq(a.value().unwrap(), b.value().unwrap()));
        }
    }

    #[test]
    fn two_callers_over_overlapping_keys_run_each_key_once() {
        let pool = CellPool::new(ResultStore::ephemeral());
        let runs: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let cell = |i: usize| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            // Long enough that the other caller finds the claim.
            std::thread::sleep(Duration::from_millis(30));
            Ok((i as u64 * 7).save())
        };
        let all = keys(4);
        let (left, right) = std::thread::scope(|s| {
            let left = s.spawn(|| pool.run(&all[..3], Parallelism::Workers(2), cell));
            let right = s.spawn(|| pool.run(&all[1..], Parallelism::Workers(2), |i| cell(i + 1)));
            (left.join().unwrap(), right.join().unwrap())
        });
        for (i, runs) in runs.iter().enumerate() {
            assert_eq!(runs.load(Ordering::SeqCst), 1, "cell {i} ran once");
        }
        assert!(left.all_ok() && right.all_ok());
        assert_eq!(vals(&left)[1..], vals(&right)[..2]);
        // A key the other caller ran is a hit here, waited on or not.
        assert_eq!(left.restored() + right.restored(), 2);
        assert_eq!(pool.claims(), 0);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn a_panicking_cell_fails_unstored_and_releases_its_claim() {
        let pool = CellPool::new(ResultStore::ephemeral());
        let poisoned = keyed(&pool, 1, |_| panic!("cell poisoned"));
        assert_eq!(poisoned.outcomes[0].diag(), Some("cell poisoned"));
        assert!(pool.get("t/cell0").is_none(), "a failed cell is not stored");
        assert_eq!(pool.claims(), 0, "its claim is released");
        let healed = keyed(&pool, 1, |_| Ok(9u64.save()));
        assert_eq!(healed.restored(), 0, "claimed and run afresh");
        assert_eq!(vals(&healed), [9]);
        assert!(pool.get("t/cell0").is_some());
    }

    thread_local! {
        static PANICKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Whether a panic hook fired on this thread since the last call.
    fn panicked_here() -> bool {
        static HOOKED: std::sync::Once = std::sync::Once::new();
        HOOKED.call_once(|| {
            let loud = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                PANICKED.with(|p| p.set(true));
                loud(info);
            }));
        });
        PANICKED.with(|p| p.replace(false))
    }

    #[test]
    fn an_erring_cell_fails_with_its_diagnostic_and_no_panic() {
        panicked_here();
        let pool = CellPool::new(ResultStore::ephemeral());
        let refused = keyed(&pool, 1, |_| Err("cell x: unknown platform".into()));
        assert_eq!(refused.outcomes[0].diag(), Some("cell x: unknown platform"));
        assert!(pool.is_empty() && pool.claims() == 0);
        assert!(!panicked_here(), "an Err is no panic");
    }
}
