//! A cell's one attempt.
//!
//! Long sweeps run dozens of independent cells; one poisoned cell (a
//! model panic, a watchdog trip) should not abort the figure. [`catch`]
//! runs a cell once and records a [`CellOutcome`] row — either the value
//! or a typed [`CellOutcome::Failed`] diagnostic — instead of unwinding.
//! A failed cell is not run again: every cell rebuilds its whole
//! `Soc`/`MpiWorld` and is deterministic inside, so a second attempt
//! would panic the same way.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `cell` once. A panic is contained with `catch_unwind` and
/// rendered into the failure diagnostic.
pub fn catch<T>(cell: impl FnOnce() -> T) -> CellOutcome<T> {
    match catch_unwind(AssertUnwindSafe(cell)) {
        Ok(value) => CellOutcome::Ok {
            value,
            restored: false,
        },
        Err(payload) => CellOutcome::Failed {
            diag: panic_message(payload.as_ref()),
        },
    }
}

/// Render a panic payload the way the runtime would print it.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// What a resilient sweep records for one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell produced a value.
    Ok {
        /// The cell's result.
        value: T,
        /// `true` when a result store answered the cell and nothing ran.
        restored: bool,
    },
    /// The cell panicked; the sweep degrades instead of aborting.
    Failed {
        /// The panic message (or stall report rendering).
        diag: String,
    },
}

impl<T> CellOutcome<T> {
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok { .. })
    }

    /// Borrow the value if the cell succeeded.
    pub fn value(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok { value, .. } => Some(value),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Borrow the diagnostic if the cell failed.
    pub fn diag(&self) -> Option<&str> {
        match self {
            CellOutcome::Failed { diag } => Some(diag),
            CellOutcome::Ok { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn first_try_success_uses_one_attempt() {
        let calls = AtomicU32::new(0);
        let out = catch(|| {
            calls.fetch_add(1, Ordering::Relaxed);
            42u64
        });
        assert_eq!(
            out,
            CellOutcome::Ok {
                value: 42,
                restored: false
            }
        );
        assert_eq!(out.value(), Some(&42));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn persistent_panic_degrades_to_failed_with_diag() {
        let calls = AtomicU32::new(0);
        let out: CellOutcome<u64> = catch(|| {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("cell poisoned at cycle {}", 99)
        });
        match &out {
            CellOutcome::Failed { diag } => assert!(diag.contains("cell poisoned at cycle 99")),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1, "a failed cell runs once");
        assert!(out.value().is_none());
        assert!(out.diag().unwrap().contains("poisoned"));
    }

    #[test]
    fn nothing_is_slept_after_the_last_attempt() {
        let started = std::time::Instant::now();
        let out: CellOutcome<u64> = catch(|| panic!("poisoned"));
        assert!(!out.is_ok());
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    }
}
