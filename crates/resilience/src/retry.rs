//! Per-cell retry with backoff.
//!
//! Long sweeps run dozens of independent cells; one poisoned cell (a
//! model panic, a watchdog trip) should not abort the figure. A
//! [`RetryPolicy`] re-runs a failing cell a bounded number of times,
//! sleeping the [`Backoff`] schedule between attempts, and the sweep
//! records a [`CellOutcome`] row — either the value or a typed
//! [`CellOutcome::Failed`] diagnostic — instead of unwinding.

use crate::guard::Backoff;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Bounded retry; the host-time sleeps between attempts are a
/// [`Backoff`] schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` means no retry.
    pub max_attempts: u32,
    /// Sleep after failed attempt `n` (1-based) is `backoff.delay_ms(n - 1)`;
    /// nothing is slept after the last attempt.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    /// Three attempts on the default [`Backoff`] (25–50 ms, then
    /// 50–100 ms) — enough to ride out transient host contention without
    /// stretching a sweep.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::new(0),
        }
    }
}

impl RetryPolicy {
    /// A single attempt: a panic is caught and diagnosed, never retried.
    pub fn once() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Run `cell`, retrying on panic. Panics are contained with
    /// `catch_unwind` and rendered into the failure diagnostic; the
    /// value and the number of attempts used are returned on success.
    ///
    /// The closure must be re-runnable from scratch — cells in this
    /// workspace rebuild their whole `Soc`/`MpiWorld` per call, so a
    /// retry observes no state from the failed attempt.
    pub fn run<T>(&self, mut cell: impl FnMut() -> T) -> CellOutcome<T> {
        let attempts = self.max_attempts.max(1);
        let mut last_diag = String::new();
        for attempt in 1..=attempts {
            match catch_unwind(AssertUnwindSafe(&mut cell)) {
                Ok(value) => {
                    return CellOutcome::Ok {
                        value,
                        attempts: attempt,
                    }
                }
                Err(payload) => {
                    last_diag = panic_message(payload.as_ref());
                    if attempt < attempts {
                        let ms = self.backoff.delay_ms(attempt - 1);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        CellOutcome::Failed {
            diag: last_diag,
            attempts,
        }
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
    /// The cell produced a value (possibly after retries).
    Ok {
        /// The cell's result.
        value: T,
        /// Attempts consumed, `1` = first try succeeded.
        attempts: u32,
    },
    /// Every attempt failed; the sweep degrades instead of aborting.
    Failed {
        /// Diagnostic from the last attempt (panic message or stall
        /// report rendering).
        diag: String,
        /// Attempts consumed.
        attempts: u32,
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
            CellOutcome::Failed { diag, .. } => Some(diag),
            CellOutcome::Ok { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// `attempts` tries, 1 ms apart.
    fn quick(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            backoff: Backoff {
                base_ms: 1,
                cap_ms: 1,
                ..Backoff::new(0)
            },
        }
    }

    #[test]
    fn first_try_success_uses_one_attempt() {
        let out = RetryPolicy::default().run(|| 42u64);
        assert_eq!(
            out,
            CellOutcome::Ok {
                value: 42,
                attempts: 1
            }
        );
        assert_eq!(out.value(), Some(&42));
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let calls = AtomicU32::new(0);
        let out = quick(3).run(|| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient host hiccup");
            }
            7u64
        });
        assert_eq!(
            out,
            CellOutcome::Ok {
                value: 7,
                attempts: 3
            }
        );
    }

    #[test]
    fn persistent_panic_degrades_to_failed_with_diag() {
        let out: CellOutcome<u64> = quick(2).run(|| panic!("cell poisoned at cycle {}", 99));
        match &out {
            CellOutcome::Failed { diag, attempts } => {
                assert_eq!(*attempts, 2);
                assert!(diag.contains("cell poisoned at cycle 99"));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(out.value().is_none());
        assert!(out.diag().unwrap().contains("poisoned"));
    }

    #[test]
    fn nothing_is_slept_after_the_last_attempt() {
        let policy = RetryPolicy {
            max_attempts: 1,
            backoff: Backoff {
                base_ms: 600_000,
                cap_ms: 600_000,
                ..Backoff::new(0)
            },
        };
        let started = std::time::Instant::now();
        let out: CellOutcome<u64> = policy.run(|| panic!("poisoned"));
        assert!(!out.is_ok());
        assert!(started.elapsed() < Duration::from_secs(60));
    }
}
