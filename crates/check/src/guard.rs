//! `GD0xx` — overload-protection ("guard") configuration lints.
//!
//! The bsim-guard admission controller (svc daemon connection pool, job
//! queue cap, request deadlines) is only protective when it is actually
//! switched on: a pool of zero workers deadlocks every client, and a
//! zero deadline rejects every request. Each of those is a
//! *configuration* bug — decidable before the daemon accepts a byte — so
//! they are lints, not runtime errors.
//!
//! The daemon builds a [`GuardSpec`] from its `DaemonConfig` and runs
//! [`guard_lints`] as part of its spawn preflight; `bsim check --list`
//! enumerates the codes.
//!
//! | Code | Severity | Meaning |
//! |---|---|---|
//! | GD001 | error | connection pool has zero workers or zero backlog (unbounded or wedged) |
//! | GD002 | error | request deadline is configured but zero — every request expires on arrival |

use crate::diag::Diagnostic;
use crate::lint::LintRegistry;

/// The guard-relevant slice of the daemon configuration, decoupled from
/// `DaemonConfig` so this crate needs no dependency on svc.
#[derive(Clone, Debug)]
pub struct GuardSpec {
    /// Connection pool threads draining the accept backlog.
    pub conn_workers: usize,
    /// Bounded accepted-connection backlog (shed beyond this).
    pub conn_backlog: usize,
    /// Job queue admission cap (shed beyond this).
    pub queue_cap: usize,
    /// Per-request deadline in ms; `None` means "no deadline" (legal),
    /// `Some(0)` means every request is born expired (GD002).
    pub deadline_ms: Option<u64>,
}

/// The GD-series registry. Codes stay stable; `bsim check --list`
/// renders `codes()`.
pub fn guard_lints() -> LintRegistry<GuardSpec> {
    LintRegistry::new()
        .rule(
            "GD001",
            "connection pool must be bounded and non-empty",
            |g: &GuardSpec, span, out| {
                if g.conn_workers == 0 {
                    out.push(
                        Diagnostic::error(
                            "GD001",
                            span,
                            "conn_workers is 0: no thread ever drains the accept backlog",
                        )
                        .with_help("set conn_workers >= 1 (default 8)"),
                    );
                }
                if g.conn_backlog == 0 {
                    out.push(
                        Diagnostic::error(
                            "GD001",
                            span,
                            "conn_backlog is 0: every connection is shed before a byte is read",
                        )
                        .with_help("set conn_backlog >= conn_workers"),
                    );
                }
                if g.queue_cap == 0 {
                    out.push(
                        Diagnostic::error(
                            "GD001",
                            span,
                            "queue_cap is 0: every well-formed submit is shed with 429",
                        )
                        .with_help("set queue_cap >= 1 (default 64)"),
                    );
                }
            },
        )
        .rule(
            "GD002",
            "a configured deadline must be nonzero",
            |g: &GuardSpec, span, out| {
                if g.deadline_ms == Some(0) {
                    out.push(
                        Diagnostic::error(
                            "GD002",
                            span,
                            "deadline is 0 ms: every request expires before its first cell",
                        )
                        .with_help("drop the deadline entirely or give work time to finish"),
                    );
                }
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane() -> GuardSpec {
        GuardSpec {
            conn_workers: 8,
            conn_backlog: 32,
            queue_cap: 64,
            deadline_ms: Some(30_000),
        }
    }

    #[test]
    fn a_sane_guard_config_is_clean() {
        assert!(guard_lints().run(&sane(), "daemon").is_clean());
        // No deadline at all is a legal (if unguarded) choice.
        let mut g = sane();
        g.deadline_ms = None;
        assert!(guard_lints().run(&g, "daemon").is_clean());
    }

    #[test]
    fn unbounded_or_wedged_pools_are_gd001_errors() {
        for mutate in [
            (|g: &mut GuardSpec| g.conn_workers = 0) as fn(&mut GuardSpec),
            |g| g.conn_backlog = 0,
            |g| g.queue_cap = 0,
        ] {
            let mut g = sane();
            mutate(&mut g);
            let r = guard_lints().run(&g, "daemon");
            assert!(r.has_code("GD001") && r.has_errors(), "{r}");
        }
    }

    #[test]
    fn a_zero_deadline_is_a_gd002_error() {
        let mut g = sane();
        g.deadline_ms = Some(0);
        let r = guard_lints().run(&g, "daemon");
        assert!(r.has_code("GD002") && r.has_errors(), "{r}");
    }
}
