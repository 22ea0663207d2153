//! Mutation tests for the protocol model checker: seed a deliberate bug
//! into a known-good transition table and require the explorer to flag
//! it. A checker that passes a broken table is worse than no checker —
//! these tests are the checker's own regression harness.

use bsim_check::proto::{explore, svc_protocol, Ev, ProtocolSpec};

/// The svc table with every rule of role `role` that `drop` picks removed.
fn svc_without(role: usize, drop: impl Fn(&str, Ev) -> bool) -> ProtocolSpec {
    let mut spec = svc_protocol();
    spec.roles[role].rules.retain(|r| !drop(r.state, r.on));
    spec
}

#[test]
fn baseline_tables_explore_clean() {
    let explored = explore(&svc_protocol());
    assert!(
        explored.report.is_clean(),
        "unmutated svc table must be clean:\n{}",
        explored.report.render()
    );
}

#[test]
fn a_daemon_that_cannot_read_eof_after_a_response_is_caught() {
    // Remove the daemon's `read --Eof--> closed` rule. After a response
    // the daemon is back in `read` on a kept connection, and a client
    // that then closes it is an EOF the daemon has no transition for
    // (PV006).
    let spec = svc_without(1, |state, on| state == "read" && on == Ev::Eof);
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV006"),
        "expected PV006 for the dropped EOF handler:\n{}",
        explored.report.render()
    );
}

#[test]
fn a_client_that_cannot_read_busy_is_caught() {
    // Remove the client's `await --Recv(Busy)--> connect` rule: a daemon
    // at capacity now sheds with a message the waiting client has no
    // transition for. The explorer must flag the unhandled message.
    let spec = svc_without(0, |state, on| state == "await" && on == Ev::Recv("Busy"));
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV002"),
        "expected PV002 for the dropped Busy handler:\n{}",
        explored.report.render()
    );
}

#[test]
fn a_daemon_that_cannot_refuse_a_bad_request_is_caught() {
    // Same mutation on the other role: a malformed request line must
    // always have a daemon transition, or a bad client wedges its
    // connection instead of getting its refusal.
    let spec = svc_without(1, |state, on| state == "read" && on == Ev::Recv("Bad"));
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV002"),
        "expected PV002 for the dropped Bad handler:\n{}",
        explored.report.render()
    );
}

#[test]
fn a_connection_that_can_never_close_is_caught() {
    // Remove every way out of the client's ready state: its `close` and
    // its `Eof` exits. Exchanges can still go round forever, but no
    // fault-free run reaches a quiesced joint state (PV004).
    let spec = svc_without(0, |state, on| {
        state == "connect" && (on == Ev::Local("close") || on == Ev::Eof)
    });
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV004"),
        "expected PV004 when the connection cannot close:\n{}",
        explored.report.render()
    );
}
