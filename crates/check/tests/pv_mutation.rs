//! Mutation tests for the protocol model checker: seed a deliberate bug
//! into a known-good transition table and require the explorer to flag
//! it. A checker that passes a broken table is worse than no checker —
//! these tests are the checker's own regression harness.

use bsim_check::proto::{dist_protocol, explore, svc_protocol, Ev};

#[test]
fn baseline_tables_explore_clean() {
    let explored = explore(&dist_protocol());
    assert!(
        explored.report.is_clean(),
        "unmutated dist table must be clean:\n{}",
        explored.report.render()
    );
}

#[test]
fn a_daemon_that_cannot_read_eof_after_a_response_is_caught() {
    // Remove the daemon's `read --Eof--> closed` rule. After a response
    // the daemon is back in `read` on a kept connection, and a client
    // that then closes it is an EOF the daemon has no transition for
    // (PV006).
    let mut spec = svc_protocol();
    spec.roles[1]
        .rules
        .retain(|r| !(r.state == "read" && r.on == Ev::Eof));
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV006"),
        "expected PV006 for the dropped EOF handler:\n{}",
        explored.report.render()
    );
}

#[test]
fn dropping_the_done_handler_is_caught() {
    // Remove the coordinator's `collecting --Done--> closed` rule: a
    // worker that finishes its plan now sends a frame the coordinator
    // has no transition for. The explorer must flag the unhandled
    // message (PV002) — and losing the only clean-completion path also
    // strands the joint state space short of quiescence (PV004).
    let mut spec = dist_protocol();
    spec.roles[1]
        .rules
        .retain(|r| !(r.state == "collecting" && r.on == Ev::Recv("Done")));
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV002"),
        "expected PV002 for the dropped Done handler:\n{}",
        explored.report.render()
    );
}

#[test]
fn dropping_the_err_handler_is_caught() {
    // Same mutation for the failure path: a worker's `Err` frame must
    // always have a coordinator transition, or a failing worker wedges
    // its connection instead of surfacing the failure.
    let mut spec = dist_protocol();
    spec.roles[1]
        .rules
        .retain(|r| !(r.state == "collecting" && r.on == Ev::Recv("Err")));
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV002"),
        "expected PV002 for the dropped Err handler:\n{}",
        explored.report.render()
    );
}

#[test]
fn a_worker_that_can_never_finish_is_caught() {
    // Remove the worker's `done` and `error` moves: the executing state
    // can still stream cells forever but has no way to complete, so no
    // fault-free run reaches a quiesced joint state (PV004).
    let mut spec = dist_protocol();
    spec.roles[0]
        .rules
        .retain(|r| !(r.on == Ev::Local("done") || r.on == Ev::Local("error")));
    let explored = explore(&spec);
    assert!(
        explored.report.has_code("PV004"),
        "expected PV004 when the worker cannot complete:\n{}",
        explored.report.render()
    );
}
