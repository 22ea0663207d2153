//! PV-series protocol model checking.
//!
//! The svc HTTP-lite exchange is encoded here as an explicit typed
//! transition table ([`ProtocolSpec`]). The runtime code in `bsim-svc`
//! *drives* this table through a [`Tracker`] — every message received and
//! every response chosen is first checked against the table, so the model
//! and the implementation cannot drift: an implementation move the table
//! does not allow surfaces as a [`Violation`] at runtime, and a table hole
//! surfaces as a PV diagnostic at `bsim check --proto` time.
//!
//! [`explore`] exhaustively enumerates the *joint* state space of the two
//! roles (states × liveness × bounded in-flight message queues) with a DFS in
//! the spirit of the mini-loom engine, both fault-free and under clean-EOF,
//! torn-frame, and process-kill events — a role entering a terminal state
//! closes its end, so its peer reads a clean EOF — and checks:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | PV001 | warning  | a declared role state is unreachable in the joint exploration |
//! | PV002 | error    | a message can arrive in a reachable state with no transition for it |
//! | PV003 | error    | a reachable joint state has no enabled move and is not quiescent (deadlock) |
//! | PV004 | error    | a fault-free reachable state has no path to quiescence (livelock / lost progress) |
//! | PV005 | error    | the transition table itself is malformed (unknown states, duplicate rules) |
//! | PV006 | error    | clean EOF or a torn frame is unhandled in a reachable non-terminal state |
//! | PV007 | error    | the state-space bound was exceeded (table under-constrained) |

use crate::diag::{Diagnostic, Report};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// Bound on in-flight messages per direction. Sends that would overflow the
/// peer's inbox are disabled (back-pressure), which keeps the joint state
/// space finite even for tables with send loops.
const QUEUE_CAP: usize = 3;

/// Hard bound on explored joint states; real tables here sit far below it.
const MAX_STATES: usize = 1 << 20;

/// Trigger of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ev {
    /// A message received from the peer (wire frame or HTTP-lite message).
    Recv(&'static str),
    /// A local decision by this role (request chosen, result ready, ...).
    Local(&'static str),
    /// The peer's connection closed cleanly between frames.
    Eof,
    /// The peer's connection died mid-frame (torn frame / reset).
    Torn,
}

impl fmt::Display for Ev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ev::Recv(m) => write!(f, "Recv({m})"),
            Ev::Local(t) => write!(f, "Local({t})"),
            Ev::Eof => write!(f, "Eof"),
            Ev::Torn => write!(f, "Torn"),
        }
    }
}

/// One row of a role's transition table.
#[derive(Debug, Clone)]
pub struct TransitionRule {
    /// Source state.
    pub state: &'static str,
    /// Triggering event.
    pub on: Ev,
    /// Destination state.
    pub next: &'static str,
    /// Message emitted to the peer when the transition fires, if any.
    pub send: Option<&'static str>,
}

/// One side of a two-party protocol.
#[derive(Debug, Clone)]
pub struct RoleSpec {
    pub name: &'static str,
    pub start: &'static str,
    pub states: Vec<&'static str>,
    /// States in which the role considers the connection finished. Clean
    /// EOF and torn frames are silently absorbed in terminal states (the
    /// socket is being torn down anyway), and a role that enters one has
    /// closed its end: [`explore`] has the peer read a clean EOF after
    /// whatever was already sent.
    pub terminal: Vec<&'static str>,
    pub rules: Vec<TransitionRule>,
}

/// A two-party protocol: exactly two roles exchanging messages over one
/// connection.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    pub name: &'static str,
    pub roles: [RoleSpec; 2],
}

fn t(state: &'static str, on: Ev, next: &'static str) -> TransitionRule {
    TransitionRule {
        state,
        on,
        next,
        send: None,
    }
}

fn ts(state: &'static str, on: Ev, next: &'static str, send: &'static str) -> TransitionRule {
    TransitionRule {
        state,
        on,
        next,
        send: Some(send),
    }
}

/// The svc HTTP-lite exchange: a connection carries any number of
/// request/response exchanges, one at a time.
///
/// Message names are abstract: `Submit`/`Status`/`Fetch`/`Metrics`/
/// `Shutdown`/`Bad` classify the request line (see `Request::event` in
/// `bsim-svc`), and `Ok`/`Busy`/`Reject` classify the response status
/// (2xx / 429-and-503 / everything else). After a response both roles
/// are back in their ready state, the client in `connect` and the daemon
/// in `read`. The client ends the connection between exchanges
/// (`Local(close)`), which the daemon reads as a clean EOF in `read`; a
/// connection lost between exchanges is `closed`, one lost inside an
/// exchange or torn anywhere is `lost`. The `shed` locals model the
/// bsim-guard admission controller: any post-read state may answer
/// Busy when the daemon is at capacity, and clients treat Busy as a
/// clean answer (retry later), never a protocol error.
///
/// The daemon's own closes have no row. Accept-level shedding (backlog
/// full) happens before a request byte is read, and a kept connection
/// is closed — by the idle bound, or after an answer that said
/// `Connection: close` — before a byte of the next request is read. To
/// the client both are the peer going away in `connect`, the shape of
/// the kill events [`explore`] injects everywhere.
pub fn svc_protocol() -> ProtocolSpec {
    let client = RoleSpec {
        name: "client",
        start: "connect",
        states: vec!["connect", "await", "closed", "lost"],
        terminal: vec!["closed", "lost"],
        rules: vec![
            ts("connect", Ev::Local("submit"), "await", "Submit"),
            ts("connect", Ev::Local("status"), "await", "Status"),
            ts("connect", Ev::Local("fetch"), "await", "Fetch"),
            ts("connect", Ev::Local("metrics"), "await", "Metrics"),
            ts("connect", Ev::Local("shutdown"), "await", "Shutdown"),
            ts("connect", Ev::Local("bad"), "await", "Bad"),
            t("connect", Ev::Local("close"), "closed"),
            t("connect", Ev::Eof, "closed"),
            t("connect", Ev::Torn, "lost"),
            t("await", Ev::Recv("Ok"), "connect"),
            t("await", Ev::Recv("Busy"), "connect"),
            t("await", Ev::Recv("Reject"), "connect"),
            t("await", Ev::Eof, "lost"),
            t("await", Ev::Torn, "lost"),
        ],
    };
    let daemon = RoleSpec {
        name: "daemon",
        start: "read",
        states: vec!["read", "submitted", "queried", "admin", "closed", "lost"],
        terminal: vec!["closed", "lost"],
        rules: vec![
            t("read", Ev::Recv("Submit"), "submitted"),
            t("read", Ev::Recv("Status"), "queried"),
            t("read", Ev::Recv("Fetch"), "queried"),
            t("read", Ev::Recv("Metrics"), "queried"),
            t("read", Ev::Recv("Shutdown"), "admin"),
            ts("read", Ev::Recv("Bad"), "read", "Reject"),
            t("read", Ev::Eof, "closed"),
            t("read", Ev::Torn, "lost"),
            ts("submitted", Ev::Local("accept"), "read", "Ok"),
            ts("submitted", Ev::Local("reject"), "read", "Reject"),
            ts("submitted", Ev::Local("busy"), "read", "Busy"),
            t("submitted", Ev::Eof, "lost"),
            t("submitted", Ev::Torn, "lost"),
            ts("queried", Ev::Local("found"), "read", "Ok"),
            ts("queried", Ev::Local("missing"), "read", "Reject"),
            ts("queried", Ev::Local("shed"), "read", "Busy"),
            t("queried", Ev::Eof, "lost"),
            t("queried", Ev::Torn, "lost"),
            ts("admin", Ev::Local("ack"), "read", "Ok"),
            ts("admin", Ev::Local("shed"), "read", "Busy"),
            t("admin", Ev::Eof, "lost"),
            t("admin", Ev::Torn, "lost"),
        ],
    };
    ProtocolSpec {
        name: "svc",
        roles: [client, daemon],
    }
}

/// Cached svc table for runtime trackers.
pub fn svc_cached() -> &'static ProtocolSpec {
    static SPEC: OnceLock<ProtocolSpec> = OnceLock::new();
    SPEC.get_or_init(svc_protocol)
}

impl RoleSpec {
    fn has_state(&self, s: &str) -> bool {
        self.states.contains(&s)
    }

    fn is_terminal(&self, s: &str) -> bool {
        self.terminal.contains(&s)
    }
}

impl ProtocolSpec {
    /// All message names appearing anywhere in the table (received or sent).
    pub fn alphabet(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for role in &self.roles {
            for r in &role.rules {
                if let Ev::Recv(m) = r.on {
                    if !out.contains(&m) {
                        out.push(m);
                    }
                }
                if let Some(m) = r.send {
                    if !out.contains(&m) {
                        out.push(m);
                    }
                }
            }
        }
        out
    }

    /// Structural well-formedness (PV005): known states everywhere, no
    /// duplicate `(state, event)` rows, a start state, at least one terminal.
    pub fn validate(&self) -> Report {
        let mut report = Report::new();
        let span = format!("proto.{}", self.name);
        for role in &self.roles {
            if role.states.is_empty() {
                report.push(Diagnostic::error(
                    "PV005",
                    span.clone(),
                    format!("role `{}` declares no states", role.name),
                ));
                continue;
            }
            if !role.has_state(role.start) {
                report.push(Diagnostic::error(
                    "PV005",
                    span.clone(),
                    format!(
                        "role `{}` start state `{}` is not in its state list",
                        role.name, role.start
                    ),
                ));
            }
            if role.terminal.is_empty() {
                report.push(Diagnostic::error(
                    "PV005",
                    span.clone(),
                    format!("role `{}` declares no terminal states", role.name),
                ));
            }
            for s in &role.terminal {
                if !role.has_state(s) {
                    report.push(Diagnostic::error(
                        "PV005",
                        span.clone(),
                        format!("role `{}` terminal state `{s}` is unknown", role.name),
                    ));
                }
            }
            let mut seen: HashSet<(&str, Ev)> = HashSet::new();
            for r in &role.rules {
                for (which, s) in [("source", r.state), ("destination", r.next)] {
                    if !role.has_state(s) {
                        report.push(Diagnostic::error(
                            "PV005",
                            span.clone(),
                            format!(
                                "role `{}` rule `{} --{}-> {}` names unknown {which} state `{s}`",
                                role.name, r.state, r.on, r.next
                            ),
                        ));
                    }
                }
                if !seen.insert((r.state, r.on)) {
                    report.push(
                        Diagnostic::error(
                            "PV005",
                            span.clone(),
                            format!(
                                "role `{}` has duplicate rules for state `{}` on {}",
                                role.name, r.state, r.on
                            ),
                        )
                        .with_help("transition tables must be deterministic per (state, event)"),
                    );
                }
            }
        }
        report
    }
}

/// A table/implementation drift observed at runtime: the implementation
/// attempted a move the transition table does not allow.
#[derive(Debug, Clone)]
pub struct Violation {
    pub protocol: &'static str,
    pub role: &'static str,
    pub state: &'static str,
    pub ev: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol violation ({}): role `{}` in state `{}` cannot handle {}",
            self.protocol, self.role, self.state, self.ev
        )
    }
}

impl std::error::Error for Violation {}

/// Runtime driver: holds one role's current state and advances it through
/// table transitions. The runtime code calls [`Tracker::recv`] for every
/// frame read off the wire and [`Tracker::local`] for every decision it
/// makes; an `Err(Violation)` means the move is not in the table and the
/// implementation must treat the input as a protocol error.
#[derive(Debug, Clone)]
pub struct Tracker<'a> {
    spec: &'a ProtocolSpec,
    role: usize,
    state: &'static str,
}

impl<'a> Tracker<'a> {
    /// Start tracking `role` (by name) at its start state. Returns `None` if
    /// the protocol has no such role.
    pub fn new(spec: &'a ProtocolSpec, role: &str) -> Option<Tracker<'a>> {
        let idx = spec.roles.iter().position(|r| r.name == role)?;
        Some(Tracker {
            spec,
            role: idx,
            state: spec.roles[idx].start,
        })
    }

    pub fn state(&self) -> &'static str {
        self.state
    }

    fn step(
        &mut self,
        matches: impl Fn(&Ev) -> bool,
        desc: String,
    ) -> Result<Option<&'static str>, Violation> {
        let role = &self.spec.roles[self.role];
        for r in &role.rules {
            if r.state == self.state && matches(&r.on) {
                self.state = r.next;
                return Ok(r.send);
            }
        }
        // Terminal states absorb teardown events: the connection is being
        // closed on purpose, a racing EOF is not a protocol error.
        if role.is_terminal(self.state) && (desc == "Eof" || desc == "Torn") {
            return Ok(None);
        }
        Err(Violation {
            protocol: self.spec.name,
            role: role.name,
            state: self.state,
            ev: desc,
        })
    }

    /// A message arrived from the peer. On success returns the message this
    /// role must now emit, if the transition sends one.
    pub fn recv(&mut self, msg: &str) -> Result<Option<&'static str>, Violation> {
        self.step(
            |e| matches!(e, Ev::Recv(m) if *m == msg),
            format!("Recv({msg})"),
        )
    }

    /// The role made a local decision (chose a request, produced a result).
    pub fn local(&mut self, tag: &str) -> Result<Option<&'static str>, Violation> {
        self.step(
            |e| matches!(e, Ev::Local(t) if *t == tag),
            format!("Local({tag})"),
        )
    }

    /// The peer closed the connection cleanly between frames.
    pub fn eof(&mut self) -> Result<Option<&'static str>, Violation> {
        self.step(|e| matches!(e, Ev::Eof), "Eof".to_string())
    }

    /// The peer's connection died mid-frame.
    pub fn torn(&mut self) -> Result<Option<&'static str>, Violation> {
        self.step(|e| matches!(e, Ev::Torn), "Torn".to_string())
    }
}

// ---------------------------------------------------------------------------
// Exhaustive joint exploration
// ---------------------------------------------------------------------------

/// Result of [`explore`]: the merged report plus state-space statistics from
/// the full (fault-injecting) pass.
#[derive(Debug)]
pub struct Explored {
    pub report: Report,
    /// Distinct joint states reached with faults enabled.
    pub states: usize,
    /// Transitions taken between distinct joint states.
    pub transitions: usize,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Item {
    Msg(u8),
    Eof,
    Torn,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Joint {
    state: [u8; 2],
    alive: [bool; 2],
    q: [Vec<Item>; 2],
}

enum CEv {
    Recv(u8),
    Local,
    Eof,
    Torn,
}

struct CRule {
    on: CEv,
    next: u8,
    send: Option<u8>,
}

struct CRole {
    start: u8,
    terminal: Vec<bool>,
    /// rules grouped per source state, in declaration order
    rules: Vec<Vec<CRule>>,
}

struct Compiled<'a> {
    spec: &'a ProtocolSpec,
    alphabet: Vec<&'static str>,
    roles: [CRole; 2],
}

fn compile(spec: &ProtocolSpec) -> Compiled<'_> {
    let alphabet = spec.alphabet();
    let midx = |m: &str| alphabet.iter().position(|a| *a == m).unwrap_or(0) as u8;
    let roles = [0, 1].map(|i| {
        let role = &spec.roles[i];
        let sidx = |s: &str| role.states.iter().position(|x| *x == s).unwrap_or(0) as u8;
        let mut rules: Vec<Vec<CRule>> = (0..role.states.len()).map(|_| Vec::new()).collect();
        for r in &role.rules {
            let on = match r.on {
                Ev::Recv(m) => CEv::Recv(midx(m)),
                Ev::Local(_) => CEv::Local,
                Ev::Eof => CEv::Eof,
                Ev::Torn => CEv::Torn,
            };
            rules[sidx(r.state) as usize].push(CRule {
                on,
                next: sidx(r.next),
                send: r.send.map(&midx),
            });
        }
        CRole {
            start: sidx(role.start),
            terminal: role.states.iter().map(|s| role.is_terminal(s)).collect(),
            rules,
        }
    });
    Compiled {
        spec,
        alphabet,
        roles,
    }
}

impl Compiled<'_> {
    fn describe(&self, j: &Joint) -> String {
        let mut out = String::new();
        for i in 0..2 {
            let role = &self.spec.roles[i];
            if i > 0 {
                out.push(' ');
            }
            if j.alive[i] {
                out.push_str(&format!(
                    "{}={}",
                    role.name, role.states[j.state[i] as usize]
                ));
            } else {
                out.push_str(&format!("{}=<dead>", role.name));
            }
            let items: Vec<String> = j.q[i]
                .iter()
                .map(|it| match it {
                    Item::Msg(m) => self.alphabet[*m as usize].to_string(),
                    Item::Eof => "EOF".to_string(),
                    Item::Torn => "TORN".to_string(),
                })
                .collect();
            out.push_str(&format!(" inbox[{}]", items.join(",")));
        }
        out
    }

    fn quiesced(&self, j: &Joint) -> bool {
        (0..2).all(|i| {
            !j.alive[i] || (self.roles[i].terminal[j.state[i] as usize] && j.q[i].is_empty())
        })
    }

    /// Fires rule `r` of role `i` in `n`: the role moves, what it sends
    /// joins a live peer's inbox, and a role that enters a terminal state
    /// closes its end, so the peer then reads a clean EOF.
    fn fire(&self, n: &mut Joint, i: usize, r: &CRule) {
        let role = &self.roles[i];
        let closes = !role.terminal[n.state[i] as usize] && role.terminal[r.next as usize];
        n.state[i] = r.next;
        let peer = 1 - i;
        if n.alive[peer] {
            if let Some(msg) = r.send {
                n.q[peer].push(Item::Msg(msg));
            }
            if closes {
                n.q[peer].push(Item::Eof);
            }
        }
    }
}

/// Diagnostics deduplication shared across the fault-free and full passes.
#[derive(Default)]
struct Dedup {
    pv002: HashSet<(usize, u8, u8)>,
    pv006: HashSet<(usize, u8, bool)>,
}

struct PassOut {
    states: usize,
    transitions: usize,
    /// Role states visited by live roles anywhere in the exploration.
    seen: [HashSet<u8>; 2],
}

/// Breadth-first enumeration of the joint state space. Successor generation
/// order is fully deterministic (role order, then rule declaration order), so
/// diagnostic order is stable run-to-run.
fn run_pass(c: &Compiled<'_>, faults: bool, dedup: &mut Dedup, report: &mut Report) -> PassOut {
    let span = format!("proto.{}", c.spec.name);
    let start = Joint {
        state: [c.roles[0].start, c.roles[1].start],
        alive: [true, true],
        q: [Vec::new(), Vec::new()],
    };
    let mut index: HashMap<Joint, usize> = HashMap::new();
    let mut states: Vec<Joint> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    index.insert(start.clone(), 0);
    states.push(start);
    edges.push(Vec::new());
    let mut transitions = 0usize;
    let mut deadlocks: Vec<usize> = Vec::new();
    let mut head = 0usize;
    let mut truncated = false;
    let mut seen: [HashSet<u8>; 2] = [HashSet::new(), HashSet::new()];

    while head < states.len() {
        let j = states[head].clone();
        for (i, role_seen) in seen.iter_mut().enumerate() {
            if j.alive[i] {
                role_seen.insert(j.state[i]);
            }
        }
        let mut succs: Vec<Joint> = Vec::new();

        // Delivery moves: pop the head of each live role's inbox.
        for i in 0..2 {
            if !j.alive[i] || j.q[i].is_empty() {
                continue;
            }
            let peer = 1 - i;
            let item = j.q[i][0].clone();
            let si = j.state[i];
            let role = &c.roles[i];
            match item {
                Item::Msg(m) => {
                    let rule = role.rules[si as usize]
                        .iter()
                        .find(|r| matches!(r.on, CEv::Recv(x) if x == m));
                    if let Some(r) = rule {
                        // Sends triggered by delivery respect the peer's
                        // inbox bound; full inbox disables the move.
                        let room =
                            r.send.is_none() || !j.alive[peer] || j.q[peer].len() < QUEUE_CAP;
                        if room {
                            let mut n = j.clone();
                            n.q[i].remove(0);
                            c.fire(&mut n, i, r);
                            succs.push(n);
                        }
                    } else {
                        if dedup.pv002.insert((i, si, m)) {
                            report.push(
                                Diagnostic::error(
                                    "PV002",
                                    span.clone(),
                                    format!(
                                        "role `{}`: message `{}` is unhandled in reachable state `{}`",
                                        c.spec.roles[i].name,
                                        c.alphabet[m as usize],
                                        c.spec.roles[i].states[si as usize]
                                    ),
                                )
                                .with_help(
                                    "add a transition for it or stop the peer from sending it here",
                                ),
                            );
                        }
                        // Consume-and-stay so exploration continues past the
                        // hole and can surface further problems.
                        let mut n = j.clone();
                        n.q[i].remove(0);
                        succs.push(n);
                    }
                }
                Item::Eof | Item::Torn => {
                    let torn = matches!(item, Item::Torn);
                    let rule = role.rules[si as usize]
                        .iter()
                        .find(|r| matches!((&r.on, torn), (CEv::Eof, false) | (CEv::Torn, true)));
                    if let Some(r) = rule {
                        let mut n = j.clone();
                        n.q[i].remove(0);
                        c.fire(&mut n, i, r);
                        succs.push(n);
                    } else if role.terminal[si as usize] {
                        // Teardown events are absorbed in terminal states.
                        let mut n = j.clone();
                        n.q[i].remove(0);
                        succs.push(n);
                    } else {
                        if dedup.pv006.insert((i, si, torn)) {
                            report.push(
                                Diagnostic::error(
                                    "PV006",
                                    span.clone(),
                                    format!(
                                        "role `{}`: {} is unhandled in reachable non-terminal state `{}`",
                                        c.spec.roles[i].name,
                                        if torn { "a torn frame" } else { "clean EOF" },
                                        c.spec.roles[i].states[si as usize]
                                    ),
                                )
                                .with_help("peer loss must be handled everywhere the role blocks on the wire"),
                            );
                        }
                        let mut n = j.clone();
                        n.q[i].remove(0);
                        succs.push(n);
                    }
                }
            }
        }

        // Local moves: any local rule of a live role, send-gated by the
        // peer's inbox bound.
        for i in 0..2 {
            if !j.alive[i] {
                continue;
            }
            let peer = 1 - i;
            for r in &c.roles[i].rules[j.state[i] as usize] {
                if !matches!(r.on, CEv::Local) {
                    continue;
                }
                let room = r.send.is_none() || !j.alive[peer] || j.q[peer].len() < QUEUE_CAP;
                if !room {
                    continue;
                }
                let mut n = j.clone();
                c.fire(&mut n, i, r);
                succs.push(n);
            }
        }

        // Fault moves: kill a live role; the peer observes either clean EOF
        // (process exited, socket flushed) or a torn frame (SIGKILL mid-write).
        if faults {
            for i in 0..2 {
                if !j.alive[i] {
                    continue;
                }
                let peer = 1 - i;
                for torn in [false, true] {
                    let mut n = j.clone();
                    n.alive[i] = false;
                    n.q[i].clear();
                    if n.alive[peer] {
                        n.q[peer].push(if torn { Item::Torn } else { Item::Eof });
                    }
                    succs.push(n);
                }
            }
        }

        if succs.is_empty() && !c.quiesced(&j) {
            deadlocks.push(head);
        }

        for n in succs {
            let next_id = match index.get(&n) {
                Some(id) => *id,
                None => {
                    if states.len() >= MAX_STATES {
                        truncated = true;
                        continue;
                    }
                    let id = states.len();
                    index.insert(n.clone(), id);
                    states.push(n);
                    edges.push(Vec::new());
                    id
                }
            };
            transitions += 1;
            edges[head].push(next_id);
        }
        head += 1;
    }

    if truncated {
        report.push(
            Diagnostic::error(
                "PV007",
                span.clone(),
                format!(
                    "joint state space exceeded the {MAX_STATES}-state bound; the table is under-constrained"
                ),
            )
            .with_help("bound send loops or split the protocol into phases"),
        );
    }

    if let Some(&first) = deadlocks.first() {
        let mut d = Diagnostic::error(
            "PV003",
            span.clone(),
            format!(
                "protocol can deadlock{}: no move enabled in reachable state [{}]",
                if faults { " under faults" } else { "" },
                c.describe(&states[first])
            ),
        );
        if deadlocks.len() > 1 {
            d = d.with_help(format!(
                "{} further deadlocked states elided",
                deadlocks.len() - 1
            ));
        }
        report.push(d);
    }

    // PV004 (fault-free pass only): every reachable state must be able to
    // reach quiescence. Reverse BFS from the quiesced states.
    if !faults && !truncated {
        let quiesced: Vec<usize> = (0..states.len())
            .filter(|&i| c.quiesced(&states[i]))
            .collect();
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); states.len()];
        for (from, outs) in edges.iter().enumerate() {
            for &to in outs {
                rev[to].push(from);
            }
        }
        let mut ok = vec![false; states.len()];
        let mut bfs: VecDeque<usize> = VecDeque::new();
        for &q in &quiesced {
            if !ok[q] {
                ok[q] = true;
                bfs.push_back(q);
            }
        }
        while let Some(v) = bfs.pop_front() {
            for &p in &rev[v] {
                if !ok[p] {
                    ok[p] = true;
                    bfs.push_back(p);
                }
            }
        }
        if let Some(bad) = (0..states.len()).find(|&i| !ok[i]) {
            let stuck = (0..states.len()).filter(|&i| !ok[i]).count();
            report.push(
                Diagnostic::error(
                    "PV004",
                    span.clone(),
                    format!(
                        "no path to completion from reachable state [{}]",
                        c.describe(&states[bad])
                    ),
                )
                .with_help(format!(
                    "{stuck} of {} fault-free states cannot reach quiescence",
                    states.len()
                )),
            );
        }
    }

    PassOut {
        states: states.len(),
        transitions,
        seen,
    }
}

/// Exhaustively explore the joint state space of `spec`, fault-free first and
/// then with clean-EOF / torn-frame / process-kill events injected, and
/// report PV001–PV007.
pub fn explore(spec: &ProtocolSpec) -> Explored {
    let mut report = spec.validate();
    if report.has_errors() {
        return Explored {
            report,
            states: 0,
            transitions: 0,
        };
    }
    let c = compile(spec);
    let mut dedup = Dedup::default();
    // Fault-free pass: deadlock-freedom (PV003) and progress (PV004) on the
    // protocol's own moves.
    run_pass(&c, false, &mut dedup, &mut report);
    // Full pass: every state must also survive peer loss (PV002/PV006 under
    // kills, PV003 under faults).
    let full = run_pass(&c, true, &mut dedup, &mut report);

    // PV001: declared states never visited even with faults enabled.
    for i in 0..2 {
        let role = &spec.roles[i];
        for (si, name) in role.states.iter().enumerate() {
            if !full.seen[i].contains(&(si as u8)) {
                report.push(
                    Diagnostic::warning(
                        "PV001",
                        format!("proto.{}", spec.name),
                        format!("role `{}`: state `{name}` is unreachable", role.name),
                    )
                    .with_help("remove the state or add a transition that can reach it"),
                );
            }
        }
    }

    Explored {
        report,
        states: full.states,
        transitions: full.transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_tables_validate_clean() {
        assert!(
            svc_protocol().validate().is_clean(),
            "{}",
            svc_protocol().validate().render()
        );
    }

    #[test]
    fn builtin_tables_explore_clean() {
        let e = explore(&svc_protocol());
        assert!(e.report.is_clean(), "{}", e.report.render());
        assert!(e.states > 10, "explored only {} states", e.states);
        assert!(e.transitions > e.states, "exploration should branch");
    }

    #[test]
    fn tracker_drives_svc_submit_roundtrip() {
        // One tracker per side for the whole connection: a submit and a
        // fetch, then the client closes and the daemon reads a clean EOF.
        let spec = svc_cached();
        let mut client = Tracker::new(spec, "client").unwrap();
        let mut daemon = Tracker::new(spec, "daemon").unwrap();
        for (request, state, answer) in [
            ("submit", "submitted", "accept"),
            ("fetch", "queried", "found"),
        ] {
            let sent = client.local(request).unwrap().expect("client must send");
            assert!(daemon.recv(sent).unwrap().is_none());
            assert_eq!(daemon.state(), state);
            let resp = daemon.local(answer).unwrap().expect("daemon must respond");
            assert_eq!(resp, "Ok");
            assert_eq!(daemon.state(), "read");
            assert!(client.recv(resp).unwrap().is_none());
            assert_eq!(client.state(), "connect");
        }
        assert!(client.local("close").unwrap().is_none());
        assert_eq!(client.state(), "closed");
        assert!(daemon.eof().unwrap().is_none());
        assert_eq!(daemon.state(), "closed");
    }

    #[test]
    fn tracker_rejects_out_of_table_moves() {
        let spec = svc_cached();
        let mut daemon = Tracker::new(spec, "daemon").unwrap();
        let v = daemon.recv("Ok").unwrap_err();
        assert_eq!(v.role, "daemon");
        assert_eq!(v.state, "read");
        assert!(v.to_string().contains("Recv(Ok)"), "{v}");
        // state unchanged after a violation
        assert_eq!(daemon.state(), "read");
        // terminal states absorb teardown events
        let mut client = Tracker::new(spec, "client").unwrap();
        client.local("submit").unwrap();
        client.torn().unwrap();
        assert_eq!(client.state(), "lost");
        assert!(client.eof().unwrap().is_none());
    }

    #[test]
    fn unknown_role_is_none() {
        assert!(Tracker::new(svc_cached(), "nonesuch").is_none());
    }

    fn toy(rules0: Vec<TransitionRule>, rules1: Vec<TransitionRule>) -> ProtocolSpec {
        ProtocolSpec {
            name: "toy",
            roles: [
                RoleSpec {
                    name: "a",
                    start: "s",
                    states: vec!["s", "t"],
                    terminal: vec!["t"],
                    rules: rules0,
                },
                RoleSpec {
                    name: "b",
                    start: "s",
                    states: vec!["s", "t"],
                    terminal: vec!["t"],
                    rules: rules1,
                },
            ],
        }
    }

    #[test]
    fn validate_flags_duplicates_and_unknown_states() {
        let spec = toy(
            vec![t("s", Ev::Local("go"), "t"), t("s", Ev::Local("go"), "s")],
            vec![t("s", Ev::Local("go"), "zzz")],
        );
        let r = spec.validate();
        assert!(r.has_errors());
        assert_eq!(r.with_code("PV005").count(), 2);
    }

    #[test]
    fn explorer_finds_deadlock() {
        // Both roles wait for a message nobody sends: deadlock at the start.
        let spec = toy(
            vec![
                t("s", Ev::Recv("M"), "t"),
                t("s", Ev::Eof, "t"),
                t("s", Ev::Torn, "t"),
            ],
            vec![
                t("s", Ev::Recv("M"), "t"),
                t("s", Ev::Eof, "t"),
                t("s", Ev::Torn, "t"),
            ],
        );
        let e = explore(&spec);
        assert!(e.report.has_code("PV003"), "{}", e.report.render());
    }

    #[test]
    fn explorer_finds_unhandled_message() {
        // a sends M; b has no rule for it.
        let spec = toy(
            vec![ts("s", Ev::Local("go"), "t", "M")],
            vec![t("s", Ev::Eof, "t"), t("s", Ev::Torn, "t")],
        );
        let e = explore(&spec);
        assert!(e.report.has_code("PV002"), "{}", e.report.render());
    }

    #[test]
    fn explorer_finds_unhandled_eof() {
        // b never handles EOF/torn in its non-terminal start state.
        let spec = toy(
            vec![t("s", Ev::Local("go"), "t")],
            vec![t("s", Ev::Recv("M"), "t")],
        );
        let e = explore(&spec);
        assert!(e.report.has_code("PV006"), "{}", e.report.render());
    }

    #[test]
    fn explorer_finds_unreachable_state() {
        let spec = ProtocolSpec {
            name: "toy",
            roles: [
                RoleSpec {
                    name: "a",
                    start: "s",
                    states: vec!["s", "island", "t"],
                    terminal: vec!["t"],
                    rules: vec![
                        t("s", Ev::Local("go"), "t"),
                        t("s", Ev::Eof, "t"),
                        t("s", Ev::Torn, "t"),
                        t("island", Ev::Local("x"), "t"),
                    ],
                },
                RoleSpec {
                    name: "b",
                    start: "t",
                    states: vec!["t"],
                    terminal: vec!["t"],
                    rules: vec![],
                },
            ],
        };
        let e = explore(&spec);
        assert!(e.report.has_code("PV001"), "{}", e.report.render());
        assert!(!e.report.has_errors(), "{}", e.report.render());
    }

    #[test]
    fn alphabet_collects_all_messages() {
        let a = svc_protocol().alphabet();
        for m in [
            "Submit", "Status", "Fetch", "Metrics", "Shutdown", "Bad", "Ok", "Busy", "Reject",
        ] {
            assert!(a.contains(&m), "missing {m}");
        }
        assert_eq!(a.len(), 9, "{a:?}");
    }
}
