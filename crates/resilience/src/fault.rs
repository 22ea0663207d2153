//! Deterministic, seeded fault-injection plans.
//!
//! A [`FaultPlan`] is pure data: a list of [`FaultEvent`]s keyed by
//! target (model or wire index) and target cycle. The engine consults
//! the plan at `TokenChannel`/`TickModel` boundaries; the MPI layer
//! applies [`FaultKind::LinkDegrade`]/[`FaultKind::LinkZeroLatency`] to
//! its `NetConfig`. Because every event is fixed by `(seed, target,
//! cycle)` before the run starts, an injected campaign is exactly as
//! reproducible as a clean run — rerunning with the same seed injects
//! the same faults at the same target cycles.

use bsim_check::{Diagnostic, Report};
use serde::{Serialize, Value};

/// The fault classes the campaign injects.
///
/// Survival semantics (asserted by `bsim faults`):
///
/// | kind | expectation |
/// |---|---|
/// | `TokenDrop` | fails **loudly**: the channel desynchronizes permanently (a lost token shifts every later token's cycle stamp), so the injector severs the link and the watchdog must convert the ensuing stall into [`crate::SimError::Stalled`] |
/// | `TokenDuplicate` | fails **loudly**: the cycle-stamped protocol rejects the re-send (`WrongCycle`) and the harness tears down with a typed diagnostic |
/// | `PayloadBitFlip` | **survives**: protocol intact, data deliberately corrupted — the run completes and the corruption is visible in the result |
/// | `ModelStall` | **survives bit-identically**: host-time decoupling means a slow model changes nothing in target time |
/// | `HostThreadDelay` | **survives bit-identically**: host scheduling jitter is invisible to the token protocol |
/// | `LinkDegrade` | **survives**: virtual time stretches, results stay sound |
/// | `LinkZeroLatency` | **survives with diagnostic**: `NC002` warns that zero link latency breaks token-decoupling assumptions |
/// | `WireBitFlip` | **survives**: the dist frame CRC32 detects the corruption, the connection is torn down as a typed loss, and the rank respawns from the checkpoint — the merged result stays byte-identical |
/// | `SlowPeer` | **survives**: guard socket timeouts convert a silent peer into a typed timeout error within the deadline budget instead of pinning a worker forever |
/// | `StoreCorrupt` | **survives**: the result-store entry checksum mismatches, the entry is quarantined (never served), and the value is recomputed |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Sever a wire: the producer stops delivering tokens from the
    /// event cycle on (a dropped token desynchronizes the channel
    /// permanently, so loss is modeled as the link going dead).
    TokenDrop,
    /// Re-send an already-delivered cycle's token on a wire.
    TokenDuplicate,
    /// XOR one bit into the token a model produces at the event cycle.
    PayloadBitFlip {
        /// Bit index (0..64) to flip in the token payload.
        bit: u32,
    },
    /// The model thread stops making progress for this many host
    /// microseconds when it reaches the event cycle.
    ModelStall {
        /// Host-time stall length in microseconds.
        micros: u64,
    },
    /// The model's host thread is delayed this many microseconds before
    /// it starts driving (scheduling jitter).
    HostThreadDelay {
        /// Host-time delay in microseconds.
        micros: u64,
    },
    /// Divide the link bandwidth and multiply the link latency by this
    /// factor (applied to `NetConfig` by the MPI layer).
    LinkDegrade {
        /// Degradation factor (≥ 1).
        factor: u32,
    },
    /// Zero the link latency while bandwidth stays finite (`NC002`).
    LinkZeroLatency,
    /// XOR one bit into the raw byte stream of a dist socket link —
    /// below the frame layer, so only the frame CRC can catch it.
    WireBitFlip {
        /// Bit index within the corrupted byte window.
        bit: u32,
    },
    /// A peer that accepts the connection and then goes silent for this
    /// many host milliseconds (slow-loris on the wire).
    SlowPeer {
        /// Host-time silence length in milliseconds.
        millis: u64,
    },
    /// Flip bytes inside a serialized result-store entry at rest.
    StoreCorrupt,
}

impl FaultKind {
    /// Stable lowercase label, used in telemetry counter names
    /// (`fault.injected.<label>`) and campaign rows.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TokenDrop => "token_drop",
            FaultKind::TokenDuplicate => "token_duplicate",
            FaultKind::PayloadBitFlip { .. } => "payload_bit_flip",
            FaultKind::ModelStall { .. } => "model_stall",
            FaultKind::HostThreadDelay { .. } => "host_thread_delay",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkZeroLatency => "link_zero_latency",
            FaultKind::WireBitFlip { .. } => "wire_bit_flip",
            FaultKind::SlowPeer { .. } => "slow_peer",
            FaultKind::StoreCorrupt => "store_corrupt",
        }
    }
}

/// What a fault event targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A wire index in the harness graph (token faults).
    Wire(usize),
    /// A model index in the harness graph (stall/delay faults).
    Model(usize),
    /// The MPI link model (link faults).
    Link,
}

/// One planned fault.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct FaultEvent {
    /// What is hit.
    pub target: FaultTarget,
    /// Target cycle at which the fault fires (producer-side tick cycle
    /// for token faults; ignored for [`FaultTarget::Link`]).
    pub cycle: u64,
    /// The fault class.
    pub kind: FaultKind,
}

/// A deterministic, seeded set of [`FaultEvent`]s.
///
/// Plans are built either explicitly ([`FaultPlan::inject`]) or
/// pseudo-randomly from a seed ([`FaultPlan::scatter`]); both are pure
/// functions of their inputs, never of host time.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed recorded for reproduction (0 for hand-built plans).
    pub seed: u64,
    /// The planned events, in insertion order.
    pub events: Vec<FaultEvent>,
}

/// `splitmix64` step — the same tiny deterministic generator the
/// workloads use for input synthesis; no dependence on host entropy.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan with a recorded seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one event.
    pub fn inject(mut self, target: FaultTarget, cycle: u64, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent {
            target,
            cycle,
            kind,
        });
        self
    }

    /// Builds a seeded plan of `count` events of `kind`, scattered over
    /// `targets` wires/models and the first `horizon` cycles. Entirely
    /// deterministic in `(seed, kind, targets, horizon, count)`.
    pub fn scatter(
        seed: u64,
        kind: FaultKind,
        targets: usize,
        horizon: u64,
        count: usize,
    ) -> FaultPlan {
        let mut state = seed ^ 0xB5D4_C129_77F4_A7C1;
        let mut plan = FaultPlan::new(seed);
        for _ in 0..count {
            let t = (splitmix64(&mut state) as usize) % targets.max(1);
            let c = splitmix64(&mut state) % horizon.max(1);
            let target = match kind {
                FaultKind::ModelStall { .. }
                | FaultKind::HostThreadDelay { .. }
                | FaultKind::SlowPeer { .. } => FaultTarget::Model(t),
                FaultKind::LinkDegrade { .. }
                | FaultKind::LinkZeroLatency
                | FaultKind::StoreCorrupt => FaultTarget::Link,
                _ => FaultTarget::Wire(t),
            };
            plan.events.push(FaultEvent {
                target,
                cycle: c,
                kind,
            });
        }
        plan
    }

    /// Whether the plan has no events (the engine's fast path).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events targeting wire `wi`.
    pub fn wire_events(&self, wi: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.target == FaultTarget::Wire(wi))
    }

    /// Events targeting model `mi`.
    pub fn model_events(&self, mi: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.target == FaultTarget::Model(mi))
    }

    /// Events targeting the link model.
    pub fn link_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.target == FaultTarget::Link)
    }

    /// Static sanity lint (`RS00x` codes) against the graph the plan
    /// will be applied to.
    ///
    /// * `RS001` (error): event targets a wire/model index outside the
    ///   graph — the fault would silently never fire, which voids the
    ///   campaign's coverage claim.
    /// * `RS002` (warning): event cycle is at or beyond the run length —
    ///   same silent no-op, but the run itself stays sound.
    /// * `RS003` (warning): two events of the same kind on the same
    ///   target and cycle — the duplicate is indistinguishable from the
    ///   first and usually a plan-construction bug.
    /// * `RS004` (error): `PayloadBitFlip` bit index ≥ 64 — the XOR
    ///   mask would be a no-op on 64-bit tokens.
    pub fn lint(&self, models: usize, wires: usize, cycles: u64, span: &str) -> Report {
        let mut report = Report::new();
        let mut seen: Vec<(FaultTarget, u64, &'static str)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            let where_ = format!("{span}.events[{i}]");
            match e.target {
                FaultTarget::Wire(w) if w >= wires => report.push(
                    Diagnostic::error(
                        "RS001",
                        &where_,
                        format!("fault targets wire {w} but the graph has {wires} wire(s)"),
                    )
                    .with_help("use a wire index from the harness wiring list"),
                ),
                FaultTarget::Model(m) if m >= models => report.push(
                    Diagnostic::error(
                        "RS001",
                        &where_,
                        format!("fault targets model {m} but the graph has {models} model(s)"),
                    )
                    .with_help("use a model index from the harness model list"),
                ),
                _ => {}
            }
            if e.cycle >= cycles && e.target != FaultTarget::Link {
                report.push(
                    Diagnostic::warning(
                        "RS002",
                        &where_,
                        format!(
                            "fault cycle {} is at or beyond the {cycles}-cycle run: it never fires",
                            e.cycle
                        ),
                    )
                    .with_help("move the event inside the run, or shorten the plan horizon"),
                );
            }
            if let FaultKind::PayloadBitFlip { bit } = e.kind {
                if bit >= 64 {
                    report.push(
                        Diagnostic::error(
                            "RS004",
                            &where_,
                            format!("bit-flip index {bit} is out of range for 64-bit tokens"),
                        )
                        .with_help("use a bit index in 0..64"),
                    );
                }
            }
            let key = (e.target, e.cycle, e.kind.label());
            if seen.contains(&key) {
                report.push(Diagnostic::warning(
                    "RS003",
                    &where_,
                    format!(
                        "duplicate {} fault on {:?} at cycle {}",
                        e.kind.label(),
                        e.target,
                        e.cycle
                    ),
                ));
            } else {
                seen.push(key);
            }
        }
        report
    }

    /// Per-kind event counts, for `fault.injected.*` telemetry.
    pub fn count_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            match counts.iter_mut().find(|(l, _)| *l == e.kind.label()) {
                Some((_, n)) => *n += 1,
                None => counts.push((e.kind.label(), 1)),
            }
        }
        counts
    }
}

impl Serialize for FaultTarget {
    fn to_value(&self) -> Value {
        match self {
            FaultTarget::Wire(w) => Value::Map(vec![("wire".into(), Value::U64(*w as u64))]),
            FaultTarget::Model(m) => Value::Map(vec![("model".into(), Value::U64(*m as u64))]),
            FaultTarget::Link => Value::Str("link".into()),
        }
    }
}

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        let mut entries = vec![("kind".to_string(), Value::Str(self.label().to_string()))];
        match self {
            FaultKind::PayloadBitFlip { bit } | FaultKind::WireBitFlip { bit } => {
                entries.push(("bit".into(), Value::U64(*bit as u64)));
            }
            FaultKind::ModelStall { micros } | FaultKind::HostThreadDelay { micros } => {
                entries.push(("micros".into(), Value::U64(*micros)));
            }
            FaultKind::LinkDegrade { factor } => {
                entries.push(("factor".into(), Value::U64(*factor as u64)));
            }
            FaultKind::SlowPeer { millis } => {
                entries.push(("millis".into(), Value::U64(*millis)));
            }
            FaultKind::TokenDrop
            | FaultKind::TokenDuplicate
            | FaultKind::LinkZeroLatency
            | FaultKind::StoreCorrupt => {}
        }
        Value::Map(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_deterministic_in_the_seed() {
        let a = FaultPlan::scatter(42, FaultKind::TokenDrop, 4, 1000, 3);
        let b = FaultPlan::scatter(42, FaultKind::TokenDrop, 4, 1000, 3);
        let c = FaultPlan::scatter(43, FaultKind::TokenDrop, 4, 1000, 3);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a.events, c.events, "different seed, different plan");
        assert_eq!(a.events.len(), 3);
        for e in &a.events {
            assert!(matches!(e.target, FaultTarget::Wire(w) if w < 4));
            assert!(e.cycle < 1000);
        }
    }

    #[test]
    fn lint_flags_out_of_range_targets_and_duplicates() {
        let plan = FaultPlan::new(0)
            .inject(FaultTarget::Wire(9), 10, FaultKind::TokenDrop)
            .inject(
                FaultTarget::Model(5),
                10,
                FaultKind::ModelStall { micros: 1 },
            )
            .inject(FaultTarget::Wire(0), 2000, FaultKind::TokenDuplicate)
            .inject(
                FaultTarget::Wire(1),
                5,
                FaultKind::PayloadBitFlip { bit: 64 },
            )
            .inject(FaultTarget::Wire(2), 7, FaultKind::TokenDrop)
            .inject(FaultTarget::Wire(2), 7, FaultKind::TokenDrop);
        let report = plan.lint(2, 3, 1000, "plan");
        assert_eq!(report.with_code("RS001").count(), 2, "{}", report.render());
        assert!(report.has_code("RS002"), "beyond-run cycle warns");
        assert!(report.has_code("RS003"), "duplicate event warns");
        assert!(report.has_code("RS004"), "bit 64 is invalid");
        assert!(report.has_errors());
    }

    #[test]
    fn clean_plan_lints_clean() {
        let plan = FaultPlan::new(7)
            .inject(
                FaultTarget::Wire(0),
                50,
                FaultKind::PayloadBitFlip { bit: 3 },
            )
            .inject(
                FaultTarget::Model(1),
                80,
                FaultKind::ModelStall { micros: 10 },
            )
            .inject(FaultTarget::Link, 0, FaultKind::LinkDegrade { factor: 4 });
        assert!(plan.lint(2, 1, 100, "plan").is_clean());
        assert_eq!(
            plan.count_by_kind(),
            vec![
                ("payload_bit_flip", 1),
                ("model_stall", 1),
                ("link_degrade", 1)
            ]
        );
    }

    #[test]
    fn target_filters_partition_the_plan() {
        let plan = FaultPlan::new(1)
            .inject(FaultTarget::Wire(0), 1, FaultKind::TokenDrop)
            .inject(FaultTarget::Wire(1), 2, FaultKind::TokenDuplicate)
            .inject(
                FaultTarget::Model(0),
                3,
                FaultKind::HostThreadDelay { micros: 5 },
            )
            .inject(FaultTarget::Link, 0, FaultKind::LinkZeroLatency);
        assert_eq!(plan.wire_events(0).count(), 1);
        assert_eq!(plan.wire_events(1).count(), 1);
        assert_eq!(plan.model_events(0).count(), 1);
        assert_eq!(plan.link_events().count(), 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }
}
