//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is pure data: a list of [`FaultEvent`]s keyed by
//! target (model or wire index) and target cycle. The engine consults
//! the plan at `TokenChannel`/`TickModel` boundaries. Because every
//! event is fixed by `(target, cycle)` before the run starts, an
//! injected campaign is exactly as reproducible as a clean run —
//! rerunning the same plan injects the same faults at the same target
//! cycles.

/// The fault classes the engine injects.
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
}

/// What a fault event targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A wire index in the harness graph (token faults).
    Wire(usize),
    /// A model index in the harness graph (stall/delay faults).
    Model(usize),
}

/// One planned fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// What is hit.
    pub target: FaultTarget,
    /// Target cycle at which the fault fires (producer-side tick cycle
    /// for token faults).
    pub cycle: u64,
    /// The fault class.
    pub kind: FaultKind,
}

/// A deterministic set of [`FaultEvent`]s, built with
/// [`FaultPlan::inject`] — a pure function of its inputs, never of host
/// time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed recorded for reproduction (0 for hand-built plans).
    pub seed: u64,
    /// The planned events, in insertion order.
    pub events: Vec<FaultEvent>,
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

    /// Whether the plan has no events (the engine's fast path).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events targeting wire `wi`.
    pub(crate) fn wire_events(&self, wi: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.target == FaultTarget::Wire(wi))
    }

    /// Events targeting model `mi`.
    pub(crate) fn model_events(&self, mi: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.target == FaultTarget::Model(mi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_filters_partition_the_plan() {
        let plan = FaultPlan::new(1)
            .inject(FaultTarget::Wire(0), 1, FaultKind::TokenDrop)
            .inject(FaultTarget::Wire(1), 2, FaultKind::TokenDuplicate)
            .inject(
                FaultTarget::Model(0),
                3,
                FaultKind::HostThreadDelay { micros: 5 },
            );
        assert_eq!(plan.wire_events(0).count(), 1);
        assert_eq!(plan.wire_events(1).count(), 1);
        assert_eq!(plan.model_events(0).count(), 1);
        assert_eq!(plan.model_events(1).count(), 0);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }
}
