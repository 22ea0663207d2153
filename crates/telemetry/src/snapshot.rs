//! Exportable snapshot of a run's final counters.

use crate::registry::{CounterBlock, HOST_PREFIX};
use serde::{Deserialize, Serialize};

/// One named counter value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted hierarchical name.
    pub name: String,
    /// Final cumulative value.
    pub value: u64,
}

/// The final counters one run published. Serializes to JSON via
/// [`TelemetrySnapshot::to_json`] and to CSV via
/// [`TelemetrySnapshot::counters_csv`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Final counter values in registration order.
    pub counters: Vec<CounterEntry>,
}

impl TelemetrySnapshot {
    /// Captures the current values of `block`.
    pub fn capture(block: &CounterBlock) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: block
                .counters()
                .map(|(name, value)| CounterEntry {
                    name: name.to_string(),
                    value,
                })
                .collect(),
        }
    }

    /// Value of one counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A copy with all host-dependent (`host.*`) counters removed. Two
    /// runs of the same target are byte-identical under this view
    /// regardless of host thread count or wall-clock speed.
    pub fn deterministic(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .filter(|c| !c.name.starts_with(HOST_PREFIX))
                .cloned()
                .collect(),
        }
    }

    /// Pretty JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// `name,value` CSV of the final counters (with header).
    pub fn counters_csv(&self) -> String {
        let mut out = String::from("counter,value\n");
        for c in &self.counters {
            out.push_str(&c.name);
            out.push(',');
            out.push_str(&c.value.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TelemetrySnapshot {
        let mut b = CounterBlock::new(true);
        b.add_named("tile0.l1d.misses", 5);
        b.set_named("host.rate.mhz", 60);
        TelemetrySnapshot::capture(&b)
    }

    #[test]
    fn capture_round_trip() {
        let s = snap();
        assert_eq!(s.counter("tile0.l1d.misses"), Some(5));
        assert_eq!(s.counter("host.rate.mhz"), Some(60));
        assert_eq!(s.counters.len(), 2);
    }

    #[test]
    fn deterministic_strips_host_counters_everywhere() {
        let s = snap();
        let d = s.deterministic();
        assert_eq!(d.counters.len(), 1);
        assert!(d.counter("host.rate.mhz").is_none());
        // Byte-identical exports are what a cross-run comparison relies on.
        assert_eq!(d.to_json(), d.clone().to_json());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = snap();
        let csv = s.counters_csv();
        assert!(csv.starts_with("counter,value\n"));
        assert!(csv.contains("tile0.l1d.misses,5\n"));
    }

    #[test]
    fn json_contains_counters() {
        let s = snap();
        let json = s.to_json();
        assert!(json.contains("\"tile0.l1d.misses\""));
    }
}
