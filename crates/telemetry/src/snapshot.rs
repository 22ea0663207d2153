//! Exportable snapshot of everything a run recorded.

use crate::registry::{CounterBlock, HOST_PREFIX};
use crate::sample::{Sample, Sampler};
use crate::trace::{TraceEntry, TraceRing};
use serde::{Deserialize, Serialize};

/// One named counter value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted hierarchical name.
    pub name: String,
    /// Final cumulative value.
    pub value: u64,
}

/// Everything one run recorded: final counters, the sampled timeline,
/// and the committed-instruction trace. Serializes to JSON via
/// [`TelemetrySnapshot::to_json`] and to CSV via
/// [`TelemetrySnapshot::counters_csv`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Final counter values in registration order.
    pub counters: Vec<CounterEntry>,
    /// Sampling window used for the timeline (0 = no timeline).
    pub sample_interval_cycles: u64,
    /// AutoCounter-style timeline; each sample's `values` align
    /// positionally with `counters`.
    pub timeline: Vec<Sample>,
    /// TracerV-lite sampled committed-instruction trace, oldest first.
    pub trace: Vec<TraceEntry>,
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn empty() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: Vec::new(),
            sample_interval_cycles: 0,
            timeline: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Captures the current state of a block + sampler + trace ring.
    pub fn capture(
        block: &CounterBlock,
        sampler: &Sampler,
        trace: &TraceRing,
    ) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: block
                .counters()
                .map(|(name, value)| CounterEntry {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            sample_interval_cycles: sampler.interval(),
            timeline: sampler.samples().to_vec(),
            trace: trace.entries(),
        }
    }

    /// Value of one counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A copy with all host-dependent (`host.*`) counters removed, both
    /// from the final values and from every timeline sample. Two runs of
    /// the same target are byte-identical under this view regardless of
    /// host thread count or wall-clock speed.
    pub fn deterministic(&self) -> TelemetrySnapshot {
        let keep: Vec<bool> = self
            .counters
            .iter()
            .map(|c| !c.name.starts_with(HOST_PREFIX))
            .collect();
        let filter = |values: &[u64]| -> Vec<u64> {
            values
                .iter()
                .zip(keep.iter())
                .filter_map(|(v, k)| if *k { Some(*v) } else { None })
                .collect()
        };
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .zip(keep.iter())
                .filter(|(_, k)| **k)
                .map(|(c, _)| c.clone())
                .collect(),
            sample_interval_cycles: self.sample_interval_cycles,
            timeline: self
                .timeline
                .iter()
                .map(|s| Sample {
                    cycle: s.cycle,
                    values: filter(&s.values),
                })
                .collect(),
            trace: self.trace.clone(),
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
        let c = b.register("tile0.l1d.misses");
        b.add(c, 5);
        b.set_named("host.rate.mhz", 60);
        let mut s = Sampler::new(10);
        s.maybe_sample(10, &b);
        let mut t = TraceRing::new(4, 1);
        t.record(0x80000000, 2, 9);
        TelemetrySnapshot::capture(&b, &s, &t)
    }

    #[test]
    fn capture_round_trip() {
        let s = snap();
        assert_eq!(s.counter("tile0.l1d.misses"), Some(5));
        assert_eq!(s.timeline.len(), 1);
        assert_eq!(s.trace.len(), 1);
    }

    #[test]
    fn deterministic_strips_host_counters_everywhere() {
        let s = snap();
        let d = s.deterministic();
        assert_eq!(d.counters.len(), 1);
        assert!(d.counter("host.rate.mhz").is_none());
        assert_eq!(d.timeline[0].values.len(), 1);
        // Byte-identical exports are the contract the proptest relies on.
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
        assert!(json.contains("\"timeline\""));
    }
}
