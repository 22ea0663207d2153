//! Counter-by-counter diff of two runs.
//!
//! The paper's whole method (§5) is attributing an end-to-end gap between
//! FireSim and silicon to specific microarchitectural counters. A
//! [`GapReport`] mechanizes that: give it two snapshots (hardware
//! reference vs. model, or before vs. after a tuning knob) and it ranks
//! every shared counter by the magnitude of its relative delta.

use crate::registry::HOST_PREFIX;
use crate::snapshot::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// One counter's values in both runs and its relative delta.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GapRow {
    /// Dotted counter name.
    pub counter: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
    /// `ln((b + 1) / (a + 1))` — symmetric relative delta; positive means
    /// B is larger. The +1 keeps zero-valued counters comparable.
    pub log_ratio: f64,
}

/// Ranked counter deltas between two runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GapReport {
    /// Label of run A (e.g. `milkv_hw`).
    pub label_a: String,
    /// Label of run B (e.g. `large_boom`).
    pub label_b: String,
    /// All compared counters, largest `|log_ratio|` first.
    pub rows: Vec<GapRow>,
}

impl GapReport {
    /// Diffs two snapshots. Host-dependent (`host.*`) counters are
    /// excluded; a counter missing from one run counts as zero there.
    pub fn between(
        label_a: &str,
        a: &TelemetrySnapshot,
        label_b: &str,
        b: &TelemetrySnapshot,
    ) -> GapReport {
        let mut names: Vec<&str> = a
            .counters
            .iter()
            .chain(b.counters.iter())
            .map(|c| c.name.as_str())
            .filter(|n| !n.starts_with(HOST_PREFIX))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut rows: Vec<GapRow> = names
            .into_iter()
            .map(|name| {
                let va = a.counter(name).unwrap_or(0);
                let vb = b.counter(name).unwrap_or(0);
                // The `+ 1` is in `f64`: a saturated counter (`u64::MAX`)
                // has none in `u64`.
                let log_ratio = ((vb as f64 + 1.0) / (va as f64 + 1.0)).ln();
                GapRow {
                    counter: name.to_string(),
                    a: va,
                    b: vb,
                    log_ratio,
                }
            })
            .collect();
        rows.sort_by(|x, y| {
            y.log_ratio
                .abs()
                .partial_cmp(&x.log_ratio.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| x.counter.cmp(&y.counter))
        });
        GapReport {
            label_a: label_a.to_string(),
            label_b: label_b.to_string(),
            rows,
        }
    }

    /// The `n` largest deltas.
    pub fn top(&self, n: usize) -> &[GapRow] {
        &self.rows[..n.min(self.rows.len())]
    }

    /// Human-readable table of the top `n` deltas.
    pub fn render(&self, n: usize) -> String {
        let mut out = format!(
            "gap report: A = {}, B = {} (top {} of {} counters by |ln((B+1)/(A+1))|)\n",
            self.label_a,
            self.label_b,
            n.min(self.rows.len()),
            self.rows.len()
        );
        out.push_str(&format!(
            "{:<44} {:>16} {:>16} {:>10}\n",
            "counter", self.label_a, self.label_b, "ln(B/A)"
        ));
        for row in self.top(n) {
            out.push_str(&format!(
                "{:<44} {:>16} {:>16} {:>+10.3}\n",
                row.counter, row.a, row.b, row.log_ratio
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CounterBlock;

    fn snap(pairs: &[(&str, u64)]) -> TelemetrySnapshot {
        let mut b = CounterBlock::new(true);
        for (n, v) in pairs {
            b.set_named(n, *v);
        }
        TelemetrySnapshot::capture(&b)
    }

    #[test]
    fn ranks_largest_relative_delta_first() {
        let a = snap(&[("dram.reads", 100), ("l1d.misses", 1000), ("cycles", 5000)]);
        let b = snap(&[("dram.reads", 900), ("l1d.misses", 1100), ("cycles", 5200)]);
        let g = GapReport::between("hw", &a, "sim", &b);
        assert_eq!(g.rows[0].counter, "dram.reads");
        assert!(g.rows[0].log_ratio > 0.0);
    }

    #[test]
    fn missing_counter_counts_as_zero_and_host_is_excluded() {
        let a = snap(&[("only_in_a", 50), ("host.rate.mhz", 60)]);
        let b = snap(&[("host.rate.mhz", 15)]);
        let g = GapReport::between("a", &a, "b", &b);
        assert_eq!(g.rows.len(), 1);
        assert_eq!(g.rows[0].counter, "only_in_a");
        assert_eq!(g.rows[0].b, 0);
        assert!(g.rows[0].log_ratio < 0.0);
    }

    #[test]
    fn a_saturated_counter_has_a_finite_ratio() {
        // A dead link pins `soc.cycles` to `u64::MAX`.
        let a = snap(&[("soc.cycles", 41_925)]);
        let b = snap(&[("soc.cycles", u64::MAX)]);
        let g = GapReport::between("live", &a, "dead", &b);
        let r = g.rows[0].log_ratio;
        assert!(r.is_finite() && r > 0.0, "{r}");
        let back = GapReport::between("dead", &b, "live", &a).rows[0].log_ratio;
        assert!((back + r).abs() < 1e-12, "{back} vs {r}");
    }

    #[test]
    fn render_mentions_labels() {
        let a = snap(&[("x", 1)]);
        let b = snap(&[("x", 2)]);
        let r = GapReport::between("milkv_hw", &a, "large_boom", &b).render(5);
        assert!(r.contains("milkv_hw"));
        assert!(r.contains("large_boom"));
    }
}
