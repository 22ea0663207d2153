//! AutoCounter-style cycle-windowed sampling.
//!
//! FireSim's AutoCounter reads every counter out-of-band every N target
//! cycles, building a timeline that localizes *when* behaviour changed,
//! not just that it did. [`Sampler`] does the same against a
//! [`CounterBlock`](crate::CounterBlock): each call to
//! [`Sampler::maybe_sample`] checks the target cycle against the next
//! window boundary and snapshots all cells when it is crossed.

use crate::registry::CounterBlock;
use serde::{Deserialize, Serialize};

/// One timeline point: every counter value at a given target cycle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Target cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Cell values, positionally aligned with the block's names at
    /// capture time (registration order).
    pub values: Vec<u64>,
}

/// Samples a counter block every `interval` target cycles.
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: u64,
    next_at: u64,
    samples: Vec<Sample>,
}

impl Sampler {
    /// `interval == 0` disables sampling entirely.
    pub fn new(interval: u64) -> Sampler {
        Sampler {
            interval,
            next_at: interval,
            samples: Vec::new(),
        }
    }

    /// The configured window, in target cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether `cycle` has crossed the next window boundary — i.e.
    /// whether [`Sampler::maybe_sample`] would record a sample. Lets the
    /// owner refresh published counters only when a snapshot is imminent.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        self.interval != 0 && cycle >= self.next_at
    }

    /// Snapshots `block` if `cycle` crossed the next window boundary.
    #[inline]
    pub(crate) fn maybe_sample(&mut self, cycle: u64, block: &CounterBlock) {
        if self.interval == 0 || cycle < self.next_at {
            return;
        }
        while self.next_at <= cycle {
            self.next_at += self.interval;
        }
        self.samples.push(Sample {
            cycle,
            values: block.values().to_vec(),
        });
    }

    /// The recorded timeline.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_on_window_boundaries() {
        let mut b = CounterBlock::new(true);
        let id = b.register("c");
        let mut s = Sampler::new(100);
        for cycle in 0..350u64 {
            b.add(id, 1);
            s.maybe_sample(cycle, &b);
        }
        let cycles: Vec<u64> = s.samples().iter().map(|p| p.cycle).collect();
        assert_eq!(cycles, vec![100, 200, 300]);
        assert_eq!(s.samples()[0].values, vec![101]); // 101 adds by cycle 100
    }

    #[test]
    fn zero_interval_never_samples() {
        let b = CounterBlock::new(true);
        let mut s = Sampler::new(0);
        for cycle in 0..10_000u64 {
            s.maybe_sample(cycle, &b);
        }
        assert!(s.samples().is_empty());
    }

    #[test]
    fn sparse_cycles_skip_missed_windows() {
        let b = CounterBlock::new(true);
        let mut s = Sampler::new(10);
        s.maybe_sample(35, &b); // crosses 10, 20, 30 → one sample
        s.maybe_sample(36, &b); // next boundary is 40 → nothing
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.samples()[0].cycle, 35);
    }
}
