//! The pace loop: how fast was this host while a stretch was measured?
//!
//! This sandbox shares its cores and caches with neighbours. Identical
//! work takes 5.3 s in one minute and 9.2 s in another (75 back-to-back
//! passes of `micro-isa`; every cell slows by about the same factor), so a raw
//! host time says more about the minute than about the program, and no
//! statistic inside a 30-second run removes a slow minute. What does
//! remove it is a reference: a slice of fixed work owned by the
//! benchmark — not by the program, so no change to the program moves it —
//! run between the ops of every stretch. A stretch's *pace factor* is
//! the median of its slices over [`NOMINAL_SLICE_MS`], and every reported
//! host time is the measured time divided by that factor: the time the
//! work would have taken at the nominal pace.
//!
//! The slice is a small cache model on a pseudo-random address stream,
//! because that is what slows down here: a loop of register arithmetic
//! timed over the same minutes stays within 3 %, a pointer chase or a
//! streaming sum follow the program's slowdown poorly, and this loop over
//! a 1.25 MB table follows it best (67 passes: raw pass time spread 21 %,
//! divided by the pace factor 6 %). The README has the tables.

use std::time::Instant;

/// The pace at which the reported times are stated: one slice in 2 ms,
/// the usual time on this host (1.4 ms in its best minutes, 2.4 ms in its
/// worst so far). A literal, so that the unit of every end-to-end time
/// is the same on every commit.
pub const NOMINAL_SLICE_MS: f64 = 2.0;

const SETS_LOG2: u32 = 15;
const WAYS: usize = 8;
const ACCESSES: u32 = 90_000;

/// The reference cache model and the slices of the current stretch.
pub struct Pace {
    tags: Vec<u32>,
    age: Vec<u8>,
    slices_ms: Vec<f64>,
    spent_s: f64,
    hits: u64,
}

/// What the slices of one stretch say.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stretch {
    /// Median slice time over the nominal one: 1 at the nominal pace,
    /// 1.5 when the host ran a third slower.
    pub factor: f64,
    /// Host time the slices themselves took; not part of the stretch.
    pub spent_s: f64,
    pub slices: usize,
}

impl Stretch {
    /// `measured_s` of host time, slices included, as time at the
    /// nominal pace with the slices taken out.
    pub fn at_nominal_pace(&self, measured_s: f64) -> f64 {
        (measured_s - self.spent_s) / self.factor
    }
}

impl Default for Pace {
    fn default() -> Pace {
        let lines = (1usize << SETS_LOG2) * WAYS;
        Pace {
            tags: vec![u32::MAX; lines],
            age: vec![0; lines],
            slices_ms: Vec::new(),
            spent_s: 0.0,
            hits: 0,
        }
    }
}

impl Pace {
    /// Runs `n` slices and keeps their times.
    pub fn slices(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            self.hits += self.one_slice();
            let s = t.elapsed().as_secs_f64();
            self.slices_ms.push(s * 1e3);
            self.spent_s += s;
        }
    }

    /// Host time the slices of the current stretch took so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Ends the current stretch and starts the next.
    pub fn take(&mut self) -> Stretch {
        assert!(!self.slices_ms.is_empty(), "a stretch without slices");
        let out = Stretch {
            factor: crate::stats::median(&self.slices_ms) / NOMINAL_SLICE_MS,
            spent_s: self.spent_s,
            slices: self.slices_ms.len(),
        };
        self.slices_ms.clear();
        self.spent_s = 0.0;
        out
    }

    /// One slice: the same work every time. An empty 8-way cache of
    /// 32 Ki sets takes `ACCESSES` line addresses from a xorshift stream,
    /// three in four of them from a hot region, with true-LRU ageing.
    fn one_slice(&mut self) -> u64 {
        self.tags.fill(u32::MAX);
        self.age.fill(0);
        let sets = 1usize << SETS_LOG2;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut hits = 0;
        for _ in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let wide = (x >> 8) as u32 & 0x03ff_ffff;
            let line = if x & 3 == 0 { wide } else { wide >> 6 } >> 4;
            let base = (line as usize & (sets - 1)) * WAYS;
            let tag = line >> SETS_LOG2;
            let (tags, age) = (
                &mut self.tags[base..base + WAYS],
                &mut self.age[base..base + WAYS],
            );
            match tags.iter().position(|t| *t == tag) {
                Some(way) => {
                    hits += 1;
                    let was = age[way];
                    for a in age.iter_mut().filter(|a| **a < was) {
                        *a += 1;
                    }
                    age[way] = 0;
                }
                None => {
                    let mut victim = 0;
                    for way in 1..WAYS {
                        if age[way] >= age[victim] {
                            victim = way;
                        }
                    }
                    for a in age.iter_mut() {
                        *a = a.saturating_add(1);
                    }
                    tags[victim] = tag;
                    age[victim] = 0;
                }
            }
        }
        std::hint::black_box(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slice_is_the_same_work() {
        let mut pace = Pace::default();
        let first = pace.one_slice();
        assert!(first > 0 && first < u64::from(ACCESSES), "hits and misses");
        assert_eq!(pace.one_slice(), first);
    }

    #[test]
    fn a_stretch_is_restated_at_the_nominal_pace() {
        let mut pace = Pace::default();
        pace.slices_ms = vec![3.0, 2.9, 3.2];
        pace.spent_s = 0.5;
        let stretch = pace.take();
        assert_eq!(stretch.slices, 3);
        assert!((stretch.factor - 3.0 / NOMINAL_SLICE_MS).abs() < 1e-12);
        // 6.5 s measured, 0.5 s of it slices, on a host 1.5 times slow.
        assert!((stretch.at_nominal_pace(6.5) - 6.0 / stretch.factor).abs() < 1e-12);
        pace.slices(2);
        assert_eq!(pace.take().slices, 2, "the next stretch starts empty");
    }
}
