//! Branch predictors.
//!
//! Table 5: the Rocket-based Banana Pi model uses "BTB, BHT, RAS branch
//! predictors"; the BOOM-based MILK-V model uses a "TAGE-L branch
//! predictor" with 16 outstanding branches. Both are modeled here at the
//! fidelity the timing cores need: *was this prediction correct?*
//!
//! * [`RocketPredictor`] — BTB (direction+target for taken branches),
//!   gshare-flavoured BHT of 2-bit counters, and a return-address stack.
//! * [`BoomPredictor`] — TAGE-lite: a bimodal base table plus several
//!   tagged tables indexed by geometrically longer global histories,
//!   with a RAS and a simple indirect-target table.

use crate::uop::BranchClass;

/// A branch predictor answering "did the front-end predict this branch
/// correctly?" and updating its state with the actual outcome.
pub(crate) trait BranchPredictor {
    /// Observes one control-flow micro-op; returns `true` if the
    /// prediction (direction *and* target) was correct.
    fn predict_and_update(&mut self, pc: u64, class: BranchClass, taken: bool, target: u64)
        -> bool;
}

#[inline]
fn ctr_update(ctr: &mut u8, taken: bool) {
    if taken {
        *ctr = (*ctr + 1).min(3);
    } else {
        *ctr = ctr.saturating_sub(1);
    }
}

/// Simple return-address stack: a ring of `depth` slots, so a push onto
/// a full stack overwrites the oldest return address.
#[derive(Clone, Debug)]
struct Ras {
    slots: Vec<u64>,
    /// Slot the next push writes.
    top: usize,
    len: usize,
}

impl Ras {
    fn new(depth: usize) -> Ras {
        Ras {
            slots: vec![0; depth],
            top: 0,
            len: 0,
        }
    }
    fn push(&mut self, ret: u64) {
        self.slots[self.top] = ret;
        self.top = (self.top + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
    }
    fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        Some(self.slots[self.top])
    }
}

/// Rocket-style BTB + BHT + RAS.
pub struct RocketPredictor {
    bht: Vec<u8>,
    btb_tag: Vec<u64>,
    btb_target: Vec<u64>,
    ras: Ras,
    history: u64,
    hist_bits: u32,
}

impl RocketPredictor {
    /// Rocket defaults: 512-entry BHT, 28-entry BTB (rounded to 32 here),
    /// 6-entry RAS.
    pub fn new() -> RocketPredictor {
        RocketPredictor::with_sizes(512, 32, 6, 7)
    }

    /// Fully parameterised constructor (`bht`/`btb` powers of two).
    fn with_sizes(bht: usize, btb: usize, ras: usize, hist_bits: u32) -> RocketPredictor {
        assert!(bht.is_power_of_two() && btb.is_power_of_two());
        RocketPredictor {
            bht: vec![1; bht], // weakly not-taken
            btb_tag: vec![u64::MAX; btb],
            btb_target: vec![0; btb],
            ras: Ras::new(ras),
            history: 0,
            hist_bits,
        }
    }

    fn bht_index(&self, pc: u64) -> usize {
        let h = self.history & ((1 << self.hist_bits) - 1);
        (((pc >> 2) ^ h) as usize) & (self.bht.len() - 1)
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.btb_tag.len() - 1)
    }
}

impl Default for RocketPredictor {
    fn default() -> Self {
        RocketPredictor::new()
    }
}

impl BranchPredictor for RocketPredictor {
    fn predict_and_update(
        &mut self,
        pc: u64,
        class: BranchClass,
        taken: bool,
        target: u64,
    ) -> bool {
        match class {
            BranchClass::Conditional => {
                let bi = self.bht_index(pc);
                let pred_taken = self.bht[bi] >= 2;
                ctr_update(&mut self.bht[bi], taken);
                self.history = (self.history << 1) | taken as u64;
                // Direction correct; if predicted taken we also need the
                // BTB to hold the right target.
                let ti = self.btb_index(pc);
                let target_known = self.btb_tag[ti] == pc && self.btb_target[ti] == target;
                if taken {
                    self.btb_tag[ti] = pc;
                    self.btb_target[ti] = target;
                }
                pred_taken == taken && (!taken || target_known)
            }
            BranchClass::Direct => {
                // JAL: target is computable in decode; BTB avoids even the
                // decode bubble but we treat it as always predicted.
                true
            }
            BranchClass::Call => {
                self.ras.push(pc.wrapping_add(4));
                let ti = self.btb_index(pc);
                let known = self.btb_tag[ti] == pc && self.btb_target[ti] == target;
                self.btb_tag[ti] = pc;
                self.btb_target[ti] = target;
                known
            }
            BranchClass::Return => self.ras.pop() == Some(target),
            BranchClass::Indirect => {
                let ti = self.btb_index(pc);
                let known = self.btb_tag[ti] == pc && self.btb_target[ti] == target;
                self.btb_tag[ti] = pc;
                self.btb_target[ti] = target;
                known
            }
        }
    }
}

/// Bits of a tagged-table tag.
const TAG_BITS: u32 = 9;

/// One tagged TAGE table.
struct TageTable {
    tags: Vec<u16>,
    ctrs: Vec<u8>, // 0..=7, taken if >= 4
    useful: Vec<u8>,
    hist_bits: u32,
}

impl TageTable {
    fn new(entries: usize, hist_bits: u32) -> TageTable {
        TageTable {
            tags: vec![u16::MAX; entries],
            ctrs: vec![3; entries],
            useful: vec![0; entries],
            hist_bits,
        }
    }

    /// This table's `(index, tag)` for a branch at `pc` under `hist`.
    fn slot(&self, pc: u64, hist: u64) -> (usize, u16) {
        let index_bits = self.tags.len().trailing_zeros();
        let hi = fold(hist, self.hist_bits, index_bits);
        let ht = if index_bits == TAG_BITS {
            hi
        } else {
            fold(hist, self.hist_bits, TAG_BITS)
        };
        let index = (((pc >> 2) ^ hi) as usize) & (self.tags.len() - 1);
        let tag = (((pc >> 2) ^ (pc >> 11) ^ ht) & ((1 << TAG_BITS) - 1)) as u16;
        (index, tag)
    }
}

/// XOR of the `out_bits`-wide chunks of the low `bits` bits of `hist`.
fn fold(hist: u64, bits: u32, out_bits: u32) -> u64 {
    let mut rest = hist & ((1u64 << bits.min(63)) - 1);
    let mut folded = 0;
    // A fixed trip count: chunks past the history's top bit are zero.
    for _ in 0..bits.min(63).div_ceil(out_bits) {
        folded ^= rest & ((1 << out_bits) - 1);
        rest >>= out_bits;
    }
    folded
}

/// Tagged tables of the TAGE-lite predictor (`BoomPredictor::new` builds
/// this many).
const TAGE_TABLES: usize = 4;

/// BOOM-style TAGE-lite predictor.
pub struct BoomPredictor {
    base: Vec<u8>,
    tables: Vec<TageTable>,
    history: u64,
    ras: Ras,
    indirect: Vec<(u64, u64)>, // (pc tag, target)
}

impl BoomPredictor {
    /// TAGE-L-flavoured defaults: 4 KiB bimodal base and four 512-entry
    /// tagged tables with history lengths 5/13/31/62.
    pub fn new() -> BoomPredictor {
        BoomPredictor {
            base: vec![1; 4096],
            tables: [5u32, 13, 31, 62]
                .iter()
                .map(|&h| TageTable::new(512, h))
                .collect(),
            history: 0,
            ras: Ras::new(32),
            indirect: vec![(u64::MAX, 0); 256],
        }
    }

    /// Every tagged table's `(index, tag)` for this branch, computed once
    /// and shared by the prediction and the update.
    fn slots(&self, pc: u64) -> [(usize, u16); TAGE_TABLES] {
        std::array::from_fn(|ti| self.tables[ti].slot(pc, self.history))
    }

    fn predict_dir(
        &self,
        pc: u64,
        slots: &[(usize, u16); TAGE_TABLES],
    ) -> (bool, Option<usize>, usize) {
        // Longest-history tagged hit wins; fall back to bimodal.
        for (ti, t) in self.tables.iter().enumerate().rev() {
            let (i, tag) = slots[ti];
            if t.tags[i] == tag {
                return (t.ctrs[i] >= 4, Some(ti), i);
            }
        }
        let bi = ((pc >> 2) as usize) & (self.base.len() - 1);
        (self.base[bi] >= 2, None, bi)
    }

    fn update_dir(
        &mut self,
        slots: &[(usize, u16); TAGE_TABLES],
        provider: Option<usize>,
        idx: usize,
        taken: bool,
        correct: bool,
    ) {
        match provider {
            Some(ti) => {
                let c = &mut self.tables[ti].ctrs[idx];
                if taken {
                    *c = (*c + 1).min(7);
                } else {
                    *c = c.saturating_sub(1);
                }
                let u = &mut self.tables[ti].useful[idx];
                if correct {
                    *u = (*u + 1).min(3);
                } else {
                    *u = u.saturating_sub(1);
                }
            }
            None => ctr_update(&mut self.base[idx], taken),
        }
        // On a misprediction, allocate in a longer table.
        if !correct {
            let start = provider.map(|p| p + 1).unwrap_or(0);
            for (t, &(i, tag)) in self.tables.iter_mut().zip(slots).skip(start) {
                if t.useful[i] == 0 {
                    t.tags[i] = tag;
                    t.ctrs[i] = if taken { 4 } else { 3 };
                    break;
                }
            }
        }
    }
}

impl Default for BoomPredictor {
    fn default() -> Self {
        BoomPredictor::new()
    }
}

impl BranchPredictor for BoomPredictor {
    fn predict_and_update(
        &mut self,
        pc: u64,
        class: BranchClass,
        taken: bool,
        target: u64,
    ) -> bool {
        match class {
            BranchClass::Conditional => {
                let slots = self.slots(pc);
                let (pred, provider, idx) = self.predict_dir(pc, &slots);
                let correct = pred == taken;
                self.update_dir(&slots, provider, idx, taken, correct);
                self.history = (self.history << 1) | taken as u64;
                correct
            }
            BranchClass::Direct => true,
            BranchClass::Call => {
                self.ras.push(pc.wrapping_add(4));
                true // BOOM's NLP/BTB resolves calls in the front-end
            }
            BranchClass::Return => self.ras.pop() == Some(target),
            BranchClass::Indirect => {
                let i = ((pc >> 2) as usize) & (self.indirect.len() - 1);
                let correct = self.indirect[i] == (pc, target);
                self.indirect[i] = (pc, target);
                correct
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<P: BranchPredictor>(p: &mut P, outcomes: &[bool]) -> f64 {
        let mut correct = 0;
        for &t in outcomes {
            if p.predict_and_update(0x1000, BranchClass::Conditional, t, 0x2000) {
                correct += 1;
            }
        }
        correct as f64 / outcomes.len() as f64
    }

    #[test]
    fn biased_branch_is_easy_for_both() {
        let outcomes: Vec<bool> = (0..1000).map(|_| true).collect();
        assert!(accuracy(&mut RocketPredictor::new(), &outcomes) > 0.95);
        assert!(accuracy(&mut BoomPredictor::new(), &outcomes) > 0.95);
    }

    #[test]
    fn alternating_branch_needs_history() {
        let outcomes: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        // Both predictors track global history, so both should learn the
        // alternation; TAGE should be at least as good.
        let r = accuracy(&mut RocketPredictor::new(), &outcomes);
        let b = accuracy(&mut BoomPredictor::new(), &outcomes);
        assert!(r > 0.8, "rocket got {r}");
        assert!(b > 0.9, "boom got {b}");
    }

    #[test]
    fn random_branch_is_hard_for_both() {
        // xorshift-ish deterministic pseudo-random outcomes.
        let mut x = 0x12345678u64;
        let outcomes: Vec<bool> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect();
        let r = accuracy(&mut RocketPredictor::new(), &outcomes);
        let b = accuracy(&mut BoomPredictor::new(), &outcomes);
        assert!(r < 0.8, "rocket should struggle on random, got {r}");
        assert!(b < 0.8, "boom should struggle on random, got {b}");
    }

    #[test]
    fn long_period_pattern_favours_tage() {
        // Period-7 pattern: needs longer history than a bimodal entry.
        let pat = [true, true, false, true, false, false, true];
        let outcomes: Vec<bool> = (0..7000).map(|i| pat[i % pat.len()]).collect();
        let r = accuracy(&mut RocketPredictor::new(), &outcomes);
        let b = accuracy(&mut BoomPredictor::new(), &outcomes);
        assert!(
            b > r,
            "TAGE ({b}) should beat gshare ({r}) on long patterns"
        );
        assert!(b > 0.9);
    }

    #[test]
    fn ras_predicts_matched_returns() {
        let mut p = RocketPredictor::new();
        // call from 0x100 -> return to 0x104.
        p.predict_and_update(0x100, BranchClass::Call, true, 0x1000);
        assert!(p.predict_and_update(0x1010, BranchClass::Return, true, 0x104));
        // Unbalanced return mispredicts.
        assert!(!p.predict_and_update(0x1010, BranchClass::Return, true, 0x104));
    }

    #[test]
    fn deep_recursion_overflows_ras() {
        let mut p = RocketPredictor::new(); // RAS depth 6
        for i in 0..10u64 {
            p.predict_and_update(0x100 + i * 8, BranchClass::Call, true, 0x1000);
        }
        let mut correct = 0;
        for i in (0..10u64).rev() {
            if p.predict_and_update(0x2000, BranchClass::Return, true, 0x104 + i * 8) {
                correct += 1;
            }
        }
        assert!(
            correct <= 6,
            "only the RAS depth can be predicted, got {correct}"
        );
        assert!(
            correct >= 5,
            "the top of the stack should predict, got {correct}"
        );
    }

    #[test]
    fn ras_ring_behaves_like_a_bounded_stack() {
        // The stack the ring replaces: push drops the oldest when full.
        let mut ring = Ras::new(6);
        let mut stack: Vec<u64> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Runs of calls deeper than the ring, then runs of returns.
            if (x >> 5) % 16 < if (i / 40) % 2 == 0 { 11 } else { 5 } {
                if stack.len() == 6 {
                    stack.remove(0);
                }
                stack.push(i);
                ring.push(i);
            } else {
                assert_eq!(ring.pop(), stack.pop(), "op {i}");
            }
        }
    }

    #[test]
    fn fold_xors_the_chunks_of_the_history() {
        let by_chunks = |hist: u64, bits: u32, out_bits: u32| {
            let mut rest = hist & ((1u64 << bits.min(63)) - 1);
            let mut folded = 0;
            while rest != 0 {
                folded ^= rest & ((1 << out_bits) - 1);
                rest >>= out_bits;
            }
            folded
        };
        let mut x = 0x1234_5678_9ABC_DEF1u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for bits in [5, 13, 31, 62] {
                for out_bits in [7, 9, 12] {
                    assert_eq!(fold(x, bits, out_bits), by_chunks(x, bits, out_bits));
                }
            }
        }
    }

    #[test]
    fn indirect_targets_learned_by_boom() {
        let mut p = BoomPredictor::new();
        assert!(!p.predict_and_update(0x500, BranchClass::Indirect, true, 0xAA00));
        assert!(p.predict_and_update(0x500, BranchClass::Indirect, true, 0xAA00));
        // Target change mispredicts once.
        assert!(!p.predict_and_update(0x500, BranchClass::Indirect, true, 0xBB00));
        assert!(p.predict_and_update(0x500, BranchClass::Indirect, true, 0xBB00));
    }
}
