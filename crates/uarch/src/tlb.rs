//! TLB timing model.
//!
//! Table 5: both simulation models use 32-entry fully-associative L1
//! D/I TLBs; the BOOM-based MILK-V model adds a 1024-entry direct-mapped
//! L2 TLB. A miss that also misses the L2 TLB pays a page-walk latency.

use serde::{Deserialize, Serialize};

/// TLB configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// L1 TLB entries (fully associative, LRU).
    pub l1_entries: usize,
    /// Optional L2 TLB entries (direct mapped).
    pub l2_entries: Option<usize>,
    /// L2 TLB hit latency, cycles.
    pub l2_latency: u32,
    /// Full page-walk latency, cycles.
    pub walk_latency: u32,
}

impl TlbConfig {
    /// The paper's Rocket model: 32-entry fully associative L1 only.
    pub fn rocket() -> TlbConfig {
        TlbConfig {
            l1_entries: 32,
            l2_entries: None,
            l2_latency: 8,
            walk_latency: 40,
        }
    }

    /// The paper's BOOM model: 32-entry L1 + 1024-entry direct-mapped L2.
    pub fn boom() -> TlbConfig {
        TlbConfig {
            l1_entries: 32,
            l2_entries: Some(1024),
            l2_latency: 8,
            walk_latency: 40,
        }
    }
}

const PAGE_BITS: u32 = 12;

/// Slots of the recent-entry hint table (a power of two).
const RECENT: usize = 64;

/// A two-level TLB.
pub struct Tlb {
    cfg: TlbConfig,
    l1: Vec<(u64, u64)>, // (vpn, lru)
    /// Index in `l1` of the entry that last hit or was refilled among
    /// the vpns sharing a slot (`vpn % RECENT`). Only a hint: it is
    /// trusted after comparing that entry's vpn, so a slot left stale by
    /// an eviction or an aliasing page costs one compare.
    recent: [u8; RECENT],
    l2: Vec<u64>, // vpn per direct-mapped slot (u64::MAX = invalid)
    clock: u64,
    hits: u64,
    l2_hits: u64,
    walks: u64,
}

impl Tlb {
    /// Builds an empty TLB.
    pub fn new(cfg: TlbConfig) -> Tlb {
        assert!(
            cfg.l1_entries <= 256,
            "L1 TLB entries are indexed by a byte"
        );
        Tlb {
            l1: Vec::with_capacity(cfg.l1_entries),
            recent: [0; RECENT],
            l2: vec![u64::MAX; cfg.l2_entries.unwrap_or(0)],
            cfg,
            clock: 0,
            hits: 0,
            l2_hits: 0,
            walks: 0,
        }
    }

    /// Translates `addr`, returning the extra latency in cycles
    /// (0 on an L1 TLB hit).
    pub(crate) fn translate(&mut self, addr: u64) -> u32 {
        let vpn = addr >> PAGE_BITS;
        self.clock += 1;
        let now = self.clock;
        // A vpn sits in at most one entry, so trying the most recent one
        // of its slot before the scan finds the same entry the scan would.
        let slot = vpn as usize % RECENT;
        let hinted = self.recent[slot] as usize;
        let hit = match self.l1.get(hinted) {
            Some(e) if e.0 == vpn => Some(hinted),
            _ => self.l1.iter().position(|e| e.0 == vpn),
        };
        if let Some(i) = hit {
            self.l1[i].1 = now;
            self.recent[slot] = i as u8;
            self.hits += 1;
            return 0;
        }
        // L1 miss: check L2 if present.
        let mut latency = 0;
        let l2_hit = if !self.l2.is_empty() {
            let slot = (vpn as usize) & (self.l2.len() - 1);
            if self.l2[slot] == vpn {
                latency += self.cfg.l2_latency;
                self.l2_hits += 1;
                true
            } else {
                self.l2[slot] = vpn;
                false
            }
        } else {
            false
        };
        if !l2_hit {
            latency += self.cfg.walk_latency;
            self.walks += 1;
        }
        // Refill L1 (LRU).
        if self.l1.len() == self.cfg.l1_entries {
            // Least recently used, the first of equals.
            let mut idx = 0;
            for (i, e) in self.l1.iter().enumerate() {
                if e.1 < self.l1[idx].1 {
                    idx = i;
                }
            }
            self.l1.swap_remove(idx);
        }
        self.recent[slot] = self.l1.len() as u8;
        self.l1.push((vpn, now));
        latency
    }

    /// (l1 hits, l2 hits, page walks).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.l2_hits, self.walks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(TlbConfig::rocket());
        assert_eq!(t.translate(0x1000), 40); // cold walk
        assert_eq!(t.translate(0x1008), 0); // same page
        assert_eq!(t.translate(0x2000), 40); // next page walks
    }

    #[test]
    fn l1_capacity_evicts_lru() {
        let mut t = Tlb::new(TlbConfig::rocket());
        for p in 0..33u64 {
            t.translate(p << 12);
        }
        // Page 0 is the LRU victim; page 1..32 still resident.
        assert_eq!(t.translate(1 << 12), 0);
        assert_ne!(t.translate(0), 0);
    }

    #[test]
    fn l2_tlb_softens_l1_misses() {
        let mut boom = Tlb::new(TlbConfig::boom());
        let mut rocket = Tlb::new(TlbConfig::rocket());
        // Touch 64 pages twice: second pass misses L1 (32 entries) but
        // hits BOOM's L2 TLB.
        let mut boom_cost = 0;
        let mut rocket_cost = 0;
        for pass in 0..2 {
            for p in 0..64u64 {
                let b = boom.translate(p << 12);
                let r = rocket.translate(p << 12);
                if pass == 1 {
                    boom_cost += b;
                    rocket_cost += r;
                }
            }
        }
        assert!(
            boom_cost < rocket_cost,
            "L2 TLB should help: {boom_cost} vs {rocket_cost}"
        );
    }

    /// The TLB with a plain scan and no hint table: the model the hint
    /// must not change.
    struct ScanTlb {
        cfg: TlbConfig,
        l1: Vec<(u64, u64)>,
        l2: Vec<u64>,
        clock: u64,
        counters: (u64, u64, u64),
    }

    impl ScanTlb {
        fn translate(&mut self, addr: u64) -> u32 {
            let vpn = addr >> PAGE_BITS;
            self.clock += 1;
            if let Some(e) = self.l1.iter_mut().find(|e| e.0 == vpn) {
                e.1 = self.clock;
                self.counters.0 += 1;
                return 0;
            }
            let slot = (vpn as usize) & self.l2.len().wrapping_sub(1);
            let latency = if self.l2.get(slot) == Some(&vpn) {
                self.counters.1 += 1;
                self.cfg.l2_latency
            } else {
                if let Some(s) = self.l2.get_mut(slot) {
                    *s = vpn;
                }
                self.counters.2 += 1;
                self.cfg.walk_latency
            };
            if self.l1.len() == self.cfg.l1_entries {
                let lru = (0..self.l1.len()).min_by_key(|&i| self.l1[i].1).unwrap();
                self.l1.swap_remove(lru);
            }
            self.l1.push((vpn, self.clock));
            latency
        }
    }

    #[test]
    fn recent_entry_hint_matches_the_plain_scan() {
        for cfg in [TlbConfig::rocket(), TlbConfig::boom()] {
            let mut hinted = Tlb::new(cfg);
            let mut plain = ScanTlb {
                cfg,
                l1: Vec::new(),
                l2: vec![u64::MAX; cfg.l2_entries.unwrap_or(0)],
                clock: 0,
                counters: (0, 0, 0),
            };
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut hot = [0u64; 3];
            for step in 0..200_000u64 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = rng >> 20;
                // Three streams taking turns (the hint's worst case for a
                // single slot), pages that alias in the hint table (64
                // apart) and a working set around the 32 entries.
                let page = match r % 8 {
                    0..=4 => {
                        let s = (step % 3) as usize;
                        hot[s] = (hot[s] + r % 2) % 6;
                        s as u64 * 64 + hot[s]
                    }
                    5 | 6 => (r >> 3) % 36,
                    _ => (r >> 3) % 4096,
                };
                let addr = (page << PAGE_BITS) | ((r >> 16) % 4096);
                assert_eq!(hinted.translate(addr), plain.translate(addr), "step {step}");
            }
            assert_eq!(hinted.counters(), plain.counters);
            let (hits, _, walks) = plain.counters;
            assert!(hits > walks && walks > 1_000, "{:?}", plain.counters);
        }
    }

    #[test]
    fn counters_add_up() {
        let mut t = Tlb::new(TlbConfig::boom());
        for _ in 0..10 {
            t.translate(0x5000);
        }
        let (h, _, w) = t.counters();
        assert_eq!(h, 9);
        assert_eq!(w, 1);
    }
}
