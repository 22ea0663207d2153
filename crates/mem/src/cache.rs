//! Set-associative, banked, write-back cache timing model.
//!
//! Models exactly the knobs the paper tunes in Table 4/5: sets, ways,
//! line size, bank count (`L2 Banks` column), hit latency, and MSHR
//! count. Replacement is true LRU. The model is timing-only — data
//! values live in the functional interpreter — so a "hit" is a tag-array
//! hit and an access returns when the data *would* be available.

use serde::{Deserialize, Serialize};

/// Static cache geometry and timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Number of banks; consecutive lines are interleaved across banks.
    pub banks: u32,
    /// Hit latency in core cycles.
    pub hit_latency: u32,
    /// Outstanding-miss registers (0 = fully blocking).
    pub mshrs: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }

    fn validate(&self) {
        assert!(self.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.banks.is_power_of_two(), "banks must be a power of two");
        assert!(
            (1..=256).contains(&self.ways),
            "need between 1 and 256 ways"
        );
        assert!(
            self.line_bytes > 1 || self.sets > 1,
            "a one-byte, one-set cache leaves no key bit free for VALID"
        );
    }
}

/// Result of a timing lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lookup {
    /// Cycle at which the bank accepted the access (>= issue cycle; later
    /// under bank conflicts).
    pub start: u64,
    /// On a tag hit, the cycle the line's data is actually present (later
    /// than `start` when the line is still in flight from a fill, e.g. a
    /// prefetch that has not arrived yet); `None` on a miss.
    pub ready_at: Option<u64>,
}

impl Lookup {
    /// Tag hit?
    #[inline]
    pub fn hit(&self) -> bool {
        self.ready_at.is_some()
    }
}

/// Key bit: the way holds a valid line. Tags are `addr >> tag_shift` with
/// `tag_shift >= 1`, so bit 63 is never part of a tag and an all-zero key
/// is exactly "invalid".
const VALID: u64 = 1 << 63;

/// Entries of the way memo (a power of two); sets alias modulo this.
const MEMO: usize = 256;

/// A single cache instance (one level, one shared array).
///
/// Per way, indexed by `set * ways + way`: one `key` word holding
/// `tag | VALID` (0 = invalid), one dirty byte, the LRU timestamp and the
/// cycle the line's data is present — 25 bytes a line. A probe compares
/// the set's keys against one wanted word: first the way the memo
/// remembers for the set, then all ways at once with a branch-free
/// compare unrolled for 4, 8 and 16 ways. A tag is resident in at most
/// one way of its set, so the order of the compares cannot change which
/// way answers. Dirty bytes, LRU stamps and ready times are touched only
/// for the way that hit.
pub struct Cache {
    cfg: CacheConfig,
    /// `tag | VALID` per way, 0 when the way is invalid.
    keys: Vec<u64>,
    /// 1 when the line has been written since it was filled.
    dirty: Vec<u8>,
    /// LRU timestamps (monotone counter, larger = more recent).
    lru: Vec<u64>,
    /// Cycle at which each line's data is present (fills in flight have
    /// future ready times).
    ready_at: Vec<u64>,
    bank_free_at: Vec<u64>,
    /// Way that last hit or was filled in set `s`, at `s % MEMO`. Only a
    /// hint: a probe trusts it after comparing that way's key, so an
    /// entry left by an aliasing set or an evicted line costs one compare.
    memo: [u8; MEMO],
    lru_clock: u64,
    ways: usize,
    offset_bits: u32,
    index_mask: u64,
    /// Precomputed `offset_bits + log2(sets)`: one shift extracts a tag.
    tag_shift: u32,
    /// Precomputed `banks - 1`: one mask selects a bank.
    bank_mask: u64,
}

/// Branch-free compare of one `N`-way set against `want`.
#[inline(always)]
fn scan_ways<const N: usize>(set: &[u64], want: u64) -> Option<usize> {
    let set: &[u64; N] = set.try_into().ok()?;
    let mut hits = 0u32;
    for (w, &k) in set.iter().enumerate() {
        hits |= u32::from(k == want) << w;
    }
    (hits != 0).then(|| hits.trailing_zeros() as usize)
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate();
        let n = (cfg.sets * cfg.ways) as usize;
        Cache {
            keys: vec![0; n],
            dirty: vec![0; n],
            lru: vec![0; n],
            ready_at: vec![0; n],
            bank_free_at: vec![0; cfg.banks as usize],
            memo: [0; MEMO],
            lru_clock: 0,
            ways: cfg.ways as usize,
            offset_bits: cfg.line_bytes.trailing_zeros(),
            index_mask: (cfg.sets - 1) as u64,
            tag_shift: cfg.line_bytes.trailing_zeros() + cfg.sets.trailing_zeros(),
            bank_mask: cfg.banks as u64 - 1,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set index and wanted key word of the line containing `addr`.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let set = (addr >> self.offset_bits) & self.index_mask;
        (set as usize, addr >> self.tag_shift | VALID)
    }

    /// The one tag probe every path shares: global index of the way of
    /// `set` whose key is `want`. The memo compare is the part worth
    /// inlining into the resident-line path; the scan stays out of line.
    #[inline(always)]
    fn probe(&self, set: usize, want: u64) -> Option<usize> {
        let base = set * self.ways;
        let remembered = base + self.memo[set % MEMO] as usize;
        if self.keys[remembered] == want {
            return Some(remembered);
        }
        self.scan(base, want)
    }

    /// Compares every way of the set starting at `base` against `want`.
    #[inline(never)]
    fn scan(&self, base: usize, want: u64) -> Option<usize> {
        let keys = &self.keys[base..base + self.ways];
        let way = match self.ways {
            4 => scan_ways::<4>(keys, want),
            8 => scan_ways::<8>(keys, want),
            16 => scan_ways::<16>(keys, want),
            _ => keys.iter().position(|&k| k == want),
        };
        way.map(|w| base + w)
    }

    /// Occupies the bank of `addr` for one cycle (tag + data array read)
    /// from `now` or from when it frees; returns that start cycle.
    #[inline(always)]
    fn claim_bank(&mut self, addr: u64, now: u64) -> u64 {
        let bank = ((addr >> self.offset_bits) & self.bank_mask) as usize;
        let start = now.max(self.bank_free_at[bank]);
        self.bank_free_at[bank] = start + 1;
        start
    }

    /// Hit bookkeeping for way `li` of `set`: LRU touch, dirty on stores;
    /// returns when the line's data is present.
    #[inline(always)]
    fn touch(&mut self, set: usize, li: usize, is_store: bool) -> u64 {
        self.lru_clock += 1;
        self.lru[li] = self.lru_clock;
        self.dirty[li] |= is_store as u8;
        self.memo[set % MEMO] = (li - set * self.ways) as u8;
        self.ready_at[li]
    }

    /// Base address of the line containing `addr`.
    #[inline]
    pub(crate) fn line_base(&self, addr: u64) -> u64 {
        addr & !((self.cfg.line_bytes as u64) - 1)
    }

    /// Performs a timing access at cycle `now`.
    ///
    /// On a miss the line is *not* yet filled — call [`Cache::fill`] once
    /// the lower level returns so the fill time ordering is honored.
    /// On a hit the LRU state is updated and stores mark the line dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, is_store: bool, now: u64) -> Lookup {
        Lookup {
            start: self.claim_bank(addr, now),
            ready_at: self.access_quiet(addr, is_store),
        }
    }

    /// Like [`Cache::access`] but without occupying a bank — used by the
    /// prefetcher, which probes tags opportunistically in idle slots.
    /// Returns the line's ready time on a hit.
    #[inline]
    pub(crate) fn access_quiet(&mut self, addr: u64, is_store: bool) -> Option<u64> {
        let (set, want) = self.locate(addr);
        match self.probe(set, want) {
            Some(li) => Some(self.touch(set, li, is_store)),
            None => {
                self.lru_clock += 1;
                None
            }
        }
    }

    /// [`Cache::access`] for a line that is resident, and nothing at all
    /// for one that is not: `Some((start, ready_at))` after the same
    /// bank claim, LRU touch and dirty mark `access` makes on a hit,
    /// `None` with the cache untouched on a miss.
    #[inline(always)]
    pub(crate) fn access_resident(
        &mut self,
        addr: u64,
        is_store: bool,
        now: u64,
    ) -> Option<(u64, u64)> {
        let (set, want) = self.locate(addr);
        let li = self.probe(set, want)?;
        Some((self.claim_bank(addr, now), self.touch(set, li, is_store)))
    }

    /// Installs the line containing `addr`, whose data arrives at
    /// `ready_at` (the fill may still be in flight — accesses that hit it
    /// before then wait). Returns the base address of a dirty victim if
    /// one was evicted.
    pub fn fill(&mut self, addr: u64, is_store: bool, ready_at: u64) -> Option<u64> {
        let (set, want) = self.locate(addr);
        // Already present (e.g. a racing fill from another core's miss)?
        if let Some(li) = self.probe(set, want) {
            let present = self.touch(set, li, is_store);
            self.ready_at[li] = present.min(ready_at);
            return None;
        }
        self.lru_clock += 1;
        // Choose victim: first invalid way, else LRU.
        let base = set * self.ways;
        let mut victim = base;
        let mut best_lru = u64::MAX;
        for w in base..base + self.ways {
            if self.keys[w] == 0 {
                victim = w;
                break;
            }
            if self.lru[w] < best_lru {
                best_lru = self.lru[w];
                victim = w;
            }
        }
        let old = self.keys[victim];
        let evicted = (old != 0 && self.dirty[victim] != 0).then(|| {
            // Reconstruct the victim's base address from tag+set.
            (old & !VALID) << self.tag_shift | (set as u64) << self.offset_bits
        });
        self.keys[victim] = want;
        self.dirty[victim] = is_store as u8;
        self.lru[victim] = self.lru_clock;
        self.ready_at[victim] = ready_at;
        self.memo[set % MEMO] = (victim - base) as u8;
        evicted
    }

    /// Invalidates the line containing `addr` (coherence downgrade),
    /// returning true if a valid line was dropped.
    #[inline]
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, want) = self.locate(addr);
        match self.probe(set, want) {
            Some(li) => {
                self.keys[li] = 0;
                true
            }
            None => false,
        }
    }

    /// True if the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, want) = self.locate(addr);
        self.probe(set, want).is_some()
    }

    /// Number of currently valid lines (for capacity invariants in tests).
    pub fn valid_lines(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn hit_latency(&self) -> u32 {
        self.cfg.hit_latency
    }

    /// MSHR count.
    pub fn mshrs(&self) -> u32 {
        self.cfg.mshrs
    }
}

/// Tracks outstanding misses against a fixed MSHR budget.
///
/// Each MSHR is a slot that is *reserved* at [`MshrFile::admit`] and
/// released when the recorded completion time passes. A miss that finds
/// every slot reserved is delayed to the earliest slot-free time — the
/// "higher cache MSHRs" limitation §5.2.2 of the paper points at for
/// IS/MG.
#[derive(Clone, Debug)]
pub struct MshrFile {
    slots: Vec<u64>,
}

/// Handle for a reserved MSHR slot (pass back to [`MshrFile::record`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrSlot(usize);

impl MshrFile {
    /// An MSHR file with `capacity` entries (`0` is clamped to 1:
    /// a fully blocking cache still has one outstanding miss).
    pub fn new(capacity: u32) -> MshrFile {
        MshrFile {
            slots: vec![0; capacity.max(1) as usize],
        }
    }

    /// Reserves a slot for a miss issued at `now`; returns the slot and
    /// the (possibly delayed) start cycle.
    pub fn admit(&mut self, now: u64) -> (MshrSlot, u64) {
        // Earliest-free slot, the first of equals (`new` leaves at least one).
        let mut idx = 0;
        for (i, &free) in self.slots.iter().enumerate() {
            if free < self.slots[idx] {
                idx = i;
            }
        }
        let start = now.max(self.slots[idx]);
        self.slots[idx] = u64::MAX; // reserved until record()
        (MshrSlot(idx), start)
    }

    /// Records the completion time of an admitted miss, freeing its slot
    /// at that time.
    pub fn record(&mut self, slot: MshrSlot, completes: u64) {
        self.slots[slot.0] = completes;
    }

    /// Number of slots still reserved or completing after `now`.
    pub fn outstanding(&self, now: u64) -> usize {
        self.slots.iter().filter(|&&c| c > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
            banks: 2,
            hit_latency: 2,
            mshrs: 4,
        }
    }

    #[test]
    fn capacity_math() {
        assert_eq!(small().capacity(), 4 * 2 * 64);
        let rocket_l1 = CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            banks: 1,
            hit_latency: 2,
            mshrs: 2,
        };
        assert_eq!(rocket_l1.capacity(), 32 * 1024); // Table 5: 32 KiB
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(small());
        let a = 0x1000;
        assert!(!c.access(a, false, 0).hit());
        assert_eq!(c.fill(a, false, 0), None);
        assert!(c.access(a, false, 10).hit());
        assert!(c.contains(a));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(small());
        // Three lines mapping to the same set (set stride = sets*line = 256B).
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        for addr in [a, b, d] {
            c.access(addr, false, 0);
            c.fill(addr, false, 0);
        }
        // 2 ways: `a` (oldest) must be gone, `b` and `d` resident.
        assert!(!c.contains(a));
        assert!(c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn touching_refreshes_lru() {
        let mut c = Cache::new(small());
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        c.access(a, false, 0);
        c.fill(a, false, 0);
        c.access(b, false, 1);
        c.fill(b, false, 0);
        c.access(a, false, 2); // refresh a
        c.access(d, false, 3);
        c.fill(d, false, 0); // should evict b, not a
        assert!(c.contains(a));
        assert!(!c.contains(b));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(small());
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        c.access(a, true, 0);
        c.fill(a, true, 0); // dirty
        c.access(b, false, 1);
        c.fill(b, false, 0);
        c.access(d, false, 2);
        let wb = c.fill(d, false, 0);
        assert_eq!(wb, Some(a), "dirty line a must be written back");
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = Cache::new(small());
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        c.access(a, false, 0);
        c.fill(a, false, 0); // clean fill
        c.access(a, true, 1); // store hit dirties it
        c.access(b, false, 2);
        c.fill(b, false, 0);
        c.access(d, false, 3);
        assert_eq!(c.fill(d, false, 0), Some(a));
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = Cache::new(small());
        // Two addresses on the same bank (banks=2; lines 0 and 2 share bank 0).
        let (a, b) = (0x0u64, 0x80u64);
        let l1 = c.access(a, false, 5);
        let l2 = c.access(b, false, 5);
        assert_eq!(l1.start, 5);
        assert_eq!(l2.start, 6, "same-bank access must wait for the bank");
        // Different bank proceeds in parallel.
        let l3 = c.access(0x40, false, 5);
        assert_eq!(l3.start, 5);
    }

    #[test]
    fn invalidate_drops_line() {
        let mut c = Cache::new(small());
        c.access(0x40, false, 0);
        c.fill(0x40, false, 0);
        assert!(c.invalidate(0x40));
        assert!(!c.contains(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn valid_lines_never_exceed_capacity() {
        let mut c = Cache::new(small());
        for i in 0..1000u64 {
            let addr = i * 64;
            if !c.access(addr, i % 3 == 0, i).hit() {
                c.fill(addr, i % 3 == 0, i);
            }
        }
        assert!(c.valid_lines() <= (small().sets * small().ways) as usize);
    }

    /// The array-of-structs tag store with a plain first-match way loop,
    /// kept as the reference model for the equivalence test below.
    struct RefCache {
        cfg: CacheConfig,
        lines: Vec<(u64, bool, bool, u64, u64)>, // tag, valid, dirty, lru, ready_at
        bank_free_at: Vec<u64>,
        lru_clock: u64,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> RefCache {
            RefCache {
                lines: vec![(0, false, false, 0, 0); (cfg.sets * cfg.ways) as usize],
                bank_free_at: vec![0; cfg.banks as usize],
                lru_clock: 0,
                cfg,
            }
        }
        fn set_of(&self, addr: u64) -> u64 {
            (addr >> self.cfg.line_bytes.trailing_zeros()) & (self.cfg.sets - 1) as u64
        }
        fn tag_of(&self, addr: u64) -> u64 {
            addr >> (self.cfg.line_bytes.trailing_zeros() + self.cfg.sets.trailing_zeros())
        }
        fn way_of(&self, addr: u64) -> Option<usize> {
            let (set, tag) = (self.set_of(addr), self.tag_of(addr));
            let base = (set * self.cfg.ways as u64) as usize;
            (base..base + self.cfg.ways as usize)
                .find(|&i| self.lines[i].1 && self.lines[i].0 == tag)
        }
        fn access(&mut self, addr: u64, is_store: bool, now: u64) -> Lookup {
            let bank =
                ((addr >> self.cfg.line_bytes.trailing_zeros()) % self.cfg.banks as u64) as usize;
            let start = now.max(self.bank_free_at[bank]);
            self.bank_free_at[bank] = start + 1;
            Lookup {
                start,
                ready_at: self.access_quiet(addr, is_store),
            }
        }
        fn access_quiet(&mut self, addr: u64, is_store: bool) -> Option<u64> {
            self.lru_clock += 1;
            let way = self.way_of(addr)?;
            let l = &mut self.lines[way];
            l.3 = self.lru_clock;
            l.2 |= is_store;
            Some(l.4)
        }
        fn fill(&mut self, addr: u64, is_store: bool, ready_at: u64) -> Option<u64> {
            let (set, tag) = (self.set_of(addr), self.tag_of(addr));
            self.lru_clock += 1;
            if let Some(i) = self.way_of(addr) {
                let l = &mut self.lines[i];
                l.3 = self.lru_clock;
                l.2 |= is_store;
                l.4 = l.4.min(ready_at);
                return None;
            }
            let base = (set * self.cfg.ways as u64) as usize;
            let mut victim = 0usize;
            let mut best = u64::MAX;
            for way in 0..self.cfg.ways as usize {
                let l = &self.lines[base + way];
                if !l.1 {
                    victim = way;
                    break;
                }
                if l.3 < best {
                    best = l.3;
                    victim = way;
                }
            }
            let l = &mut self.lines[base + victim];
            let shift = self.cfg.line_bytes.trailing_zeros() + self.cfg.sets.trailing_zeros();
            let evicted =
                (l.1 && l.2).then(|| l.0 << shift | set << self.cfg.line_bytes.trailing_zeros());
            *l = (tag, true, is_store, self.lru_clock, ready_at);
            evicted
        }
        fn invalidate(&mut self, addr: u64) -> bool {
            match self.way_of(addr) {
                Some(i) => {
                    self.lines[i].1 = false;
                    self.lines[i].2 = false;
                    true
                }
                None => false,
            }
        }
    }

    /// Proptest-style equivalence: for every probe shape (1/2 ways take
    /// the generic scan, 4/8/16 the unrolled ones) with and without bank
    /// interleaving, 50k seeded random operations must drive the packed
    /// key store and the reference through identical hit/miss, timing,
    /// writeback, invalidation and residency sequences.
    #[test]
    fn soa_layout_matches_aos_reference_model() {
        for (ways, banks) in [(1, 1), (2, 4), (4, 1), (8, 4), (16, 1), (16, 4)] {
            for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC] {
                let cfg = CacheConfig {
                    ways,
                    banks,
                    ..small()
                };
                let what = format!("ways {ways} banks {banks} seed {seed:#x}");
                let mut soa = Cache::new(cfg);
                let mut aos = RefCache::new(cfg);
                let mut rng = seed | 1;
                for step in 0..50_000u64 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // A tight address space (four lines per way and set)
                    // so sets conflict and evict often.
                    let addr = (rng >> 11) % (0x400 * ways as u64);
                    let is_store = rng & 1 == 1;
                    match (rng >> 8) % 8 {
                        0 | 1 => {
                            let w = soa.fill(addr, is_store, step + 10);
                            assert_eq!(
                                w,
                                aos.fill(addr, is_store, step + 10),
                                "{what} step {step}"
                            );
                        }
                        2 => {
                            let hit = aos.way_of(addr).is_some();
                            assert_eq!(soa.contains(addr), hit, "{what} step {step}");
                        }
                        3 => {
                            let dropped = soa.invalidate(addr);
                            assert_eq!(dropped, aos.invalidate(addr), "{what} step {step}");
                        }
                        4 => {
                            let a = soa.access_quiet(addr, is_store);
                            assert_eq!(a, aos.access_quiet(addr, is_store), "{what} step {step}");
                        }
                        5 => {
                            // The resident-line entry point is `access` on
                            // a hit and a no-op on a miss.
                            let a = soa.access_resident(addr, is_store, step);
                            let b = aos
                                .way_of(addr)
                                .map(|_| aos.access(addr, is_store, step))
                                .map(|l| (l.start, l.ready_at.unwrap()));
                            assert_eq!(a, b, "{what} step {step}");
                        }
                        _ => {
                            let a = soa.access(addr, is_store, step);
                            let b = aos.access(addr, is_store, step);
                            assert_eq!(a, b, "{what} step {step}");
                        }
                    }
                }
                assert_eq!(
                    soa.valid_lines(),
                    aos.lines.iter().filter(|l| l.1).count(),
                    "{what}"
                );
                assert_eq!(soa.lru_clock, aos.lru_clock, "{what}");
            }
        }
    }

    #[test]
    fn mshr_file_limits_overlap() {
        let mut m = MshrFile::new(2);
        let (s1, t1) = m.admit(0);
        assert_eq!(t1, 0);
        m.record(s1, 100);
        let (s2, t2) = m.admit(1);
        assert_eq!(t2, 1);
        m.record(s2, 200);
        // Both MSHRs busy: next miss waits for the earliest completion (100).
        let (s3, t3) = m.admit(2);
        assert_eq!(t3, 100);
        m.record(s3, 300);
        assert_eq!(m.outstanding(150), 2); // 200 and 300 still in flight
                                           // A reserved (not yet recorded) slot blocks admission forever
                                           // until recorded.
        let (s4, t4) = m.admit(250);
        assert_eq!(t4, 250); // the 200-slot freed
        m.record(s4, 400);
    }
}
