//! Set-associative, banked, write-back cache timing model.
//!
//! Models exactly the knobs the paper tunes in Table 4/5: sets, ways,
//! line size, bank count (`L2 Banks` column), hit latency, and MSHR
//! count. Replacement is true LRU. The model is timing-only — data
//! values live in the functional interpreter — so a "hit" is a tag-array
//! hit and an access returns when the data *would* be available.
//!
//! Every level (L1I, L1D, L2, LLC slice) is one [`Cache`] with one layout:
//! a set is one record, and a cache holds records only for the chunks of
//! sets it has filled, so building a SoC allocates no set tables. A way's
//! LRU stamp and dirty bit share one 32-bit slot: stamps are 31 bits, and
//! a clock that reaches the top renumbers every set's stamps by rank.

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

/// The largest LRU stamp: a slot holds its way's stamp above the dirty
/// bit, so a stamp has 31 bits. The clock never passes it; once there,
/// the next operation that stamps renumbers every record first.
const STAMP_MAX: u32 = (1 << 31) - 1;

/// Entries of the way memo (a power of two); sets alias modulo this.
const MEMO: usize = 256;

/// Sets per chunk of records (a power of two; a cache with fewer sets is
/// one chunk). A chunk is allocated by the first fill into any of its
/// sets.
const CHUNK_SETS: usize = 16;

/// A single cache instance (one level, one shared array).
///
/// A set is one record of `u64` words: its `ways` keys (`tag | VALID`,
/// 0 = invalid), then one 32-bit slot per way, two to a word (way `2k`
/// in the low half), then the cycles the ways' data is present. A slot
/// is the way's LRU stamp shifted left by one, its dirty bit in bit 0,
/// and sits next to the keys a probe has just read. That is 40 words at
/// 16 ways, 20 at 8. An L1 that follows another lane's tag decisions
/// (`crate::front`) keeps only the ready words, `ways` to a record.
/// Records live in chunks of `CHUNK_SETS` consecutive sets, and a chunk
/// holds words only once a line has been filled into it: a cache holds
/// records only for the chunks it has filled, so building one allocates
/// no set tables and the MILK-V LLC (four 16 MiB slices) costs what a
/// workload touches, up to 21 MB. A never-filled chunk is an empty
/// slice, which a probe's bounds check reads as a miss.
///
/// Each hit or fill stamps its way with the next tick of a 31-bit clock,
/// so the stamps of a set's valid ways are distinct and order them by
/// last use. When the clock reaches `STAMP_MAX`, the next operation
/// first rewrites every record's stamps as their ranks `1..=ways` (ties
/// by way) and restarts the clock at `ways`: the order within each set,
/// and so every victim, is what unbounded stamps would give.
///
/// A probe compares the set's keys against one wanted word: first the
/// way the memo remembers for the set, then all ways at once with a
/// branch-free compare unrolled for 4, 8 and 16 ways. A tag is resident
/// in at most one way of its set, so the order of the compares cannot
/// change which way answers. The other fields are touched only for the
/// way that hit.
pub struct Cache {
    cfg: CacheConfig,
    /// One slice of set records per chunk, empty until its first fill.
    chunks: Vec<Box<[u64]>>,
    bank_free_at: Vec<u64>,
    /// Way that last hit or was filled in set `s`, at `s % MEMO`. Only a
    /// hint: a probe trusts it after comparing that way's key, so an
    /// entry left by an aliasing set or an evicted line costs one compare.
    memo: [u8; MEMO],
    /// The newest stamp in any record; at most `STAMP_MAX`.
    lru_clock: u32,
    ways: usize,
    /// Words of one set record.
    record: usize,
    /// Words of one chunk: `CHUNK_SETS` records, or `sets` if fewer.
    chunk_words: usize,
    offset_bits: u32,
    index_mask: u64,
    /// Precomputed `offset_bits + log2(sets)`: one shift extracts a tag.
    tag_shift: u32,
    /// Precomputed `banks - 1`: one mask selects a bank.
    bank_mask: u64,
}

/// Where the record of a line's set lives, and how to search it.
#[derive(Clone, Copy)]
struct Place {
    set: usize,
    chunk: usize,
    /// First word of the set's record in its chunk.
    base: usize,
    /// First ready word of the set's record in its chunk.
    ready: usize,
    ways: usize,
    /// The way the memo remembers for the set: compared first.
    hint: u8,
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

/// Compares every key of one set against `want`; returns the way that
/// matches.
#[inline(never)]
fn scan(keys: &[u64], want: u64) -> Option<usize> {
    match keys.len() {
        4 => scan_ways::<4>(keys, want),
        8 => scan_ways::<8>(keys, want),
        16 => scan_ways::<16>(keys, want),
        _ => keys.iter().position(|&k| k == want),
    }
}

/// The one tag probe every path shares: the way of the set at `at` in
/// `records` (its chunk) whose key is `want`. The memo's way is compared
/// first, inlined into the resident-line path; the scan stays out of
/// line. A chunk never filled is empty, so reading the memo's key is out
/// of bounds there, and that is the miss.
#[inline(always)]
fn probe(records: &[u64], at: Place, want: u64) -> Option<usize> {
    let hint = at.hint as usize;
    match records.get(at.base + hint) {
        Some(&key) if key == want => Some(hint),
        Some(_) => scan(&records[at.base..at.base + at.ways], want),
        None => None,
    }
}

/// The word of `way`'s slot in a record whose slots start at `slots`,
/// and the slot's bit offset in it.
#[inline(always)]
fn slot_at(slots: usize, way: usize) -> (usize, u32) {
    (slots + way / 2, (way % 2 * 32) as u32)
}

/// The slot of `way` in `slots`, a record's slot words.
#[inline(always)]
fn slot(slots: &[u64], way: usize) -> u32 {
    let (word, shift) = slot_at(0, way);
    (slots[word] >> shift) as u32
}

/// Overwrites the slot of `way` in `slots` with `value`.
#[inline(always)]
fn set_slot(slots: &mut [u64], way: usize, value: u32) {
    let (word, shift) = slot_at(0, way);
    slots[word] = slots[word] & !(u64::from(u32::MAX) << shift) | u64::from(value) << shift;
}

/// Hit bookkeeping for `way` of the set at `at` in `records`: LRU
/// `stamp`, dirty mark on a store; returns when the line's data is present.
#[inline(always)]
fn touch(records: &mut [u64], at: Place, way: usize, stamp: u32, is_store: bool) -> u64 {
    let (base, ways) = (at.base, at.ways);
    let (word, shift) = slot_at(base + ways, way);
    // Keep the dirty bit, replace the stamp above it.
    let marks = u64::from(stamp) << 1 | u64::from(is_store);
    records[word] = records[word] & !(u64::from(!1u32) << shift) | marks << shift;
    records[at.ready + way]
}

/// The rank of `way` in a set with these `keys` and slot words. The way
/// a fill replaces ranks least: the first invalid way, else the least
/// recently used. An invalid way's rank is its index, a valid way's its
/// slot above that. A valid way's stamp is at least 1, so every invalid
/// way ranks first, and valid ways' stamps are distinct, so the dirty bit
/// below a stamp never decides.
#[inline(always)]
fn rank(keys: &[u64], slots: &[u64], way: usize) -> u64 {
    let valid = 0u64.wrapping_sub(u64::from(keys[way] != 0));
    u64::from(slot(slots, way)) << 8 & valid | way as u64
}

/// The way with the least [`rank`], branch-free. A power-of-two way
/// count `N` takes the minimum as a tree of depth log2 `N`, so a fill
/// into an LLC set waits on 4 compares, not 16.
#[inline(always)]
fn victim_of<const N: usize>(keys: &[u64], slots: &[u64]) -> usize {
    let (keys, slots) = (&keys[..N], &slots[..N / 2]);
    let mut ranks: [u64; N] = std::array::from_fn(|w| rank(keys, slots, w));
    let mut n = N;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            ranks[i] = ranks[2 * i].min(ranks[2 * i + 1]);
        }
    }
    (ranks[0] & 0xff) as usize
}

/// The way a fill into a set with these `keys` and slot words replaces:
/// [`victim_of`] at the way counts of the unrolled scans, a linear
/// minimum of the ranks at any other.
#[inline(always)]
fn victim(keys: &[u64], slots: &[u64]) -> usize {
    match keys.len() {
        4 => victim_of::<4>(keys, slots),
        8 => victim_of::<8>(keys, slots),
        16 => victim_of::<16>(keys, slots),
        ways => {
            let least = (0..ways)
                .map(|w| rank(keys, slots, w))
                .fold(u64::MAX, u64::min);
            (least & 0xff) as usize
        }
    }
}

/// A chunk's records at its first fill: `words` zeros, every way invalid.
/// Out of line, so `fill`'s common path carries no allocation.
#[cold]
#[inline(never)]
fn materialise(words: usize) -> Box<[u64]> {
    vec![0; words].into_boxed_slice()
}

impl Cache {
    /// Builds an empty (all-invalid) cache: the chunk directory only.
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate();
        let (sets, ways) = (cfg.sets as usize, cfg.ways as usize);
        let record = 2 * ways + ways.div_ceil(2);
        Cache {
            chunks: vec![Box::default(); sets.div_ceil(CHUNK_SETS)],
            bank_free_at: vec![0; cfg.banks as usize],
            memo: [0; MEMO],
            lru_clock: 0,
            ways,
            record,
            chunk_words: record * sets.min(CHUNK_SETS),
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

    /// Where the set of the line containing `addr` lives, and the key
    /// word the line has there.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (Place, u64) {
        let set = ((addr >> self.offset_bits) & self.index_mask) as usize;
        let place = Place {
            set,
            chunk: set / CHUNK_SETS,
            base: set % CHUNK_SETS * self.record,
            ready: set % CHUNK_SETS * self.record + self.record - self.ways,
            ways: self.ways,
            hint: self.memo[set % MEMO],
        };
        (place, addr >> self.tag_shift | VALID)
    }

    /// Occupies the bank of `addr` for one cycle (tag + data array read)
    /// from `now` or from when it frees; returns that start cycle.
    #[inline(always)]
    pub(crate) fn claim_bank(&mut self, addr: u64, now: u64) -> u64 {
        let bank = ((addr >> self.offset_bits) & self.bank_mask) as usize;
        let start = now.max(self.bank_free_at[bank]);
        self.bank_free_at[bank] = start + 1;
        start
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
        let (at, want) = self.locate(addr);
        self.make_room();
        self.lru_clock += 1;
        let records: &mut [u64] = &mut self.chunks[at.chunk];
        let way = probe(records, at, want)?;
        self.memo[at.set % MEMO] = way as u8;
        Some(touch(records, at, way, self.lru_clock, is_store))
    }

    /// [`Cache::access`] for a line that is resident, and nothing at all
    /// for one that is not: `Some((start, ready_at))` after the same
    /// bank claim, LRU touch and dirty mark `access` makes on a hit,
    /// `None` on a miss, which changes no line, stamp order or bank.
    #[inline(always)]
    pub(crate) fn access_resident(
        &mut self,
        addr: u64,
        is_store: bool,
        now: u64,
    ) -> Option<(u64, u64)> {
        let (at, want) = self.locate(addr);
        self.make_room();
        let records: &mut [u64] = &mut self.chunks[at.chunk];
        let way = probe(records, at, want)?;
        self.lru_clock += 1;
        self.memo[at.set % MEMO] = way as u8;
        let ready_at = touch(records, at, way, self.lru_clock, is_store);
        Some((self.claim_bank(addr, now), ready_at))
    }

    /// Installs the line containing `addr`, whose data arrives at
    /// `ready_at` (the fill may still be in flight — accesses that hit it
    /// before then wait). Returns the base address of a dirty victim if
    /// one was evicted. The only operation that materialises a chunk.
    pub fn fill(&mut self, addr: u64, is_store: bool, ready_at: u64) -> Option<u64> {
        let (at, want) = self.locate(addr);
        let ways = at.ways;
        self.make_room();
        self.lru_clock += 1;
        let chunk = &mut self.chunks[at.chunk];
        // Already present (e.g. a racing fill from another core's miss)?
        if let Some(way) = probe(chunk, at, want) {
            self.memo[at.set % MEMO] = way as u8;
            let present = touch(chunk, at, way, self.lru_clock, is_store);
            chunk[at.ready + way] = present.min(ready_at);
            return None;
        }
        if chunk.is_empty() {
            *chunk = materialise(self.chunk_words);
        }
        let (keys, rest) = chunk[at.base..at.base + self.record].split_at_mut(ways);
        let (slots, ready) = rest.split_at_mut(ways.div_ceil(2));
        let victim = victim(keys, slots);
        let old = keys[victim];
        let evicted = (old != 0 && slot(slots, victim) & 1 != 0).then(|| {
            // Reconstruct the victim's base address from tag+set.
            (old & !VALID) << self.tag_shift | (at.set as u64) << self.offset_bits
        });
        keys[victim] = want;
        set_slot(slots, victim, self.lru_clock << 1 | u32::from(is_store));
        ready[victim] = ready_at;
        self.memo[at.set % MEMO] = victim as u8;
        evicted
    }

    /// Leaves room for one more stamp: a clock at `STAMP_MAX` renumbers
    /// first. Every operation that may stamp a way calls it before it
    /// borrows a chunk.
    #[inline(always)]
    fn make_room(&mut self) {
        if self.lru_clock == STAMP_MAX {
            self.renumber();
        }
    }

    /// Rewrites every materialised record's stamps as their ranks in the
    /// set, `1..=ways` with ties broken by way, keeping each dirty bit,
    /// and restarts the clock at `ways`. Within a set the valid ways keep
    /// their order, and every stamp the clock writes next is newer.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let ways = self.ways;
        let mut order: Vec<usize> = Vec::with_capacity(ways);
        for chunk in self.chunks.iter_mut().filter(|c| !c.is_empty()) {
            debug_assert_eq!(
                chunk.len(),
                self.chunk_words,
                "a follower's L1 stamps no way"
            );
            for record in chunk.chunks_exact_mut(self.record) {
                let slots = &mut record[ways..ways + ways.div_ceil(2)];
                order.clear();
                order.extend(0..ways);
                order.sort_by_key(|&w| slot(slots, w) >> 1);
                for (rank, &w) in (1..).zip(&order) {
                    set_slot(slots, w, rank << 1 | slot(slots, w) & 1);
                }
            }
        }
        self.lru_clock = ways as u32;
    }

    /// The way the last hit or fill in the set of `addr` used: after an
    /// access to `addr` hits or fills, the way that holds its line.
    #[inline(always)]
    pub(crate) fn last_way(&self, addr: u64) -> u8 {
        self.memo[self.locate(addr).0.set % MEMO]
    }

    /// Where the ready word of `way` in the set of `addr` lives in a
    /// cache that keeps ready words only: the chunk, and the index in it.
    #[inline(always)]
    fn ready_slot(&self, addr: u64, way: u8) -> (usize, usize) {
        let set = ((addr >> self.offset_bits) & self.index_mask) as usize;
        (
            set / CHUNK_SETS,
            set % CHUNK_SETS * self.ways + way as usize,
        )
    }

    /// Words of one chunk in a cache that keeps ready words only.
    fn ready_chunk_words(&self) -> usize {
        self.chunk_words / self.record * self.ways
    }

    /// When the data of `way` in the set of `addr` is present, in a
    /// cache that keeps ready words only: a follower's L1, whose tags
    /// live in the lane it follows (`crate::front`). The way was filled
    /// before, so its chunk holds words.
    #[inline(always)]
    pub(crate) fn ready_word(&self, addr: u64, way: u8) -> u64 {
        let (chunk, at) = self.ready_slot(addr, way);
        debug_assert_eq!(self.chunks[chunk].len(), self.ready_chunk_words());
        self.chunks[chunk][at]
    }

    /// A follower's fill: `way` of the set of `addr` has its data at
    /// `ready_at`. The first fill of a chunk materialises its ready words.
    pub(crate) fn set_ready_word(&mut self, addr: u64, way: u8, ready_at: u64) {
        let (chunk, at) = self.ready_slot(addr, way);
        let words = self.ready_chunk_words();
        let chunk = &mut self.chunks[chunk];
        if chunk.is_empty() {
            *chunk = materialise(words);
        }
        debug_assert_eq!(
            chunk.len(),
            words,
            "a tag-keeping cache took a follower's fill"
        );
        chunk[at] = ready_at;
    }

    /// Invalidates the line containing `addr` (coherence downgrade),
    /// returning true if a valid line was dropped.
    #[inline]
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (at, want) = self.locate(addr);
        let records: &mut [u64] = &mut self.chunks[at.chunk];
        match probe(records, at, want) {
            Some(way) => {
                records[at.base + way] = 0;
                true
            }
            None => false,
        }
    }

    /// True if the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (at, want) = self.locate(addr);
        probe(&self.chunks[at.chunk], at, want).is_some()
    }

    /// Number of currently valid lines (for capacity invariants in tests).
    pub fn valid_lines(&self) -> usize {
        let keys = self.chunks.iter().flat_map(|c| c.chunks_exact(self.record));
        keys.flat_map(|record| &record[..self.ways])
            .filter(|&&k| k != 0)
            .count()
    }

    /// Chunks that hold records (test witness for lazy materialisation).
    #[cfg(test)]
    pub(crate) fn materialised_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| !c.is_empty()).count()
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

    /// Proptest-style equivalence: for every probe shape (1/2/3/12/32
    /// ways take the generic scan, 4/8/16 the unrolled ones; an odd way
    /// count leaves half a slot word spare) with and without bank
    /// interleaving, in a cache of less than one chunk and one of sixteen
    /// chunks, 50k seeded random operations must drive the chunked record
    /// store and the reference, with its unbounded `u64` stamps, through
    /// identical hit/miss, timing, writeback, invalidation and residency
    /// sequences. Two of the three seeds renumber the stamps at a fixed
    /// interval as a clock at `STAMP_MAX` would, which must change no
    /// decision; only the third can compare the clocks.
    #[test]
    fn soa_layout_matches_aos_reference_model() {
        let shapes = [1, 2, 3, 4, 8, 12, 16, 32].into_iter().enumerate();
        let geometries = shapes.flat_map(|(i, ways)| {
            let banks = if i % 2 == 0 { 1 } else { 4 };
            [(4, ways, banks), (256, ways, 4 / banks)]
        });
        let runs = [
            (1u64, None),
            (0xDEAD_BEEF, Some(997)),
            (0x1234_5678_9ABC, Some(61)),
        ];
        for (sets, ways, banks) in geometries {
            for (seed, renumber_every) in runs {
                let cfg = CacheConfig {
                    sets,
                    ways,
                    banks,
                    ..small()
                };
                let what = format!("sets {sets} ways {ways} banks {banks} seed {seed:#x}");
                let mut soa = Cache::new(cfg);
                let mut aos = RefCache::new(cfg);
                let mut rng = seed | 1;
                for step in 0..50_000u64 {
                    if renumber_every.is_some_and(|n| step % n == n - 1) {
                        soa.renumber();
                    }
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // A tight address space (four lines per way and set)
                    // so sets conflict and evict often.
                    let addr = (rng >> 11) % (4 * cfg.capacity());
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
                if renumber_every.is_none() {
                    assert_eq!(u64::from(soa.lru_clock), aos.lru_clock, "{what}");
                }
            }
        }
    }

    /// A clock that crosses `STAMP_MAX` renumbers and picks the victims
    /// unbounded stamps pick: the least recently used line goes, and a
    /// dirty one is written back, on either side of the wrap.
    #[test]
    fn the_clock_wraps_without_changing_a_victim() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 4,
            ..small()
        };
        let mut c = Cache::new(cfg);
        c.lru_clock = STAMP_MAX - 2;
        let line = |i: u64| i * 64;
        // Lines 0..4 fill the set; 0 and 2 are dirty. The second fill
        // stamps STAMP_MAX, so the third renumbers first: the clock
        // restarts at the way count.
        for i in 0..4 {
            assert_eq!(c.fill(line(i), i % 2 == 0, 0), None);
        }
        assert_eq!(c.lru_clock, 4 + 2);
        // Touching 0 leaves 1 2 3 0 from oldest, so 1 goes.
        assert!(c.access(line(0), false, 0).hit());
        assert_eq!(c.fill(line(4), false, 0), None);
        assert!(!c.contains(line(1)));
        // Then 2 (dirty), 3, 0 (dirty) in turn.
        assert_eq!(c.fill(line(5), false, 0), Some(line(2)));
        assert_eq!(c.fill(line(6), false, 0), None);
        assert_eq!(c.fill(line(7), false, 0), Some(line(0)));
        assert_eq!(c.valid_lines(), 4);

        // A wrap in the middle of a run of stores keeps every dirty bit.
        let mut c = Cache::new(cfg);
        c.lru_clock = STAMP_MAX - 3;
        for i in 0..4 {
            c.fill(line(i), true, 0);
        }
        c.access(line(3), false, 0);
        assert_eq!(c.lru_clock, 4 + 2, "the clock restarted at the way count");
        let evicted: Vec<_> = (4..8).filter_map(|i| c.fill(line(i), false, 0)).collect();
        assert_eq!(evicted, [0, 1, 2, 3].map(line));
    }

    /// A set record is `ways` keys, a 32-bit slot per way and `ways`
    /// ready words: 20 words at 8 ways, 40 at 16 (the MILK-V LLC's).
    #[test]
    fn a_set_record_is_two_words_and_a_half_per_way() {
        let words = |ways| Cache::new(CacheConfig { ways, ..small() }).record;
        assert_eq!(words(8), 20);
        assert_eq!(words(16), 40);
        assert_eq!(words(3), 8);
    }

    /// A MILK-V LLC slice (16 384 sets × 16 ways, 1 024 chunks) holds no
    /// set record until a line is filled; probing never-filled sets
    /// through every entry point allocates nothing, and fills into `k`
    /// distinct chunks materialise exactly `k`.
    #[test]
    fn only_filled_chunks_hold_records() {
        let milkv_slice = CacheConfig {
            sets: 16384,
            ways: 16,
            line_bytes: 64,
            banks: 4,
            hit_latency: 8,
            mshrs: 16,
        };
        let mut c = Cache::new(milkv_slice);
        assert_eq!(c.materialised_chunks(), 0);
        let chunk_bytes = (CHUNK_SETS as u32 * milkv_slice.line_bytes) as u64;
        for i in 0..4096u64 {
            let addr = i * 0x1_0040;
            assert!(!c.contains(addr));
            assert!(!c.invalidate(addr));
            assert_eq!(c.access_quiet(addr, i % 2 == 0), None);
            assert_eq!(c.access_resident(addr, i % 2 == 0, i), None);
            assert!(!c.access(addr, i % 2 == 0, i).hit());
        }
        assert_eq!(c.materialised_chunks(), 0);
        assert_eq!(c.valid_lines(), 0);
        // Three fills into chunk 0, two into chunk 5, one into chunk 1023.
        for addr in [0, 64, 0x100_0000, 5 * chunk_bytes, 5 * chunk_bytes + 0x40] {
            c.fill(addr, true, 1);
        }
        c.fill(1023 * chunk_bytes + 15 * 64, false, 1);
        assert_eq!(c.materialised_chunks(), 3);
        assert_eq!(c.valid_lines(), 6);
        // Probes of filled and never-filled sets leave the count alone.
        assert!(c.contains(64) && c.invalidate(64) && !c.contains(64));
        assert!(!c.contains(7 * chunk_bytes));
        assert_eq!(c.materialised_chunks(), 3);
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
