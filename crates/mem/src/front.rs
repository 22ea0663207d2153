//! Where a timing loop's front-end decisions come from.
//!
//! Three kinds of decision in a core's loop are functions of the
//! micro-op stream alone, never of time: whether a branch was predicted
//! correctly, at which level a TLB lookup hit, and the L1 tag step of an
//! access (hit or miss, the way, a dirty victim). The predictor, the TLB
//! and the L1 keys, LRU stamps, dirty bits and memo evolve by the same
//! steps in any lane that sees the same stream through the same core
//! model and L1 geometry. LRU stamps are a counter, not a clock, and
//! every core of a SoC reaches the hierarchy in the stream's order. What
//! stays each lane's own is timing: L1 bank free times, each way's ready
//! time (a hit on a line still in flight waits for *this* lane's fill),
//! the L1D MSHRs, the L2 and everything below it, the prefetcher's fills,
//! and the core clocks.
//!
//! A loop is generic over [`Front`], which has three implementations:
//! - [`Own`] asks the lane's own predictor, TLB and L1 tags: a scalar run;
//! - [`Lead`] does the same and appends every decision to a
//!   [`FrontRecord`]: the first lane of a group that shares a front end;
//! - [`Follow`] reads a sibling's record back and never touches its own
//!   predictor, TLB or L1 keys. Its L1 records hold ready words only.
//!
//! A record is one byte per decision, in program order, and dirty victim
//! lines in a side list. A core's own decisions are the byte its
//! predictor or TLB returns; an L1 decision is a way, tagged `MISS` on a
//! fill and `DIRTY` when the fill evicted a dirty line. A hit is noted
//! when it happens and a miss when its fill does: nothing between the two
//! decides anything.

use crate::cache::{Cache, Lookup};

/// An L1 note is a fill, not a hit.
const MISS: u8 = 0x80;
/// An L1 fill evicted a dirty line: the next entry of the victim list.
const DIRTY: u8 = 0x40;
/// The way bits of an L1 note.
const WAY: u8 = 0x3f;

/// The most ways an L1 may have for its lanes to share its decisions:
/// an L1 note names the way in six bits.
pub const MAX_SHARED_WAYS: u32 = WAY as u32 + 1;

/// Where a timing loop's branch, TLB and L1 tag decisions come from. The
/// provided methods decide from the lane's own state.
pub trait Front {
    /// Whether the lane keeps L1 tags of its own, and so invalidates
    /// other cores' copies of a line it stores to.
    const KEEPS_TAGS: bool = true;

    /// A one-byte decision of the core's: a branch's outcome, the level
    /// of a TLB lookup. `own` asks this lane's predictor or TLB.
    #[inline(always)]
    fn decide(&mut self, own: impl FnOnce() -> u8) -> u8 {
        own()
    }

    /// The L1 step of an access to a resident line: `Some((start,
    /// ready_at))` after the bank claim (and, for a tag keeper, the LRU
    /// touch and dirty mark); `None`, with `l1` untouched, on a miss.
    #[inline(always)]
    fn l1_hit(
        &mut self,
        l1: &mut Cache,
        addr: u64,
        is_store: bool,
        now: u64,
    ) -> Option<(u64, u64)> {
        l1.access_resident(addr, is_store, now)
    }

    /// The L1 lookup that starts the complete access.
    #[inline(always)]
    fn l1_lookup(&mut self, l1: &mut Cache, addr: u64, is_store: bool, now: u64) -> Lookup {
        l1.access(addr, is_store, now)
    }

    /// Installs a missed line whose data arrives at `ready_at`; returns
    /// the base address of a dirty victim.
    #[inline(always)]
    fn l1_fill(&mut self, l1: &mut Cache, addr: u64, is_store: bool, ready_at: u64) -> Option<u64> {
        l1.fill(addr, is_store, ready_at)
    }
}

/// A lane that decides everything from its own state.
pub struct Own;

impl Front for Own {}

/// One quantum's front-end decisions, written by a group's first lane
/// and read by the others. The buffers are reused from quantum to
/// quantum.
#[derive(Debug, Default)]
pub struct FrontRecord {
    notes: Vec<u8>,
    victims: Vec<u64>,
}

impl FrontRecord {
    /// Starts recording a quantum, over the previous one.
    pub fn lead(&mut self) -> Lead<'_> {
        self.notes.clear();
        self.victims.clear();
        Lead(self)
    }

    /// Reads the recorded quantum back from its first decision.
    pub fn follow(&self) -> Follow<'_> {
        Follow {
            record: self,
            note: 0,
            victim: 0,
        }
    }
}

/// A lane that decides from its own state and records every decision.
pub struct Lead<'a>(&'a mut FrontRecord);

impl Lead<'_> {
    /// The way the access to `addr` just hit or filled.
    #[inline(always)]
    fn way(&self, l1: &Cache, addr: u64) -> u8 {
        let way = l1.last_way(addr);
        debug_assert!(
            way <= WAY,
            "an L1 of more than {MAX_SHARED_WAYS} ways leads a group"
        );
        way
    }
}

impl Front for Lead<'_> {
    #[inline(always)]
    fn decide(&mut self, own: impl FnOnce() -> u8) -> u8 {
        let decision = own();
        self.0.notes.push(decision);
        decision
    }

    #[inline(always)]
    fn l1_hit(
        &mut self,
        l1: &mut Cache,
        addr: u64,
        is_store: bool,
        now: u64,
    ) -> Option<(u64, u64)> {
        let hit = l1.access_resident(addr, is_store, now)?;
        let way = self.way(l1, addr);
        self.0.notes.push(way);
        Some(hit)
    }

    fn l1_fill(&mut self, l1: &mut Cache, addr: u64, is_store: bool, ready_at: u64) -> Option<u64> {
        // A follower overwrites the way's ready word, where `fill` on a
        // line already present would keep the earlier of the two.
        debug_assert!(!l1.contains(addr), "an L1 refill found its line present");
        let victim = l1.fill(addr, is_store, ready_at);
        let mut note = MISS | self.way(l1, addr);
        if let Some(line) = victim {
            note |= DIRTY;
            self.0.victims.push(line);
        }
        self.0.notes.push(note);
        victim
    }
}

/// A lane that times from a sibling's recorded decisions.
pub struct Follow<'a> {
    record: &'a FrontRecord,
    note: usize,
    victim: usize,
}

impl Follow<'_> {
    /// Whether every recorded decision has been read.
    pub fn done(&self) -> bool {
        self.note == self.record.notes.len() && self.victim == self.record.victims.len()
    }

    #[inline(always)]
    fn next(&mut self) -> u8 {
        let note = self.record.notes[self.note];
        self.note += 1;
        note
    }
}

impl Front for Follow<'_> {
    const KEEPS_TAGS: bool = false;

    #[inline(always)]
    fn decide(&mut self, _own: impl FnOnce() -> u8) -> u8 {
        self.next()
    }

    #[inline(always)]
    fn l1_hit(&mut self, l1: &mut Cache, addr: u64, _: bool, now: u64) -> Option<(u64, u64)> {
        let note = self.record.notes[self.note];
        if note & MISS != 0 {
            return None;
        }
        self.note += 1;
        Some((l1.claim_bank(addr, now), l1.ready_word(addr, note)))
    }

    #[inline(always)]
    fn l1_lookup(&mut self, l1: &mut Cache, addr: u64, _: bool, now: u64) -> Lookup {
        Lookup {
            start: l1.claim_bank(addr, now),
            ready_at: None,
        }
    }

    fn l1_fill(&mut self, l1: &mut Cache, addr: u64, _: bool, ready_at: u64) -> Option<u64> {
        let note = self.next();
        debug_assert!(note & MISS != 0, "a follower's fill met a hit note");
        l1.set_ready_word(addr, note & WAY, ready_at);
        (note & DIRTY != 0).then(|| {
            let line = self.record.victims[self.victim];
            self.victim += 1;
            line
        })
    }
}
