//! Last-level cache models.
//!
//! The paper (§4) is explicit that FireSim's LLC model "behaves like an
//! SRAM and does not account for detailed cache system latencies such as
//! tag access delay or data retrieval latency", and models the MILK-V's
//! 64 MiB LLC as four 16 MiB slices, one per memory channel. Both
//! behaviours are captured here:
//!
//! * [`LlcStyle::FiresimSram`] — tag-array lookup with a single flat
//!   latency, regardless of hit/miss path details,
//! * [`LlcStyle::Silicon`] — separate tag and data latencies plus banked
//!   contention, approximating a real multi-megabyte NUCA-ish LLC.

use crate::cache::{Cache, CacheConfig};
use serde::{Deserialize, Serialize};

/// LLC configuration (one slice).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Cache geometry of one slice.
    pub geometry: CacheConfig,
    /// Number of slices; physical addresses interleave across slices at
    /// line granularity (the paper: 4 × 16 MiB slices on 4 channels).
    pub slices: u32,
    /// Additional data-array latency for the silicon model (the FireSim
    /// model ignores it — that is the point).
    pub data_latency: u32,
    /// Which behaviour to model.
    pub style: LlcStyle,
}

/// Which LLC behaviour to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LlcStyle {
    /// FireSim's simplified SRAM-like model (flat latency).
    FiresimSram,
    /// Latency-accurate silicon model (tag + data latency).
    Silicon,
}

/// Outcome of an LLC access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LlcOutcome {
    /// Tag hit?
    pub hit: bool,
    /// Cycle the access completes (hit) or is ready to go to DRAM (miss).
    pub ready_at: u64,
}

/// A sliced last-level cache.
pub struct LlcModel {
    cfg: LlcConfig,
    slices: Vec<Cache>,
}

impl LlcModel {
    /// Builds an empty LLC with `cfg.slices` slices.
    pub fn new(cfg: LlcConfig) -> LlcModel {
        assert!(
            cfg.slices.is_power_of_two(),
            "slice count must be a power of two"
        );
        let slices = (0..cfg.slices).map(|_| Cache::new(cfg.geometry)).collect();
        LlcModel { cfg, slices }
    }

    /// Configuration of this LLC.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Total capacity across slices in bytes.
    pub fn capacity(&self) -> u64 {
        self.cfg.geometry.capacity() * self.cfg.slices as u64
    }

    /// Slice index for an address (line-granularity interleaving).
    fn slice_of(&self, addr: u64) -> usize {
        let line = addr >> self.cfg.geometry.line_bytes.trailing_zeros();
        (line & (self.cfg.slices as u64 - 1)) as usize
    }

    /// Timing lookup at cycle `now`. On a miss the caller fetches the
    /// line from DRAM and installs it with [`LlcModel::fill`].
    pub fn access(&mut self, addr: u64, is_store: bool, now: u64) -> LlcOutcome {
        let idx = self.slice_of(addr);
        let style = self.cfg.style;
        let tag_latency = self.cfg.geometry.hit_latency as u64;
        let data_latency = self.cfg.data_latency as u64;
        let look = self.slices[idx].access(addr, is_store, now);
        let latency = match (style, look.hit()) {
            // FireSim SRAM model: flat latency, hit or miss detection alike.
            (LlcStyle::FiresimSram, _) => tag_latency,
            // Silicon: tag probe then data array on a hit; miss detection
            // costs only the tag probe.
            (LlcStyle::Silicon, true) => tag_latency + data_latency,
            (LlcStyle::Silicon, false) => tag_latency,
        };
        // A hit on a line still in flight waits for its data.
        let ready_at = (look.start + latency).max(look.ready_at.unwrap_or(0));
        LlcOutcome {
            hit: look.hit(),
            ready_at,
        }
    }

    /// Installs a line whose DRAM data arrives at `ready_at`; returns a
    /// dirty victim's base address if one was evicted.
    pub fn fill(&mut self, addr: u64, is_store: bool, ready_at: u64) -> Option<u64> {
        let idx = self.slice_of(addr);
        self.slices[idx].fill(addr, is_store, ready_at)
    }

    /// True if the line is resident in its slice.
    pub fn contains(&self, addr: u64) -> bool {
        self.slices[self.slice_of(addr)].contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn milkv_slice() -> CacheConfig {
        // 16 MiB slice: 16384 sets * 16 ways * 64 B.
        CacheConfig {
            sets: 16384,
            ways: 16,
            line_bytes: 64,
            banks: 4,
            hit_latency: 8,
            mshrs: 16,
        }
    }

    fn llc(style: LlcStyle) -> LlcModel {
        LlcModel::new(LlcConfig {
            geometry: milkv_slice(),
            slices: 4,
            data_latency: 18,
            style,
        })
    }

    #[test]
    fn milkv_llc_is_64_mib() {
        assert_eq!(llc(LlcStyle::FiresimSram).capacity(), 64 * 1024 * 1024);
    }

    #[test]
    fn a_new_milkv_llc_holds_no_set_record() {
        let mut l = llc(LlcStyle::Silicon);
        let chunks = |l: &LlcModel| -> Vec<usize> {
            l.slices.iter().map(Cache::materialised_chunks).collect()
        };
        assert_eq!(chunks(&l), [0; 4]);
        assert!(!l.access(0x8000_0040, false, 0).hit);
        assert_eq!(chunks(&l), [0; 4], "a miss allocates nothing");
        l.fill(0x8000_0040, true, 100);
        assert_eq!(chunks(&l), [0, 1, 0, 0]);
    }

    #[test]
    fn slices_interleave_by_line() {
        let l = llc(LlcStyle::FiresimSram);
        assert_eq!(l.slice_of(0), 0);
        assert_eq!(l.slice_of(64), 1);
        assert_eq!(l.slice_of(128), 2);
        assert_eq!(l.slice_of(192), 3);
        assert_eq!(l.slice_of(256), 0);
    }

    #[test]
    fn firesim_model_ignores_data_latency() {
        let mut fs = llc(LlcStyle::FiresimSram);
        let mut si = llc(LlcStyle::Silicon);
        let addr = 0x4000;
        // Prime both.
        fs.access(addr, false, 0);
        fs.fill(addr, false, 0);
        si.access(addr, false, 0);
        si.fill(addr, false, 0);
        let fs_hit = fs.access(addr, false, 100);
        let si_hit = si.access(addr, false, 100);
        assert!(fs_hit.hit && si_hit.hit);
        assert_eq!(fs_hit.ready_at, 108); // tag only
        assert_eq!(si_hit.ready_at, 126); // tag + data
        assert!(
            si_hit.ready_at > fs_hit.ready_at,
            "silicon LLC must be slower per hit than FireSim's SRAM model"
        );
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut l = llc(LlcStyle::Silicon);
        let out = l.access(0x1234_0000, false, 0);
        assert!(!out.hit);
        assert!(!l.contains(0x1234_0000), "lookup alone must not install");
        l.fill(0x1234_0000, false, 120);
        assert!(l.contains(0x1234_0000));
        let again = l.access(0x1234_0000, false, 50);
        assert!(again.hit);
        assert!(again.ready_at >= 120, "in-flight fill gates the data");
    }
}
