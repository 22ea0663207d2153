//! The assembled memory hierarchy of one simulated SoC tile/cluster.
//!
//! Per core: L1I + L1D (with MSHRs). Shared: banked L2, system bus,
//! optional LLC, DRAM. This mirrors the paper's target topology — a
//! 4-core Rocket/BOOM tile with per-core 32/64 KiB L1s, a shared
//! 512 KiB / 1 MiB L2, a 64/128-bit system bus, an optional 64 MiB LLC
//! (MILK-V only) and one external memory.
//!
//! Coherence is modeled as write-invalidate between the private L1Ds:
//! a store fill invalidates the line in every other core's L1D. That is
//! enough to surface the false-sharing and shared-line ping-pong costs
//! the multi-rank workloads (NPB, UME, LAMMPS) exercise.

use crate::bus::{Bus, BusConfig};
use crate::cache::{Cache, CacheConfig, MshrFile};
use crate::dram::{DramConfig, DramModel};
use crate::llc::{LlcConfig, LlcModel};
use crate::stats::MemStats;
use serde::{Deserialize, Serialize};

/// What kind of access the core is making.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I path).
    Ifetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// Which level ultimately serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Serviced by the first-level cache.
    L1,
    /// Serviced by the shared L2.
    L2,
    /// Serviced by the last-level cache.
    Llc,
    /// Went all the way to DRAM.
    Dram,
}

/// Timing result of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the requested data is available to the core.
    pub complete_at: u64,
    /// Deepest level touched.
    pub level: HitLevel,
}

/// Full hierarchy configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of cores sharing the L2.
    pub cores: usize,
    /// Per-core instruction cache.
    pub l1i: CacheConfig,
    /// Per-core data cache.
    pub l1d: CacheConfig,
    /// Shared second-level cache.
    pub l2: CacheConfig,
    /// System bus between the tile and the outer memory system.
    pub bus: BusConfig,
    /// Optional last-level cache (MILK-V has one; Banana Pi does not).
    pub llc: Option<LlcConfig>,
    /// External memory.
    pub dram: DramConfig,
    /// Core clock, GHz (converts DRAM ns timings to cycles).
    pub core_freq_ghz: f64,
    /// Latency of the in-tile L1→L2 crossing, cycles.
    pub l1_to_l2_latency: u32,
    /// Stride L2-prefetcher degree (0 = no prefetcher). The silicon
    /// parts (SpacemiT K1, SG2042) have hardware prefetchers; the stock
    /// Rocket/BOOM FireSim targets do not — one of the reasons the
    /// memory microbenchmarks diverge in Figures 1 and 2.
    pub prefetch_degree: u32,
}

/// Per-core stride-detector state for the L2 prefetcher.
#[derive(Clone, Copy, Debug, Default)]
struct StrideState {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// The stateful hierarchy.
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l1d_mshrs: Vec<MshrFile>,
    l2: Cache,
    l2_mshrs: MshrFile,
    prefetcher: Vec<StrideState>,
    bus: Bus,
    llc: Option<LlcModel>,
    dram: DramModel,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemoryHierarchy {
        assert!(cfg.cores >= 1);
        MemoryHierarchy {
            l1i: (0..cfg.cores).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..cfg.cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l1d_mshrs: (0..cfg.cores)
                .map(|_| MshrFile::new(cfg.l1d.mshrs))
                .collect(),
            l2: Cache::new(cfg.l2),
            l2_mshrs: MshrFile::new(cfg.l2.mshrs),
            prefetcher: vec![StrideState::default(); cfg.cores],
            bus: Bus::new(cfg.bus),
            llc: cfg.llc.map(LlcModel::new),
            dram: DramModel::new(cfg.dram.clone(), cfg.core_freq_ghz),
            stats: MemStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Quiescence hint in `TickModel::next_activity` terms: the cycle
    /// after which no in-flight DRAM activity remains. Cache tag state
    /// is updated eagerly at access time, so the DRAM busy horizon is
    /// the only future event the hierarchy holds; `None` when the memory
    /// system is already drained.
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        let busy = self.dram.busy_until_cycle();
        (busy > now).then_some(busy)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        let (r, w, h) = self.dram.counters();
        s.dram_reads = r;
        s.dram_writes = w;
        s.dram_row_hits = h;
        s.dram_row_misses = (r + w).saturating_sub(h);
        s.dram_token_stall_cycles = self.dram.token_stall_cycles();
        s.bus_busy_cycles = self.bus.busy_cycles();
        s
    }

    /// Performs a timing access for `core` at cycle `now`.
    ///
    /// A line resident in the core's L1 is served here, inlined into the
    /// caller (who passes a constant `kind`): one tag probe, the bank
    /// claim, the LRU touch, the hit counters and, for a store, the
    /// invalidation of the other L1Ds. Anything else goes out of line to
    /// [`MemoryHierarchy::access_full`], which is the complete access and
    /// yields the same outcome and state for a resident line too.
    #[inline(always)]
    pub fn access(&mut self, core: usize, addr: u64, kind: AccessKind, now: u64) -> AccessOutcome {
        debug_assert!(core < self.cfg.cores);
        let is_store = kind == AccessKind::Store;
        let is_ifetch = kind == AccessKind::Ifetch;
        let l1 = if is_ifetch {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        let Some((start, ready_at)) = l1.access_resident(addr, is_store, now) else {
            return self.access_full(core, addr, kind, now);
        };
        let hit_lat = l1.hit_latency() as u64;
        if is_ifetch {
            self.stats.l1i_accesses += 1;
        } else {
            self.stats.l1d_accesses += 1;
        }
        self.stats.bank_conflict_cycles += start - now;
        if is_store {
            let line = self.l1d[core].line_base(addr);
            self.invalidate_other_l1ds(core, line);
        }
        AccessOutcome {
            // A line still in flight (e.g. prefetch) gates the data.
            complete_at: (start + hit_lat).max(ready_at),
            level: HitLevel::L1,
        }
    }

    /// The complete access, hit or miss: L1 lookup, MSHR admission,
    /// refill from the L2 and below, prefetch training, L1 fill and
    /// victim write-back.
    #[inline(never)]
    fn access_full(&mut self, core: usize, addr: u64, kind: AccessKind, now: u64) -> AccessOutcome {
        let is_store = kind == AccessKind::Store;
        let line = self.l1d[core].line_base(addr);

        // --- L1 lookup -------------------------------------------------
        let (l1, is_ifetch) = match kind {
            AccessKind::Ifetch => (&mut self.l1i[core], true),
            _ => (&mut self.l1d[core], false),
        };
        let hit_lat = l1.hit_latency() as u64;
        let look = l1.access(addr, is_store, now);
        if is_ifetch {
            self.stats.l1i_accesses += 1;
        } else {
            self.stats.l1d_accesses += 1;
        }
        self.stats.bank_conflict_cycles += look.start - now;
        if let Some(ready_at) = look.ready_at {
            // A line still in flight (e.g. prefetch) gates the data.
            let complete_at = (look.start + hit_lat).max(ready_at);
            if is_store {
                self.invalidate_other_l1ds(core, line);
            }
            return AccessOutcome {
                complete_at,
                level: HitLevel::L1,
            };
        }
        if is_ifetch {
            self.stats.l1i_misses += 1;
        } else {
            self.stats.l1d_misses += 1;
        }

        // --- MSHR admission ---------------------------------------------
        let (mshr, start) = if is_ifetch {
            (None, look.start) // ifetch path is blocking anyway
        } else {
            let (slot, s) = self.l1d_mshrs[core].admit(look.start);
            self.stats.mshr_stall_cycles += s - look.start;
            (Some(slot), s)
        };

        // --- L2 and below -------------------------------------------------
        let t_l2 = start + self.cfg.l1_to_l2_latency as u64;
        let (data_at, level) = self.refill_from_l2(line, is_store, t_l2);

        // Stride prefetch into the L2 (background; consumes DRAM/bus
        // bandwidth but does not delay the demand miss).
        if self.cfg.prefetch_degree > 0 && !is_ifetch {
            self.train_and_prefetch(core, line, start);
        }

        // Fill L1 and handle its victim.
        let l1 = if is_ifetch {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        if let Some(victim) = l1.fill(addr, is_store, data_at) {
            self.stats.writebacks += 1;
            self.writeback_to_l2(victim, data_at);
        }
        if let Some(slot) = mshr {
            self.l1d_mshrs[core].record(slot, data_at);
        }
        if is_store {
            self.invalidate_other_l1ds(core, line);
        }
        AccessOutcome {
            complete_at: data_at + hit_lat,
            level,
        }
    }

    /// L2 → (bus) → LLC → DRAM refill path; returns when the line reaches
    /// the tile and the deepest level touched.
    fn refill_from_l2(&mut self, line: u64, is_store: bool, now: u64) -> (u64, HitLevel) {
        self.stats.l2_accesses += 1;
        let l2_lat = self.l2.hit_latency() as u64;
        let look = self.l2.access(line, is_store, now);
        self.stats.bank_conflict_cycles += look.start - now;
        if let Some(ready_at) = look.ready_at {
            return ((look.start + l2_lat).max(ready_at), HitLevel::L2);
        }
        self.stats.l2_misses += 1;
        let (l2_slot, start) = self.l2_mshrs.admit(look.start);
        self.stats.mshr_stall_cycles += start - look.start;

        // Miss request crosses the system bus (header-only beat).
        let (_, bus_done) = self.bus.request(8, start + l2_lat);

        let (data_at, level) = match &mut self.llc {
            Some(llc) => {
                self.stats.llc_accesses += 1;
                let out = llc.access(line, is_store, bus_done);
                if out.hit {
                    (out.ready_at, HitLevel::Llc)
                } else {
                    self.stats.llc_misses += 1;
                    let d = self.dram.access(line, is_store, out.ready_at);
                    if let Some(wb) = llc.fill(line, is_store, d.done) {
                        // LLC victim goes to DRAM in the background.
                        self.dram.access(wb, true, d.done);
                    }
                    (d.done, HitLevel::Dram)
                }
            }
            None => {
                let d = self.dram.access(line, is_store, bus_done);
                (d.done, HitLevel::Dram)
            }
        };

        // Refill data crosses the bus back into the tile.
        let (_, back_done) = self.bus.respond(64, data_at);

        // Install in L2; dirty victim leaves the tile.
        if let Some(victim) = self.l2.fill(line, is_store, back_done) {
            self.stats.writebacks += 1;
            self.writeback_below_l2(victim, back_done);
        }
        self.l2_mshrs.record(l2_slot, back_done);
        (back_done, level)
    }

    /// Trains the per-core stride detector on a demand miss and, once a
    /// stride repeats, issues up to `prefetch_degree` line fetches ahead
    /// of the stream. Prefetches are best-effort: they skip resident
    /// lines, leave two L2 MSHRs free for demand misses, and probe tags
    /// without occupying cache banks.
    fn train_and_prefetch(&mut self, core: usize, line: u64, now: u64) {
        let st = &mut self.prefetcher[core];
        let stride = line as i64 - st.last_addr as i64;
        if stride != 0 && stride == st.stride {
            st.confidence = (st.confidence + 1).min(4);
        } else if stride != 0 {
            st.stride = stride;
            st.confidence = 0;
        }
        st.last_addr = line;
        let (stride, confident) = (st.stride, st.confidence >= 1);
        if !confident || stride == 0 || stride.unsigned_abs() > 4096 {
            return;
        }
        for d in 1..=self.cfg.prefetch_degree as i64 {
            let target = (line as i64 + d * stride) as u64;
            self.prefetch_line(target, now);
        }
    }

    /// Fetches one line into the L2 in the background.
    fn prefetch_line(&mut self, line: u64, now: u64) {
        if self.l2.access_quiet(line, false).is_some() {
            return;
        }
        // Leave headroom for demand misses in the L2 MSHR file.
        if self.l2_mshrs.outstanding(now) + 2 >= self.l2.mshrs() as usize {
            return;
        }
        let (slot, start) = self.l2_mshrs.admit(now);
        let (_, bus_done) = self.bus.request(8, start);
        let data_at = match &mut self.llc {
            Some(llc) => {
                let out = llc.access(line, false, bus_done);
                if out.hit {
                    out.ready_at
                } else {
                    let d = self.dram.access(line, false, out.ready_at);
                    if let Some(wb) = llc.fill(line, false, d.done) {
                        self.dram.access(wb, true, d.done);
                    }
                    d.done
                }
            }
            None => self.dram.access(line, false, bus_done).done,
        };
        let (_, back_done) = self.bus.respond(64, data_at);
        if let Some(victim) = self.l2.fill(line, false, back_done) {
            self.writeback_below_l2(victim, back_done);
        }
        self.l2_mshrs.record(slot, back_done);
        self.stats.prefetches += 1;
    }

    /// An L1 victim write-back lands in the L2 (marking it dirty there).
    fn writeback_to_l2(&mut self, victim: u64, now: u64) {
        if !self.l2.access(victim, true, now).hit() {
            // Non-inclusive corner: victim bypasses L2 and leaves the tile.
            self.writeback_below_l2(victim, now);
        }
    }

    /// A dirty line leaving the tile: bus + LLC-or-DRAM write.
    fn writeback_below_l2(&mut self, victim: u64, now: u64) {
        let (_, done) = self.bus.request(64, now);
        match &mut self.llc {
            Some(llc) => {
                let out = llc.access(victim, true, done);
                if !out.hit {
                    if let Some(wb) = llc.fill(victim, true, out.ready_at) {
                        self.dram.access(wb, true, out.ready_at);
                    }
                }
            }
            None => {
                self.dram.access(victim, true, done);
            }
        }
    }

    fn invalidate_other_l1ds(&mut self, writer: usize, line: u64) {
        for (i, cache) in self.l1d.iter_mut().enumerate() {
            if i != writer {
                cache.invalidate(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rocket_like(cores: usize) -> HierarchyConfig {
        HierarchyConfig {
            cores,
            l1i: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                banks: 1,
                hit_latency: 1,
                mshrs: 1,
            },
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                banks: 1,
                hit_latency: 2,
                mshrs: 2,
            },
            l2: CacheConfig {
                sets: 1024,
                ways: 8,
                line_bytes: 64,
                banks: 1,
                hit_latency: 12,
                mshrs: 8,
            },
            bus: BusConfig {
                width_bits: 64,
                latency: 4,
            },
            llc: None,
            dram: DramConfig::ddr3_2000(1),
            core_freq_ghz: 1.6,
            l1_to_l2_latency: 2,
            prefetch_degree: 0,
        }
    }

    #[test]
    fn l1_hit_is_cheap() {
        let mut h = MemoryHierarchy::new(rocket_like(1));
        let miss = h.access(0, 0x1000, AccessKind::Load, 0);
        assert_eq!(miss.level, HitLevel::Dram);
        let hit = h.access(0, 0x1008, AccessKind::Load, miss.complete_at + 10);
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(hit.complete_at - (miss.complete_at + 10), 2);
    }

    #[test]
    fn levels_are_progressively_slower() {
        let mut h = MemoryHierarchy::new(rocket_like(1));
        let a = 0x8000u64;
        let dram = h.access(0, a, AccessKind::Load, 0);
        let t1 = dram.complete_at + 100;
        let l1 = h.access(0, a, AccessKind::Load, t1);
        // Evict from L1 by filling its set (64-set, 8-way: stride 4096).
        let mut t = l1.complete_at;
        for i in 1..=8u64 {
            t = h
                .access(0, a + i * 4096, AccessKind::Load, t + 1)
                .complete_at;
        }
        let l2 = h.access(0, a, AccessKind::Load, t + 100);
        assert_eq!(
            l2.level,
            HitLevel::L2,
            "line evicted from L1 must still be in L2"
        );
        let l1_lat = l1.complete_at - t1;
        let l2_lat = l2.complete_at - (t + 100);
        let dram_lat = dram.complete_at;
        assert!(l1_lat < l2_lat, "L1 {l1_lat} !< L2 {l2_lat}");
        assert!(l2_lat < dram_lat, "L2 {l2_lat} !< DRAM {dram_lat}");
    }

    #[test]
    fn store_invalidates_other_cores() {
        let mut h = MemoryHierarchy::new(rocket_like(2));
        let a = 0x4000u64;
        // Both cores load the line.
        let t = h.access(0, a, AccessKind::Load, 0).complete_at;
        let t = h.access(1, a, AccessKind::Load, t).complete_at;
        // Core 1 hits now.
        let hit = h.access(1, a, AccessKind::Load, t + 1);
        assert_eq!(hit.level, HitLevel::L1);
        // Core 0 stores: core 1's copy must die.
        let t = h
            .access(0, a, AccessKind::Store, hit.complete_at)
            .complete_at;
        let after = h.access(1, a, AccessKind::Load, t + 1);
        assert_ne!(
            after.level,
            HitLevel::L1,
            "invalidated line cannot hit in L1"
        );
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut h = MemoryHierarchy::new(rocket_like(1));
        let t = h.access(0, 0x1_0000, AccessKind::Ifetch, 0).complete_at;
        let s = h.stats();
        assert_eq!(s.l1i_accesses, 1);
        assert_eq!(s.l1i_misses, 1);
        let hit = h.access(0, 0x1_0000, AccessKind::Ifetch, t + 1);
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(h.stats().l1i_misses, 1);
    }

    #[test]
    fn llc_sits_between_l2_and_dram() {
        let mut cfg = rocket_like(1);
        cfg.llc = Some(LlcConfig {
            geometry: CacheConfig {
                sets: 1024,
                ways: 16,
                line_bytes: 64,
                banks: 4,
                hit_latency: 8,
                mshrs: 16,
            },
            slices: 4,
            data_latency: 18,
            style: crate::llc::LlcStyle::FiresimSram,
        });
        let mut h = MemoryHierarchy::new(cfg);
        let a = 0x10_0000u64;
        let first = h.access(0, a, AccessKind::Load, 0);
        assert_eq!(first.level, HitLevel::Dram);
        // Evict from L1 and L2 but the LLC keeps it: touch enough lines
        // mapping to the same L2 set (L2: 1024 sets → stride 64 KiB).
        let mut t = first.complete_at;
        for i in 1..=8u64 {
            t = h
                .access(0, a + i * 65536, AccessKind::Load, t + 1)
                .complete_at;
        }
        // Also flush L1 set (stride 4 KiB) — the L2 evictions above happen
        // to map to the same L1 set too (65536 % 4096 == 0), so done.
        let again = h.access(0, a, AccessKind::Load, t + 100);
        assert_eq!(again.level, HitLevel::Llc, "line must be served by the LLC");
        let s = h.stats();
        assert!(s.llc_accesses > 0);
    }

    #[test]
    fn stats_track_misses() {
        let mut h = MemoryHierarchy::new(rocket_like(1));
        let mut t = 0;
        for i in 0..100u64 {
            t = h.access(0, i * 64, AccessKind::Load, t + 1).complete_at;
        }
        let s = h.stats();
        assert_eq!(s.l1d_accesses, 100);
        assert_eq!(s.l1d_misses, 100); // all distinct lines
        assert_eq!(s.dram_reads, 100);
    }

    /// The resident-line path of `access` against `access_full` taken
    /// for every access: seeded multi-core load/store/ifetch streams over
    /// hot private lines, shared lines (stores invalidate them in the
    /// other L1Ds), strided sweeps (which train the prefetcher when it is
    /// on) and conflict-heavy strides, with issue times that sometimes
    /// trail an in-flight fill. Every outcome and the final counters
    /// must agree.
    #[test]
    fn resident_path_matches_the_full_access() {
        for (cores, prefetch_degree, with_llc) in
            [(2, 0, false), (2, 2, true), (4, 0, true), (4, 4, false)]
        {
            let mut cfg = rocket_like(cores);
            cfg.prefetch_degree = prefetch_degree;
            // Small enough to evict all the time; 4- and 8-way probes.
            cfg.l1i.sets = 8;
            cfg.l1i.ways = 4;
            cfg.l1d.sets = 8;
            cfg.l1d.banks = 4;
            cfg.l2.sets = 64;
            cfg.l2.banks = 4;
            if with_llc {
                cfg.llc = Some(LlcConfig {
                    geometry: CacheConfig {
                        sets: 256,
                        ways: 16,
                        line_bytes: 64,
                        banks: 4,
                        hit_latency: 8,
                        mshrs: 16,
                    },
                    slices: 4,
                    data_latency: 18,
                    style: crate::llc::LlcStyle::Silicon,
                });
            }
            for seed in [7u64, 0xC0FF_EE00, 0x5EED_1234_5678] {
                let what = format!("{cores} cores, prefetch {prefetch_degree}, seed {seed:#x}");
                let mut fast = MemoryHierarchy::new(cfg.clone());
                let mut full = MemoryHierarchy::new(cfg.clone());
                let mut now = vec![0u64; cores];
                let mut sweep = vec![0u64; cores];
                let mut rng = seed | 1;
                let mut l1_hits = 0u64;
                for step in 0..60_000u64 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let r = rng >> 16;
                    let core = (r % cores as u64) as usize;
                    let private = 0x100_0000 * (core as u64 + 1);
                    let (kind, addr) = match (r >> 4) % 16 {
                        0..=3 => (AccessKind::Ifetch, 0x8_0000 + (r >> 8) % 48 * 64),
                        4..=6 => (AccessKind::Load, private + (r >> 8) % 24 * 8),
                        7 => (AccessKind::Store, private + (r >> 8) % 24 * 8),
                        8 | 9 => (AccessKind::Load, 0x4_0000 + (r >> 8) % 16 * 64),
                        10 => (AccessKind::Store, 0x4_0000 + (r >> 8) % 16 * 64),
                        11..=13 => {
                            sweep[core] += 64;
                            let kind = if r & 1 == 0 {
                                AccessKind::Load
                            } else {
                                AccessKind::Store
                            };
                            (kind, private + 0x10_0000 + sweep[core] % 0x2_0000)
                        }
                        _ => (AccessKind::Load, private + (r >> 8) % 40 * 512),
                    };
                    let a = fast.access(core, addr, kind, now[core]);
                    let b = full.access_full(core, addr, kind, now[core]);
                    assert_eq!(a, b, "{what}, step {step}: {kind:?} {addr:#x}");
                    l1_hits += u64::from(a.level == HitLevel::L1);
                    // Mostly issue back to back (so hits land on lines
                    // still in flight), sometimes wait for the data.
                    now[core] = if r & 0x300 == 0 {
                        a.complete_at
                    } else {
                        now[core] + 1
                    };
                }
                assert_eq!(fast.stats(), full.stats(), "{what}");
                let s = fast.stats();
                assert!(l1_hits > 20_000 && s.l1d_misses > 5_000 && s.l1i_misses > 100);
                assert!(s.writebacks > 100 && s.bank_conflict_cycles > 0, "{what}");
                assert_eq!(s.prefetches > 0, prefetch_degree > 0, "{what}");
            }
        }
    }

    #[test]
    fn mshr_limit_throttles_parallel_misses() {
        let mut few = rocket_like(1);
        few.l1d.mshrs = 1;
        let mut many = rocket_like(1);
        many.l1d.mshrs = 16;
        let mut hf = MemoryHierarchy::new(few);
        let mut hm = MemoryHierarchy::new(many);
        // Issue 8 independent misses at the same cycle.
        let f_done = (0..8u64)
            .map(|i| hf.access(0, i * 4096, AccessKind::Load, 0).complete_at)
            .max();
        let m_done = (0..8u64)
            .map(|i| hm.access(0, i * 4096, AccessKind::Load, 0).complete_at)
            .max();
        assert!(
            f_done.unwrap() > m_done.unwrap(),
            "1 MSHR must serialize misses: {f_done:?} vs {m_done:?}"
        );
    }
}
