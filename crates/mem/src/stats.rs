//! Aggregate memory-system statistics.

use serde::{Deserialize, Serialize};

/// Hit/miss and traffic counters for one simulated memory hierarchy.
///
/// The counters are cumulative over the life of the hierarchy; the
/// benchmark harnesses snapshot them before and after the region of
/// interest and subtract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// L1 data cache accesses.
    pub l1d_accesses: u64,
    /// L1 data cache misses.
    pub l1d_misses: u64,
    /// L1 instruction cache accesses.
    pub l1i_accesses: u64,
    /// L1 instruction cache misses.
    pub l1i_misses: u64,
    /// L2 accesses (i.e. L1 misses that reached L2).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC accesses (L2 misses when an LLC is present).
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Requests that reached DRAM.
    pub dram_reads: u64,
    /// Write-backs that reached DRAM.
    pub dram_writes: u64,
    /// DRAM row-buffer hits (subset of `dram_reads + dram_writes`).
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses (precharge/activate paid).
    pub dram_row_misses: u64,
    /// Extra cycles DRAM completions spent rounded up to FireSim token
    /// quantum boundaries (0 on silicon-like models with quantum 1).
    pub dram_token_stall_cycles: u64,
    /// Dirty-line write-backs generated anywhere in the hierarchy.
    pub writebacks: u64,
    /// Cycles lost to cache bank conflicts.
    pub bank_conflict_cycles: u64,
    /// Cycles lost waiting for a free MSHR.
    pub mshr_stall_cycles: u64,
    /// Busy beats on the system bus (request + response channels).
    pub bus_busy_cycles: u64,
    /// Prefetch line fetches issued.
    pub prefetches: u64,
}

impl MemStats {
    /// L1D miss rate in [0, 1].
    pub fn l1d_miss_rate(&self) -> f64 {
        ratio(self.l1d_misses, self.l1d_accesses)
    }

    /// L2 miss rate in [0, 1].
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }

    /// Element-wise difference (`self - earlier`), for interval accounting.
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            l1d_accesses: self.l1d_accesses - earlier.l1d_accesses,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            l1i_accesses: self.l1i_accesses - earlier.l1i_accesses,
            l1i_misses: self.l1i_misses - earlier.l1i_misses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            llc_accesses: self.llc_accesses - earlier.llc_accesses,
            llc_misses: self.llc_misses - earlier.llc_misses,
            dram_reads: self.dram_reads - earlier.dram_reads,
            dram_writes: self.dram_writes - earlier.dram_writes,
            dram_row_hits: self.dram_row_hits - earlier.dram_row_hits,
            dram_row_misses: self.dram_row_misses - earlier.dram_row_misses,
            dram_token_stall_cycles: self.dram_token_stall_cycles - earlier.dram_token_stall_cycles,
            writebacks: self.writebacks - earlier.writebacks,
            bank_conflict_cycles: self.bank_conflict_cycles - earlier.bank_conflict_cycles,
            mshr_stall_cycles: self.mshr_stall_cycles - earlier.mshr_stall_cycles,
            bus_busy_cycles: self.bus_busy_cycles - earlier.bus_busy_cycles,
            prefetches: self.prefetches - earlier.prefetches,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominator() {
        let s = MemStats::default();
        assert_eq!(s.l1d_miss_rate(), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let a = MemStats {
            l1d_accesses: 10,
            l1d_misses: 2,
            ..Default::default()
        };
        let b = MemStats {
            l1d_accesses: 25,
            l1d_misses: 5,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.l1d_accesses, 15);
        assert_eq!(d.l1d_misses, 3);
        assert!((d.l1d_miss_rate() - 0.2).abs() < 1e-12);
    }
}
