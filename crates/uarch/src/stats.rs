//! Per-core timing statistics.

use serde::{Deserialize, Serialize};

/// Counters accumulated by a timing core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Total cycles.
    pub cycles: u64,
    /// Retired micro-ops.
    pub retired: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Mispredicted control-flow ops (any class).
    pub mispredicts: u64,
    /// Cycles the front-end was stalled on instruction fetch.
    pub fetch_stall_cycles: u64,
    /// Cycles lost waiting on operands (scoreboard / IQ wait).
    pub data_stall_cycles: u64,
    /// Cycles lost waiting for structural resources (ROB/LSQ/store buffer).
    pub structural_stall_cycles: u64,
    /// Extra cycles paid to the TLB.
    pub tlb_stall_cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Control-flow ops that consulted the branch predictor (any class).
    pub branch_lookups: u64,
    /// Cache lines brought in by the front end (L1I line crossings).
    pub fetch_lines: u64,
    /// ROB occupancy high-water mark (0 on in-order cores).
    pub rob_high_water: u64,
    /// Load/store-queue (or store-buffer) occupancy high-water mark.
    pub lsq_high_water: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
        let s = CoreStats {
            cycles: 100,
            retired: 150,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
    }
}
