//! Per-core timing statistics.

use bsim_telemetry::CounterBlock;
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

    /// Publishes every counter into `block` under `prefix` (e.g. `tile0`).
    pub fn publish(&self, prefix: &str, block: &mut CounterBlock) {
        let mut put = |name: &str, v: u64| block.set_named(&format!("{prefix}.{name}"), v);
        put("cycles", self.cycles);
        put("retired", self.retired);
        put("branch.lookups", self.branch_lookups);
        put("branch.conditional", self.branches);
        put("branch.mispredicts", self.mispredicts);
        put("fetch.lines", self.fetch_lines);
        put("fetch.stall_cycles", self.fetch_stall_cycles);
        put("stall.data_cycles", self.data_stall_cycles);
        put("stall.structural_cycles", self.structural_stall_cycles);
        put("stall.tlb_cycles", self.tlb_stall_cycles);
        put("lsu.loads", self.loads);
        put("lsu.stores", self.stores);
        put("rob.high_water", self.rob_high_water);
        put("lsq.high_water", self.lsq_high_water);
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

    #[test]
    fn publish_prefixes_every_counter() {
        let s = CoreStats {
            cycles: 100,
            retired: 150,
            mispredicts: 7,
            ..Default::default()
        };
        let mut block = CounterBlock::new(true);
        s.publish("tile3", &mut block);
        assert_eq!(block.get("tile3.cycles"), Some(100));
        assert_eq!(block.get("tile3.branch.mispredicts"), Some(7));
        assert_eq!(block.get("tile3.rob.high_water"), Some(0));
    }
}
