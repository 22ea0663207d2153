//! Out-of-order window timing model (BOOM-like).
//!
//! Parameterised to cover the three stock BOOM configurations the paper
//! sweeps (Table 4: Small / Medium / Large) plus the tuned "MILK-V
//! Simulation Model" and a wider hardware-reference configuration for
//! the SG2042 itself.
//!
//! The model tracks, per micro-op, the four canonical timestamps —
//! dispatch (front-end + ROB space), issue (operands + functional unit +
//! LSQ), completion (latency or memory round-trip) and in-order retire —
//! advancing a monotone clock. That one-pass formulation captures the
//! effects the paper's tuning knobs exist for:
//!
//! * ROB size bounds memory-level parallelism (a DRAM miss at the head
//!   fills the window and stalls dispatch — §5.2.2's explanation for the
//!   CG/IS multi-core gap),
//! * load/store-queue capacity bounds outstanding memory ops,
//! * decode width bounds dispatch throughput,
//! * dependency chains serialize issue regardless of width (the EM1/EM5/
//!   ED1 microbenchmarks),
//! * TAGE misprediction flushes cost the front-end refill time.

use crate::latency::OpLatencies;
use crate::predictor::{BoomPredictor, BranchPredictor};
use crate::stats::CoreStats;
use crate::tlb::{Tlb, TlbConfig};
use crate::uop::MicroOp;
use crate::TimingCore;
use bsim_isa::OpClass;
use bsim_mem::{AccessKind, MemoryHierarchy};
use serde::{Deserialize, Serialize};

/// Out-of-order core parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OooConfig {
    /// Front-end fetch width.
    pub fetch_width: u32,
    /// Decode/dispatch width (also the retire width).
    pub decode_width: u32,
    /// Reorder-buffer entries.
    pub rob: u32,
    /// Load-queue entries.
    pub ldq: u32,
    /// Store-queue entries.
    pub stq: u32,
    /// Integer ALUs.
    pub int_units: u32,
    /// Memory pipelines (AGU/load-store ports).
    pub mem_ports: u32,
    /// FP pipelines.
    pub fp_units: u32,
    /// Maximum unresolved branches in flight (Table 5: 16).
    pub max_branches: u32,
    /// Front-end refill penalty on a mispredict.
    pub mispredict_penalty: u32,
    /// Functional-unit latencies.
    pub latencies: OpLatencies,
    /// TLB configuration.
    pub tlb: TlbConfig,
}

impl OooConfig {
    /// Small BOOM (Table 4: fetch 4, decode 1, RoB 32, LSQ 8/8).
    pub fn small_boom() -> OooConfig {
        OooConfig {
            fetch_width: 4,
            decode_width: 1,
            rob: 32,
            ldq: 8,
            stq: 8,
            int_units: 1,
            mem_ports: 1,
            fp_units: 1,
            max_branches: 8,
            mispredict_penalty: 10,
            latencies: OpLatencies::boom(),
            tlb: TlbConfig::boom(),
        }
    }

    /// Medium BOOM (Table 4: fetch 4, decode 2, RoB 64, LSQ 16/16).
    pub fn medium_boom() -> OooConfig {
        OooConfig {
            fetch_width: 4,
            decode_width: 2,
            rob: 64,
            ldq: 16,
            stq: 16,
            int_units: 2,
            mem_ports: 1,
            fp_units: 1,
            max_branches: 12,
            mispredict_penalty: 11,
            latencies: OpLatencies::boom(),
            tlb: TlbConfig::boom(),
        }
    }

    /// Large BOOM (Table 4: fetch 8, decode 3, RoB 96, LSQ 24/24;
    /// Table 5: 3-issue integer queue, 1-issue mem, 1-issue fp).
    pub fn large_boom() -> OooConfig {
        OooConfig {
            fetch_width: 8,
            decode_width: 3,
            rob: 96,
            ldq: 24,
            stq: 24,
            int_units: 3,
            mem_ports: 1,
            fp_units: 1,
            max_branches: 16,
            mispredict_penalty: 12,
            latencies: OpLatencies::boom(),
            tlb: TlbConfig::boom(),
        }
    }

    /// The SG2042 hardware reference (MILK-V): like Large BOOM but with
    /// the wider fetch/decode the paper's §5.1 concludes the silicon must
    /// have ("the MILK-V Hardware likely contains more fetch and decode
    /// units than were modeled").
    pub fn sg2042() -> OooConfig {
        OooConfig {
            fetch_width: 8,
            decode_width: 4,
            rob: 160,
            ldq: 32,
            stq: 32,
            int_units: 4,
            mem_ports: 2,
            fp_units: 2,
            max_branches: 24,
            mispredict_penalty: 12,
            latencies: OpLatencies::boom(),
            tlb: TlbConfig::boom(),
        }
    }
}

/// The out-of-order timing core.
pub struct OooCore {
    cfg: OooConfig,
    /// Cycle at which the front-end can deliver the next micro-op.
    fetch_time: u64,
    dispatched_this_cycle: u32,
    reg_ready: [u64; 64],
    /// In-flight ops' retire times, program order.
    rob: Ring,
    ldq: Ring,
    stq: Ring,
    branches_in_flight: Ring, // resolve times
    int_free: Vec<u64>,
    mem_free: Vec<u64>,
    fp_free: Vec<u64>,
    unpipelined_free: u64,
    last_retire: u64,
    retired_in_group: u32,
    predictor: BoomPredictor,
    tlb: Tlb,
    cur_fetch_line: u64,
    stats: CoreStats,
    l1i_hit_latency: u64,
    /// Host-side fast-forward accounting: intermediate cycles covered by
    /// bulk clock jumps (fetch stalls, ROB/branch-window drains) rather
    /// than being stepped one by one.
    ff_skipped_cycles: u64,
    /// Contiguous multi-cycle jumps that produced those skips.
    ff_spans: u64,
}

/// A FIFO of completion times in a ring sized once, from the config
/// entry that bounds the queue it models.
struct Ring {
    /// Power-of-two slots, so positions wrap with a mask.
    slots: Box<[u64]>,
    head: usize,
    len: usize,
}

impl Ring {
    /// A ring that can hold `entries` times.
    fn new(entries: u32) -> Ring {
        Ring {
            slots: vec![0; (entries as usize).max(1).next_power_of_two()].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn front(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    #[inline]
    fn back(&self) -> Option<u64> {
        let mask = self.slots.len() - 1;
        (self.len > 0).then(|| self.slots[(self.head + self.len - 1) & mask])
    }

    #[inline]
    fn push_back(&mut self, t: u64) {
        // An overwritten entry would silently change timing.
        assert!(self.len < self.slots.len(), "ring sized below its queue");
        let mask = self.slots.len() - 1;
        self.slots[(self.head + self.len) & mask] = t;
        self.len += 1;
    }

    /// Pops every leading entry that is `<= t`.
    #[inline]
    fn drain_through(&mut self, t: u64) {
        let mask = self.slots.len() - 1;
        while self.len > 0 && self.slots[self.head] <= t {
            self.head = (self.head + 1) & mask;
            self.len -= 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mask = self.slots.len() - 1;
        (0..self.len).map(move |i| self.slots[(self.head + i) & mask])
    }
}

const LINE_MASK: u64 = !63;

impl OooCore {
    /// Builds an idle core.
    pub fn new(cfg: OooConfig) -> OooCore {
        OooCore {
            tlb: Tlb::new(cfg.tlb),
            predictor: BoomPredictor::new(),
            int_free: vec![0; cfg.int_units as usize],
            mem_free: vec![0; cfg.mem_ports as usize],
            fp_free: vec![0; cfg.fp_units as usize],
            rob: Ring::new(cfg.rob),
            ldq: Ring::new(cfg.ldq),
            stq: Ring::new(cfg.stq),
            // A branch that stalls on a full window is pushed before the
            // entry it waited for is popped (by the next branch).
            branches_in_flight: Ring::new(cfg.max_branches + 1),
            cfg,
            fetch_time: 0,
            dispatched_this_cycle: 0,
            reg_ready: [0; 64],
            unpipelined_free: 0,
            last_retire: 0,
            retired_in_group: 0,
            cur_fetch_line: u64::MAX,
            stats: CoreStats::default(),
            l1i_hit_latency: 1,
            ff_skipped_cycles: 0,
            ff_spans: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OooConfig {
        &self.cfg
    }

    /// Fast-forward accounting: `(skipped_cycles, spans)` — target
    /// cycles the core's clock jumped over in bulk (stall resolution)
    /// instead of stepping, and how many such jumps happened. Feeds
    /// `host.engine.skipped_cycles` in the SoC telemetry.
    pub fn ff_stats(&self) -> (u64, u64) {
        (self.ff_skipped_cycles, self.ff_spans)
    }

    /// Quiescence hint in `TickModel::next_activity` terms: the earliest
    /// future cycle at which an in-flight op leaves the window (ROB head
    /// retire, LDQ/STQ drain). `None` when the window is empty.
    pub fn next_activity(&self) -> Option<u64> {
        let now = self.cycles();
        [self.rob.front(), self.ldq.front(), self.stq.front()]
            .into_iter()
            .flatten()
            .filter(|&c| c > now)
            .min()
    }

    /// Records a bulk clock jump of `d` cycles: one cycle is stepped,
    /// `d - 1` quiescent ones are skipped.
    fn note_jump(&mut self, d: u64) {
        if d > 1 {
            self.ff_skipped_cycles += d - 1;
            self.ff_spans += 1;
        }
    }

    /// Grabs the earliest-free unit from `units` (the first of equals),
    /// at or after `t`.
    #[inline]
    fn acquire(units: &mut [u64], t: u64) -> u64 {
        let mut idx = 0;
        for i in 1..units.len() {
            if units[i] < units[idx] {
                idx = i;
            }
        }
        let start = t.max(units[idx]);
        units[idx] = start + 1; // one issue slot per cycle per unit
        start
    }

    /// Pops queue entries that have drained by `t`; if still at capacity,
    /// returns the stall-until time.
    #[inline]
    fn queue_admit(q: &mut Ring, cap: u32, t: u64) -> u64 {
        q.drain_through(t);
        if q.len() < cap as usize {
            return t;
        }
        match q.front() {
            Some(free_at) => {
                q.drain_through(free_at);
                free_at.max(t)
            }
            None => t,
        }
    }

    #[inline]
    fn note_lsq_occupancy(&mut self) {
        let occupied = (self.ldq.len() + self.stq.len()) as u64;
        self.stats.lsq_high_water = self.stats.lsq_high_water.max(occupied);
    }

    /// Dispatch stalls until `until`: the front end restarts there.
    #[inline]
    fn stall_dispatch(&mut self, dispatch: u64, until: u64) -> u64 {
        let d = until.saturating_sub(dispatch);
        self.stats.structural_stall_cycles += d;
        self.note_jump(d);
        self.fetch_time = dispatch.max(until);
        self.dispatched_this_cycle = 0;
        self.fetch_time
    }
}

impl TimingCore for OooCore {
    fn consume_batch(&mut self, uops: &[MicroOp], mem: &mut MemoryHierarchy, core_id: usize) {
        for uop in uops {
            // ---- front end -----------------------------------------------
            let line = uop.pc & LINE_MASK;
            if line != self.cur_fetch_line {
                let out = mem.access(core_id, uop.pc, AccessKind::Ifetch, self.fetch_time);
                let extra = out
                    .complete_at
                    .saturating_sub(self.fetch_time + self.l1i_hit_latency);
                if extra > 0 {
                    self.stats.fetch_stall_cycles += extra;
                    self.fetch_time += extra;
                    self.dispatched_this_cycle = 0;
                    self.note_jump(extra);
                }
                self.cur_fetch_line = line;
                self.stats.fetch_lines += 1;
            }
            if self.dispatched_this_cycle >= self.cfg.decode_width {
                self.fetch_time += 1;
                self.dispatched_this_cycle = 0;
            }
            let mut dispatch = self.fetch_time;

            // ---- ROB space -------------------------------------------------
            self.rob.drain_through(dispatch);
            if self.rob.len() >= self.cfg.rob as usize {
                if let Some(head) = self.rob.front() {
                    dispatch = self.stall_dispatch(dispatch, head);
                    self.rob.drain_through(dispatch);
                }
            }

            // ---- branch-count limit ----------------------------------------
            if uop.branch.is_some() {
                self.branches_in_flight.drain_through(dispatch);
                if self.branches_in_flight.len() >= self.cfg.max_branches as usize {
                    if let Some(resolve) = self.branches_in_flight.front() {
                        dispatch = self.stall_dispatch(dispatch, resolve);
                    }
                }
            }

            // ---- operand readiness ------------------------------------------
            let ready = uop.srcs_ready(&self.reg_ready);
            let oper_ready = ready.max(dispatch + 1);
            self.stats.data_stall_cycles += ready.saturating_sub(dispatch + 1);

            // ---- issue + execute ---------------------------------------------
            let complete = match uop.class {
                OpClass::Load => {
                    // Every `MicroOp` constructor gives loads and stores
                    // their address (`MicroOp::load`/`store`, `from_retired`).
                    // bsim: allow(AU002)
                    let addr = uop.mem_addr.expect("load without address");
                    let tlb_extra = self.tlb.translate(addr) as u64;
                    self.stats.tlb_stall_cycles += tlb_extra;
                    let admitted = Self::queue_admit(&mut self.ldq, self.cfg.ldq, oper_ready);
                    self.stats.structural_stall_cycles += admitted - oper_ready;
                    let issue = Self::acquire(&mut self.mem_free, admitted);
                    let out = mem.access(core_id, addr, AccessKind::Load, issue + tlb_extra);
                    self.ldq.push_back(out.complete_at);
                    self.note_lsq_occupancy();
                    self.stats.loads += 1;
                    out.complete_at
                }
                OpClass::Store => {
                    // bsim: allow(AU002) same invariant as the load arm
                    let addr = uop.mem_addr.expect("store without address");
                    let tlb_extra = self.tlb.translate(addr) as u64;
                    self.stats.tlb_stall_cycles += tlb_extra;
                    let admitted = Self::queue_admit(&mut self.stq, self.cfg.stq, oper_ready);
                    self.stats.structural_stall_cycles += admitted - oper_ready;
                    let issue = Self::acquire(&mut self.mem_free, admitted);
                    let out = mem.access(core_id, addr, AccessKind::Store, issue + tlb_extra);
                    self.stq.push_back(out.complete_at);
                    self.note_lsq_occupancy();
                    self.stats.stores += 1;
                    // A store completes (for ROB purposes) once address+data
                    // are ready; the write drains from the STQ in the
                    // background.
                    issue + 1
                }
                class => {
                    let latency = self.cfg.latencies.of(class) as u64;
                    let units: &mut [u64] = match class {
                        OpClass::FpAlu
                        | OpClass::FpMul
                        | OpClass::FpDiv
                        | OpClass::FpTranscendental => &mut self.fp_free,
                        _ => &mut self.int_free,
                    };
                    let mut issue = Self::acquire(units, oper_ready);
                    if OpLatencies::unpipelined(class) {
                        issue = issue.max(self.unpipelined_free);
                        self.unpipelined_free = issue + latency;
                    }
                    issue + latency
                }
            };

            if let Some(d) = uop.dest {
                self.reg_ready[d as usize] = complete;
            }

            // ---- in-order retire --------------------------------------------
            self.retired_in_group += 1;
            let mut retire = complete.max(self.last_retire);
            if self.retired_in_group >= self.cfg.decode_width {
                retire = retire.max(self.last_retire + 1);
                self.retired_in_group = 0;
            }
            self.last_retire = retire;
            self.rob.push_back(retire);
            self.stats.rob_high_water = self.stats.rob_high_water.max(self.rob.len() as u64);

            // ---- control flow ------------------------------------------------
            if let Some((class, taken)) = uop.branch {
                self.stats.branch_lookups += 1;
                if class == crate::uop::BranchClass::Conditional {
                    self.stats.branches += 1;
                }
                self.branches_in_flight.push_back(complete);
                let correct = self
                    .predictor
                    .predict_and_update(uop.pc, class, taken, uop.next_pc);
                if !correct {
                    self.stats.mispredicts += 1;
                    // Wrong-path fetch until resolution; refill after.
                    self.fetch_time = complete + self.cfg.mispredict_penalty as u64;
                    self.dispatched_this_cycle = 0;
                    self.cur_fetch_line = u64::MAX;
                } else if taken && uop.next_pc & LINE_MASK != uop.pc & LINE_MASK {
                    self.cur_fetch_line = u64::MAX;
                }
            } else {
                self.dispatched_this_cycle += 1;
            }

            self.stats.retired += 1;
        }
    }

    fn finish(&mut self) -> u64 {
        let rob_drain = self.rob.back().unwrap_or(0);
        let stq_drain = self.stq.iter().max().unwrap_or(0);
        let t = self
            .fetch_time
            .max(rob_drain)
            .max(stq_drain)
            .max(self.last_retire);
        self.fetch_time = t;
        self.stats.cycles = t;
        t
    }

    fn cycles(&self) -> u64 {
        self.fetch_time.max(self.last_retire)
    }

    fn retired(&self) -> u64 {
        self.stats.retired
    }

    fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.cycles = self.cycles();
        s
    }

    fn advance_to(&mut self, cycle: u64) {
        if cycle > self.fetch_time {
            self.fetch_time = cycle;
            self.dispatched_this_cycle = 0;
        }
        self.last_retire = self.last_retire.max(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_mem::{BusConfig, CacheConfig, DramConfig, HierarchyConfig};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            cores: 1,
            l1i: CacheConfig {
                sets: 128,
                ways: 8,
                line_bytes: 64,
                banks: 1,
                hit_latency: 1,
                mshrs: 2,
            },
            l1d: CacheConfig {
                sets: 128,
                ways: 8,
                line_bytes: 64,
                banks: 4,
                hit_latency: 3,
                mshrs: 8,
            },
            l2: CacheConfig {
                sets: 2048,
                ways: 8,
                line_bytes: 64,
                banks: 4,
                hit_latency: 14,
                mshrs: 16,
            },
            bus: BusConfig {
                width_bits: 128,
                latency: 4,
            },
            llc: None,
            dram: DramConfig::ddr3_2000(4),
            core_freq_ghz: 2.0,
            l1_to_l2_latency: 2,
            prefetch_degree: 0,
        })
    }

    fn run(cfg: OooConfig, uops: &[MicroOp]) -> (u64, CoreStats) {
        let mut core = OooCore::new(cfg);
        let mut m = mem();
        for u in uops {
            core.consume(u, &mut m, 0);
        }
        let c = core.finish();
        (c, core.stats())
    }

    fn independent_alu(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                MicroOp::alu(
                    0x1_0000 + 4 * (i as u64 % 16),
                    Some((5 + i % 16) as u8),
                    [None; 3],
                )
            })
            .collect()
    }

    fn dependent_alu(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                MicroOp::alu(
                    0x1_0000 + 4 * (i as u64 % 16),
                    Some(5),
                    [Some(5), None, None],
                )
            })
            .collect()
    }

    #[test]
    fn wider_decode_raises_ipc_on_independent_work() {
        let uops = independent_alu(6000);
        let (small, ss) = run(OooConfig::small_boom(), &uops);
        let (large, ls) = run(OooConfig::large_boom(), &uops);
        assert!(
            ss.ipc() <= 1.05,
            "decode-1 caps IPC at ~1, got {}",
            ss.ipc()
        );
        assert!(
            ls.ipc() > 2.0,
            "decode-3 should reach IPC > 2, got {}",
            ls.ipc()
        );
        assert!(small > large * 2);
    }

    #[test]
    fn dependency_chain_equalizes_all_boom_sizes() {
        let uops = dependent_alu(6000);
        let (small, _) = run(OooConfig::small_boom(), &uops);
        let (large, _) = run(OooConfig::large_boom(), &uops);
        let ratio = small as f64 / large as f64;
        assert!(
            (0.9..1.15).contains(&ratio),
            "EM1-style chains should not care about width (ratio {ratio})"
        );
    }

    #[test]
    fn rob_size_bounds_memory_level_parallelism() {
        // Pointer-chase-free independent DRAM misses, far apart.
        let loads: Vec<MicroOp> = (0..400u64)
            .map(|i| {
                MicroOp::load(
                    0x1_0000 + 4 * (i % 16),
                    0x100_0000 + i * 65536,
                    Some(5),
                    None,
                )
            })
            .collect();
        let mut tiny = OooConfig::large_boom();
        tiny.rob = 8;
        tiny.ldq = 4;
        let (small_win, _) = run(tiny, &loads);
        let (large_win, _) = run(OooConfig::large_boom(), &loads);
        assert!(
            small_win as f64 > large_win as f64 * 1.3,
            "bigger window must overlap more misses: {small_win} vs {large_win}"
        );
    }

    #[test]
    fn bigger_stq_hides_more_store_latency() {
        let stores: Vec<MicroOp> = (0..100u64)
            .map(|i| MicroOp::store(0x1_0000 + 4 * (i % 16), 0x100_0000 + i * 4096, [None; 3]))
            .collect();
        let mut tiny = OooConfig::large_boom();
        tiny.stq = 1;
        let (t_tiny, s) = run(tiny, &stores);
        assert_eq!(s.stores, 100);
        let (t_big, _) = run(OooConfig::large_boom(), &stores);
        assert!(
            t_tiny > t_big,
            "a 1-entry STQ must serialize DRAM stores: {t_tiny} vs {t_big}"
        );
    }

    #[test]
    fn mispredict_penalty_applies() {
        let mut x = 0xDEADBEEFu64;
        let uops: Vec<MicroOp> = (0..3000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                MicroOp::cond_branch(0x1_0000 + 8 * (i % 64), x & 1 == 0, 0x1_0000, [None; 3])
            })
            .collect();
        let (_, s) = run(OooConfig::large_boom(), &uops);
        assert!(
            s.mispredicts > 500,
            "random branches must mispredict, got {}",
            s.mispredicts
        );
        assert!(s.cycles > 3000, "mispredicts must cost cycles");
    }

    #[test]
    fn sg2042_outperforms_large_boom_on_wide_code() {
        let uops = independent_alu(8000);
        let (lb, _) = run(OooConfig::large_boom(), &uops);
        let (hw, _) = run(OooConfig::sg2042(), &uops);
        assert!(hw < lb, "the wider silicon model must win: {hw} vs {lb}");
    }

    #[test]
    fn finish_waits_for_stq_drain() {
        let mut core = OooCore::new(OooConfig::small_boom());
        let mut m = mem();
        core.consume(&MicroOp::store(0x1_0000, 0x800_0000, [None; 3]), &mut m, 0);
        let c = core.finish();
        assert!(c > 10, "finish must include the store's DRAM time, got {c}");
    }
}
