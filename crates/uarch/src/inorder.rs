//! In-order pipeline timing model (Rocket-like).
//!
//! Covers both in-order machines in the paper:
//!
//! * the FireSim **Rocket** target — 5-stage, single-issue (Table 5:
//!   "Single Issue", fetch 2 / decode 1),
//! * the Banana Pi's **SpacemiT K1** cores — 8-stage, dual-issue; the
//!   paper could not express dual issue in FireSim and approximated it by
//!   doubling the clock (the "Fast Banana Pi Sim Model"), while we can
//!   model it directly for the hardware reference.
//!
//! The model is a scoreboarded in-order issue machine: instructions
//! issue in program order, at most `issue_width` per cycle, stalling on
//! operand readiness (load-use interlocks), unpipelined units (divider),
//! a finite store buffer, instruction-cache misses and branch
//! mispredictions (penalty scales with pipeline depth).

use crate::latency::OpLatencies;
use crate::predictor::{BranchPredictor, RocketPredictor};
use crate::stats::CoreStats;
use crate::tlb::{Tlb, TlbConfig};
use crate::uop::MicroOp;
use crate::TimingCore;
use bsim_isa::OpClass;
use bsim_mem::{AccessKind, MemoryHierarchy};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// In-order core parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InOrderConfig {
    /// Instructions issued per cycle (Rocket: 1, SpacemiT K1: 2).
    pub issue_width: u32,
    /// Front-end fetch width (Table 4: Rocket fetch 2).
    pub fetch_width: u32,
    /// Pipeline depth (Rocket: 5, K1: 8) — sets the mispredict penalty.
    pub pipeline_depth: u32,
    /// Functional-unit latencies.
    pub latencies: OpLatencies,
    /// Store buffer entries (stores retire into it and drain in background).
    pub store_buffer: u32,
    /// TLB configuration.
    pub tlb: TlbConfig,
}

impl InOrderConfig {
    /// FireSim's Rocket core as configured in Table 4/5.
    pub fn rocket() -> InOrderConfig {
        InOrderConfig {
            issue_width: 1,
            fetch_width: 2,
            pipeline_depth: 5,
            latencies: OpLatencies::rocket(),
            store_buffer: 2,
            tlb: TlbConfig::rocket(),
        }
    }

    /// The Banana Pi's SpacemiT K1 core (hardware reference): dual-issue,
    /// 8-stage, with a deeper store buffer.
    pub fn spacemit_k1() -> InOrderConfig {
        InOrderConfig {
            issue_width: 2,
            fetch_width: 4,
            pipeline_depth: 8,
            latencies: OpLatencies::rocket(),
            store_buffer: 8,
            tlb: TlbConfig::rocket(),
        }
    }

    /// Branch misprediction penalty: flush back to fetch.
    pub fn mispredict_penalty(&self) -> u64 {
        (self.pipeline_depth.saturating_sub(2)).max(1) as u64
    }
}

/// The in-order timing core.
pub struct InOrderCore {
    cfg: InOrderConfig,
    cycle: u64,
    issued_this_cycle: u32,
    reg_ready: [u64; 64],
    /// Outstanding store completion times, earliest first — admission
    /// needs only the front, so drains are O(log n) pops instead of a
    /// full `retain` + `min` scan per store.
    store_buffer: BinaryHeap<Reverse<u64>>,
    unpipelined_free: u64,
    predictor: RocketPredictor,
    tlb: Tlb,
    cur_fetch_line: u64,
    refetch: bool,
    stats: CoreStats,
    l1i_hit_latency: u64,
    /// Host-side fast-forward accounting: intermediate cycles covered by
    /// bulk `stall_to` clock jumps rather than being stepped one by one.
    ff_skipped_cycles: u64,
    /// Contiguous multi-cycle jumps that produced those skips.
    ff_spans: u64,
}

const LINE_MASK: u64 = !63;

impl InOrderCore {
    /// Builds an idle core.
    pub fn new(cfg: InOrderConfig) -> InOrderCore {
        InOrderCore {
            tlb: Tlb::new(cfg.tlb),
            predictor: RocketPredictor::new(),
            cfg,
            cycle: 0,
            issued_this_cycle: 0,
            reg_ready: [0; 64],
            store_buffer: BinaryHeap::new(),
            unpipelined_free: 0,
            cur_fetch_line: u64::MAX,
            refetch: true,
            stats: CoreStats::default(),
            l1i_hit_latency: 1,
            ff_skipped_cycles: 0,
            ff_spans: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &InOrderConfig {
        &self.cfg
    }

    /// Fast-forward accounting: `(skipped_cycles, spans)` — target
    /// cycles the core's clock jumped over in bulk (stall resolution)
    /// instead of stepping, and how many such jumps happened. Feeds
    /// `host.engine.skipped_cycles` in the SoC telemetry.
    pub fn ff_stats(&self) -> (u64, u64) {
        (self.ff_skipped_cycles, self.ff_spans)
    }

    /// Quiescence hint in `TickModel::next_activity` terms: the
    /// earliest future cycle at which an already-issued
    /// operation completes (store-buffer drain or an unpipelined unit
    /// freeing). `None` when nothing is in flight — absent new work the
    /// core is fully idle.
    pub fn next_activity(&self) -> Option<u64> {
        let drain = self.store_buffer.peek().map(|&Reverse(c)| c);
        let unpiped = (self.unpipelined_free > self.cycle).then_some(self.unpipelined_free);
        match (drain.filter(|&c| c > self.cycle), unpiped) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn new_issue_cycle(&mut self) {
        self.cycle += 1;
        self.issued_this_cycle = 0;
    }

    /// Retires store-buffer entries that have completed by cycle `t`.
    fn drain_stores(&mut self, t: u64) {
        while self.store_buffer.peek().is_some_and(|&Reverse(c)| c <= t) {
            self.store_buffer.pop();
        }
    }

    fn stall_to(&mut self, t: u64) -> u64 {
        let d = t.saturating_sub(self.cycle);
        if d > 0 {
            self.cycle = t;
            self.issued_this_cycle = 0;
            // A d-cycle jump steps one cycle and skips d-1 quiescent ones.
            if d > 1 {
                self.ff_skipped_cycles += d - 1;
                self.ff_spans += 1;
            }
        }
        d
    }
}

impl TimingCore for InOrderCore {
    fn consume_batch(&mut self, uops: &[MicroOp], mem: &mut MemoryHierarchy, core_id: usize) {
        for uop in uops {
            // ---- fetch -----------------------------------------------
            let line = uop.pc & LINE_MASK;
            if line != self.cur_fetch_line || self.refetch {
                let out = mem.access(core_id, uop.pc, AccessKind::Ifetch, self.cycle);
                let extra = out
                    .complete_at
                    .saturating_sub(self.cycle + self.l1i_hit_latency);
                if extra > 0 {
                    self.stats.fetch_stall_cycles += extra;
                    self.stall_to(self.cycle + extra);
                }
                self.cur_fetch_line = line;
                self.refetch = false;
                self.stats.fetch_lines += 1;
            }

            // ---- issue slot ------------------------------------------
            if self.issued_this_cycle >= self.cfg.issue_width {
                self.new_issue_cycle();
            }

            // ---- operand readiness (scoreboard interlock) --------------
            let ready = uop.srcs_ready(&self.reg_ready);
            self.stats.data_stall_cycles += self.stall_to(ready);

            // ---- unpipelined units -------------------------------------
            if OpLatencies::unpipelined(uop.class) {
                let d = self.stall_to(self.unpipelined_free);
                self.stats.structural_stall_cycles += d;
            }

            let issue = self.cycle;
            let latency = self.cfg.latencies.of(uop.class) as u64;

            // ---- execute -------------------------------------------------
            match uop.class {
                OpClass::Load => {
                    // Every `MicroOp` constructor gives loads and stores
                    // their address (`MicroOp::load`/`store`, `from_retired`).
                    // bsim: allow(AU002)
                    let addr = uop.mem_addr.expect("load without address");
                    let tlb_extra = self.tlb.translate(addr) as u64;
                    self.stats.tlb_stall_cycles += tlb_extra;
                    let out = mem.access(core_id, addr, AccessKind::Load, issue + 1 + tlb_extra);
                    if let Some(d) = uop.dest {
                        self.reg_ready[d as usize] = out.complete_at;
                    }
                    self.stats.loads += 1;
                }
                OpClass::Store => {
                    // bsim: allow(AU002) same invariant as the load arm
                    let addr = uop.mem_addr.expect("store without address");
                    let tlb_extra = self.tlb.translate(addr) as u64;
                    self.stats.tlb_stall_cycles += tlb_extra;
                    // Store buffer admission: stall if full. Drained entries
                    // leave from the front of the min-heap, so admission
                    // touches only the earliest completion, never the set.
                    self.drain_stores(issue);
                    if self.store_buffer.len() >= self.cfg.store_buffer as usize {
                        if let Some(&Reverse(earliest)) = self.store_buffer.peek() {
                            let d = self.stall_to(earliest);
                            self.stats.structural_stall_cycles += d;
                            self.drain_stores(self.cycle);
                        }
                    }
                    let out =
                        mem.access(core_id, addr, AccessKind::Store, self.cycle + 1 + tlb_extra);
                    self.store_buffer.push(Reverse(out.complete_at));
                    self.stats.lsq_high_water = self
                        .stats
                        .lsq_high_water
                        .max(self.store_buffer.len() as u64);
                    self.stats.stores += 1;
                }
                _ => {
                    if let Some(d) = uop.dest {
                        self.reg_ready[d as usize] = issue + latency;
                    }
                    if OpLatencies::unpipelined(uop.class) {
                        self.unpipelined_free = issue + latency;
                    }
                }
            }

            // ---- control flow --------------------------------------------
            if let Some((class, taken)) = uop.branch {
                self.stats.branch_lookups += 1;
                if class == crate::uop::BranchClass::Conditional {
                    self.stats.branches += 1;
                }
                let correct = self
                    .predictor
                    .predict_and_update(uop.pc, class, taken, uop.next_pc);
                if !correct {
                    self.stats.mispredicts += 1;
                    self.cycle = issue + self.cfg.mispredict_penalty();
                    self.issued_this_cycle = 0;
                    self.refetch = true;
                } else if taken {
                    // Predicted-taken redirect still ends the fetch group.
                    self.issued_this_cycle = self.cfg.issue_width;
                    self.refetch = uop.next_pc & LINE_MASK != uop.pc & LINE_MASK;
                }
            }

            self.issued_this_cycle += 1;
            self.stats.retired += 1;
        }
    }

    fn finish(&mut self) -> u64 {
        let drain = self
            .store_buffer
            .iter()
            .map(|&Reverse(c)| c)
            .max()
            .unwrap_or(0);
        self.cycle = self.cycle.max(drain).max(self.unpipelined_free);
        self.stats.cycles = self.cycle;
        self.cycle
    }

    fn cycles(&self) -> u64 {
        self.cycle
    }

    fn retired(&self) -> u64 {
        self.stats.retired
    }

    fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    fn advance_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            self.cycle = cycle;
            self.issued_this_cycle = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_mem::{BusConfig, CacheConfig, DramConfig, HierarchyConfig};

    fn mem(cores: usize) -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
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
        })
    }

    fn alu_chain(n: usize, dependent: bool) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                let pc = 0x1_0000 + 4 * (i as u64 % 16); // loop: warm icache
                if dependent {
                    MicroOp::alu(pc, Some(5), [Some(5), None, None])
                } else {
                    MicroOp::alu(pc, Some((5 + i % 8) as u8), [None, None, None])
                }
            })
            .collect()
    }

    fn run(cfg: InOrderConfig, uops: &[MicroOp]) -> (u64, CoreStats) {
        let mut core = InOrderCore::new(cfg);
        let mut m = mem(1);
        for u in uops {
            core.consume(u, &mut m, 0);
        }
        let c = core.finish();
        (c, core.stats())
    }

    #[test]
    fn single_issue_ipc_is_at_most_one() {
        let (cycles, s) = run(InOrderConfig::rocket(), &alu_chain(1000, false));
        assert!(s.ipc() <= 1.0 + 1e-9, "IPC {} must be <= 1", s.ipc());
        assert!(cycles >= 1000);
    }

    #[test]
    fn dual_issue_beats_single_issue_on_independent_ops() {
        let uops = alu_chain(4000, false);
        let (single, _) = run(InOrderConfig::rocket(), &uops);
        let (dual, s) = run(InOrderConfig::spacemit_k1(), &uops);
        assert!(
            (single as f64) > (dual as f64) * 1.5,
            "dual issue should be ~2x: {single} vs {dual}"
        );
        assert!(
            s.ipc() > 1.2,
            "dual-issue IPC should exceed 1, got {}",
            s.ipc()
        );
    }

    #[test]
    fn dependency_chain_defeats_dual_issue() {
        let uops = alu_chain(4000, true);
        let (single, _) = run(InOrderConfig::rocket(), &uops);
        let (dual, _) = run(InOrderConfig::spacemit_k1(), &uops);
        let ratio = single as f64 / dual as f64;
        assert!(
            ratio < 1.15,
            "a serial chain cannot benefit from dual issue (ratio {ratio})"
        );
    }

    #[test]
    fn load_use_interlock_stalls() {
        // load -> immediately use result.
        let uops = vec![
            MicroOp::load(0x1_0000, 0x10_0000, Some(5), None),
            MicroOp::alu(0x1_0004, Some(6), [Some(5), None, None]),
        ];
        let (_, s) = run(InOrderConfig::rocket(), &uops);
        assert!(s.data_stall_cycles > 0, "consumer must wait for the load");
    }

    #[test]
    fn mispredicts_cost_pipeline_depth() {
        // Unpredictable-ish alternation has some mispredicts during warmup;
        // force the issue with a pseudo-random pattern instead.
        let mut x = 0x9E3779B9u64;
        let uops: Vec<MicroOp> = (0..2000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                MicroOp::cond_branch(0x1_0000 + 8 * (i % 64), x & 1 == 0, 0x1_0000, [None; 3])
            })
            .collect();
        let (shallow, s5) = run(InOrderConfig::rocket(), &uops);
        let mut deep_cfg = InOrderConfig::rocket();
        deep_cfg.pipeline_depth = 8;
        let (deep, s8) = run(deep_cfg, &uops);
        assert!(s5.mispredicts > 100, "random branches must mispredict");
        assert_eq!(
            s5.mispredicts, s8.mispredicts,
            "same predictor, same outcome"
        );
        assert!(deep > shallow, "deeper pipeline pays more per mispredict");
    }

    #[test]
    fn store_buffer_hides_store_latency_until_full() {
        let stores: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp::store(0x1_0000 + 4 * (i % 16), 0x20_0000 + 4096 * i, [None; 3]))
            .collect();
        let mut small = InOrderConfig::rocket();
        small.store_buffer = 1;
        let mut big = InOrderConfig::rocket();
        big.store_buffer = 16;
        let (t_small, _) = run(small, &stores);
        let (t_big, _) = run(big, &stores);
        assert!(
            t_small > t_big,
            "bigger store buffer must help: {t_small} vs {t_big}"
        );
    }

    #[test]
    fn divider_serializes() {
        let divs: Vec<MicroOp> = (0..100)
            .map(|i| MicroOp {
                pc: 0x1_0000 + 4 * (i % 16),
                next_pc: 0x1_0004 + 4 * (i % 16),
                class: OpClass::IntDiv,
                dest: Some((5 + i % 4) as u8),
                srcs: [None, None, None],
                mem_addr: None,
                is_store: false,
                branch: None,
            })
            .collect();
        let (cycles, _) = run(InOrderConfig::rocket(), &divs);
        let div_lat = OpLatencies::rocket().int_div as u64;
        assert!(
            cycles >= 100 * div_lat,
            "unpipelined divider must serialize"
        );
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut core = InOrderCore::new(InOrderConfig::rocket());
        core.advance_to(500);
        assert_eq!(core.cycles(), 500);
        core.advance_to(100);
        assert_eq!(core.cycles(), 500);
    }
}
