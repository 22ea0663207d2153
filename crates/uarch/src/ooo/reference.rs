//! The out-of-order core with an eagerly drained ROB and branch window,
//! kept as the reference model for the retire-time history: both are
//! driven over seeded streams on shrunken windows and must agree on
//! every counter and on `finish()`.

use super::{OooConfig, OooCore, Ring, LINE_MASK};
use crate::latency::OpLatencies;
use crate::predictor::{BoomPredictor, BranchPredictor};
use crate::stats::CoreStats;
use crate::tlb::Tlb;
use crate::uop::{BranchClass, MicroOp, Ureg};
use crate::TimingCore;
use bsim_isa::OpClass;
use bsim_mem::{AccessKind, MemoryHierarchy, Own};
use bsim_telemetry::Bucket;

/// `OooCore` as it was: the ROB a ring of retire times and the branch
/// window a ring of resolve times, each drained at every dispatch.
struct RefOooCore {
    cfg: OooConfig,
    fetch_time: u64,
    dispatched_this_cycle: u32,
    reg_ready: [u64; 64],
    rob: Ring,
    ldq: Ring,
    stq: Ring,
    branches_in_flight: Ring,
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
}

impl RefOooCore {
    fn new(cfg: OooConfig) -> RefOooCore {
        RefOooCore {
            tlb: Tlb::new(cfg.tlb),
            predictor: BoomPredictor::new(),
            int_free: vec![0; cfg.int_units as usize],
            mem_free: vec![0; cfg.mem_ports as usize],
            fp_free: vec![0; cfg.fp_units as usize],
            rob: Ring::new(cfg.rob),
            ldq: Ring::new(cfg.ldq),
            stq: Ring::new(cfg.stq),
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
        }
    }

    fn stall_dispatch(&mut self, dispatch: u64, until: u64) -> u64 {
        self.stats.structural_stall_cycles += until.saturating_sub(dispatch);
        self.fetch_time = dispatch.max(until);
        self.dispatched_this_cycle = 0;
        self.fetch_time
    }

    fn note_lsq_occupancy(&mut self) {
        let occupied = (self.ldq.len() + self.stq.len()) as u64;
        self.stats.lsq_high_water = self.stats.lsq_high_water.max(occupied);
    }

    fn consume(&mut self, uop: &MicroOp, mem: &mut MemoryHierarchy) {
        let front = &mut Own;
        let line = uop.pc & LINE_MASK;
        if line != self.cur_fetch_line {
            let out = mem.access_with(front, 0, uop.pc, AccessKind::Ifetch, self.fetch_time);
            let extra = out.complete_at.saturating_sub(self.fetch_time + 1);
            if extra > 0 {
                self.stats.fetch_stall_cycles += extra;
                self.fetch_time += extra;
                self.dispatched_this_cycle = 0;
            }
            self.cur_fetch_line = line;
            self.stats.fetch_lines += 1;
        }
        if self.dispatched_this_cycle >= self.cfg.decode_width {
            self.fetch_time += 1;
            self.dispatched_this_cycle = 0;
        }
        let mut dispatch = self.fetch_time;

        self.rob.drain_through(dispatch);
        if self.rob.len() >= self.cfg.rob as usize {
            if let Some(head) = self.rob.front() {
                dispatch = self.stall_dispatch(dispatch, head);
                self.rob.drain_through(dispatch);
            }
        }

        if uop.branch.is_some() {
            self.branches_in_flight.drain_through(dispatch);
            if self.branches_in_flight.len() >= self.cfg.max_branches as usize {
                if let Some(resolve) = self.branches_in_flight.front() {
                    dispatch = self.stall_dispatch(dispatch, resolve);
                }
            }
        }

        let ready = uop.srcs_ready(&self.reg_ready);
        let oper_ready = ready.max(dispatch + 1);
        self.stats.data_stall_cycles += ready.saturating_sub(dispatch + 1);

        let complete = match uop.class {
            OpClass::Load | OpClass::Store => {
                let store = uop.class == OpClass::Store;
                let addr = uop.mem_addr.expect("a load or store carries its address");
                let tlb_extra = self.tlb.translate(front, addr) as u64;
                self.stats.tlb_stall_cycles += tlb_extra;
                let (q, cap) = if store {
                    (&mut self.stq, self.cfg.stq)
                } else {
                    (&mut self.ldq, self.cfg.ldq)
                };
                q.drain_through(oper_ready);
                let mut admitted = oper_ready;
                if q.len() >= cap as usize {
                    if let Some(free_at) = q.front() {
                        q.drain_through(free_at);
                        admitted = free_at.max(oper_ready);
                    }
                }
                self.stats.structural_stall_cycles += admitted - oper_ready;
                let issue = OooCore::acquire(&mut self.mem_free, admitted);
                let kind = if store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let out = mem.access_with(front, 0, addr, kind, issue + tlb_extra);
                if store {
                    self.stq.push_back(out.complete_at);
                    self.stats.stores += 1;
                } else {
                    self.ldq.push_back(out.complete_at);
                    self.stats.loads += 1;
                }
                self.note_lsq_occupancy();
                if store {
                    issue + 1
                } else {
                    out.complete_at
                }
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
                let mut issue = OooCore::acquire(units, oper_ready);
                if OpLatencies::unpipelined(class) {
                    issue = issue.max(self.unpipelined_free);
                    self.unpipelined_free = issue + latency;
                }
                issue + latency
            }
        };

        if let Some(d) = uop.dest {
            self.reg_ready[d.index()] = complete;
        }

        self.retired_in_group += 1;
        let mut retire = complete.max(self.last_retire);
        if self.retired_in_group >= self.cfg.decode_width {
            retire = retire.max(self.last_retire + 1);
            self.retired_in_group = 0;
        }
        self.last_retire = retire;
        self.rob.push_back(retire);
        self.stats.rob_high_water = self.stats.rob_high_water.max(self.rob.len() as u64);

        if let Some((class, taken)) = uop.branch {
            self.stats.branch_lookups += 1;
            if class == BranchClass::Conditional {
                self.stats.branches += 1;
            }
            self.branches_in_flight.push_back(complete);
            let correct = self
                .predictor
                .predict(front, uop.pc, class, taken, uop.next_pc);
            if !correct {
                self.stats.mispredicts += 1;
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

    fn finish(&mut self) -> u64 {
        let rob_drain = self.rob.iter().last().unwrap_or(0);
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

    fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.cycles = self.fetch_time.max(self.last_retire);
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

/// A seeded xorshift stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A window small enough that both LSQs and the branch window fill, and
/// the ROB too when the stream misses; without misses a larger ROB is
/// left partly empty.
fn shrunken(rng: &mut Rng, mix: &Mix) -> OooConfig {
    let mut cfg = OooConfig::large_boom();
    cfg.rob = if mix.misses {
        4 + rng.below(5) as u32
    } else {
        24 + rng.below(25) as u32
    };
    cfg.max_branches = 1 + rng.below(2) as u32;
    cfg.ldq = 1 + rng.below(2) as u32;
    cfg.stq = 1 + rng.below(2) as u32;
    cfg.decode_width = 1 + rng.below(3) as u32;
    cfg.mem_ports = 1 + rng.below(2) as u32;
    cfg
}

/// How a stream mixes its ops. Without misses the ROB may never fill,
/// and then its high-water mark is the counter a stale `dispatch` gets
/// wrong.
struct Mix {
    misses: bool,
    long_ops: bool,
}

/// Dependent and independent ALU, multiply, divide and FP ops,
/// L1-resident and DRAM-missing loads and stores, and conditional
/// branches that are sometimes hard to predict, over a few fetch lines.
fn op(rng: &mut Rng, mix: &Mix) -> MicroOp {
    let pc = 0x1_0000 + 4 * rng.below(48);
    let reg = |rng: &mut Rng| {
        (rng.below(3) != 0)
            .then(|| 1 + rng.below(12) as u8)
            .and_then(Ureg::new)
    };
    let srcs = [reg(rng), reg(rng), None];
    let addr = if mix.misses && rng.below(4) == 0 {
        0x100_0000 + 64 * rng.below(1 << 16)
    } else {
        0x8000 + 8 * rng.below(64)
    };
    let mut uop = match rng.below(10) {
        0 | 1 => MicroOp::load(pc, addr, reg(rng), srcs[0]),
        2 => MicroOp::store(pc, addr, srcs),
        3 | 4 => MicroOp::cond_branch(pc, rng.below(5) != 0, 0x1_0000, srcs),
        _ => MicroOp::alu(pc, reg(rng), srcs),
    };
    if uop.class == OpClass::IntAlu {
        let classes = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAlu,
            OpClass::IntDiv,
            OpClass::FpDiv,
        ];
        let n = if mix.long_ops { 5 } else { 3 };
        uop.class = classes[rng.below(n) as usize];
    }
    uop
}

#[test]
fn the_retire_history_counts_what_the_eager_rings_counted() {
    // Comparisons made with the ROB's high-water mark at and below its cap.
    let (mut full, mut partial) = (0, 0);
    for seed in 1..=64u64 {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed);
        let mix = Mix {
            misses: seed % 2 == 0,
            long_ops: seed % 4 < 2,
        };
        let cfg = shrunken(&mut rng, &mix);
        let what = format!("seed {seed}: {cfg:?}");
        let (mut core, mut reference) = (OooCore::new(cfg.clone()), RefOooCore::new(cfg));
        let (mut mem, mut ref_mem) = (super::tests::mem(), super::tests::mem());
        for _ in 0..40 {
            let batch: Vec<MicroOp> = (0..rng.below(200)).map(|_| op(&mut rng, &mix)).collect();
            core.consume_batch(&batch, &mut mem, 0, &mut Own);
            batch
                .iter()
                .for_each(|u| reference.consume(u, &mut ref_mem));
            assert_eq!(core.stats(), reference.stats(), "{what}");
            if core.stats().rob_high_water == core.config().rob as u64 {
                full += 1;
            } else {
                partial += 1;
            }
            // As the MPI layer charges a wait: sometimes past the core's
            // clock, sometimes behind it.
            let cycle = core.cycles() + rng.below(300);
            let cycle = cycle.saturating_sub(rng.below(2) * 200);
            core.advance_to(cycle, Bucket::MpiWait);
            reference.advance_to(cycle);
            assert_eq!(core.stack().total(), core.cycles(), "{what}");
        }
        assert_eq!(core.finish(), reference.finish(), "{what}");
        assert_eq!(core.stats(), reference.stats(), "{what}");
        assert_eq!(core.stack().total(), core.cycles(), "{what}");
    }
    assert!(
        full > 1000 && partial > 200,
        "streams must both fill the ROB and not: {full} vs {partial}"
    );
}

#[test]
fn no_stream_writes_the_x0_slot_an_absent_source_reads() {
    use crate::{InOrderConfig, InOrderCore};
    for seed in 1..=16u64 {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D ^ seed);
        let mix = Mix {
            misses: seed % 2 == 0,
            long_ops: true,
        };
        let cfg = shrunken(&mut rng, &mix);
        let mut ooo = OooCore::new(cfg.clone());
        let mut reference = RefOooCore::new(cfg);
        let mut inorder = InOrderCore::new(InOrderConfig::rocket());
        let mut mems = [(); 3].map(|_| super::tests::mem());
        for _ in 0..20 {
            let batch: Vec<MicroOp> = (0..rng.below(200)).map(|_| op(&mut rng, &mix)).collect();
            ooo.consume_batch(&batch, &mut mems[0], 0, &mut Own);
            inorder.consume_batch(&batch, &mut mems[1], 0, &mut Own);
            batch
                .iter()
                .for_each(|u| reference.consume(u, &mut mems[2]));
        }
        assert!(
            ooo.reg_ready.iter().any(|&t| t > 0),
            "seed {seed}: no op wrote a register"
        );
        let x0 = [
            ooo.reg_ready[0],
            inorder.reg_ready[0],
            reference.reg_ready[0],
        ];
        assert_eq!(x0, [0; 3], "seed {seed}");
    }
}
