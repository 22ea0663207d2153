//! The micro-op abstraction shared by both timing cores.
//!
//! A [`MicroOp`] is everything a timing model needs to know about one
//! dynamic instruction: its class (functional unit + latency), its
//! register dependences (unified 0–63 numbering: x1–x31 are 1–31,
//! f0–f31 are 32–63), its effective address if it touches memory, and
//! its control-flow outcome if it redirects the PC.

pub use bsim_isa::BranchClass;
use bsim_isa::{OpClass, Retired};

/// One dynamic micro-op.
#[derive(Clone, Copy, Debug)]
pub struct MicroOp {
    /// PC of the instruction (0 for trace-generated ops; the trace
    /// frontend synthesizes distinct PCs when control flow matters).
    pub pc: u64,
    /// Address of the next dynamic instruction.
    pub next_pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Destination register in unified numbering.
    pub dest: Option<u8>,
    /// Source registers in unified numbering.
    pub srcs: [Option<u8>; 3],
    /// Effective address, for loads and stores.
    pub mem_addr: Option<u64>,
    /// True when the memory access is a store.
    pub is_store: bool,
    /// Control-flow info: class and whether a conditional was taken.
    pub branch: Option<(BranchClass, bool)>,
}

impl MicroOp {
    /// Builds a micro-op from a functionally retired instruction: a copy
    /// of the record's decode-time lowering plus its dynamic outcome.
    #[inline]
    pub fn from_retired(r: &Retired) -> MicroOp {
        let low = &r.lowered;
        MicroOp {
            pc: r.pc,
            next_pc: r.next_pc,
            class: low.class,
            dest: low.dest,
            srcs: low.srcs,
            mem_addr: r.mem_addr,
            is_store: r.is_store,
            // `taken` is the branch outcome, and always true for jumps.
            branch: low.branch.map(|class| (class, r.taken)),
        }
    }

    /// A plain ALU op with explicit dependences (trace frontend helper).
    pub fn alu(pc: u64, dest: Option<u8>, srcs: [Option<u8>; 3]) -> MicroOp {
        MicroOp {
            pc,
            next_pc: pc + 4,
            class: OpClass::IntAlu,
            dest,
            srcs,
            mem_addr: None,
            is_store: false,
            branch: None,
        }
    }

    /// A load micro-op (trace frontend helper).
    pub fn load(pc: u64, addr: u64, dest: Option<u8>, src: Option<u8>) -> MicroOp {
        MicroOp {
            pc,
            next_pc: pc + 4,
            class: OpClass::Load,
            dest,
            srcs: [src, None, None],
            mem_addr: Some(addr),
            is_store: false,
            branch: None,
        }
    }

    /// A store micro-op (trace frontend helper).
    pub fn store(pc: u64, addr: u64, srcs: [Option<u8>; 3]) -> MicroOp {
        MicroOp {
            pc,
            next_pc: pc + 4,
            class: OpClass::Store,
            dest: None,
            srcs,
            mem_addr: Some(addr),
            is_store: true,
            branch: None,
        }
    }

    /// A conditional-branch micro-op (trace frontend helper).
    pub fn cond_branch(pc: u64, taken: bool, target: u64, srcs: [Option<u8>; 3]) -> MicroOp {
        MicroOp {
            pc,
            next_pc: if taken { target } else { pc + 4 },
            class: OpClass::Branch,
            dest: None,
            srcs,
            mem_addr: None,
            is_store: false,
            branch: Some((BranchClass::Conditional, taken)),
        }
    }

    /// Cycle the last source operand is ready, given each register's
    /// ready cycle (0 with no sources).
    #[inline]
    pub(crate) fn srcs_ready(&self, reg_ready: &[u64; 64]) -> u64 {
        let ready_of = |src: Option<u8>| src.map_or(0, |r| reg_ready[r as usize]);
        ready_of(self.srcs[0])
            .max(ready_of(self.srcs[1]))
            .max(ready_of(self.srcs[2]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_isa::{Asm, Cpu, RunResult};

    fn trace(a: Asm) -> Vec<MicroOp> {
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let mut uops = Vec::new();
        let r = cpu.run_traced(100_000, |ret| uops.push(MicroOp::from_retired(ret)));
        assert!(matches!(r, RunResult::Exited(_)));
        uops
    }

    #[test]
    fn call_and_return_classified() {
        use bsim_isa::reg::*;
        let mut a = Asm::new();
        bsim_isa::asm::with_stack(&mut a);
        a.call("f");
        a.exit(0);
        a.label("f");
        a.ret();
        let uops = trace(a);
        let calls: Vec<_> = uops.iter().filter_map(|u| u.branch).collect();
        assert!(calls.contains(&(BranchClass::Call, true)));
        assert!(calls.contains(&(BranchClass::Return, true)));
        let _ = (ZERO, RA); // silence unused imports in some cfgs
    }

    #[test]
    fn conditional_taken_flag_propagates() {
        use bsim_isa::reg::*;
        let mut a = Asm::new();
        a.li(T0, 0).li(T1, 3);
        a.label("loop");
        a.addi(T0, T0, 1);
        a.blt(T0, T1, "loop");
        a.exit(0);
        let uops = trace(a);
        let branches: Vec<bool> = uops
            .iter()
            .filter(|u| matches!(u.branch, Some((BranchClass::Conditional, _))))
            .map(|u| u.branch.unwrap().1)
            .collect();
        assert_eq!(branches, vec![true, true, false]);
    }

    #[test]
    fn loads_carry_addresses() {
        use bsim_isa::reg::*;
        let mut a = Asm::new();
        let addr = a.data_u64(5);
        a.li(T0, addr as i64);
        a.ld(T1, 0, T0);
        a.exit(0);
        let uops = trace(a);
        let ld = uops.iter().find(|u| u.mem_addr.is_some()).unwrap();
        assert_eq!(ld.mem_addr, Some(addr));
        assert!(!ld.is_store);
        assert_eq!(ld.dest, Some(T1.num()));
    }

    #[test]
    fn trace_helpers_build_consistent_uops() {
        let b = MicroOp::cond_branch(0x100, true, 0x80, [Some(5), None, None]);
        assert_eq!(b.next_pc, 0x80);
        let b2 = MicroOp::cond_branch(0x100, false, 0x80, [None; 3]);
        assert_eq!(b2.next_pc, 0x104);
        let s = MicroOp::store(0, 0xFF, [Some(1), Some(2), None]);
        assert!(s.is_store && s.mem_addr.is_some());
    }
}
