//! Functional RV64 interpreter.
//!
//! [`Cpu`] executes a [`Program`] and produces one [`Retired`] record per
//! dynamic instruction. The record carries everything the cycle-level
//! timing models need — PC, decoded instruction, effective address and
//! branch outcome — so a single functional pass drives any number of
//! timing configurations (the "functional-first, timing-directed" style
//! used by many architectural simulators).
//!
//! # Decode-time lowering
//!
//! What a timing model needs of an instruction besides its dynamic
//! outcome — operation class, destination and source registers in the
//! unified numbering, branch class — depends only on the *static*
//! instruction. [`Cpu::new`] derives it once per code word
//! ([`Inst::lower`]) next to the decoded instruction, and every
//! [`Retired`] record carries the result, so turning a record into a
//! micro-op is a field copy: nothing on the per-dynamic-instruction path
//! matches on the instruction a second time.

use crate::asm::Program;
use crate::inst::{AluOp, BranchKind, FpCmp, FpOp, Inst, LoadKind, Lowered, MulOp, StoreKind};
use crate::mem::Memory;
use crate::reg::Reg;
use std::sync::Arc;

/// One retired dynamic instruction.
#[derive(Clone, Copy, Debug)]
pub struct Retired {
    /// PC of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Its decode-time lowering (class, unified registers, branch class).
    pub lowered: Lowered,
    /// PC of the next instruction (reflects taken branches).
    pub next_pc: u64,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Access size in bytes (0 when `mem_addr` is `None`).
    pub mem_size: u8,
    /// True when the access is a store.
    pub is_store: bool,
    /// For conditional branches: whether it was taken.
    pub taken: bool,
}

/// Reason execution stopped inside `step`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trap {
    /// Program issued the exit ecall with this status.
    Exit(i64),
    /// EBREAK executed.
    Breakpoint(u64),
    /// Unsupported ecall number.
    UnknownSyscall(u64),
    /// PC left the code image or hit an undecodable word.
    IllegalInstruction { pc: u64, word: u32 },
}

/// Result of [`Cpu::run`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunResult {
    /// Clean exit with status.
    Exited(i64),
    /// The fuel budget was exhausted before exit.
    OutOfFuel,
    /// Execution trapped.
    Trapped(Trap),
}

/// CSR numbers the interpreter understands (read-only).
const CSR_CYCLE: u16 = 0xC00;
const CSR_TIME: u16 = 0xC01;
const CSR_INSTRET: u16 = 0xC02;

/// The functional CPU state.
pub struct Cpu {
    /// Integer register file (`x0` is forced to zero on read).
    x: [u64; 32],
    /// FP register file (double precision).
    f: [f64; 32],
    /// Program counter.
    pub pc: u64,
    /// Target memory.
    pub mem: Memory,
    /// Retired instruction counter.
    pub instret: u64,
    code_base: u64,
    /// The code image decoded and lowered once; `None` for illegal words.
    decoded: Vec<Option<(Inst, Lowered)>>,
    exit_code: Option<i64>,
}

impl Cpu {
    /// Builds a CPU with PC at the program's entry, its code loaded and
    /// its data image mounted: shared with `prog`, read in place, copied
    /// a page at a time only where this CPU stores.
    pub fn new(prog: &Program) -> Cpu {
        let mut mem = Memory::mounted(prog.data_base, Arc::clone(&prog.data));
        let code: Vec<u8> = prog.code.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.load(prog.code_base, &code);
        let decoded = prog
            .code
            .iter()
            .map(|&w| Inst::decode(w).ok().map(|i| (i, i.lower())))
            .collect();
        Cpu {
            x: [0; 32],
            f: [0.0; 32],
            pc: prog.entry,
            mem,
            instret: 0,
            code_base: prog.code_base,
            decoded,
            exit_code: None,
        }
    }

    /// Reads an integer register.
    #[inline]
    pub fn x(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.x[r.0 as usize]
        }
    }

    /// Writes an integer register (writes to `x0` are discarded).
    #[inline]
    fn set_x(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.x[r.0 as usize] = v;
        }
    }

    /// Reads an FP register.
    #[inline]
    pub fn freg(&self, i: u8) -> f64 {
        self.f[i as usize]
    }

    /// Writes an FP register.
    #[inline]
    fn set_freg(&mut self, i: u8, v: f64) {
        self.f[i as usize] = v;
    }

    /// Exit status, once the program has exited.
    pub fn exit_code(&self) -> Option<i64> {
        self.exit_code
    }

    #[inline]
    fn fetch(&self, pc: u64) -> Result<(Inst, Lowered), Trap> {
        let off = pc.wrapping_sub(self.code_base);
        if off.is_multiple_of(4) {
            if let Some(slot) = self.decoded.get((off / 4) as usize) {
                if let Some(d) = slot {
                    return Ok(*d);
                }
                return Err(Trap::IllegalInstruction {
                    pc,
                    word: self.mem.read_u32(pc),
                });
            }
        }
        // Outside the preloaded image: decode from memory (self-modifying
        // code is not supported; this path exists for diagnostics).
        let word = self.mem.read_u32(pc);
        Inst::decode(word)
            .map(|i| (i, i.lower()))
            .map_err(|e| Trap::IllegalInstruction { pc, word: e.word })
    }

    /// Executes one instruction.
    // Inlined into `run_traced`'s loop so the record is built in registers
    // and a sink that ignores a field costs nothing for it: out of line,
    // every instruction writes and copies the whole 64-byte `Retired`
    // (3x slower, measured on the MicroBench suite).
    #[inline(always)]
    pub fn step(&mut self) -> Result<Retired, Trap> {
        let pc = self.pc;
        let (inst, lowered) = self.fetch(pc)?;
        let mut next_pc = pc.wrapping_add(4);
        let mut mem_addr = None;
        let mut mem_size = 0u8;
        let mut is_store = false;
        let mut taken = false;

        match inst {
            Inst::Lui { rd, imm } => self.set_x(rd, imm as u64),
            Inst::Auipc { rd, imm } => self.set_x(rd, pc.wrapping_add(imm as u64)),
            Inst::Jal { rd, offset } => {
                self.set_x(rd, next_pc);
                next_pc = pc.wrapping_add(offset as i64 as u64);
                taken = true;
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.x(rs1).wrapping_add(offset as i64 as u64) & !1;
                self.set_x(rd, next_pc);
                next_pc = target;
                taken = true;
            }
            Inst::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.x(rs1);
                let b = self.x(rs2);
                taken = match kind {
                    BranchKind::Eq => a == b,
                    BranchKind::Ne => a != b,
                    BranchKind::Lt => (a as i64) < (b as i64),
                    BranchKind::Ge => (a as i64) >= (b as i64),
                    BranchKind::Ltu => a < b,
                    BranchKind::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as i64 as u64);
                }
            }
            Inst::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.x(rs1).wrapping_add(offset as i64 as u64);
                let v = match kind {
                    LoadKind::B => self.mem.read_u8(addr) as i8 as i64 as u64,
                    LoadKind::Bu => self.mem.read_u8(addr) as u64,
                    LoadKind::H => self.mem.read_u16(addr) as i16 as i64 as u64,
                    LoadKind::Hu => self.mem.read_u16(addr) as u64,
                    LoadKind::W => self.mem.read_u32(addr) as i32 as i64 as u64,
                    LoadKind::Wu => self.mem.read_u32(addr) as u64,
                    LoadKind::D => self.mem.read_u64(addr),
                };
                self.set_x(rd, v);
                mem_addr = Some(addr);
                mem_size = kind.size();
            }
            Inst::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.x(rs1).wrapping_add(offset as i64 as u64);
                let v = self.x(rs2);
                match kind {
                    StoreKind::B => self.mem.write_u8(addr, v as u8),
                    StoreKind::H => self.mem.write_u16(addr, v as u16),
                    StoreKind::W => self.mem.write_u32(addr, v as u32),
                    StoreKind::D => self.mem.write_u64(addr, v),
                }
                mem_addr = Some(addr);
                mem_size = kind.size();
                is_store = true;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let a = self.x(rs1);
                let b = imm as i64 as u64;
                self.set_x(rd, alu64(op, a, b));
            }
            Inst::OpImmShift { op, rd, rs1, shamt } => {
                let a = self.x(rs1);
                let v = match op {
                    AluOp::Sll => a << shamt,
                    AluOp::Srl => a >> shamt,
                    AluOp::Sra => ((a as i64) >> shamt) as u64,
                    _ => unreachable!(),
                };
                self.set_x(rd, v);
            }
            Inst::OpImm32 { rd, rs1, imm } => {
                let v = (self.x(rs1) as i32).wrapping_add(imm) as i64 as u64;
                self.set_x(rd, v);
            }
            Inst::OpImm32Shift { op, rd, rs1, shamt } => {
                let a = self.x(rs1) as u32;
                let v = match op {
                    AluOp::Sll => (a << shamt) as i32,
                    AluOp::Srl => (a >> shamt) as i32,
                    AluOp::Sra => (a as i32) >> shamt,
                    _ => unreachable!(),
                } as i64 as u64;
                self.set_x(rd, v);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = alu64(op, self.x(rs1), self.x(rs2));
                self.set_x(rd, v);
            }
            Inst::Op32 { op, rd, rs1, rs2 } => {
                let a = self.x(rs1) as u32;
                let b = self.x(rs2) as u32;
                let v = match op {
                    AluOp::Add => a.wrapping_add(b) as i32,
                    AluOp::Sub => a.wrapping_sub(b) as i32,
                    AluOp::Sll => (a << (b & 31)) as i32,
                    AluOp::Srl => (a >> (b & 31)) as i32,
                    AluOp::Sra => (a as i32) >> (b & 31),
                    _ => unreachable!(),
                } as i64 as u64;
                self.set_x(rd, v);
            }
            Inst::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.x(rs1);
                let b = self.x(rs2);
                let v = muldiv64(op, a, b);
                self.set_x(rd, v);
            }
            Inst::MulDiv32 { op, rd, rs1, rs2 } => {
                let a = self.x(rs1) as i32;
                let b = self.x(rs2) as i32;
                let v = match op {
                    MulOp::Mul => a.wrapping_mul(b),
                    MulOp::Div => {
                        if b == 0 {
                            -1
                        } else if a == i32::MIN && b == -1 {
                            a
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    MulOp::Divu => {
                        let (a, b) = (a as u32, b as u32);
                        a.checked_div(b).unwrap_or(u32::MAX) as i32
                    }
                    MulOp::Rem => {
                        if b == 0 {
                            a
                        } else if a == i32::MIN && b == -1 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    MulOp::Remu => {
                        let (a, b) = (a as u32, b as u32);
                        if b == 0 {
                            a as i32
                        } else {
                            (a % b) as i32
                        }
                    }
                    _ => unreachable!("MulDiv32 only encodes W-form ops"),
                } as i64 as u64;
                self.set_x(rd, v);
            }
            Inst::Fld { rd, rs1, offset } => {
                let addr = self.x(rs1).wrapping_add(offset as i64 as u64);
                let v = self.mem.read_f64(addr);
                self.set_freg(rd.0, v);
                mem_addr = Some(addr);
                mem_size = 8;
            }
            Inst::Fsd { rs1, rs2, offset } => {
                let addr = self.x(rs1).wrapping_add(offset as i64 as u64);
                self.mem.write_f64(addr, self.freg(rs2.0));
                mem_addr = Some(addr);
                mem_size = 8;
                is_store = true;
            }
            Inst::FpOp { op, rd, rs1, rs2 } => {
                let a = self.freg(rs1.0);
                let b = self.freg(rs2.0);
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => a / b,
                    FpOp::Min => a.min(b),
                    FpOp::Max => a.max(b),
                    FpOp::Sgnj => a.copysign(b),
                    FpOp::Sgnjn => a.copysign(-b),
                    FpOp::Sgnjx => f64::from_bits(a.to_bits() ^ (b.to_bits() & (1u64 << 63))),
                };
                self.set_freg(rd.0, v);
            }
            Inst::Fsqrt { rd, rs1 } => {
                let v = self.freg(rs1.0).sqrt();
                self.set_freg(rd.0, v);
            }
            Inst::Fmadd { rd, rs1, rs2, rs3 } => {
                let v = self.freg(rs1.0).mul_add(self.freg(rs2.0), self.freg(rs3.0));
                self.set_freg(rd.0, v);
            }
            Inst::FpCmp { cmp, rd, rs1, rs2 } => {
                let a = self.freg(rs1.0);
                let b = self.freg(rs2.0);
                let v = match cmp {
                    FpCmp::Eq => a == b,
                    FpCmp::Lt => a < b,
                    FpCmp::Le => a <= b,
                } as u64;
                self.set_x(rd, v);
            }
            Inst::FcvtDL { rd, rs1 } => {
                let v = self.x(rs1) as i64 as f64;
                self.set_freg(rd.0, v);
            }
            Inst::FcvtDW { rd, rs1 } => {
                let v = self.x(rs1) as i32 as f64;
                self.set_freg(rd.0, v);
            }
            Inst::FcvtLD { rd, rs1 } => {
                let v = self.freg(rs1.0) as i64; // saturating, RTZ
                self.set_x(rd, v as u64);
            }
            Inst::FcvtWD { rd, rs1 } => {
                let v = self.freg(rs1.0) as i32; // saturating, RTZ
                self.set_x(rd, v as i64 as u64);
            }
            Inst::FmvXD { rd, rs1 } => {
                let v = self.freg(rs1.0).to_bits();
                self.set_x(rd, v);
            }
            Inst::FmvDX { rd, rs1 } => {
                let v = f64::from_bits(self.x(rs1));
                self.set_freg(rd.0, v);
            }
            Inst::Fsin { rd, rs1 } => {
                let v = self.freg(rs1.0).sin();
                self.set_freg(rd.0, v);
            }
            Inst::Fence => {}
            Inst::Ecall => {
                let nr = self.x(crate::reg::A7);
                match nr {
                    93 => {
                        let code = self.x(crate::reg::A0) as i64;
                        self.exit_code = Some(code);
                        return Err(Trap::Exit(code));
                    }
                    _ => return Err(Trap::UnknownSyscall(nr)),
                }
            }
            Inst::Ebreak => return Err(Trap::Breakpoint(pc)),
            Inst::Csrrs { rd, csr, rs1 } => {
                debug_assert_eq!(rs1.0, 0, "only read-only CSR access is supported");
                let v = match csr {
                    CSR_CYCLE | CSR_TIME | CSR_INSTRET => self.instret,
                    _ => 0,
                };
                self.set_x(rd, v);
            }
        }

        self.pc = next_pc;
        self.instret += 1;
        Ok(Retired {
            pc,
            inst,
            lowered,
            next_pc,
            mem_addr,
            mem_size,
            is_store,
            taken,
        })
    }

    /// Runs until exit, trap, or `fuel` retired instructions.
    pub fn run(&mut self, fuel: u64) -> RunResult {
        self.run_traced(fuel, |_| {})
    }

    /// Runs like [`Cpu::run`], invoking `sink` on every retired instruction.
    ///
    /// This is the hook the timing models attach to.
    pub fn run_traced<F: FnMut(&Retired)>(&mut self, fuel: u64, mut sink: F) -> RunResult {
        for _ in 0..fuel {
            match self.step() {
                Ok(r) => sink(&r),
                Err(Trap::Exit(code)) => return RunResult::Exited(code),
                Err(t) => return RunResult::Trapped(t),
            }
        }
        RunResult::OutOfFuel
    }
}

#[inline]
fn alu64(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 63),
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 63),
        AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

#[inline]
fn muldiv64(op: MulOp, a: u64, b: u64) -> u64 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        MulOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
        MulOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
        MulOp::Div => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                u64::MAX
            } else if a == i64::MIN && b == -1 {
                a as u64
            } else {
                a.wrapping_div(b) as u64
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        MulOp::Rem => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                a as u64
            } else if a == i64::MIN && b == -1 {
                0
            } else {
                a.wrapping_rem(b) as u64
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Asm, SYS_EXIT};
    use crate::reg::*;

    fn exec(a: Asm) -> (Cpu, RunResult) {
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let r = cpu.run(1_000_000);
        (cpu, r)
    }

    #[test]
    fn arithmetic_wraps() {
        let mut a = Asm::new();
        a.li(T0, i64::MAX);
        a.addi(T1, T0, 1);
        a.exit(0);
        let (cpu, _) = exec(a);
        assert_eq!(cpu.x(T1) as i64, i64::MIN);
    }

    #[test]
    fn division_by_zero_follows_spec() {
        let mut a = Asm::new();
        a.li(T0, 42).li(T1, 0);
        a.div(T2, T0, T1); // -1
        a.rem(T3, T0, T1); // 42
        a.divu(T4, T0, T1); // all-ones
        a.exit(0);
        let (cpu, _) = exec(a);
        assert_eq!(cpu.x(T2) as i64, -1);
        assert_eq!(cpu.x(T3), 42);
        assert_eq!(cpu.x(T4), u64::MAX);
    }

    #[test]
    fn signed_overflow_division() {
        let mut a = Asm::new();
        a.li(T0, i64::MIN).li(T1, -1);
        a.div(T2, T0, T1);
        a.rem(T3, T0, T1);
        a.exit(0);
        let (cpu, _) = exec(a);
        assert_eq!(cpu.x(T2) as i64, i64::MIN);
        assert_eq!(cpu.x(T3), 0);
    }

    #[test]
    fn mulh_variants() {
        let mut a = Asm::new();
        a.li(T0, -2).li(T1, 3);
        a.inst(Inst::MulDiv {
            op: MulOp::Mulh,
            rd: T2,
            rs1: T0,
            rs2: T1,
        });
        a.inst(Inst::MulDiv {
            op: MulOp::Mulhu,
            rd: T3,
            rs1: T0,
            rs2: T1,
        });
        a.exit(0);
        let (cpu, _) = exec(a);
        assert_eq!(cpu.x(T2) as i64, -1); // high bits of -6
        assert_eq!(cpu.x(T3), 2); // (2^64-2)*3 >> 64
    }

    #[test]
    fn word_ops_sign_extend() {
        let mut a = Asm::new();
        a.li(T0, 0x8000_0000u32 as i64); // already sign-extended by li
        a.li(T1, 0x7FFF_FFFF);
        a.addw(T2, T1, ZERO); // 0x7FFFFFFF
        a.addiw(T3, T1, 1); // wraps to i32::MIN
        a.exit(0);
        let (cpu, _) = exec(a);
        assert_eq!(cpu.x(T2) as i64, 0x7FFF_FFFF);
        assert_eq!(cpu.x(T3) as i64, i32::MIN as i64);
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let mut a = Asm::new();
        let addr = a.data_u64(0xFFFF_FFFF_FFFF_FF80); // byte 0 = 0x80
        a.li(T0, addr as i64);
        a.lb(T1, 0, T0);
        a.lbu(T2, 0, T0);
        a.lh(T3, 0, T0);
        a.lhu(T4, 0, T0);
        a.lw(T5, 0, T0);
        a.lwu(T6, 0, T0);
        a.exit(0);
        let (cpu, _) = exec(a);
        assert_eq!(cpu.x(T1) as i64, -128);
        assert_eq!(cpu.x(T2), 0x80);
        assert_eq!(cpu.x(T3) as i64, -128);
        assert_eq!(cpu.x(T4), 0xFF80);
        assert_eq!(cpu.x(T5) as i64, -128);
        assert_eq!(cpu.x(T6), 0xFFFF_FF80);
    }

    #[test]
    fn fp_pipeline() {
        let mut a = Asm::new();
        let src = a.data_f64s(&[1.5, 2.5]);
        let dst = a.data_zeros(8);
        a.li(T0, src as i64);
        a.li(T1, dst as i64);
        a.fld(FT0, 0, T0);
        a.fld(FT1, 8, T0);
        a.fadd_d(FT2, FT0, FT1); // 4.0
        a.fmul_d(FT3, FT2, FT2); // 16.0
        a.fsqrt_d(FT4, FT3); // 4.0
        a.fmadd_d(FT5, FT4, FT0, FT1); // 4*1.5+2.5 = 8.5
        a.fsd(FT5, 0, T1);
        a.fcvt_l_d(A0, FT5); // 8 (RTZ)
        a.li(A7, SYS_EXIT as i64).ecall();
        let (cpu, r) = exec(a);
        assert_eq!(r, RunResult::Exited(8));
        assert_eq!(cpu.mem.read_f64(dst), 8.5);
    }

    #[test]
    fn fsin_matches_libm() {
        let mut a = Asm::new();
        let src = a.data_f64s(&[1.0]);
        a.li(T0, src as i64);
        a.fld(FT0, 0, T0);
        a.fsin_d(FT1, FT0);
        a.exit(0);
        let (cpu, _) = exec(a);
        assert!((cpu.freg(1) - 1.0f64.sin()).abs() < 1e-15);
    }

    #[test]
    fn retired_records_have_addresses_and_outcomes() {
        let mut a = Asm::new();
        let addr = a.data_u64(7);
        a.li(T0, addr as i64);
        a.ld(T1, 0, T0);
        a.sd(T1, 8, T0);
        a.beq(T1, T1, "next"); // always taken
        a.label("next");
        a.exit(0);
        let p = a.assemble().unwrap();
        let mut cpu = Cpu::new(&p);
        let mut loads = 0;
        let mut stores = 0;
        let mut taken_branches = 0;
        let r = cpu.run_traced(1000, |ret| {
            if let Some(ea) = ret.mem_addr {
                if ret.is_store {
                    stores += 1;
                    assert_eq!(ea, addr + 8);
                } else {
                    loads += 1;
                    assert_eq!(ea, addr);
                }
            }
            if matches!(ret.inst, Inst::Branch { .. }) && ret.taken {
                taken_branches += 1;
            }
        });
        assert!(matches!(r, RunResult::Exited(0)));
        assert_eq!(loads, 1);
        assert_eq!(stores, 1);
        assert_eq!(taken_branches, 1);
    }

    #[test]
    fn out_of_fuel_reported() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let (_, r) = exec(a);
        assert_eq!(r, RunResult::OutOfFuel);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut a = Asm::new();
        a.jalr(ZERO, ZERO, 0); // jump to address 0: empty memory decodes as illegal
        let (_, r) = exec(a);
        match r {
            RunResult::Trapped(Trap::IllegalInstruction { pc: 0, .. }) => {}
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    #[test]
    fn csr_instret_visible() {
        let mut a = Asm::new();
        a.nop().nop().nop();
        a.csrrs(A0, 0xC02, ZERO);
        a.li(A7, SYS_EXIT as i64).ecall();
        let (_, r) = exec(a);
        // 3 nops retired before the csrrs reads instret.
        assert_eq!(r, RunResult::Exited(3));
    }
}
