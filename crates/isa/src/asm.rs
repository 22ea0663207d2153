//! Programmatic RV64 assembler.
//!
//! [`Asm`] builds a [`Program`] — a code image plus a data image — from
//! method calls that mirror assembly mnemonics, with string labels for
//! control flow and data symbols, and the usual pseudo-instructions
//! (`li`, `la`, `mv`, `j`, `ret`, `call`, `nop`, ...).
//!
//! The MicroBench suite (Table 1 of the paper) is written entirely against
//! this API; see `bsim-workloads::microbench`.
//!
//! The mnemonic builders are the RV64IMD instruction table: which of them
//! today's kernels happen to call says nothing about the surface.
// bsim: allow-file(AU005) an ISA's mnemonic table, not accretion

use crate::inst::{AluOp, BranchKind, FpCmp, FpOp, Inst, LoadKind, MulOp, StoreKind};
use crate::reg::{FReg, Reg, A0, A7, RA, SP, ZERO};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Default base address of the code image.
const CODE_BASE: u64 = 0x0001_0000;
/// Default base address of the data image.
pub const DATA_BASE: u64 = 0x0100_0000;
/// Initial stack pointer (grows down).
const STACK_TOP: u64 = 0x7FFF_F000;
/// The `ecall` a7 value for "exit" (Linux RV64 ABI).
pub(crate) const SYS_EXIT: u64 = 93;

/// An assembled, loadable program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Encoded instruction words.
    pub code: Vec<u32>,
    /// Load address of `code`.
    pub code_base: u64,
    /// Initialized data image: shared and immutable, so clones of a
    /// program and every [`Cpu`](crate::Cpu) running it read one buffer.
    pub data: Arc<[u8]>,
    /// Load address of `data`.
    pub data_base: u64,
    /// Entry PC.
    pub entry: u64,
}

impl Program {
    /// A program at the default bases, entered at its first instruction.
    fn new(code: Vec<u32>, data: Vec<u8>) -> Program {
        Program {
            code,
            code_base: CODE_BASE,
            data: data.into(),
            data_base: DATA_BASE,
            entry: CODE_BASE,
        }
    }

    /// Static code size in instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// Error produced at `assemble()` time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target is beyond the ±4 KiB B-type range.
    BranchOutOfRange { label: String, offset: i64 },
    /// A jump target is beyond the ±1 MiB J-type range.
    JumpOutOfRange { label: String, offset: i64 },
    /// A data symbol was referenced but never defined.
    UndefinedSymbol(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { label, offset } => {
                write!(f, "branch to `{label}` out of range ({offset} bytes)")
            }
            AsmError::JumpOutOfRange { label, offset } => {
                write!(f, "jump to `{label}` out of range ({offset} bytes)")
            }
            AsmError::UndefinedSymbol(s) => write!(f, "undefined data symbol `{s}`"),
        }
    }
}

impl std::error::Error for AsmError {}

enum Slot {
    Done(Inst),
    BranchTo {
        kind: BranchKind,
        rs1: Reg,
        rs2: Reg,
        label: String,
    },
    JalTo {
        rd: Reg,
        label: String,
    },
    /// `lui+addiw` pair materializing the absolute address of a data symbol
    /// (all our images sit below 2^31, so two instructions always suffice).
    LaHi {
        rd: Reg,
        sym: String,
    },
    LaLo {
        rd: Reg,
        sym: String,
    },
}

/// Programmatic assembler. See the module docs for an overview.
#[derive(Default)]
pub struct Asm {
    slots: Vec<Slot>,
    labels: HashMap<String, usize>,
    data: Vec<u8>,
    syms: HashMap<String, u64>,
}

impl Asm {
    /// Creates an empty program under construction.
    pub fn new() -> Asm {
        Asm::default()
    }

    // ---- labels & data ------------------------------------------------

    /// Defines a code label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.slots.len());
        assert!(prev.is_none(), "duplicate label `{name}`");
        self
    }

    /// Current instruction index (useful for size accounting in tests).
    pub fn here(&self) -> usize {
        self.slots.len()
    }

    /// Defines a data symbol at the current end of the data section.
    pub fn data_label(&mut self, name: &str) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        let prev = self.syms.insert(name.to_string(), addr);
        assert!(prev.is_none(), "duplicate data symbol `{name}`");
        addr
    }

    /// Pads the data section to `align` bytes (power of two).
    fn data_align(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        while !self.data.len().is_multiple_of(align) {
            self.data.push(0);
        }
    }

    /// Appends a u64 to the data section, returning its address.
    pub fn data_u64(&mut self, v: u64) -> u64 {
        self.data_align(8);
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.extend_from_slice(&v.to_le_bytes());
        addr
    }

    /// Appends a slice of u64s, returning the base address.
    pub fn data_u64s(&mut self, vs: &[u64]) -> u64 {
        self.data_align(8);
        let addr = DATA_BASE + self.data.len() as u64;
        for v in vs {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Appends a slice of f64s, returning the base address.
    pub fn data_f64s(&mut self, vs: &[f64]) -> u64 {
        self.data_align(8);
        let addr = DATA_BASE + self.data.len() as u64;
        for v in vs {
            self.data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    /// Reserves `n` zeroed bytes, returning the base address.
    pub fn data_zeros(&mut self, n: usize) -> u64 {
        self.data_align(8);
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    // ---- raw emit ------------------------------------------------------

    /// Emits an already-constructed instruction.
    pub fn inst(&mut self, i: Inst) -> &mut Self {
        self.slots.push(Slot::Done(i));
        self
    }

    // ---- integer ALU ----------------------------------------------------

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }
    /// `addiw rd, rs1, imm`
    pub fn addiw(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm32 { rd, rs1, imm })
    }
    /// `andi rd, rs1, imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }
    /// `ori rd, rs1, imm`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm {
            op: AluOp::Or,
            rd,
            rs1,
            imm,
        })
    }
    /// `xori rd, rs1, imm`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm {
            op: AluOp::Xor,
            rd,
            rs1,
            imm,
        })
    }
    /// `slti rd, rs1, imm`
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm {
            op: AluOp::Slt,
            rd,
            rs1,
            imm,
        })
    }
    /// `sltiu rd, rs1, imm`
    pub fn sltiu(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.inst(Inst::OpImm {
            op: AluOp::Sltu,
            rd,
            rs1,
            imm,
        })
    }
    /// `slli rd, rs1, shamt`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.inst(Inst::OpImmShift {
            op: AluOp::Sll,
            rd,
            rs1,
            shamt,
        })
    }
    /// `srli rd, rs1, shamt`
    pub fn srli(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.inst(Inst::OpImmShift {
            op: AluOp::Srl,
            rd,
            rs1,
            shamt,
        })
    }
    /// `srai rd, rs1, shamt`
    pub fn srai(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.inst(Inst::OpImmShift {
            op: AluOp::Sra,
            rd,
            rs1,
            shamt,
        })
    }
    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }
    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }
    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        })
    }
    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Or,
            rd,
            rs1,
            rs2,
        })
    }
    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        })
    }
    /// `sll rd, rs1, rs2`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Sll,
            rd,
            rs1,
            rs2,
        })
    }
    /// `srl rd, rs1, rs2`
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Srl,
            rd,
            rs1,
            rs2,
        })
    }
    /// `sra rd, rs1, rs2`
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Sra,
            rd,
            rs1,
            rs2,
        })
    }
    /// `slt rd, rs1, rs2`
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Slt,
            rd,
            rs1,
            rs2,
        })
    }
    /// `sltu rd, rs1, rs2`
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op {
            op: AluOp::Sltu,
            rd,
            rs1,
            rs2,
        })
    }
    /// `addw rd, rs1, rs2`
    pub fn addw(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op32 {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }
    /// `subw rd, rs1, rs2`
    pub fn subw(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::Op32 {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }
    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::MulDiv {
            op: MulOp::Mul,
            rd,
            rs1,
            rs2,
        })
    }
    /// `mulhu rd, rs1, rs2`
    pub fn mulhu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::MulDiv {
            op: MulOp::Mulhu,
            rd,
            rs1,
            rs2,
        })
    }
    /// `div rd, rs1, rs2`
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::MulDiv {
            op: MulOp::Div,
            rd,
            rs1,
            rs2,
        })
    }
    /// `divu rd, rs1, rs2`
    pub fn divu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::MulDiv {
            op: MulOp::Divu,
            rd,
            rs1,
            rs2,
        })
    }
    /// `rem rd, rs1, rs2`
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::MulDiv {
            op: MulOp::Rem,
            rd,
            rs1,
            rs2,
        })
    }
    /// `remu rd, rs1, rs2`
    pub fn remu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.inst(Inst::MulDiv {
            op: MulOp::Remu,
            rd,
            rs1,
            rs2,
        })
    }
    /// `lui rd, imm` (imm is the full shifted value, 4 KiB aligned)
    pub fn lui(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.inst(Inst::Lui { rd, imm })
    }
    /// `auipc rd, imm`
    pub fn auipc(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.inst(Inst::Auipc { rd, imm })
    }

    // ---- memory ---------------------------------------------------------

    /// `ld rd, offset(rs1)`
    pub fn ld(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::D,
            rd,
            rs1,
            offset,
        })
    }
    /// `lw rd, offset(rs1)`
    pub fn lw(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::W,
            rd,
            rs1,
            offset,
        })
    }
    /// `lwu rd, offset(rs1)`
    pub fn lwu(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::Wu,
            rd,
            rs1,
            offset,
        })
    }
    /// `lh rd, offset(rs1)`
    pub fn lh(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::H,
            rd,
            rs1,
            offset,
        })
    }
    /// `lhu rd, offset(rs1)`
    pub fn lhu(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::Hu,
            rd,
            rs1,
            offset,
        })
    }
    /// `lb rd, offset(rs1)`
    pub fn lb(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::B,
            rd,
            rs1,
            offset,
        })
    }
    /// `lbu rd, offset(rs1)`
    pub fn lbu(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Load {
            kind: LoadKind::Bu,
            rd,
            rs1,
            offset,
        })
    }
    /// `sd rs2, offset(rs1)`
    pub fn sd(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Store {
            kind: StoreKind::D,
            rs1,
            rs2,
            offset,
        })
    }
    /// `sw rs2, offset(rs1)`
    pub fn sw(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Store {
            kind: StoreKind::W,
            rs1,
            rs2,
            offset,
        })
    }
    /// `sh rs2, offset(rs1)`
    pub fn sh(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Store {
            kind: StoreKind::H,
            rs1,
            rs2,
            offset,
        })
    }
    /// `sb rs2, offset(rs1)`
    pub fn sb(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Store {
            kind: StoreKind::B,
            rs1,
            rs2,
            offset,
        })
    }
    /// `fld rd, offset(rs1)`
    pub fn fld(&mut self, rd: FReg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Fld { rd, rs1, offset })
    }
    /// `fsd rs2, offset(rs1)`
    pub fn fsd(&mut self, rs2: FReg, offset: i32, rs1: Reg) -> &mut Self {
        self.inst(Inst::Fsd { rs1, rs2, offset })
    }

    // ---- control flow ----------------------------------------------------

    /// `beq rs1, rs2, label`
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            kind: BranchKind::Eq,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }
    /// `bne rs1, rs2, label`
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            kind: BranchKind::Ne,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }
    /// `blt rs1, rs2, label`
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            kind: BranchKind::Lt,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }
    /// `bge rs1, rs2, label`
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            kind: BranchKind::Ge,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }
    /// `bltu rs1, rs2, label`
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            kind: BranchKind::Ltu,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }
    /// `bgeu rs1, rs2, label`
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            kind: BranchKind::Geu,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }
    /// `beqz rs1, label`
    pub fn beqz(&mut self, rs1: Reg, label: &str) -> &mut Self {
        self.beq(rs1, ZERO, label)
    }
    /// `bnez rs1, label`
    pub fn bnez(&mut self, rs1: Reg, label: &str) -> &mut Self {
        self.bne(rs1, ZERO, label)
    }
    /// `jal rd, label`
    pub fn jal(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::JalTo {
            rd,
            label: label.into(),
        });
        self
    }
    /// `j label` (jal zero)
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.jal(ZERO, label)
    }
    /// `call label` (jal ra)
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.jal(RA, label)
    }
    /// `jalr rd, offset(rs1)`
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.inst(Inst::Jalr { rd, rs1, offset })
    }
    /// `ret` (jalr zero, 0(ra))
    pub fn ret(&mut self) -> &mut Self {
        self.jalr(ZERO, RA, 0)
    }
    /// `jr rs1` (jalr zero, 0(rs1)) — indirect jump, e.g. switch tables.
    pub fn jr(&mut self, rs1: Reg) -> &mut Self {
        self.jalr(ZERO, rs1, 0)
    }

    // ---- FP ---------------------------------------------------------------

    /// `fadd.d rd, rs1, rs2`
    pub fn fadd_d(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpOp {
            op: FpOp::Add,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fsub.d rd, rs1, rs2`
    pub fn fsub_d(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpOp {
            op: FpOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fmul.d rd, rs1, rs2`
    pub fn fmul_d(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpOp {
            op: FpOp::Mul,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fdiv.d rd, rs1, rs2`
    pub fn fdiv_d(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpOp {
            op: FpOp::Div,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fmadd.d rd, rs1, rs2, rs3`
    pub fn fmadd_d(&mut self, rd: FReg, rs1: FReg, rs2: FReg, rs3: FReg) -> &mut Self {
        self.inst(Inst::Fmadd { rd, rs1, rs2, rs3 })
    }
    /// `fsqrt.d rd, rs1`
    pub fn fsqrt_d(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.inst(Inst::Fsqrt { rd, rs1 })
    }
    /// `fmv.d rd, rs1` (fsgnj.d rd, rs1, rs1)
    pub fn fmv_d(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.inst(Inst::FpOp {
            op: FpOp::Sgnj,
            rd,
            rs1,
            rs2: rs1,
        })
    }
    /// `fneg.d rd, rs1` (fsgnjn.d rd, rs1, rs1)
    pub fn fneg_d(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.inst(Inst::FpOp {
            op: FpOp::Sgnjn,
            rd,
            rs1,
            rs2: rs1,
        })
    }
    /// `feq.d rd, rs1, rs2`
    pub fn feq_d(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpCmp {
            cmp: FpCmp::Eq,
            rd,
            rs1,
            rs2,
        })
    }
    /// `flt.d rd, rs1, rs2`
    pub fn flt_d(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpCmp {
            cmp: FpCmp::Lt,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fle.d rd, rs1, rs2`
    pub fn fle_d(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.inst(Inst::FpCmp {
            cmp: FpCmp::Le,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fcvt.d.l rd, rs1`
    pub fn fcvt_d_l(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.inst(Inst::FcvtDL { rd, rs1 })
    }
    /// `fcvt.d.w rd, rs1`
    pub fn fcvt_d_w(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.inst(Inst::FcvtDW { rd, rs1 })
    }
    /// `fcvt.l.d rd, rs1`
    pub fn fcvt_l_d(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.inst(Inst::FcvtLD { rd, rs1 })
    }
    /// `fcvt.w.d rd, rs1`
    pub fn fcvt_w_d(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.inst(Inst::FcvtWD { rd, rs1 })
    }
    /// `fmv.x.d rd, rs1`
    pub fn fmv_x_d(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.inst(Inst::FmvXD { rd, rs1 })
    }
    /// `fmv.d.x rd, rs1`
    pub fn fmv_d_x(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.inst(Inst::FmvDX { rd, rs1 })
    }
    /// Custom `fsin.d rd, rs1` — libm `sin()` stand-in (see crate docs).
    pub fn fsin_d(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.inst(Inst::Fsin { rd, rs1 })
    }

    // ---- system -------------------------------------------------------------

    /// `fence`
    pub fn fence(&mut self) -> &mut Self {
        self.inst(Inst::Fence)
    }
    /// `ecall`
    pub fn ecall(&mut self) -> &mut Self {
        self.inst(Inst::Ecall)
    }
    /// `csrrs rd, csr, rs1`
    pub fn csrrs(&mut self, rd: Reg, csr: u16, rs1: Reg) -> &mut Self {
        self.inst(Inst::Csrrs { rd, csr, rs1 })
    }

    // ---- pseudo-instructions ---------------------------------------------------

    /// `nop`
    pub fn nop(&mut self) -> &mut Self {
        self.addi(ZERO, ZERO, 0)
    }
    /// `mv rd, rs1`
    pub fn mv(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.addi(rd, rs1, 0)
    }
    /// `neg rd, rs1`
    pub fn neg(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.sub(rd, ZERO, rs1)
    }
    /// `seqz rd, rs1`
    pub fn seqz(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.sltiu(rd, rs1, 1)
    }
    /// `snez rd, rs1`
    pub fn snez(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.sltu(rd, ZERO, rs1)
    }

    /// `li rd, imm` — materializes an arbitrary 64-bit constant
    /// (1–8 instructions, standard lui/addiw/slli/addi expansion).
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.li_rec(rd, imm);
        self
    }

    fn li_rec(&mut self, rd: Reg, imm: i64) {
        if (-2048..=2047).contains(&imm) {
            self.addi(rd, ZERO, imm as i32);
            return;
        }
        if imm >= i32::MIN as i64 && imm <= i32::MAX as i64 {
            // lui + addiw, with carry correction for a negative low part.
            let lo = ((imm << 52) >> 52) as i32; // sign-extended low 12 bits
            let hi = (imm - lo as i64) & 0xFFFF_F000;
            // `hi` as computed can be 0x8000_0000 for imm near i32::MAX;
            // sign-extend it through the 32-bit LUI semantics.
            let hi_sext = (hi << 32) >> 32;
            self.lui(rd, hi_sext);
            if lo != 0 {
                self.addiw(rd, rd, lo);
            }
            return;
        }
        // 64-bit: materialize the upper part, shift, add low 12 bits.
        let lo = ((imm << 52) >> 52) as i32;
        // Wrapping is deliberate: the target composes `(upper << 12) + lo`
        // with 64-bit wraparound, so the value is preserved mod 2^64.
        let upper = imm.wrapping_sub(lo as i64) >> 12;
        self.li_rec(rd, upper);
        self.slli(rd, rd, 12);
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
    }

    /// `la rd, sym` — loads the absolute address of a data symbol
    /// (always a 2-instruction lui/addiw pair; symbols may be defined
    /// after the reference).
    pub fn la(&mut self, rd: Reg, sym: &str) -> &mut Self {
        self.slots.push(Slot::LaHi {
            rd,
            sym: sym.into(),
        });
        self.slots.push(Slot::LaLo {
            rd,
            sym: sym.into(),
        });
        self
    }

    /// Exit the program via `ecall` with status `code`.
    pub fn exit(&mut self, code: i64) -> &mut Self {
        self.li(A0, code);
        self.li(A7, SYS_EXIT as i64);
        self.ecall()
    }

    // ---- assemble ---------------------------------------------------------------

    /// Resolves all labels and symbols and produces the final [`Program`].
    pub fn assemble(self) -> Result<Program, AsmError> {
        Ok(Program::new(self.encode()?, self.data))
    }

    /// Resolves all labels and symbols into the encoded code image.
    fn encode(&self) -> Result<Vec<u32>, AsmError> {
        let mut code = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let pc = CODE_BASE + 4 * idx as u64;
            let inst = match slot {
                Slot::Done(i) => *i,
                Slot::BranchTo {
                    kind,
                    rs1,
                    rs2,
                    label,
                } => {
                    let target = self.resolve_label(label)?;
                    let offset = target as i64 - pc as i64;
                    if !(-4096..=4094).contains(&offset) {
                        return Err(AsmError::BranchOutOfRange {
                            label: label.clone(),
                            offset,
                        });
                    }
                    Inst::Branch {
                        kind: *kind,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: offset as i32,
                    }
                }
                Slot::JalTo { rd, label } => {
                    let target = self.resolve_label(label)?;
                    let offset = target as i64 - pc as i64;
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::JumpOutOfRange {
                            label: label.clone(),
                            offset,
                        });
                    }
                    Inst::Jal {
                        rd: *rd,
                        offset: offset as i32,
                    }
                }
                Slot::LaHi { rd, sym } => {
                    let (hi, _) = self.resolve_sym_parts(sym)?;
                    Inst::Lui { rd: *rd, imm: hi }
                }
                Slot::LaLo { rd, sym } => {
                    let (_, lo) = self.resolve_sym_parts(sym)?;
                    Inst::OpImm32 {
                        rd: *rd,
                        rs1: *rd,
                        imm: lo,
                    }
                }
            };
            code.push(inst.encode());
        }
        Ok(code)
    }

    fn resolve_label(&self, label: &str) -> Result<u64, AsmError> {
        self.labels
            .get(label)
            .map(|&i| CODE_BASE + 4 * i as u64)
            .ok_or_else(|| AsmError::UndefinedLabel(label.to_string()))
    }

    fn resolve_sym_parts(&self, sym: &str) -> Result<(i64, i32), AsmError> {
        let addr = *self
            .syms
            .get(sym)
            .ok_or_else(|| AsmError::UndefinedSymbol(sym.to_string()))? as i64;
        debug_assert!(addr < (1 << 31), "data addresses must fit lui/addiw");
        let lo = ((addr << 52) >> 52) as i32;
        let hi = (addr - lo as i64) & 0xFFFF_F000;
        Ok((hi, lo))
    }
}

// Re-export SP so kernels can set up a stack without importing reg directly.
pub use crate::reg::SP as STACK_REG;

/// Convenience: sets up `sp` at [`STACK_TOP`] as a prologue.
pub fn with_stack(a: &mut Asm) {
    a.li(SP, STACK_TOP as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Cpu, RunResult};
    use crate::reg::*;

    fn run(a: Asm) -> Cpu {
        let p = a.assemble().expect("assembly failed");
        let mut cpu = Cpu::new(&p);
        match cpu.run(10_000_000) {
            RunResult::Exited(_) => cpu,
            other => panic!("program did not exit cleanly: {other:?}"),
        }
    }

    #[test]
    fn branch_loop_counts() {
        let mut a = Asm::new();
        a.li(T0, 0).li(T1, 10);
        a.label("loop");
        a.addi(T0, T0, 1);
        a.blt(T0, T1, "loop");
        a.mv(A0, T0);
        a.li(A7, SYS_EXIT as i64).ecall();
        let cpu = run(a);
        assert_eq!(cpu.exit_code(), Some(10));
    }

    #[test]
    fn li_materializes_64_bit_constants() {
        for &v in &[
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            0x7FFF_FFFF,
            -0x8000_0000,
            0x8000_0000,
            0x1234_5678_9ABC_DEF0,
            i64::MIN,
            i64::MAX,
            0x7FFF_F000,
        ] {
            let mut a = Asm::new();
            a.li(A0, v);
            a.li(A7, SYS_EXIT as i64).ecall();
            let cpu = run(a);
            assert_eq!(cpu.x(A0) as i64, v, "li failed for {v:#x}");
        }
    }

    #[test]
    fn la_and_data_roundtrip() {
        let mut a = Asm::new();
        a.data_label("tbl");
        a.data_u64s(&[5, 7, 11]);
        a.la(T0, "tbl");
        a.ld(A0, 16, T0); // third element
        a.li(A7, SYS_EXIT as i64).ecall();
        let cpu = run(a);
        assert_eq!(cpu.exit_code(), Some(11));
    }

    #[test]
    fn forward_data_symbol_reference() {
        let mut a = Asm::new();
        a.la(T0, "later"); // referenced before definition
        a.ld(A0, 0, T0);
        a.li(A7, SYS_EXIT as i64).ecall();
        a.data_label("later");
        a.data_u64(42);
        let cpu = run(a);
        assert_eq!(cpu.exit_code(), Some(42));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new();
        a.j("nowhere");
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let mut a = Asm::new();
        a.label("start");
        for _ in 0..2000 {
            a.nop();
        }
        a.beq(ZERO, ZERO, "start");
        match a.assemble() {
            Err(AsmError::BranchOutOfRange { .. }) => {}
            other => panic!("expected out-of-range error, got {other:?}"),
        }
    }

    #[test]
    fn call_ret_works() {
        let mut a = Asm::new();
        with_stack(&mut a);
        a.li(A0, 5);
        a.call("double");
        a.li(A7, SYS_EXIT as i64).ecall();
        a.label("double");
        a.add(A0, A0, A0);
        a.ret();
        let cpu = run(a);
        assert_eq!(cpu.exit_code(), Some(10));
    }

    #[test]
    fn exit_helper() {
        let mut a = Asm::new();
        a.exit(7);
        let cpu = run(a);
        assert_eq!(cpu.exit_code(), Some(7));
    }
}
