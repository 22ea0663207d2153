//! Decoded RV64IM + D-subset instructions with exact bit-level
//! encode/decode.
//!
//! The encoding follows the RISC-V unprivileged specification (RV64I base,
//! M extension, and the portion of the D extension used by the workloads).
//! `encode(decode(x)) == x` holds for every word this module accepts, and
//! `decode(encode(i)) == i` holds for every [`Inst`] value with in-range
//! immediates — both are enforced by property tests.

use crate::reg::{FReg, Reg, Ureg};
use std::fmt;

/// Coarse operation class, used by the timing models to choose functional
/// units and latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU op (add, logic, shifts, LUI, AUIPC).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder (long latency, unpipelined).
    IntDiv,
    /// Memory load (int or fp destination).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (JAL/JALR).
    Jump,
    /// FP add/sub/sign-ops/compares/converts/moves.
    FpAlu,
    /// FP multiply and fused multiply-add.
    FpMul,
    /// FP divide / sqrt (long latency, unpipelined).
    FpDiv,
    /// Long-latency transcendental (the custom `FSIN.D` stand-in for libm).
    FpTranscendental,
    /// System instruction (ECALL/EBREAK/CSR/FENCE).
    System,
}

/// Control-flow classification, used by the branch predictors. Calls and
/// returns follow the RISC-V return-address-stack hints (link register
/// `ra`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchClass {
    /// Conditional branch (BEQ/BNE/...).
    Conditional,
    /// Direct unconditional jump (JAL with rd=x0).
    Direct,
    /// Function call (JAL/JALR writing ra).
    Call,
    /// Function return (JALR through ra).
    Return,
    /// Other indirect jump (JALR).
    Indirect,
}

/// Everything the timing models need of a *static* instruction, derived
/// once when the interpreter decodes the code image ([`Inst::lower`]) and
/// carried by every dynamic [`Retired`](crate::Retired) record of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lowered {
    /// Operation class ([`Inst::class`]).
    pub class: OpClass,
    /// Destination register ([`Inst::dest`]).
    pub dest: Option<Ureg>,
    /// Source registers ([`Inst::sources`]).
    pub srcs: [Option<Ureg>; 3],
    /// Control-flow class, for instructions that redirect the PC.
    pub branch: Option<BranchClass>,
}

/// Width/signedness selector for integer loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoadKind {
    /// LB: sign-extended byte.
    B,
    /// LH: sign-extended halfword.
    H,
    /// LW: sign-extended word.
    W,
    /// LD: doubleword.
    D,
    /// LBU: zero-extended byte.
    Bu,
    /// LHU: zero-extended halfword.
    Hu,
    /// LWU: zero-extended word.
    Wu,
}

impl LoadKind {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            LoadKind::B | LoadKind::Bu => 1,
            LoadKind::H | LoadKind::Hu => 2,
            LoadKind::W | LoadKind::Wu => 4,
            LoadKind::D => 8,
        }
    }
    fn funct3(self) -> u32 {
        match self {
            LoadKind::B => 0b000,
            LoadKind::H => 0b001,
            LoadKind::W => 0b010,
            LoadKind::D => 0b011,
            LoadKind::Bu => 0b100,
            LoadKind::Hu => 0b101,
            LoadKind::Wu => 0b110,
        }
    }
}

/// Width selector for integer stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// SB: byte.
    B,
    /// SH: halfword.
    H,
    /// SW: word.
    W,
    /// SD: doubleword.
    D,
}

impl StoreKind {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            StoreKind::B => 1,
            StoreKind::H => 2,
            StoreKind::W => 4,
            StoreKind::D => 8,
        }
    }
    fn funct3(self) -> u32 {
        match self {
            StoreKind::B => 0b000,
            StoreKind::H => 0b001,
            StoreKind::W => 0b010,
            StoreKind::D => 0b011,
        }
    }
}

/// Register-register integer ALU operations (OP / OP-32 opcodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Shift left logical.
    Sll,
    /// Set less than (signed).
    Slt,
    /// Set less than (unsigned).
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

impl AluOp {
    fn f3_f7(self) -> (u32, u32) {
        match self {
            AluOp::Add => (0b000, 0b0000000),
            AluOp::Sub => (0b000, 0b0100000),
            AluOp::Sll => (0b001, 0b0000000),
            AluOp::Slt => (0b010, 0b0000000),
            AluOp::Sltu => (0b011, 0b0000000),
            AluOp::Xor => (0b100, 0b0000000),
            AluOp::Srl => (0b101, 0b0000000),
            AluOp::Sra => (0b101, 0b0100000),
            AluOp::Or => (0b110, 0b0000000),
            AluOp::And => (0b111, 0b0000000),
        }
    }
}

/// M-extension multiply/divide operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// MUL: low 64 bits of product.
    Mul,
    /// MULH: high 64 bits, signed × signed.
    Mulh,
    /// MULHSU: high 64 bits, signed × unsigned.
    Mulhsu,
    /// MULHU: high 64 bits, unsigned × unsigned.
    Mulhu,
    /// DIV: signed division.
    Div,
    /// DIVU: unsigned division.
    Divu,
    /// REM: signed remainder.
    Rem,
    /// REMU: unsigned remainder.
    Remu,
}

impl MulOp {
    fn funct3(self) -> u32 {
        match self {
            MulOp::Mul => 0b000,
            MulOp::Mulh => 0b001,
            MulOp::Mulhsu => 0b010,
            MulOp::Mulhu => 0b011,
            MulOp::Div => 0b100,
            MulOp::Divu => 0b101,
            MulOp::Rem => 0b110,
            MulOp::Remu => 0b111,
        }
    }

    /// True for the divide/remainder subgroup (long-latency unit).
    fn is_div(self) -> bool {
        matches!(self, MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu)
    }
}

/// Conditional branch comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater or equal (unsigned).
    Geu,
}

impl BranchKind {
    fn funct3(self) -> u32 {
        match self {
            BranchKind::Eq => 0b000,
            BranchKind::Ne => 0b001,
            BranchKind::Lt => 0b100,
            BranchKind::Ge => 0b101,
            BranchKind::Ltu => 0b110,
            BranchKind::Geu => 0b111,
        }
    }
}

/// Double-precision FP register-register operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// FADD.D
    Add,
    /// FSUB.D
    Sub,
    /// FMUL.D
    Mul,
    /// FDIV.D
    Div,
    /// FMIN.D
    Min,
    /// FMAX.D
    Max,
    /// FSGNJ.D (also encodes `fmv.d`)
    Sgnj,
    /// FSGNJN.D (also encodes `fneg.d`)
    Sgnjn,
    /// FSGNJX.D (also encodes `fabs.d`)
    Sgnjx,
}

/// FP comparison predicates (result to an integer register).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpCmp {
    /// FEQ.D
    Eq,
    /// FLT.D
    Lt,
    /// FLE.D
    Le,
}

/// A decoded instruction.
///
/// Immediates are stored in their natural, sign-extended, byte-scaled form
/// (e.g. a branch offset is the byte distance from the branch PC).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings follow the RISC-V spec mnemonics
pub enum Inst {
    /// LUI rd, imm — load upper immediate (`imm` is the full shifted value).
    Lui { rd: Reg, imm: i64 },
    /// AUIPC rd, imm — add upper immediate to PC.
    Auipc { rd: Reg, imm: i64 },
    /// JAL rd, offset.
    Jal { rd: Reg, offset: i32 },
    /// JALR rd, rs1, offset.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch.
    Branch {
        kind: BranchKind,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Integer load.
    Load {
        kind: LoadKind,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Integer store.
    Store {
        kind: StoreKind,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// OP-IMM: ADDI/SLTI/SLTIU/XORI/ORI/ANDI.
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// OP-IMM shift: SLLI/SRLI/SRAI (6-bit shamt on RV64).
    OpImmShift {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    /// OP-IMM-32: ADDIW.
    OpImm32 { rd: Reg, rs1: Reg, imm: i32 },
    /// OP-IMM-32 shift: SLLIW/SRLIW/SRAIW (5-bit shamt).
    OpImm32Shift {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        shamt: u8,
    },
    /// OP: register-register ALU.
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// OP-32: register-register ALU on the low 32 bits (ADDW/SUBW/SLLW/SRLW/SRAW).
    Op32 {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// M extension on 64-bit operands.
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// M extension on 32-bit operands (MULW/DIVW/DIVUW/REMW/REMUW).
    MulDiv32 {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// FLD rd, offset(rs1).
    Fld { rd: FReg, rs1: Reg, offset: i32 },
    /// FSD rs2, offset(rs1).
    Fsd { rs1: Reg, rs2: FReg, offset: i32 },
    /// Double-precision register-register arithmetic.
    FpOp {
        op: FpOp,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
    },
    /// FSQRT.D rd, rs1.
    Fsqrt { rd: FReg, rs1: FReg },
    /// FMADD.D rd, rs1, rs2, rs3 → rd = rs1*rs2 + rs3.
    Fmadd {
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
        rs3: FReg,
    },
    /// FP comparison into an integer register.
    FpCmp {
        cmp: FpCmp,
        rd: Reg,
        rs1: FReg,
        rs2: FReg,
    },
    /// FCVT.D.L rd, rs1 — signed 64-bit int to double.
    FcvtDL { rd: FReg, rs1: Reg },
    /// FCVT.D.W rd, rs1 — signed 32-bit int to double.
    FcvtDW { rd: FReg, rs1: Reg },
    /// FCVT.L.D rd, rs1 — double to signed 64-bit int (RTZ semantics here).
    FcvtLD { rd: Reg, rs1: FReg },
    /// FCVT.W.D rd, rs1 — double to signed 32-bit int (RTZ semantics here).
    FcvtWD { rd: Reg, rs1: FReg },
    /// FMV.X.D rd, rs1 — bit-move double to integer register.
    FmvXD { rd: Reg, rs1: FReg },
    /// FMV.D.X rd, rs1 — bit-move integer register to double.
    FmvDX { rd: FReg, rs1: Reg },
    /// Custom-0 `FSIN.D rd, rs1` — stands in for a libm sin() call.
    Fsin { rd: FReg, rs1: FReg },
    /// FENCE (modeled as a pipeline drain; fields ignored).
    Fence,
    /// ECALL.
    Ecall,
    /// EBREAK.
    Ebreak,
    /// CSRRS rd, csr, rs1 — only the read-only uses (rs1 = x0) are executed;
    /// the interpreter exposes `cycle`, `time` and `instret`.
    Csrrs { rd: Reg, csr: u16, rs1: Reg },
}

/// Error returned when a 32-bit word is not a recognised instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending instruction word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

// Opcode constants (major opcode, bits [6:0]).
const OPC_LOAD: u32 = 0x03;
const OPC_LOAD_FP: u32 = 0x07;
const OPC_CUSTOM0: u32 = 0x0B;
const OPC_MISC_MEM: u32 = 0x0F;
const OPC_OP_IMM: u32 = 0x13;
const OPC_AUIPC: u32 = 0x17;
const OPC_OP_IMM_32: u32 = 0x1B;
const OPC_STORE: u32 = 0x23;
const OPC_STORE_FP: u32 = 0x27;
const OPC_OP: u32 = 0x33;
const OPC_LUI: u32 = 0x37;
const OPC_OP_32: u32 = 0x3B;
const OPC_MADD: u32 = 0x43;
const OPC_OP_FP: u32 = 0x53;
const OPC_BRANCH: u32 = 0x63;
const OPC_JALR: u32 = 0x67;
const OPC_JAL: u32 = 0x6F;
const OPC_SYSTEM: u32 = 0x73;

// Field packers.
#[inline]
fn r_type(opc: u32, rd: u32, f3: u32, rs1: u32, rs2: u32, f7: u32) -> u32 {
    opc | (rd << 7) | (f3 << 12) | (rs1 << 15) | (rs2 << 20) | (f7 << 25)
}

#[inline]
fn i_type(opc: u32, rd: u32, f3: u32, rs1: u32, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "I-imm out of range: {imm}");
    opc | (rd << 7) | (f3 << 12) | (rs1 << 15) | (((imm as u32) & 0xFFF) << 20)
}

#[inline]
fn s_type(opc: u32, f3: u32, rs1: u32, rs2: u32, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "S-imm out of range: {imm}");
    let imm = imm as u32;
    opc | ((imm & 0x1F) << 7) | (f3 << 12) | (rs1 << 15) | (rs2 << 20) | (((imm >> 5) & 0x7F) << 25)
}

#[inline]
fn b_type(opc: u32, f3: u32, rs1: u32, rs2: u32, imm: i32) -> u32 {
    debug_assert!(
        (-4096..=4095).contains(&imm) && imm % 2 == 0,
        "B-imm out of range or misaligned: {imm}"
    );
    let imm = imm as u32;
    opc | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xF) << 8)
        | (f3 << 12)
        | (rs1 << 15)
        | (rs2 << 20)
        | (((imm >> 5) & 0x3F) << 25)
        | (((imm >> 12) & 1) << 31)
}

#[inline]
fn u_type(opc: u32, rd: u32, imm: i64) -> u32 {
    debug_assert!(imm % 4096 == 0, "U-imm must be 4 KiB aligned: {imm}");
    let imm20 = ((imm >> 12) as u32) & 0xFFFFF;
    opc | (rd << 7) | (imm20 << 12)
}

#[inline]
fn j_type(opc: u32, rd: u32, imm: i32) -> u32 {
    debug_assert!(
        (-(1 << 20)..(1 << 20)).contains(&imm) && imm % 2 == 0,
        "J-imm out of range or misaligned: {imm}"
    );
    let imm = imm as u32;
    opc | (rd << 7)
        | (((imm >> 12) & 0xFF) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 20) & 1) << 31)
}

// Field extractors.
#[inline]
fn rd_of(w: u32) -> u32 {
    (w >> 7) & 0x1F
}
#[inline]
fn f3_of(w: u32) -> u32 {
    (w >> 12) & 0x7
}
#[inline]
fn rs1_of(w: u32) -> u32 {
    (w >> 15) & 0x1F
}
#[inline]
fn rs2_of(w: u32) -> u32 {
    (w >> 20) & 0x1F
}
#[inline]
fn f7_of(w: u32) -> u32 {
    (w >> 25) & 0x7F
}
#[inline]
fn i_imm(w: u32) -> i32 {
    (w as i32) >> 20
}
#[inline]
fn s_imm(w: u32) -> i32 {
    (((w as i32) >> 25) << 5) | (((w >> 7) & 0x1F) as i32)
}
#[inline]
fn b_imm(w: u32) -> i32 {
    let sign = (w as i32) >> 31; // bit 12, sign-extended
    (sign << 12)
        | ((((w >> 7) & 1) as i32) << 11)
        | ((((w >> 25) & 0x3F) as i32) << 5)
        | ((((w >> 8) & 0xF) as i32) << 1)
}
#[inline]
fn u_imm(w: u32) -> i64 {
    ((w & 0xFFFFF000) as i32) as i64
}
#[inline]
fn j_imm(w: u32) -> i32 {
    let sign = (w as i32) >> 31; // bit 20, sign-extended
    (sign << 20)
        | ((((w >> 12) & 0xFF) as i32) << 12)
        | ((((w >> 20) & 1) as i32) << 11)
        | ((((w >> 21) & 0x3FF) as i32) << 1)
}

/// Rounding-mode field used on encode (DYN).
const RM_DYN: u32 = 0b111;
/// Format field for double precision in OP-FP funct7.
const FMT_D: u32 = 0b01;

impl Inst {
    /// Encodes this instruction to its 32-bit RISC-V machine word.
    ///
    /// Panics (in debug builds) if an immediate is out of the encodable
    /// range; the assembler validates ranges before calling this.
    pub fn encode(self) -> u32 {
        use crate::inst::{FpCmp as FCmp, FpOp as FOp};
        use Inst::*;
        match self {
            Lui { rd, imm } => u_type(OPC_LUI, rd.0 as u32, imm),
            Auipc { rd, imm } => u_type(OPC_AUIPC, rd.0 as u32, imm),
            Jal { rd, offset } => j_type(OPC_JAL, rd.0 as u32, offset),
            Jalr { rd, rs1, offset } => i_type(OPC_JALR, rd.0 as u32, 0, rs1.0 as u32, offset),
            Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => b_type(
                OPC_BRANCH,
                kind.funct3(),
                rs1.0 as u32,
                rs2.0 as u32,
                offset,
            ),
            Load {
                kind,
                rd,
                rs1,
                offset,
            } => i_type(OPC_LOAD, rd.0 as u32, kind.funct3(), rs1.0 as u32, offset),
            Store {
                kind,
                rs1,
                rs2,
                offset,
            } => s_type(OPC_STORE, kind.funct3(), rs1.0 as u32, rs2.0 as u32, offset),
            OpImm { op, rd, rs1, imm } => {
                let (f3, _) = op.f3_f7();
                debug_assert!(
                    matches!(
                        op,
                        AluOp::Add | AluOp::Slt | AluOp::Sltu | AluOp::Xor | AluOp::Or | AluOp::And
                    ),
                    "OP-IMM does not encode {op:?}"
                );
                i_type(OPC_OP_IMM, rd.0 as u32, f3, rs1.0 as u32, imm)
            }
            OpImmShift { op, rd, rs1, shamt } => {
                debug_assert!(shamt < 64);
                let (f3, f7) = op.f3_f7();
                debug_assert!(matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra));
                r_type(
                    OPC_OP_IMM,
                    rd.0 as u32,
                    f3,
                    rs1.0 as u32,
                    (shamt & 0x1F) as u32,
                    f7 | ((shamt as u32) >> 5),
                )
            }
            OpImm32 { rd, rs1, imm } => i_type(OPC_OP_IMM_32, rd.0 as u32, 0, rs1.0 as u32, imm),
            OpImm32Shift { op, rd, rs1, shamt } => {
                debug_assert!(shamt < 32);
                let (f3, f7) = op.f3_f7();
                debug_assert!(matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra));
                r_type(
                    OPC_OP_IMM_32,
                    rd.0 as u32,
                    f3,
                    rs1.0 as u32,
                    shamt as u32,
                    f7,
                )
            }
            Op { op, rd, rs1, rs2 } => {
                let (f3, f7) = op.f3_f7();
                r_type(OPC_OP, rd.0 as u32, f3, rs1.0 as u32, rs2.0 as u32, f7)
            }
            Op32 { op, rd, rs1, rs2 } => {
                let (f3, f7) = op.f3_f7();
                debug_assert!(matches!(
                    op,
                    AluOp::Add | AluOp::Sub | AluOp::Sll | AluOp::Srl | AluOp::Sra
                ));
                r_type(OPC_OP_32, rd.0 as u32, f3, rs1.0 as u32, rs2.0 as u32, f7)
            }
            MulDiv { op, rd, rs1, rs2 } => r_type(
                OPC_OP,
                rd.0 as u32,
                op.funct3(),
                rs1.0 as u32,
                rs2.0 as u32,
                1,
            ),
            MulDiv32 { op, rd, rs1, rs2 } => {
                debug_assert!(
                    matches!(
                        op,
                        MulOp::Mul | MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu
                    ),
                    "OP-32 does not encode {op:?}"
                );
                r_type(
                    OPC_OP_32,
                    rd.0 as u32,
                    op.funct3(),
                    rs1.0 as u32,
                    rs2.0 as u32,
                    1,
                )
            }
            Fld { rd, rs1, offset } => {
                i_type(OPC_LOAD_FP, rd.0 as u32, 0b011, rs1.0 as u32, offset)
            }
            Fsd { rs1, rs2, offset } => {
                s_type(OPC_STORE_FP, 0b011, rs1.0 as u32, rs2.0 as u32, offset)
            }
            FpOp { op, rd, rs1, rs2 } => {
                let (f7hi, f3) = match op {
                    FOp::Add => (0b00000, RM_DYN),
                    FOp::Sub => (0b00001, RM_DYN),
                    FOp::Mul => (0b00010, RM_DYN),
                    FOp::Div => (0b00011, RM_DYN),
                    FOp::Sgnj => (0b00100, 0b000),
                    FOp::Sgnjn => (0b00100, 0b001),
                    FOp::Sgnjx => (0b00100, 0b010),
                    FOp::Min => (0b00101, 0b000),
                    FOp::Max => (0b00101, 0b001),
                };
                r_type(
                    OPC_OP_FP,
                    rd.0 as u32,
                    f3,
                    rs1.0 as u32,
                    rs2.0 as u32,
                    (f7hi << 2) | FMT_D,
                )
            }
            Fsqrt { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                RM_DYN,
                rs1.0 as u32,
                0,
                (0b01011 << 2) | FMT_D,
            ),
            Fmadd { rd, rs1, rs2, rs3 } => {
                OPC_MADD
                    | ((rd.0 as u32) << 7)
                    | (RM_DYN << 12)
                    | ((rs1.0 as u32) << 15)
                    | ((rs2.0 as u32) << 20)
                    | (FMT_D << 25)
                    | ((rs3.0 as u32) << 27)
            }
            FpCmp { cmp, rd, rs1, rs2 } => {
                let f3 = match cmp {
                    FCmp::Le => 0b000,
                    FCmp::Lt => 0b001,
                    FCmp::Eq => 0b010,
                };
                r_type(
                    OPC_OP_FP,
                    rd.0 as u32,
                    f3,
                    rs1.0 as u32,
                    rs2.0 as u32,
                    (0b10100 << 2) | FMT_D,
                )
            }
            FcvtDL { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                RM_DYN,
                rs1.0 as u32,
                0b00010,
                (0b11010 << 2) | FMT_D,
            ),
            FcvtDW { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                RM_DYN,
                rs1.0 as u32,
                0b00000,
                (0b11010 << 2) | FMT_D,
            ),
            FcvtLD { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                0b001,
                rs1.0 as u32,
                0b00010,
                (0b11000 << 2) | FMT_D,
            ),
            FcvtWD { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                0b001,
                rs1.0 as u32,
                0b00000,
                (0b11000 << 2) | FMT_D,
            ),
            FmvXD { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                0b000,
                rs1.0 as u32,
                0,
                (0b11100 << 2) | FMT_D,
            ),
            FmvDX { rd, rs1 } => r_type(
                OPC_OP_FP,
                rd.0 as u32,
                0b000,
                rs1.0 as u32,
                0,
                (0b11110 << 2) | FMT_D,
            ),
            Fsin { rd, rs1 } => r_type(OPC_CUSTOM0, rd.0 as u32, 0, rs1.0 as u32, 0, 0),
            Fence => i_type(OPC_MISC_MEM, 0, 0, 0, 0x0FF),
            Ecall => OPC_SYSTEM,
            Ebreak => OPC_SYSTEM | (1 << 20),
            Csrrs { rd, csr, rs1 } => {
                OPC_SYSTEM
                    | ((rd.0 as u32) << 7)
                    | (0b010 << 12)
                    | ((rs1.0 as u32) << 15)
                    | ((csr as u32) << 20)
            }
        }
    }

    /// Decodes a 32-bit machine word.
    pub fn decode(w: u32) -> Result<Inst, DecodeError> {
        use crate::inst::{FpCmp as FCmp, FpOp as FOp};
        use Inst::*;
        let err = Err(DecodeError { word: w });
        let opc = w & 0x7F;
        let rd = Reg(rd_of(w) as u8);
        let frd = FReg(rd_of(w) as u8);
        let rs1 = Reg(rs1_of(w) as u8);
        let frs1 = FReg(rs1_of(w) as u8);
        let rs2 = Reg(rs2_of(w) as u8);
        let frs2 = FReg(rs2_of(w) as u8);
        let f3 = f3_of(w);
        let f7 = f7_of(w);
        Ok(match opc {
            OPC_LUI => Lui { rd, imm: u_imm(w) },
            OPC_AUIPC => Auipc { rd, imm: u_imm(w) },
            OPC_JAL => Jal {
                rd,
                offset: j_imm(w),
            },
            OPC_JALR if f3 == 0 => Jalr {
                rd,
                rs1,
                offset: i_imm(w),
            },
            OPC_BRANCH => {
                let kind = match f3 {
                    0b000 => BranchKind::Eq,
                    0b001 => BranchKind::Ne,
                    0b100 => BranchKind::Lt,
                    0b101 => BranchKind::Ge,
                    0b110 => BranchKind::Ltu,
                    0b111 => BranchKind::Geu,
                    _ => return err,
                };
                Branch {
                    kind,
                    rs1,
                    rs2,
                    offset: b_imm(w),
                }
            }
            OPC_LOAD => {
                let kind = match f3 {
                    0b000 => LoadKind::B,
                    0b001 => LoadKind::H,
                    0b010 => LoadKind::W,
                    0b011 => LoadKind::D,
                    0b100 => LoadKind::Bu,
                    0b101 => LoadKind::Hu,
                    0b110 => LoadKind::Wu,
                    _ => return err,
                };
                Load {
                    kind,
                    rd,
                    rs1,
                    offset: i_imm(w),
                }
            }
            OPC_STORE => {
                let kind = match f3 {
                    0b000 => StoreKind::B,
                    0b001 => StoreKind::H,
                    0b010 => StoreKind::W,
                    0b011 => StoreKind::D,
                    _ => return err,
                };
                Store {
                    kind,
                    rs1,
                    rs2,
                    offset: s_imm(w),
                }
            }
            OPC_OP_IMM => match f3 {
                0b000 => OpImm {
                    op: AluOp::Add,
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                0b010 => OpImm {
                    op: AluOp::Slt,
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                0b011 => OpImm {
                    op: AluOp::Sltu,
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                0b100 => OpImm {
                    op: AluOp::Xor,
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                0b110 => OpImm {
                    op: AluOp::Or,
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                0b111 => OpImm {
                    op: AluOp::And,
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                0b001 if f7 >> 1 == 0 => OpImmShift {
                    op: AluOp::Sll,
                    rd,
                    rs1,
                    shamt: (rs2_of(w) | ((f7 & 1) << 5)) as u8,
                },
                0b101 if f7 >> 1 == 0 => OpImmShift {
                    op: AluOp::Srl,
                    rd,
                    rs1,
                    shamt: (rs2_of(w) | ((f7 & 1) << 5)) as u8,
                },
                0b101 if f7 >> 1 == 0b010000 => OpImmShift {
                    op: AluOp::Sra,
                    rd,
                    rs1,
                    shamt: (rs2_of(w) | ((f7 & 1) << 5)) as u8,
                },
                _ => return err,
            },
            OPC_OP_IMM_32 => match (f3, f7) {
                (0b000, _) => OpImm32 {
                    rd,
                    rs1,
                    imm: i_imm(w),
                },
                (0b001, 0) => OpImm32Shift {
                    op: AluOp::Sll,
                    rd,
                    rs1,
                    shamt: rs2_of(w) as u8,
                },
                (0b101, 0) => OpImm32Shift {
                    op: AluOp::Srl,
                    rd,
                    rs1,
                    shamt: rs2_of(w) as u8,
                },
                (0b101, 0b0100000) => OpImm32Shift {
                    op: AluOp::Sra,
                    rd,
                    rs1,
                    shamt: rs2_of(w) as u8,
                },
                _ => return err,
            },
            OPC_OP => {
                if f7 == 1 {
                    let op = match f3 {
                        0b000 => MulOp::Mul,
                        0b001 => MulOp::Mulh,
                        0b010 => MulOp::Mulhsu,
                        0b011 => MulOp::Mulhu,
                        0b100 => MulOp::Div,
                        0b101 => MulOp::Divu,
                        0b110 => MulOp::Rem,
                        0b111 => MulOp::Remu,
                        _ => unreachable!(),
                    };
                    MulDiv { op, rd, rs1, rs2 }
                } else {
                    let op = match (f3, f7) {
                        (0b000, 0b0000000) => AluOp::Add,
                        (0b000, 0b0100000) => AluOp::Sub,
                        (0b001, 0b0000000) => AluOp::Sll,
                        (0b010, 0b0000000) => AluOp::Slt,
                        (0b011, 0b0000000) => AluOp::Sltu,
                        (0b100, 0b0000000) => AluOp::Xor,
                        (0b101, 0b0000000) => AluOp::Srl,
                        (0b101, 0b0100000) => AluOp::Sra,
                        (0b110, 0b0000000) => AluOp::Or,
                        (0b111, 0b0000000) => AluOp::And,
                        _ => return err,
                    };
                    Op { op, rd, rs1, rs2 }
                }
            }
            OPC_OP_32 => {
                if f7 == 1 {
                    let op = match f3 {
                        0b000 => MulOp::Mul,
                        0b100 => MulOp::Div,
                        0b101 => MulOp::Divu,
                        0b110 => MulOp::Rem,
                        0b111 => MulOp::Remu,
                        _ => return err,
                    };
                    MulDiv32 { op, rd, rs1, rs2 }
                } else {
                    let op = match (f3, f7) {
                        (0b000, 0b0000000) => AluOp::Add,
                        (0b000, 0b0100000) => AluOp::Sub,
                        (0b001, 0b0000000) => AluOp::Sll,
                        (0b101, 0b0000000) => AluOp::Srl,
                        (0b101, 0b0100000) => AluOp::Sra,
                        _ => return err,
                    };
                    Op32 { op, rd, rs1, rs2 }
                }
            }
            OPC_LOAD_FP if f3 == 0b011 => Fld {
                rd: frd,
                rs1,
                offset: i_imm(w),
            },
            OPC_STORE_FP if f3 == 0b011 => Fsd {
                rs1,
                rs2: frs2,
                offset: s_imm(w),
            },
            OPC_MADD if (w >> 25) & 0b11 == FMT_D && f3 == RM_DYN => Fmadd {
                rd: frd,
                rs1: frs1,
                rs2: frs2,
                rs3: FReg((w >> 27) as u8 & 0x1F),
            },
            OPC_OP_FP if f7 & 0b11 == FMT_D => {
                let f7hi = f7 >> 2;
                match f7hi {
                    // Arithmetic ops are canonical only with rm = DYN,
                    // the encoding this crate emits.
                    0b00000 if f3 == RM_DYN => FpOp {
                        op: FOp::Add,
                        rd: frd,
                        rs1: frs1,
                        rs2: frs2,
                    },
                    0b00001 if f3 == RM_DYN => FpOp {
                        op: FOp::Sub,
                        rd: frd,
                        rs1: frs1,
                        rs2: frs2,
                    },
                    0b00010 if f3 == RM_DYN => FpOp {
                        op: FOp::Mul,
                        rd: frd,
                        rs1: frs1,
                        rs2: frs2,
                    },
                    0b00011 if f3 == RM_DYN => FpOp {
                        op: FOp::Div,
                        rd: frd,
                        rs1: frs1,
                        rs2: frs2,
                    },
                    0b00100 => {
                        let op = match f3 {
                            0b000 => FOp::Sgnj,
                            0b001 => FOp::Sgnjn,
                            0b010 => FOp::Sgnjx,
                            _ => return err,
                        };
                        FpOp {
                            op,
                            rd: frd,
                            rs1: frs1,
                            rs2: frs2,
                        }
                    }
                    0b00101 => {
                        let op = match f3 {
                            0b000 => FOp::Min,
                            0b001 => FOp::Max,
                            _ => return err,
                        };
                        FpOp {
                            op,
                            rd: frd,
                            rs1: frs1,
                            rs2: frs2,
                        }
                    }
                    0b01011 if rs2_of(w) == 0 && f3 == RM_DYN => Fsqrt { rd: frd, rs1: frs1 },
                    0b10100 => {
                        let cmp = match f3 {
                            0b000 => FCmp::Le,
                            0b001 => FCmp::Lt,
                            0b010 => FCmp::Eq,
                            _ => return err,
                        };
                        FpCmp {
                            cmp,
                            rd,
                            rs1: frs1,
                            rs2: frs2,
                        }
                    }
                    0b11010 if f3 == RM_DYN => match rs2_of(w) {
                        0b00010 => FcvtDL { rd: frd, rs1 },
                        0b00000 => FcvtDW { rd: frd, rs1 },
                        _ => return err,
                    },
                    // Conversions to int are canonical with rm = RTZ (001).
                    0b11000 if f3 == 0b001 => match rs2_of(w) {
                        0b00010 => FcvtLD { rd, rs1: frs1 },
                        0b00000 => FcvtWD { rd, rs1: frs1 },
                        _ => return err,
                    },
                    0b11100 if rs2_of(w) == 0 && f3 == 0 => FmvXD { rd, rs1: frs1 },
                    0b11110 if rs2_of(w) == 0 && f3 == 0 => FmvDX { rd: frd, rs1 },
                    _ => return err,
                }
            }
            OPC_CUSTOM0 if f3 == 0 && f7 == 0 && rs2_of(w) == 0 => Fsin { rd: frd, rs1: frs1 },
            // Only the canonical full fence (pred = succ = iorw) is
            // accepted; we never emit other fence flavors.
            OPC_MISC_MEM if w == 0x0FF0_000F => Fence,
            OPC_SYSTEM => match (f3, w >> 20) {
                (0, 0) if rd_of(w) == 0 && rs1_of(w) == 0 => Ecall,
                (0, 1) if rd_of(w) == 0 && rs1_of(w) == 0 => Ebreak,
                (0b010, csr) => Csrrs {
                    rd,
                    csr: csr as u16,
                    rs1,
                },
                _ => return err,
            },
            _ => return err,
        })
    }

    /// The coarse operation class (used for functional unit selection).
    pub fn class(self) -> OpClass {
        use crate::inst::FpOp as FOp;
        use Inst::*;
        match self {
            Lui { .. }
            | Auipc { .. }
            | OpImm { .. }
            | OpImmShift { .. }
            | OpImm32 { .. }
            | OpImm32Shift { .. }
            | Op { .. }
            | Op32 { .. } => OpClass::IntAlu,
            MulDiv { op, .. } | MulDiv32 { op, .. } => {
                if op.is_div() {
                    OpClass::IntDiv
                } else {
                    OpClass::IntMul
                }
            }
            Jal { .. } | Jalr { .. } => OpClass::Jump,
            Branch { .. } => OpClass::Branch,
            Load { .. } | Fld { .. } => OpClass::Load,
            Store { .. } | Fsd { .. } => OpClass::Store,
            FpOp { op, .. } => match op {
                FOp::Mul => OpClass::FpMul,
                FOp::Div => OpClass::FpDiv,
                _ => OpClass::FpAlu,
            },
            Fsqrt { .. } => OpClass::FpDiv,
            Fmadd { .. } => OpClass::FpMul,
            FpCmp { .. }
            | FcvtDL { .. }
            | FcvtDW { .. }
            | FcvtLD { .. }
            | FcvtWD { .. }
            | FmvXD { .. }
            | FmvDX { .. } => OpClass::FpAlu,
            Fsin { .. } => OpClass::FpTranscendental,
            Fence | Ecall | Ebreak | Csrrs { .. } => OpClass::System,
        }
    }

    /// Destination register in the unified numbering ([`Ureg`]), or
    /// `None` (includes writes to `x0`, which are discarded).
    pub fn dest(self) -> Option<Ureg> {
        use Inst::*;
        let ireg = Ureg::x;
        let freg = |r: FReg| Some(Ureg::f(r));
        match self {
            Lui { rd, .. }
            | Auipc { rd, .. }
            | Jal { rd, .. }
            | Jalr { rd, .. }
            | Load { rd, .. }
            | OpImm { rd, .. }
            | OpImmShift { rd, .. }
            | OpImm32 { rd, .. }
            | OpImm32Shift { rd, .. }
            | Op { rd, .. }
            | Op32 { rd, .. }
            | MulDiv { rd, .. }
            | MulDiv32 { rd, .. }
            | FpCmp { rd, .. }
            | FcvtLD { rd, .. }
            | FcvtWD { rd, .. }
            | FmvXD { rd, .. }
            | Csrrs { rd, .. } => ireg(rd),
            Fld { rd, .. }
            | FpOp { rd, .. }
            | Fsqrt { rd, .. }
            | Fmadd { rd, .. }
            | FcvtDL { rd, .. }
            | FcvtDW { rd, .. }
            | FmvDX { rd, .. }
            | Fsin { rd, .. } => freg(rd),
            Branch { .. } | Store { .. } | Fsd { .. } | Fence | Ecall | Ebreak => None,
        }
    }

    /// Source registers in the unified numbering ([`Ureg`]; x0 omitted).
    pub fn sources(self) -> [Option<Ureg>; 3] {
        use Inst::*;
        let ireg = Ureg::x;
        let freg = |r: FReg| Some(Ureg::f(r));
        match self {
            Lui { .. } | Auipc { .. } | Jal { .. } | Fence | Ecall | Ebreak => [None; 3],
            Jalr { rs1, .. }
            | Load { rs1, .. }
            | OpImm { rs1, .. }
            | OpImmShift { rs1, .. }
            | OpImm32 { rs1, .. }
            | OpImm32Shift { rs1, .. }
            | Fld { rs1, .. }
            | Csrrs { rs1, .. } => [ireg(rs1), None, None],
            Branch { rs1, rs2, .. } | Store { rs1, rs2, .. } => [ireg(rs1), ireg(rs2), None],
            Op { rs1, rs2, .. }
            | Op32 { rs1, rs2, .. }
            | MulDiv { rs1, rs2, .. }
            | MulDiv32 { rs1, rs2, .. } => [ireg(rs1), ireg(rs2), None],
            Fsd { rs1, rs2, .. } => [ireg(rs1), freg(rs2), None],
            FpOp { rs1, rs2, .. } => [freg(rs1), freg(rs2), None],
            Fsqrt { rs1, .. } | Fsin { rs1, .. } => [freg(rs1), None, None],
            Fmadd { rs1, rs2, rs3, .. } => [freg(rs1), freg(rs2), freg(rs3)],
            FpCmp { rs1, rs2, .. } => [freg(rs1), freg(rs2), None],
            FcvtDL { rs1, .. } | FcvtDW { rs1, .. } | FmvDX { rs1, .. } => [ireg(rs1), None, None],
            FcvtLD { rs1, .. } | FcvtWD { rs1, .. } | FmvXD { rs1, .. } => [freg(rs1), None, None],
        }
    }

    /// The decode-time lowering: class, unified registers and branch class
    /// in one record, so no per-dynamic-instruction code re-derives them.
    pub fn lower(self) -> Lowered {
        let ra = |r: Reg| r.0 == 1;
        let branch = match self {
            Inst::Branch { .. } => Some(BranchClass::Conditional),
            Inst::Jal { rd, .. } if ra(rd) => Some(BranchClass::Call),
            Inst::Jal { .. } => Some(BranchClass::Direct),
            Inst::Jalr { rd, .. } if ra(rd) => Some(BranchClass::Call),
            Inst::Jalr { rs1, .. } if ra(rs1) => Some(BranchClass::Return),
            Inst::Jalr { .. } => Some(BranchClass::Indirect),
            _ => None,
        };
        Lowered {
            class: self.class(),
            dest: self.dest(),
            srcs: self.sources(),
            branch,
        }
    }

    /// True if this instruction can redirect the PC.
    pub fn is_control_flow(self) -> bool {
        matches!(self.class(), OpClass::Branch | OpClass::Jump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    fn rt(i: Inst) {
        let w = i.encode();
        let d = Inst::decode(w).unwrap_or_else(|e| panic!("decode failed for {i:?}: {e}"));
        assert_eq!(d, i, "round-trip mismatch, word={w:#010x}");
        assert_eq!(d.encode(), w);
    }

    #[test]
    fn roundtrip_basic_alu() {
        rt(Inst::Lui {
            rd: A0,
            imm: 0x12345 << 12,
        });
        rt(Inst::Lui {
            rd: A0,
            imm: -(0x800i64 << 12),
        });
        rt(Inst::Auipc {
            rd: T0,
            imm: 0x7FFFF << 12,
        });
        rt(Inst::OpImm {
            op: AluOp::Add,
            rd: A0,
            rs1: A1,
            imm: -2048,
        });
        rt(Inst::OpImm {
            op: AluOp::And,
            rd: A0,
            rs1: A1,
            imm: 2047,
        });
        rt(Inst::OpImmShift {
            op: AluOp::Sra,
            rd: T1,
            rs1: T2,
            shamt: 63,
        });
        rt(Inst::OpImmShift {
            op: AluOp::Sll,
            rd: T1,
            rs1: T2,
            shamt: 1,
        });
        rt(Inst::OpImm32 {
            rd: S3,
            rs1: S4,
            imm: -1,
        });
        rt(Inst::OpImm32Shift {
            op: AluOp::Srl,
            rd: S3,
            rs1: S4,
            shamt: 31,
        });
        rt(Inst::Op {
            op: AluOp::Sub,
            rd: A0,
            rs1: A1,
            rs2: A2,
        });
        rt(Inst::Op32 {
            op: AluOp::Sra,
            rd: A0,
            rs1: A1,
            rs2: A2,
        });
    }

    #[test]
    fn roundtrip_muldiv() {
        for op in [
            MulOp::Mul,
            MulOp::Mulh,
            MulOp::Mulhsu,
            MulOp::Mulhu,
            MulOp::Div,
            MulOp::Divu,
            MulOp::Rem,
            MulOp::Remu,
        ] {
            rt(Inst::MulDiv {
                op,
                rd: A0,
                rs1: A1,
                rs2: A2,
            });
        }
        for op in [MulOp::Mul, MulOp::Div, MulOp::Divu, MulOp::Rem, MulOp::Remu] {
            rt(Inst::MulDiv32 {
                op,
                rd: A0,
                rs1: A1,
                rs2: A2,
            });
        }
    }

    #[test]
    fn roundtrip_mem_and_control() {
        for kind in [
            LoadKind::B,
            LoadKind::H,
            LoadKind::W,
            LoadKind::D,
            LoadKind::Bu,
            LoadKind::Hu,
            LoadKind::Wu,
        ] {
            rt(Inst::Load {
                kind,
                rd: A0,
                rs1: SP,
                offset: -8,
            });
        }
        for kind in [StoreKind::B, StoreKind::H, StoreKind::W, StoreKind::D] {
            rt(Inst::Store {
                kind,
                rs1: SP,
                rs2: A0,
                offset: 2040,
            });
        }
        for kind in [
            BranchKind::Eq,
            BranchKind::Ne,
            BranchKind::Lt,
            BranchKind::Ge,
            BranchKind::Ltu,
            BranchKind::Geu,
        ] {
            rt(Inst::Branch {
                kind,
                rs1: A0,
                rs2: A1,
                offset: -4096,
            });
            rt(Inst::Branch {
                kind,
                rs1: A0,
                rs2: A1,
                offset: 4094,
            });
        }
        rt(Inst::Jal {
            rd: RA,
            offset: -(1 << 20),
        });
        rt(Inst::Jal {
            rd: ZERO,
            offset: (1 << 20) - 2,
        });
        rt(Inst::Jalr {
            rd: RA,
            rs1: T0,
            offset: 16,
        });
    }

    #[test]
    fn roundtrip_fp() {
        for op in [
            FpOp::Add,
            FpOp::Sub,
            FpOp::Mul,
            FpOp::Div,
            FpOp::Min,
            FpOp::Max,
            FpOp::Sgnj,
            FpOp::Sgnjn,
            FpOp::Sgnjx,
        ] {
            rt(Inst::FpOp {
                op,
                rd: FA0,
                rs1: FA1,
                rs2: FA2,
            });
        }
        rt(Inst::Fld {
            rd: FT0,
            rs1: SP,
            offset: 8,
        });
        rt(Inst::Fsd {
            rs1: SP,
            rs2: FT1,
            offset: -16,
        });
        rt(Inst::Fsqrt { rd: FT0, rs1: FT1 });
        rt(Inst::Fmadd {
            rd: FT0,
            rs1: FT1,
            rs2: FT2,
            rs3: FT3,
        });
        for cmp in [FpCmp::Eq, FpCmp::Lt, FpCmp::Le] {
            rt(Inst::FpCmp {
                cmp,
                rd: A0,
                rs1: FA0,
                rs2: FA1,
            });
        }
        rt(Inst::FcvtDL { rd: FT0, rs1: A0 });
        rt(Inst::FcvtDW { rd: FT0, rs1: A0 });
        rt(Inst::FcvtLD { rd: A0, rs1: FT0 });
        rt(Inst::FcvtWD { rd: A0, rs1: FT0 });
        rt(Inst::FmvXD { rd: A0, rs1: FT0 });
        rt(Inst::FmvDX { rd: FT0, rs1: A0 });
        rt(Inst::Fsin { rd: FT0, rs1: FT1 });
    }

    #[test]
    fn roundtrip_system() {
        rt(Inst::Fence);
        rt(Inst::Ecall);
        rt(Inst::Ebreak);
        rt(Inst::Csrrs {
            rd: A0,
            csr: 0xC00,
            rs1: ZERO,
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Inst::decode(0x0000_0000).is_err());
        assert!(Inst::decode(0xFFFF_FFFF).is_err());
        // AMO opcode (0x2F) is unsupported.
        assert!(Inst::decode(0x0000_002F).is_err());
    }

    #[test]
    fn x0_dest_is_discarded() {
        let i = Inst::OpImm {
            op: AluOp::Add,
            rd: ZERO,
            rs1: A0,
            imm: 1,
        };
        assert_eq!(i.dest(), None);
        let i = Inst::Fld {
            rd: FReg(0),
            rs1: SP,
            offset: 0,
        };
        assert_eq!(i.dest(), Ureg::new(32));
    }

    #[test]
    fn classes_are_sensible() {
        assert_eq!(Inst::Ecall.class(), OpClass::System);
        assert_eq!(
            Inst::MulDiv {
                op: MulOp::Div,
                rd: A0,
                rs1: A1,
                rs2: A2
            }
            .class(),
            OpClass::IntDiv
        );
        assert_eq!(
            Inst::Fsin { rd: FT0, rs1: FT0 }.class(),
            OpClass::FpTranscendental
        );
        assert!(Inst::Jal {
            rd: ZERO,
            offset: 8
        }
        .is_control_flow());
    }

    #[test]
    fn known_encodings_match_gnu_as() {
        // Cross-checked against `riscv64-unknown-elf-as` output.
        // addi a0, a0, 1  => 0x00150513
        assert_eq!(
            Inst::OpImm {
                op: AluOp::Add,
                rd: A0,
                rs1: A0,
                imm: 1
            }
            .encode(),
            0x00150513
        );
        // add a0, a1, a2  => 0x00c58533
        assert_eq!(
            Inst::Op {
                op: AluOp::Add,
                rd: A0,
                rs1: A1,
                rs2: A2
            }
            .encode(),
            0x00c58533
        );
        // ld a0, 0(sp)    => 0x00013503
        assert_eq!(
            Inst::Load {
                kind: LoadKind::D,
                rd: A0,
                rs1: SP,
                offset: 0
            }
            .encode(),
            0x00013503
        );
        // sd a0, 8(sp)    => 0x00a13423
        assert_eq!(
            Inst::Store {
                kind: StoreKind::D,
                rs1: SP,
                rs2: A0,
                offset: 8
            }
            .encode(),
            0x00a13423
        );
        // beq a0, a1, +8  => 0x00b50463
        assert_eq!(
            Inst::Branch {
                kind: BranchKind::Eq,
                rs1: A0,
                rs2: A1,
                offset: 8
            }
            .encode(),
            0x00b50463
        );
        // jal ra, +16     => 0x010000ef
        assert_eq!(Inst::Jal { rd: RA, offset: 16 }.encode(), 0x010000ef);
        // lui a0, 0x12345 => 0x12345537
        assert_eq!(
            Inst::Lui {
                rd: A0,
                imm: 0x12345 << 12
            }
            .encode(),
            0x12345537
        );
        // ecall           => 0x00000073
        assert_eq!(Inst::Ecall.encode(), 0x00000073);
        // mul a0, a1, a2  => 0x02c58533
        assert_eq!(
            Inst::MulDiv {
                op: MulOp::Mul,
                rd: A0,
                rs1: A1,
                rs2: A2
            }
            .encode(),
            0x02c58533
        );
    }
}
