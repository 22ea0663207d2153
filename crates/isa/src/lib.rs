//! # bsim-isa — RV64IM(+D) instruction set substrate
//!
//! This crate provides the instruction-set layer that the rest of the
//! `silicon-bridge` stack is built on:
//!
//! * [`Inst`] — a decoded RV64IM + D-subset instruction, with exact
//!   bit-level [`Inst::encode`] / [`Inst::decode`] round-tripping,
//! * [`Asm`] — a programmatic assembler with labels, pseudo-instructions
//!   and a data section, producing a loadable [`Program`],
//! * [`Cpu`] — a functional interpreter that executes a [`Program`] and
//!   emits one [`Retired`] record per dynamic instruction; the timing
//!   models in `bsim-uarch` consume that stream.
//!
//! The paper ("Bridging Simulation and Silicon", SC 2025) runs its 40
//! MicroBench kernels as compiled RISC-V binaries on both silicon and
//! FireSim. Here the same kernels are written against [`Asm`] and run
//! through [`Cpu`]; the dynamic instruction stream drives the
//! cycle-level core models exactly as the decoded RTL stream drives the
//! FireSim target.
//!
//! One deliberate extension: the `FSIN.D` instruction in the CUSTOM-0
//! opcode space stands in for a `libm` `sin()` call (used by the DPT and
//! DPTd microbenchmarks). The timing models expand it to a long-latency
//! floating-point operation calibrated to a software `sin` implementation;
//! see DESIGN.md §2 for the substitution rationale.

pub mod asm;
pub mod inst;
pub mod interp;
pub mod mem;
pub mod reg;

pub use asm::{Asm, Program};
pub use inst::{BranchClass, DecodeError, Inst, Lowered, OpClass};
pub use interp::{Cpu, Retired, RunResult, Trap};
pub use mem::Memory;
pub use reg::{FReg, Reg, Ureg};
