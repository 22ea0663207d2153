//! Property tests for the ISA layer: encode/decode round-trips over the
//! whole operand space, interpreter arithmetic vs native Rust semantics,
//! assembler `li` materialization, the decode-time branch classification,
//! and the paged target memory against byte-wise writes.

use bsim_isa::inst::{AluOp, BranchKind, LoadKind, MulOp, StoreKind};
use bsim_isa::mem::PAGE_SIZE;
use bsim_isa::reg::*;
use bsim_isa::{Asm, BranchClass, Cpu, FReg, Inst, Memory, Reg, RunResult};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg)
}

fn freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(FReg)
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
    ]
}

fn mul_op() -> impl Strategy<Value = MulOp> {
    prop_oneof![
        Just(MulOp::Mul),
        Just(MulOp::Mulh),
        Just(MulOp::Mulhsu),
        Just(MulOp::Mulhu),
        Just(MulOp::Div),
        Just(MulOp::Divu),
        Just(MulOp::Rem),
        Just(MulOp::Remu),
    ]
}

/// Jump operands, biased so the link register is not a 1-in-32 event.
fn link_biased() -> impl Strategy<Value = Reg> {
    prop_oneof![reg(), Just(RA)]
}

/// Deterministic filler bytes for the memory properties.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8 | 1 // never 0, so a missing write shows
        })
        .collect()
}

/// Load bases: anywhere in the images' range, around the 4 GiB edge of
/// the direct page table, and at the top of the address space (wrapping).
fn load_base() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..0x7FFF_0000,
        (1u64 << 32) - 4 * PAGE_SIZE as u64..(1u64 << 32) + PAGE_SIZE as u64,
        u64::MAX - 2 * PAGE_SIZE as u64..=u64::MAX,
    ]
}

proptest! {
    #[test]
    fn lowering_classifies_control_flow_by_the_link_register(
        rd in link_biased(),
        rs1 in link_biased(),
        rs2 in reg(),
        op in alu_op(),
    ) {
        use BranchClass::*;
        let jal = if rd == RA { Call } else { Direct };
        let jalr = if rd == RA { Call } else if rs1 == RA { Return } else { Indirect };
        prop_assert_eq!(Inst::Jal { rd, offset: 8 }.lower().branch, Some(jal));
        prop_assert_eq!(Inst::Jalr { rd, rs1, offset: 0 }.lower().branch, Some(jalr));
        let branch = Inst::Branch { kind: BranchKind::Ne, rs1, rs2, offset: 8 };
        prop_assert_eq!(branch.lower().branch, Some(Conditional));
        prop_assert_eq!(Inst::Op { op, rd, rs1, rs2 }.lower().branch, None);
    }

    #[test]
    fn bulk_load_equals_bytewise_writes(
        base in load_base(),
        len in 0usize..3 * PAGE_SIZE + 700,
        seed in any::<u64>(),
    ) {
        let img = pattern(seed, len);
        let mut bulk = Memory::new();
        bulk.load(base, &img);
        let mut bytewise = Memory::new();
        for (i, b) in img.iter().enumerate() {
            bytewise.write_u8(base.wrapping_add(i as u64), *b);
        }
        prop_assert_eq!(bulk.resident_pages(), bytewise.resident_pages());
        // Every byte of the image, and a margin on both sides of it.
        for i in -40i64..len as i64 + 40 {
            let addr = base.wrapping_add(i as u64);
            let want = if (0..len as i64).contains(&i) { img[i as usize] } else { 0 };
            prop_assert_eq!(bulk.read_u8(addr), want, "byte {} of {}", i, len);
            prop_assert_eq!(bytewise.read_u8(addr), want);
        }
        // Reading, even outside the image and across pages, allocates nothing.
        let pages = bulk.resident_pages();
        for addr in [base.wrapping_sub(5), base.wrapping_add(len as u64).wrapping_add(PAGE_SIZE as u64 - 3), !base] {
            let _ = (bulk.read_u64(addr), bulk.read_u32(addr), bulk.read_u16(addr), bulk.read_f64(addr));
        }
        prop_assert_eq!(bulk.resident_pages(), pages);
    }

    #[test]
    fn load_over_written_pages_overwrites_only_its_range(
        base in load_base(),
        before in 0usize..PAGE_SIZE + 50,
        len in 0usize..2 * PAGE_SIZE + 50,
        after in 0usize..PAGE_SIZE + 50,
        seed in any::<u64>(),
    ) {
        let old = pattern(seed, before + len + after);
        let new = pattern(!seed, len);
        let mut m = Memory::new();
        m.load(base, &old);
        let pages = m.resident_pages();
        m.load(base.wrapping_add(before as u64), &new);
        prop_assert_eq!(m.resident_pages(), pages, "an overwrite touches no new page");
        for (i, o) in old.iter().enumerate() {
            let want = if (before..before + len).contains(&i) { new[i - before] } else { *o };
            prop_assert_eq!(m.read_u8(base.wrapping_add(i as u64)), want, "byte {}", i);
        }
    }

    #[test]
    fn reads_never_allocate(addr in any::<u64>()) {
        let m = Memory::new();
        prop_assert_eq!(m.read_u8(addr), 0);
        prop_assert_eq!(m.read_u16(addr), 0);
        prop_assert_eq!(m.read_u32(addr), 0);
        prop_assert_eq!(m.read_u64(addr), 0);
        prop_assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn op_roundtrips(op in alu_op(), rd in reg(), rs1 in reg(), rs2 in reg()) {
        let i = Inst::Op { op, rd, rs1, rs2 };
        prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn muldiv_roundtrips(op in mul_op(), rd in reg(), rs1 in reg(), rs2 in reg()) {
        let i = Inst::MulDiv { op, rd, rs1, rs2 };
        prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn load_store_roundtrip(rd in reg(), rs1 in reg(), off in -2048i32..=2047) {
        for kind in [LoadKind::B, LoadKind::H, LoadKind::W, LoadKind::D, LoadKind::Bu, LoadKind::Hu, LoadKind::Wu] {
            let i = Inst::Load { kind, rd, rs1, offset: off };
            prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
        }
        for kind in [StoreKind::B, StoreKind::H, StoreKind::W, StoreKind::D] {
            let i = Inst::Store { kind, rs1, rs2: rd, offset: off };
            prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
        }
    }

    #[test]
    fn branch_roundtrips(rs1 in reg(), rs2 in reg(), off in (-2048i32..=2047).prop_map(|x| x * 2)) {
        for kind in [BranchKind::Eq, BranchKind::Ne, BranchKind::Lt, BranchKind::Ge, BranchKind::Ltu, BranchKind::Geu] {
            let i = Inst::Branch { kind, rs1, rs2, offset: off };
            prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
        }
    }

    #[test]
    fn fp_roundtrips(rd in freg(), rs1 in freg(), rs2 in freg(), rs3 in freg()) {
        use bsim_isa::inst::FpOp;
        for op in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div, FpOp::Min, FpOp::Max, FpOp::Sgnj, FpOp::Sgnjn, FpOp::Sgnjx] {
            let i = Inst::FpOp { op, rd, rs1, rs2 };
            prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
        }
        let i = Inst::Fmadd { rd, rs1, rs2, rs3 };
        prop_assert_eq!(Inst::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        // Any 32-bit word either decodes or errors; re-encoding a decode
        // must reproduce the word (encode ∘ decode = id on valid words).
        if let Ok(i) = Inst::decode(word) {
            prop_assert_eq!(i.encode(), word);
            prop_assert_eq!(i.lower().branch.is_some(), i.is_control_flow());
        }
    }

    #[test]
    fn li_materializes_any_value(v in any::<i64>()) {
        let mut a = Asm::new();
        a.li(S2, v); // exit() clobbers a0/a7, so park the value in s2
        a.exit(0);
        let mut cpu = Cpu::new(&a.assemble().unwrap());
        prop_assert!(matches!(cpu.run(1000), RunResult::Exited(0)));
        prop_assert_eq!(cpu.x(S2) as i64, v);
    }

    #[test]
    fn interpreter_arithmetic_matches_rust(x in any::<i64>(), y in any::<i64>()) {
        let mut a = Asm::new();
        a.li(T0, x).li(T1, y);
        a.add(S2, T0, T1);
        a.sub(S3, T0, T1);
        a.xor(S4, T0, T1);
        a.mul(S5, T0, T1);
        a.sltu(S6, T0, T1);
        a.exit(0);
        let mut cpu = Cpu::new(&a.assemble().unwrap());
        prop_assert!(matches!(cpu.run(1000), RunResult::Exited(0)));
        prop_assert_eq!(cpu.x(S2), (x as u64).wrapping_add(y as u64));
        prop_assert_eq!(cpu.x(S3), (x as u64).wrapping_sub(y as u64));
        prop_assert_eq!(cpu.x(S4), (x ^ y) as u64);
        prop_assert_eq!(cpu.x(S5), (x as u64).wrapping_mul(y as u64));
        prop_assert_eq!(cpu.x(S6), ((x as u64) < (y as u64)) as u64);
    }

    #[test]
    fn memory_roundtrip_any_addr(addr in 0u64..0x7FFF_0000, v in any::<u64>()) {
        let mut m = Memory::new();
        m.write_u64(addr, v);
        prop_assert_eq!(m.read_u64(addr), v);
    }
}
