//! Property tests for the ISA layer: encode/decode round-trips over the
//! whole operand space, interpreter arithmetic vs native Rust semantics,
//! assembler `li` materialization, the decode-time branch classification,
//! the paged target memory against byte-wise writes, and a memory mounted
//! on a shared image against one the image was copied into.

use bsim_isa::inst::{AluOp, BranchKind, LoadKind, MulOp, StoreKind};
use bsim_isa::mem::PAGE_SIZE;
use bsim_isa::reg::*;
use bsim_isa::{Asm, BranchClass, Cpu, FReg, Inst, Memory, Reg, RunResult};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// One access of the mounted-memory oracle, placed once the image's
/// length is known: near one of its edges or of a page-sized step into
/// it, or anywhere from a page before it to a page after it.
#[derive(Clone, Debug)]
struct Access {
    write: bool,
    size: usize,
    /// The edge `min(k pages, len)` to sit within nine bytes of, if any.
    edge: Option<i64>,
    near: i64,
    anywhere: u64,
    val: u64,
}

impl Access {
    fn offset(&self, len: usize) -> i64 {
        let (page, len) = (PAGE_SIZE as i64, len as i64);
        match self.edge {
            Some(k) => (k * page).min(len) + self.near,
            None => (self.anywhere % (len + 2 * page + 40) as u64) as i64 - page - 20,
        }
    }
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    let size = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)];
    let edge = (0i64..10).prop_map(|k| (k < 5).then_some(k));
    let access = (
        any::<bool>(),
        size,
        edge,
        -9i64..=9,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(write, size, edge, near, anywhere, val)| Access {
            write,
            size,
            edge,
            near,
            anywhere,
            val,
        });
    prop::collection::vec(access, 0..60)
}

fn read(m: &Memory, addr: u64, size: usize) -> u64 {
    match size {
        1 => m.read_u8(addr) as u64,
        2 => m.read_u16(addr) as u64,
        4 => m.read_u32(addr) as u64,
        _ => m.read_u64(addr),
    }
}

/// The public stores are the 1- and 8-byte ones; 2 and 4 bytes go in as
/// a `load` of that many, which is what a page-straddling store is anyway.
fn write(m: &mut Memory, addr: u64, size: usize, val: u64) {
    match size {
        1 => m.write_u8(addr, val as u8),
        8 => m.write_u64(addr, val),
        _ => m.load(addr, &val.to_le_bytes()[..size]),
    }
}

proptest! {
    #[test]
    fn mounted_image_reads_and_writes_like_a_loaded_copy(
        base in load_base(),
        aligned in any::<bool>(),
        pages in 0usize..=3,
        tail in 0usize..PAGE_SIZE,
        seed in any::<u64>(),
        ops in accesses(),
    ) {
        let base = if aligned { base & !(PAGE_SIZE as u64 - 1) } else { base };
        let image: Arc<[u8]> = pattern(seed, pages * PAGE_SIZE + tail).into();
        let mut mounted = Memory::mounted(base, Arc::clone(&image));
        let mut copied = Memory::new();
        copied.load(base, &image);
        prop_assert_eq!(mounted.resident_pages(), 0, "mounting copies nothing");

        let mut touched = BTreeSet::new();
        let mut written_pages = BTreeSet::new();
        for op in &ops {
            let addr = base.wrapping_add(op.offset(image.len()) as u64);
            let bytes = (0..op.size as u64).map(|i| addr.wrapping_add(i));
            touched.extend(bytes.clone());
            if op.write {
                write(&mut mounted, addr, op.size, op.val);
                write(&mut copied, addr, op.size, op.val);
                written_pages.extend(bytes.map(|a| a / PAGE_SIZE as u64));
            } else {
                prop_assert_eq!(read(&mounted, addr, op.size), read(&copied, addr, op.size), "{:?}", op);
            }
        }
        prop_assert_eq!(mounted.resident_pages(), written_pages.len(), "a memory owns the pages it wrote");

        // Every byte an access touched and every byte of the image, with a
        // margin: equal to the copy's, and the image itself still pristine
        // under a second mount.
        let pristine = Memory::mounted(base, Arc::clone(&image));
        let span = (-40i64..image.len() as i64 + 40).map(|i| base.wrapping_add(i as u64));
        for addr in touched.into_iter().chain(span) {
            prop_assert_eq!(mounted.read_u8(addr), copied.read_u8(addr), "byte at {:#x}", addr);
            let want = image.get(addr.wrapping_sub(base) as usize).copied().unwrap_or(0);
            prop_assert_eq!(pristine.read_u8(addr), want, "pristine byte at {:#x}", addr);
        }
        prop_assert_eq!(pristine.resident_pages(), 0);
    }

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
