//! Differential tests for the decode-time lowering: the MicroBench path
//! (`Cpu::new` lowers each static instruction once, `MicroOp::from_retired`
//! copies the result) against the per-dynamic-instruction derivation it
//! replaced, which lives on here as the reference.

use bsim_isa::{BranchClass, Cpu, Inst, Retired, RunResult};
use bsim_soc::{configs, Soc};
use bsim_uarch::MicroOp;
use bsim_workloads::microbench;

/// The branch classification `from_retired` used to match out of the
/// instruction on every retirement.
fn reference_branch_class(inst: Inst) -> Option<BranchClass> {
    match inst {
        Inst::Branch { .. } => Some(BranchClass::Conditional),
        Inst::Jal { rd, .. } => {
            if rd.num() == 1 {
                Some(BranchClass::Call)
            } else {
                Some(BranchClass::Direct)
            }
        }
        Inst::Jalr { rd, rs1, .. } => {
            if rd.num() == 1 {
                Some(BranchClass::Call)
            } else if rs1.num() == 1 {
                Some(BranchClass::Return)
            } else {
                Some(BranchClass::Indirect)
            }
        }
        _ => None,
    }
}

/// `MicroOp::from_retired` as it was: everything re-derived from the
/// retired instruction, nothing read from the record's lowering.
fn reference_uop(r: &Retired) -> MicroOp {
    MicroOp {
        pc: r.pc,
        next_pc: r.next_pc,
        class: r.inst.class(),
        dest: r.inst.dest(),
        srcs: r.inst.sources(),
        mem_addr: r.mem_addr,
        is_store: r.is_store,
        // Jumps were always reported taken, branches by their outcome.
        branch: reference_branch_class(r.inst)
            .map(|class| (class, class != BranchClass::Conditional || r.taken)),
    }
}

/// FNV-1a over every field of a micro-op.
fn digest(h: &mut u64, u: &MicroOp) {
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    let reg = |r: Option<u8>| r.map_or(0xFF, u64::from);
    word(u.pc);
    word(u.next_pc);
    word(u.class as u64);
    word(reg(u.dest));
    for s in u.srcs {
        word(reg(s));
    }
    word(u.mem_addr.map_or(u64::MAX, |a| a ^ 1));
    word(u64::from(u.is_store));
    word(
        u.branch
            .map_or(0xFF, |(class, taken)| class as u64 * 2 + u64::from(taken)),
    );
}

#[test]
fn every_static_instruction_gets_the_reference_branch_class() {
    let mut checked = 0;
    for k in microbench::suite() {
        for word in k.build(1).code {
            let inst = Inst::decode(word).expect("kernels assemble to decodable words");
            assert_eq!(
                inst.lower().branch,
                reference_branch_class(inst),
                "{}: {inst:?}",
                k.name
            );
            checked += 1;
        }
    }
    assert!(
        checked > 1_000,
        "only {checked} static instructions checked"
    );
}

#[test]
fn micro_op_streams_equal_the_reference_stream() {
    // Recursion (calls and returns), conflicting stores, and an FP loop.
    for name in ["CRf", "MCS", "DP1d"] {
        let prog = microbench::find(name).expect("kernel").build(1);
        let mut cpu = Cpu::new(&prog);
        let (mut new, mut reference) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        let (mut n, mut branches) = (0u64, 0u64);
        let result = cpu.run_traced(u64::MAX, |ret| {
            let uop = MicroOp::from_retired(ret);
            digest(&mut new, &uop);
            digest(&mut reference, &reference_uop(ret));
            n += 1;
            branches += u64::from(uop.branch.is_some());
        });
        assert_eq!(result, RunResult::Exited(0), "{name}");
        assert_eq!(new, reference, "{name}: micro-op stream differs");
        assert!(
            n > 100_000 && branches > 1_000,
            "{name}: {n} uops, {branches} branches"
        );
    }
}

#[test]
fn run_program_reports_equal_the_parent_commits() {
    // [cycles, retired, mispredicts, data_stall_cycles, l1d_misses,
    // dram_reads, dram_writes] of `Soc::run_program` at scale 1, captured
    // at the commit before the lowering moved to decode time.
    let pinned: [(&str, &str, [u64; 7]); 6] = [
        ("Cca", "rocket1", [240144, 240005, 9, 0, 0, 1, 0]),
        ("Cca", "milkv_sim", [120187, 240005, 3, 3299611, 0, 1, 0]),
        ("STc", "rocket1", [520318, 400006, 9, 0, 1, 1, 1]),
        ("STc", "milkv_sim", [320297, 400006, 2, 1, 1, 1, 1]),
        (
            "MM",
            "rocket1",
            [30079421, 400007, 9, 29679143, 320000, 320002, 0],
        ),
        (
            "MM",
            "milkv_sim",
            [36596644, 400007, 2, 2776778304, 320000, 320002, 0],
        ),
    ];
    for (kernel, platform, want) in pinned {
        let cfg = match platform {
            "rocket1" => configs::rocket1(1),
            _ => configs::milkv_sim(1),
        };
        let prog = microbench::find(kernel).expect("kernel").build(1);
        let rep = Soc::new(cfg).run_program(0, &prog, u64::MAX);
        let (core, mem) = (&rep.core_stats[0], &rep.mem_stats);
        let got = [
            rep.cycles,
            rep.retired,
            core.mispredicts,
            core.data_stall_cycles,
            mem.l1d_misses,
            mem.dram_reads,
            mem.dram_writes,
        ];
        assert_eq!(rep.exit_code, Some(0), "{kernel} on {platform}");
        assert_eq!(got, want, "{kernel} on {platform}");
    }
}
