//! The MicroBench suite (Table 1 of the paper): 40 kernels in five
//! categories, each stressing one microarchitectural feature.
//!
//! Each kernel is generated as an RV64 assembly [`Program`]; the `scale`
//! parameter multiplies the timed iteration count without changing the
//! working-set size, so cache-residency properties are scale-invariant.
//!
//! As in the paper (§3.2.1), `CRm` is marked [`MicroKernel::excluded`]:
//! "39 of the 40 benchmarks were used in our evaluation, since CRm
//! resulted in a segfault on all simulated and real hardware". Our
//! implementation of CRm runs fine, but it is excluded from the
//! figure-level experiments to keep the benchmark matrix identical.

mod cache;
mod control;
mod data;
mod execution;
mod memory;

use bsim_isa::Program;

/// MicroBench category (Table 1 column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Branch-prediction and control-transfer behaviour.
    ControlFlow,
    /// Functional-unit throughput and dependency chains.
    Execution,
    /// L1/L2 behaviour: conflicts, bandwidth, store traffic.
    Cache,
    /// Data-parallel FP loops.
    Data,
    /// DRAM-bound access patterns.
    Memory,
}

impl Category {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Category::ControlFlow => "Control Flow",
            Category::Execution => "Execution",
            Category::Cache => "Cache",
            Category::Data => "Data",
            Category::Memory => "Memory",
        }
    }
}

/// One MicroBench kernel.
#[derive(Clone, Copy)]
pub struct MicroKernel {
    /// Table 1 name (e.g. "ML2_BW_ld").
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// Table 1 description.
    pub description: &'static str,
    /// True for CRm, which the paper excludes from all results.
    pub excluded: bool,
    builder: fn(u32) -> Program,
}

impl MicroKernel {
    /// Builds the kernel program at the given iteration scale (≥ 1).
    pub fn build(&self, scale: u32) -> Program {
        (self.builder)(scale.max(1))
    }
}

macro_rules! kernel {
    ($name:literal, $cat:ident, $desc:literal, $f:path) => {
        MicroKernel {
            name: $name,
            category: Category::$cat,
            description: $desc,
            excluded: false,
            builder: $f,
        }
    };
    ($name:literal, $cat:ident, $desc:literal, $f:path, excluded) => {
        MicroKernel {
            name: $name,
            category: Category::$cat,
            description: $desc,
            excluded: true,
            builder: $f,
        }
    };
}

/// The full 40-kernel suite, in Table 1 order.
static SUITE: [MicroKernel; 40] = [
    kernel!("Cca", ControlFlow, "Completely biased branch", control::cca),
    kernel!("Cce", ControlFlow, "Alternating branches", control::cce),
    kernel!("CCh", ControlFlow, "Random control flow", control::cch),
    kernel!(
        "CCh_st",
        ControlFlow,
        "Impossible to predict control + stores",
        control::cch_st
    ),
    kernel!(
        "CCl",
        ControlFlow,
        "Impossible control w/ large Basic Blocks",
        control::ccl
    ),
    kernel!("CCm", ControlFlow, "Heavily biased branches", control::ccm),
    kernel!(
        "CF1",
        ControlFlow,
        "Inlining test for functions w/ loops",
        control::cf1
    ),
    kernel!(
        "CRd",
        ControlFlow,
        "Recursive control flow - 1000 Deep",
        control::crd
    ),
    kernel!(
        "CRf",
        ControlFlow,
        "Recursive control flow - Fibonacci",
        control::crf
    ),
    kernel!("CRm", ControlFlow, "Merge sort", control::crm, excluded),
    kernel!(
        "CS1",
        ControlFlow,
        "Switch - Different each time",
        control::cs1
    ),
    kernel!(
        "CS3",
        ControlFlow,
        "Switch - Different every third time",
        control::cs3
    ),
    kernel!(
        "DP1d",
        Data,
        "Data parallel loop - Double arithmetic",
        data::dp1d
    ),
    kernel!(
        "DP1f",
        Data,
        "Data parallel loop - Float arithmetic",
        data::dp1f
    ),
    kernel!("DPT", Data, "Data parallel loop - Sin()", data::dpt),
    kernel!(
        "DPTd",
        Data,
        "Data parallel loop - Double sin()",
        data::dptd
    ),
    kernel!(
        "DPcvt",
        Data,
        "Data parallel loop - Float to Double",
        data::dpcvt
    ),
    kernel!(
        "ED1",
        Execution,
        "Int - Length 1 dependency chain",
        execution::ed1
    ),
    kernel!(
        "EF",
        Execution,
        "FP - 8 Independent instructions",
        execution::ef
    ),
    kernel!(
        "EI",
        Execution,
        "Int - 8 Independent computations",
        execution::ei
    ),
    kernel!(
        "EM1",
        Execution,
        "Int - Length 1 dependency chain",
        execution::em1
    ),
    kernel!(
        "EM5",
        Execution,
        "Int - Length 5 dependency chain",
        execution::em5
    ),
    kernel!("MC", Cache, "Conflict misses", cache::mc),
    kernel!("MCS", Cache, "Conflict misses with stores", cache::mcs),
    kernel!(
        "MD",
        Cache,
        "Cache resident linked list traversal",
        cache::md
    ),
    kernel!("MI", Cache, "Independent access, cache resident", cache::mi),
    kernel!("MIM", Cache, "Independent access, no conflicts", cache::mim),
    kernel!(
        "MIM2",
        Cache,
        "Independent access - 2 coalescing ops",
        cache::mim2
    ),
    kernel!("MIP", Cache, "Instruction cache misses", cache::mip),
    kernel!("ML2", Cache, "L2 linked-list", cache::ml2),
    kernel!(
        "ML2_BW_ld",
        Cache,
        "L2 linked-list - B/W limited (lds)",
        cache::ml2_bw_ld
    ),
    kernel!(
        "ML2_BW_ldst",
        Cache,
        "L2 linked-list - B/W limited (ld/sts)",
        cache::ml2_bw_ldst
    ),
    kernel!(
        "ML2_BW_st",
        Cache,
        "L2 linked-list - B/W limited (sts)",
        cache::ml2_bw_st
    ),
    kernel!("ML2_st", Cache, "L2 linked-list (sts)", cache::ml2_st),
    kernel!("STL2", Cache, "Repeatedly store, L2 resident", cache::stl2),
    kernel!(
        "STL2b",
        Cache,
        "Occasional stores, L2 resident",
        cache::stl2b
    ),
    kernel!("STc", Cache, "Repeated consecutive L1 store", cache::stc),
    kernel!(
        "M_Dyn",
        Cache,
        "Load store w/ dynamic dependencies",
        cache::m_dyn
    ),
    kernel!("MM", Memory, "Non-cache resident linked-list", memory::mm),
    kernel!(
        "MM_st",
        Memory,
        "Non-cache resident linked-list (sts)",
        memory::mm_st
    ),
];

/// The full 40-kernel suite, in Table 1 order.
pub fn suite() -> Vec<MicroKernel> {
    SUITE.to_vec()
}

/// The kernels actually evaluated (the paper's 39: CRm excluded).
pub fn evaluated() -> Vec<MicroKernel> {
    SUITE.iter().filter(|k| !k.excluded).copied().collect()
}

/// The kernel with this Table 1 name, if there is one.
pub fn find(name: &str) -> Option<MicroKernel> {
    SUITE.iter().find(|k| k.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_isa::{Cpu, RunResult};

    #[test]
    fn suite_has_40_kernels_in_5_categories() {
        let s = suite();
        assert_eq!(s.len(), 40);
        for c in [
            Category::ControlFlow,
            Category::Execution,
            Category::Cache,
            Category::Data,
            Category::Memory,
        ] {
            assert!(s.iter().any(|k| k.category == c), "missing category {c:?}");
        }
        assert_eq!(
            s.iter()
                .filter(|k| k.category == Category::ControlFlow)
                .count(),
            12
        );
        assert_eq!(
            s.iter()
                .filter(|k| k.category == Category::Execution)
                .count(),
            5
        );
        assert_eq!(
            s.iter().filter(|k| k.category == Category::Cache).count(),
            16
        );
        assert_eq!(s.iter().filter(|k| k.category == Category::Data).count(), 5);
        assert_eq!(
            s.iter().filter(|k| k.category == Category::Memory).count(),
            2
        );
    }

    #[test]
    fn exactly_crm_is_excluded() {
        let s = suite();
        let excluded: Vec<&str> = s.iter().filter(|k| k.excluded).map(|k| k.name).collect();
        assert_eq!(excluded, vec!["CRm"]);
        assert_eq!(evaluated().len(), 39);
    }

    #[test]
    fn every_kernel_assembles_and_exits_cleanly() {
        for k in suite() {
            let prog = k.build(1);
            let mut cpu = Cpu::new(&prog);
            match cpu.run(80_000_000) {
                RunResult::Exited(code) => {
                    assert_eq!(code, 0, "{} exited with {code}", k.name)
                }
                other => panic!("{} did not exit: {other:?}", k.name),
            }
            assert!(
                cpu.instret > 1_000,
                "{} too small: {} instrs",
                k.name,
                cpu.instret
            );
            assert!(
                cpu.instret < 40_000_000,
                "{} too big for the bench matrix: {} instrs",
                k.name,
                cpu.instret
            );
        }
    }

    #[test]
    fn scale_multiplies_work() {
        let k = suite().into_iter().find(|k| k.name == "Cca").unwrap();
        let run = |s| {
            let mut cpu = Cpu::new(&k.build(s));
            cpu.run(100_000_000);
            cpu.instret
        };
        let one = run(1);
        let three = run(3);
        assert!(
            three > 2 * one,
            "scale=3 should do ~3x the work: {one} vs {three}"
        );
    }

    #[test]
    fn names_are_unique() {
        let s = suite();
        let mut names: Vec<&str> = s.iter().map(|k| k.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 40);
    }
}
