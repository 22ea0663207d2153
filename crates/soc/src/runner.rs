//! The runnable SoC: cores + hierarchy + clock.

use crate::configs::{CoreModel, SocConfig};
use bsim_isa::{Cpu, Program, RunResult};
use bsim_mem::{Front, MemStats, MemoryHierarchy, Own};
use bsim_telemetry::{Bucket, CycleStack};
use bsim_uarch::{CoreStats, InOrderCore, MicroOp, OooCore, TimingCore};
use serde::{Deserialize, Serialize};

/// One instantiated core (either timing model).
enum CoreInst {
    /// In-order instance.
    InOrder(InOrderCore),
    /// Out-of-order instance.
    Ooo(OooCore),
}

impl TimingCore for CoreInst {
    fn consume_batch<F: Front>(
        &mut self,
        uops: &[MicroOp],
        mem: &mut MemoryHierarchy,
        core_id: usize,
        front: &mut F,
    ) {
        match self {
            CoreInst::InOrder(c) => c.consume_batch(uops, mem, core_id, front),
            CoreInst::Ooo(c) => c.consume_batch(uops, mem, core_id, front),
        }
    }
    fn finish(&mut self) -> u64 {
        match self {
            CoreInst::InOrder(c) => c.finish(),
            CoreInst::Ooo(c) => c.finish(),
        }
    }
    fn cycles(&self) -> u64 {
        match self {
            CoreInst::InOrder(c) => c.cycles(),
            CoreInst::Ooo(c) => c.cycles(),
        }
    }
    fn retired(&self) -> u64 {
        match self {
            CoreInst::InOrder(c) => c.retired(),
            CoreInst::Ooo(c) => c.retired(),
        }
    }
    fn stats(&self) -> CoreStats {
        match self {
            CoreInst::InOrder(c) => c.stats(),
            CoreInst::Ooo(c) => c.stats(),
        }
    }
    fn stack(&self) -> CycleStack {
        match self {
            CoreInst::InOrder(c) => c.stack(),
            CoreInst::Ooo(c) => c.stack(),
        }
    }
    fn advance_to(&mut self, cycle: u64, bucket: Bucket) {
        match self {
            CoreInst::InOrder(c) => c.advance_to(cycle, bucket),
            CoreInst::Ooo(c) => c.advance_to(cycle, bucket),
        }
    }
}

/// Result of running a workload on an SoC.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Platform name.
    pub platform: String,
    /// Total target cycles.
    pub cycles: u64,
    /// Retired instructions / micro-ops.
    pub retired: u64,
    /// Target wall time in seconds at the platform clock.
    pub seconds: f64,
    /// Per-core stats (index = core id).
    pub core_stats: Vec<CoreStats>,
    /// Memory-system stats.
    pub mem_stats: MemStats,
    /// Functional exit code, when the workload was an ISA program.
    pub exit_code: Option<i64>,
    /// Each core's cycle stack (index = core id), each summing to its
    /// core's cycles; `None` unless the platform config enabled
    /// telemetry (see [`SocConfig::with_telemetry`]).
    pub telemetry: Option<Vec<CycleStack>>,
}

impl RunReport {
    /// Aggregate instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// A runnable SoC instance.
pub struct Soc {
    cfg: SocConfig,
    cores: Vec<CoreInst>,
    hierarchy: MemoryHierarchy,
}

impl Soc {
    /// Instantiates the platform after a mandatory static preflight
    /// (see [`crate::preflight()`]). Panics with the rendered diagnostics
    /// if the config has errors; use [`Soc::try_new`] for a typed
    /// result. Warnings do not block — the §4 tuning loop deliberately
    /// drifts configs — but errors mean the run would hang or lie.
    pub fn new(cfg: SocConfig) -> Soc {
        match Soc::try_new(cfg) {
            Ok(soc) => soc,
            Err(report) => panic!("invalid platform config:\n{}", report.render()),
        }
    }

    /// [`Soc::new`] with the preflight surfaced: returns the full
    /// diagnostic report instead of panicking when the config has
    /// error-severity findings.
    pub fn try_new(cfg: SocConfig) -> Result<Soc, bsim_check::Report> {
        let report = crate::preflight::preflight(&cfg);
        if report.has_errors() {
            return Err(report);
        }
        let cores = (0..cfg.cores)
            .map(|_| match &cfg.core {
                CoreModel::InOrder(c) => CoreInst::InOrder(InOrderCore::new(c.clone())),
                CoreModel::Ooo(c) => CoreInst::Ooo(OooCore::new(c.clone())),
            })
            .collect();
        let hierarchy = MemoryHierarchy::new(cfg.hierarchy.clone());
        Ok(Soc {
            cfg,
            cores,
            hierarchy,
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Feeds one micro-op to core `core_id`: a batch of one.
    #[inline]
    pub fn consume(&mut self, core_id: usize, uop: &MicroOp) {
        self.consume_batch(core_id, std::slice::from_ref(uop));
    }

    /// Feeds `uops`, in order, to core `core_id`. Which core model runs
    /// is decided once per batch, not once per micro-op.
    pub fn consume_batch(&mut self, core_id: usize, uops: &[MicroOp]) {
        self.consume_batch_with(core_id, uops, &mut Own);
    }

    /// [`Soc::consume_batch`] with the branch, TLB and L1 tag decisions
    /// taken from `front` (`bsim_mem::front`): this SoC's own state, that
    /// state with every decision recorded, or a sibling lane's record.
    pub fn consume_batch_with<F: Front>(
        &mut self,
        core_id: usize,
        uops: &[MicroOp],
        front: &mut F,
    ) {
        self.cores[core_id].consume_batch(uops, &mut self.hierarchy, core_id, front);
    }

    /// Current cycle count of core `core_id`.
    pub fn core_cycles(&self, core_id: usize) -> u64 {
        self.cores[core_id].cycles()
    }

    /// Advances core `core_id`'s clock to at least `cycle`, charging the
    /// advance to `bucket` (the MPI layer's charges, sends and waits).
    pub fn advance_core(&mut self, core_id: usize, cycle: u64, bucket: Bucket) {
        self.cores[core_id].advance_to(cycle, bucket);
    }

    /// Drains all cores and produces a report. The SoC remains usable;
    /// cycle counters continue from where they are.
    pub fn report(&mut self, exit_code: Option<i64>) -> RunReport {
        let mut cycles = 0;
        let mut retired = 0;
        let mut core_stats = Vec::with_capacity(self.cores.len());
        for c in &mut self.cores {
            cycles = cycles.max(c.finish());
            retired += c.retired();
            core_stats.push(c.stats());
        }
        let mem_stats = self.hierarchy.stats();
        let telemetry = self.cfg.telemetry.enabled.then(|| {
            let stacks: Vec<CycleStack> = self.cores.iter().map(|c| c.stack()).collect();
            for (core, (stack, stats)) in stacks.iter().zip(&core_stats).enumerate() {
                assert!(
                    stack.total() == stats.cycles,
                    "core {core}'s cycle stack sums to {}, not to its {} cycles",
                    stack.total(),
                    stats.cycles
                );
            }
            stacks
        });
        RunReport {
            platform: self.cfg.name.clone(),
            cycles,
            retired,
            seconds: self.cfg.seconds(cycles),
            core_stats,
            mem_stats,
            exit_code,
            telemetry,
        }
    }

    /// Runs an assembled RV64 program to completion on core `core_id`,
    /// feeding every retired instruction through the timing model.
    ///
    /// This is the MicroBench execution path: functional interpretation
    /// with cycle-level timing, exactly one timing sample per dynamic
    /// instruction.
    pub fn run_program(&mut self, core_id: usize, prog: &Program, fuel: u64) -> RunReport {
        let mut cpu = Cpu::new(prog);
        let core = &mut self.cores[core_id];
        let hierarchy = &mut self.hierarchy;
        // The interpreter never observes timing, so retired instructions
        // are lowered into a quantum and timed a quantum at a time.
        let mut quantum: Vec<MicroOp> = Vec::with_capacity(RUN_QUANTUM);
        let result = cpu.run_traced(fuel, |ret| {
            quantum.push(MicroOp::from_retired(ret));
            if quantum.len() == RUN_QUANTUM {
                core.consume_batch(&quantum, hierarchy, core_id, &mut Own);
                quantum.clear();
            }
        });
        core.consume_batch(&quantum, hierarchy, core_id, &mut Own);
        let exit = match result {
            RunResult::Exited(code) => Some(code),
            RunResult::OutOfFuel => None,
            RunResult::Trapped(t) => panic!("workload trapped on {}: {t:?}", self.cfg.name),
        };
        self.report(exit)
    }
}

/// Micro-ops a live run produces before timing them — `run_program`
/// lowering retired instructions, `bsim_workloads::trace::with_trace`
/// generating a rank's loop nest: small enough for the batch to stay in
/// the host's cache, large enough that the producer's loop and the
/// timing loop each run hot in turn.
pub const RUN_QUANTUM: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use bsim_isa::reg::*;
    use bsim_isa::Asm;

    /// A small pointer-chase + arithmetic kernel for smoke-testing.
    fn kernel(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(T0, 0).li(T1, iters).li(T2, 0);
        a.label("loop");
        a.addi(T2, T2, 3);
        a.mul(T3, T2, T2);
        a.addi(T0, T0, 1);
        a.blt(T0, T1, "loop");
        a.exit(0);
        a.assemble().unwrap()
    }

    #[test]
    fn rocket_runs_a_program() {
        let mut soc = Soc::new(configs::rocket1(1));
        let rep = soc.run_program(0, &kernel(1000), 1_000_000);
        assert_eq!(rep.exit_code, Some(0));
        assert!(rep.retired > 4000);
        assert!(
            rep.cycles > rep.retired,
            "single-issue cannot exceed IPC 1 on this kernel"
        );
        assert!(rep.seconds > 0.0);
    }

    #[test]
    fn boom_beats_rocket_on_ilp_kernel() {
        let prog = kernel(2000);
        let mut rocket = Soc::new(configs::rocket1(1));
        let mut boom = Soc::new(configs::large_boom(1));
        let r = rocket.run_program(0, &prog, 10_000_000);
        let b = boom.run_program(0, &prog, 10_000_000);
        assert!(
            b.cycles < r.cycles,
            "Large BOOM must beat Rocket on an ILP kernel: {} vs {}",
            b.cycles,
            r.cycles
        );
    }

    #[test]
    fn fast_model_is_cycle_identical_but_time_faster() {
        // Doubling the clock does not change cycle counts of a pure-ALU
        // kernel (no DRAM in the loop) but halves seconds.
        let prog = kernel(500);
        let mut base = Soc::new(configs::banana_pi_sim(1));
        let mut fast = Soc::new(configs::fast_banana_pi_sim(1));
        let rb = base.run_program(0, &prog, 10_000_000);
        let rf = fast.run_program(0, &prog, 10_000_000);
        // DRAM timings are ns-based so the fast model spends *more cycles*
        // on misses; for this cache-resident kernel the counts are close.
        let ratio = rf.cycles as f64 / rb.cycles as f64;
        assert!((0.95..=1.1).contains(&ratio), "cycle ratio {ratio}");
        assert!(rf.seconds < rb.seconds * 0.6);
    }

    #[test]
    fn report_includes_mem_stats() {
        let mut soc = Soc::new(configs::milkv_sim(1));
        let rep = soc.run_program(0, &kernel(100), 1_000_000);
        assert!(rep.mem_stats.l1i_accesses > 0);
        assert_eq!(rep.platform, "MILK-V Sim Model");
    }

    #[test]
    fn telemetry_export_has_nonzero_counters() {
        use bsim_telemetry::TelemetryConfig;
        let mut soc = Soc::new(configs::rocket1(2).with_telemetry(TelemetryConfig::counters()));
        let rep = soc.run_program(0, &kernel(1000), 1_000_000);
        let stacks = rep.telemetry.expect("enabled telemetry publishes stacks");
        assert_eq!(stacks.len(), 2);
        assert_eq!(stacks[0].total(), rep.cycles);
        assert!(stacks[0].get(Bucket::Base) > 0);
        assert_eq!(stacks[1].total(), 0, "core 1 ran nothing");
    }

    #[test]
    fn disabled_telemetry_is_absent_and_cycle_neutral() {
        use bsim_telemetry::TelemetryConfig;
        let prog = kernel(800);
        let mut off = Soc::new(configs::rocket1(1));
        let mut on = Soc::new(configs::rocket1(1).with_telemetry(TelemetryConfig::counters()));
        let ro = off.run_program(0, &prog, 10_000_000);
        let rn = on.run_program(0, &prog, 10_000_000);
        assert!(ro.telemetry.is_none());
        assert!(rn.telemetry.is_some());
        assert_eq!(
            ro.cycles, rn.cycles,
            "telemetry must not change simulated timing"
        );
        assert_eq!(ro.retired, rn.retired);
        assert_eq!(ro.mem_stats, rn.mem_stats);
    }

    #[test]
    fn report_is_idempotent() {
        // `report` drains the cores but must not consume anything:
        // calling it again without running more work has to produce the
        // same cycles, retired count, stats, and cycle stacks.
        use bsim_telemetry::TelemetryConfig;
        let mut soc = Soc::new(configs::rocket1(1).with_telemetry(TelemetryConfig::counters()));
        let first = soc.run_program(0, &kernel(800), 10_000_000);
        let second = soc.report(first.exit_code);
        assert_eq!(first.cycles, second.cycles, "cycles must not double-count");
        assert_eq!(first.retired, second.retired);
        assert_eq!(first.core_stats, second.core_stats);
        assert_eq!(first.mem_stats, second.mem_stats);
        assert_eq!(first.seconds, second.seconds);
        assert_eq!(
            first.telemetry, second.telemetry,
            "a drained core charges nothing"
        );
    }

    #[test]
    fn try_new_reports_bad_configs_instead_of_instantiating() {
        let mut cfg = configs::rocket1(2);
        cfg.hierarchy.cores = 1; // SC003: hierarchy sized for the wrong SoC
        let Err(report) = Soc::try_new(cfg) else {
            panic!("preflight must reject a mis-sized hierarchy")
        };
        assert!(report.has_code("SC003"), "{}", report.render());
        // Warnings alone do not block construction.
        let mut cfg = configs::rocket1(1);
        cfg.hierarchy.core_freq_ghz = 2.5; // SC004 warning
        assert!(Soc::try_new(cfg).is_ok());
    }

    #[test]
    #[should_panic(expected = "SC003")]
    fn new_panics_with_rendered_diagnostics() {
        let mut cfg = configs::rocket1(2);
        cfg.hierarchy.cores = 1;
        let _ = Soc::new(cfg);
    }

    #[test]
    fn multi_core_soc_tracks_independent_clocks() {
        let mut soc = Soc::new(configs::rocket1(2));
        let uop = bsim_uarch::MicroOp::alu(0x1_0000, bsim_uarch::Ureg::new(5), [None; 3]);
        for _ in 0..100 {
            soc.consume(0, &uop);
        }
        assert!(soc.core_cycles(0) >= 99);
        assert_eq!(soc.core_cycles(1), 0);
        soc.advance_core(1, 50, Bucket::MpiWait);
        assert_eq!(soc.core_cycles(1), 50);
    }
}
