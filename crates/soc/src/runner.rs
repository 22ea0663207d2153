//! The runnable SoC: cores + hierarchy + clock.

use crate::configs::{CoreModel, SocConfig};
use bsim_isa::{Cpu, Program, RunResult};
use bsim_mem::{MemStats, MemoryHierarchy};
use bsim_telemetry::{Telemetry, TelemetrySnapshot};
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
    fn consume_batch(&mut self, uops: &[MicroOp], mem: &mut MemoryHierarchy, core_id: usize) {
        match self {
            CoreInst::InOrder(c) => c.consume_batch(uops, mem, core_id),
            CoreInst::Ooo(c) => c.consume_batch(uops, mem, core_id),
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
    fn advance_to(&mut self, cycle: u64) {
        match self {
            CoreInst::InOrder(c) => c.advance_to(cycle),
            CoreInst::Ooo(c) => c.advance_to(cycle),
        }
    }
}

impl CoreInst {
    /// `(skipped_cycles, spans)` the timing model bulk-advanced past
    /// instead of stepping — the trace-driven analogue of the harness
    /// quiescence fast-forward (see `TickModel::next_activity`).
    fn ff_stats(&self) -> (u64, u64) {
        match self {
            CoreInst::InOrder(c) => c.ff_stats(),
            CoreInst::Ooo(c) => c.ff_stats(),
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
    /// Out-of-band telemetry export; `None` unless the platform config
    /// enabled it (see [`SocConfig::with_telemetry`]).
    pub telemetry: Option<TelemetrySnapshot>,
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
    telemetry: Telemetry,
}

impl Soc {
    /// Instantiates the platform after a mandatory static preflight
    /// (see [`crate::preflight`]). Panics with the rendered diagnostics
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
        let telemetry = Telemetry::new(cfg.telemetry);
        Ok(Soc {
            cfg,
            cores,
            hierarchy,
            telemetry,
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// The run's telemetry state, for out-of-band counters owned by
    /// layers above the SoC (MPI ranks, the engine harness).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Feeds one micro-op to core `core_id`: a batch of one.
    #[inline]
    pub fn consume(&mut self, core_id: usize, uop: &MicroOp) {
        self.consume_batch(core_id, std::slice::from_ref(uop));
    }

    /// Feeds `uops`, in order, to core `core_id`. Which core model runs
    /// and whether telemetry observes each retire are decided once per
    /// batch, not once per micro-op.
    pub fn consume_batch(&mut self, core_id: usize, uops: &[MicroOp]) {
        feed(
            &mut self.cores[core_id],
            &mut self.hierarchy,
            &mut self.telemetry,
            core_id,
            uops,
        );
    }

    /// Current cycle count of core `core_id`.
    pub fn core_cycles(&self, core_id: usize) -> u64 {
        self.cores[core_id].cycles()
    }

    /// Advances core `core_id`'s clock (MPI wait accounting).
    pub fn advance_core(&mut self, core_id: usize, cycle: u64) {
        self.cores[core_id].advance_to(cycle);
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
        if self.telemetry.enabled() {
            for (i, s) in core_stats.iter().enumerate() {
                // bsim: allow(AU006) once per report, telemetry on
                s.publish(&format!("tile{i}"), self.telemetry.counters_mut());
            }
            mem_stats.publish("mem", self.telemetry.counters_mut());
            self.telemetry
                .counters_mut()
                .set_named("soc.cycles", cycles);
            self.telemetry
                .counters_mut()
                .set_named("soc.retired", retired);
            // Host-side fast-forward accounting: cycles the timing models
            // jumped past in bulk (stall spans, drain waits) rather than
            // stepping. `host.` keeps it out of deterministic compares.
            let (skipped, spans) = self
                .cores
                .iter()
                .map(CoreInst::ff_stats)
                .fold((0, 0), |(s, p), (ds, dp)| (s + ds, p + dp));
            self.telemetry
                .counters_mut()
                .set_named("host.engine.skipped_cycles", skipped);
            self.telemetry
                .counters_mut()
                .set_named("host.engine.ff_spans", spans);
            self.telemetry.tick(cycles);
        }
        RunReport {
            platform: self.cfg.name.clone(),
            cycles,
            retired,
            seconds: self.cfg.seconds(cycles),
            core_stats,
            mem_stats,
            exit_code,
            telemetry: self.telemetry.snapshot(),
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
        let telemetry = &mut self.telemetry;
        // The interpreter never observes timing, so retired instructions
        // are lowered into a quantum and timed a quantum at a time.
        let mut quantum: Vec<MicroOp> = Vec::with_capacity(RUN_QUANTUM);
        let result = cpu.run_traced(fuel, |ret| {
            quantum.push(MicroOp::from_retired(ret));
            if quantum.len() == RUN_QUANTUM {
                feed(core, hierarchy, telemetry, core_id, &quantum);
                quantum.clear();
            }
        });
        feed(core, hierarchy, telemetry, core_id, &quantum);
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

/// The body of [`Soc::consume_batch`], over the SoC's fields rather than
/// `&mut Soc` so that `run_program`'s retire closure can call it.
fn feed(
    core: &mut CoreInst,
    hierarchy: &mut MemoryHierarchy,
    telemetry: &mut Telemetry,
    core_id: usize,
    uops: &[MicroOp],
) {
    if !telemetry.enabled() {
        core.consume_batch(uops, hierarchy, core_id);
        return;
    }
    for uop in uops {
        core.consume(uop, hierarchy, core_id);
        let cycle = core.cycles();
        observe_retire(telemetry, core, hierarchy, core_id, uop, cycle);
    }
}

/// Records one committed instruction into the trace ring and, when a
/// sample window boundary is crossed, refreshes the published counters so
/// the timeline snapshot sees current values. Takes shared borrows of the
/// core and hierarchy so it is callable from inside `run_traced`'s retire
/// closure, where both are already mutably borrowed by the timing path.
fn observe_retire(
    telemetry: &mut Telemetry,
    core: &CoreInst,
    hierarchy: &MemoryHierarchy,
    core_id: usize,
    uop: &MicroOp,
    cycle: u64,
) {
    telemetry.trace_mut().record(uop.pc, uop.class as u8, cycle);
    if telemetry.sample_due(cycle) {
        // bsim: allow(AU006) once per closed sample window, telemetry on
        let tile = format!("tile{core_id}");
        core.stats().publish(&tile, telemetry.counters_mut());
        hierarchy.stats().publish("mem", telemetry.counters_mut());
        telemetry.tick(cycle);
    }
}

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
    fn telemetry_export_has_nonzero_counters_timeline_and_trace() {
        use bsim_telemetry::TelemetryConfig;
        let tcfg = TelemetryConfig {
            enabled: true,
            sample_interval_cycles: 500,
            trace_capacity: 64,
            trace_sample_period: 1,
        };
        let mut soc = Soc::new(configs::rocket1(1).with_telemetry(tcfg));
        let rep = soc.run_program(0, &kernel(1000), 1_000_000);
        let snap = rep.telemetry.expect("enabled telemetry exports a snapshot");
        assert!(snap.counter("tile0.retired").unwrap_or(0) > 0);
        assert!(snap.counter("tile0.branch.lookups").unwrap_or(0) > 0);
        assert!(snap.counter("mem.l1i.accesses").unwrap_or(0) > 0);
        assert_eq!(snap.counter("soc.cycles"), Some(rep.cycles));
        assert!(
            !snap.timeline.is_empty(),
            "sampler should fire within {} cycles",
            rep.cycles
        );
        assert_eq!(snap.trace.len(), 64, "period-1 trace fills its ring");
        assert!(snap.to_json().contains("tile0.retired"));
    }

    /// A strided-load kernel that misses every cache level: each load
    /// touches a new 4 KiB-distant line, so the core spends most of its
    /// cycles stalled on DRAM.
    fn strided_loads(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(T0, 0x10_0000).li(T1, iters).li(T2, 0);
        a.label("loop");
        a.ld(T3, 0, T0);
        a.addi(T4, T3, 1); // consume the load: scoreboard stalls to DRAM
        a.addi(T0, T0, 2047);
        a.addi(T0, T0, 2047);
        a.addi(T2, T2, 1);
        a.blt(T2, T1, "loop");
        a.exit(0);
        a.assemble().unwrap()
    }

    #[test]
    fn memory_bound_run_reports_skipped_cycles_in_exports() {
        use bsim_telemetry::TelemetryConfig;
        let mut soc = Soc::new(configs::rocket1(1).with_telemetry(TelemetryConfig::counters()));
        let rep = soc.run_program(0, &strided_loads(400), 10_000_000);
        assert_eq!(rep.exit_code, Some(0));
        let snap = rep.telemetry.expect("telemetry enabled");
        let skipped = snap.counter("host.engine.skipped_cycles").unwrap_or(0);
        let spans = snap.counter("host.engine.ff_spans").unwrap_or(0);
        assert!(
            skipped > rep.cycles / 4,
            "a DRAM-bound kernel should fast-forward a large cycle share: \
             skipped {skipped} of {} cycles",
            rep.cycles
        );
        assert!(
            spans > 0 && skipped >= spans,
            "{spans} spans, {skipped} skipped"
        );
        // The counters ride the standard export paths.
        assert!(snap.to_json().contains("host.engine.skipped_cycles"));
        assert!(snap
            .counters_csv()
            .contains(&format!("host.engine.skipped_cycles,{skipped}\n")));
    }

    #[test]
    fn disabled_telemetry_is_absent_and_cycle_neutral() {
        use bsim_telemetry::TelemetryConfig;
        let prog = kernel(800);
        let mut off = Soc::new(configs::rocket1(1));
        let mut on = Soc::new(configs::rocket1(1).with_telemetry(TelemetryConfig::full()));
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
        // same cycles, retired count, stats, and telemetry export —
        // counters are published with set-not-add semantics and the
        // timeline sampler must not emit a duplicate sample at the same
        // cycle.
        use bsim_telemetry::TelemetryConfig;
        let mut soc = Soc::new(configs::rocket1(1).with_telemetry(TelemetryConfig::full()));
        let first = soc.run_program(0, &kernel(800), 10_000_000);
        let second = soc.report(first.exit_code);
        assert_eq!(first.cycles, second.cycles, "cycles must not double-count");
        assert_eq!(first.retired, second.retired);
        assert_eq!(first.core_stats, second.core_stats);
        assert_eq!(first.mem_stats, second.mem_stats);
        assert_eq!(first.seconds, second.seconds);
        let (t1, t2) = (first.telemetry.unwrap(), second.telemetry.unwrap());
        assert_eq!(t1.counters, t2.counters, "set-not-add publish");
        assert_eq!(t1.timeline, t2.timeline, "no duplicate boundary sample");
        assert_eq!(t1.trace, t2.trace);
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
        let uop = bsim_uarch::MicroOp::alu(0x1_0000, Some(5), [None; 3]);
        for _ in 0..100 {
            soc.consume(0, &uop);
        }
        assert!(soc.core_cycles(0) >= 99);
        assert_eq!(soc.core_cycles(1), 0);
        soc.advance_core(1, 50);
        assert_eq!(soc.core_cycles(1), 50);
    }
}
