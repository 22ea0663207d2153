//! Program-path (single-core ISA workload) recording and lane replay.
//!
//! MicroBench kernels run a real RISC-V program through the functional
//! [`Cpu`]; the retired-instruction stream is config-independent (the
//! interpreter never observes timing), so one functional run yields a
//! micro-op trace every platform can replay. [`record_program`] has
//! `Soc::run_program`'s decode loop and exit mapping. [`replay_program`]
//! treats the trace as a one-rank world that only computes: its events
//! are Consume segments on core 0, replayed by the loop `replay_world`
//! uses. `run_program` is `consume_batch` per quantum of retired ops
//! plus `report(exit)`, which is what that loop does to each lane, so a
//! full replay is bit-identical to the scalar path.

use crate::replay::replay;
use bsim_isa::{Cpu, Program, RunResult};
use bsim_mpi::{Ev, NetConfig};
use bsim_soc::{RunReport, SocConfig};
use bsim_uarch::MicroOp;

/// A recorded single-core program trace: the retired micro-op stream
/// and the functional exit code.
#[derive(Clone, Debug)]
pub(crate) struct ProgTrace {
    /// Retired micro-ops in program order.
    pub uops: Vec<MicroOp>,
    /// `Some(code)` when the program exited, `None` when it ran out of
    /// fuel — the same mapping `Soc::run_program` reports.
    pub exit_code: Option<i64>,
}

/// Runs `prog` functionally once and captures its micro-op trace.
/// Panics on a trapped program, exactly like `Soc::run_program`.
pub(crate) fn record_program(prog: &Program, fuel: u64) -> ProgTrace {
    let mut uops = Vec::new();
    let mut cpu = Cpu::new(prog);
    let result = cpu.run_traced(fuel, |ret| uops.push(MicroOp::from_retired(ret)));
    let exit_code = match result {
        RunResult::Exited(code) => Some(code),
        RunResult::OutOfFuel => None,
        RunResult::Trapped(t) => panic!("program trapped during trace recording: {t:?}"),
    };
    ProgTrace { uops, exit_code }
}

/// Replays a recorded program trace over every config as parallel
/// lanes, on core 0 of each: the whole stream is one `Consume` segment.
pub(crate) fn replay_program(trace: &ProgTrace, cfgs: &[SocConfig]) -> Vec<RunReport> {
    let events = [Ev::Consume {
        rank: 0,
        start: 0,
        len: trace.uops.len(),
    }];
    // No event of this stream reads the link model.
    let net = NetConfig::shared_memory();
    replay(&events, &trace.uops, 1, cfgs, net, None)
        .into_iter()
        .map(|lane| RunReport {
            exit_code: trace.exit_code,
            ..lane.report.run
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::{configs, Soc};
    use bsim_workloads::microbench;

    #[test]
    fn recorded_trace_matches_run_program_exit_and_length() {
        let k = &microbench::evaluated()[0];
        let prog = k.build(1);
        let trace = record_program(&prog, u64::MAX);
        assert_eq!(trace.exit_code, Some(0));
        let scalar = Soc::new(configs::rocket1(1)).run_program(0, &prog, u64::MAX);
        assert_eq!(trace.uops.len() as u64, scalar.retired);
    }

    #[test]
    fn full_lane_replay_matches_scalar_run_program() {
        let k = microbench::evaluated()
            .into_iter()
            .find(|k| k.name == "Cca")
            .expect("control kernel Cca exists");
        let prog = k.build(1);
        let trace = record_program(&prog, u64::MAX);
        let cfgs = [
            configs::rocket1(1),
            configs::large_boom(1),
            configs::milkv_sim(1),
        ];
        let lanes = replay_program(&trace, &cfgs);
        for (cfg, rep) in cfgs.iter().zip(&lanes) {
            let scalar = Soc::new(cfg.clone()).run_program(0, &prog, u64::MAX);
            assert_eq!(
                serde_json::to_string(rep).expect("reports serialize"),
                serde_json::to_string(&scalar).expect("reports serialize"),
                "lane '{}' must be bit-identical to the scalar run",
                cfg.name
            );
        }
    }
}
