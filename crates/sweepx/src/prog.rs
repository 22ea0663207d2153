//! Program-path (single-core ISA workload) recording and lane replay.
//!
//! MicroBench kernels run a real RISC-V program through the functional
//! [`Cpu`]; the retired-instruction stream is config-independent (the
//! interpreter never observes timing), so one functional run yields a
//! micro-op trace every platform can replay. [`record_program`] mirrors
//! `Soc::run_program`'s decode loop and exit mapping exactly;
//! [`replay_program`] is provably equivalent to it for each lane —
//! `run_program` is `consume` per retired op plus `report(exit)`, which
//! is precisely what the lane loop does — so full replay is
//! bit-identical to the scalar path.

use crate::sample::{SampleCfg, SamplePlan, SampleReport, Strata};
use bsim_isa::{Cpu, Program, RunResult};
use bsim_soc::{RunReport, Soc, SocConfig};
use bsim_uarch::MicroOp;

/// Shared-quantum size of the lane-inner consume loop; see
/// `replay::QUANTUM` for the rationale.
const QUANTUM: usize = 8192;

/// A recorded single-core program trace: the retired micro-op stream
/// and the functional exit code.
#[derive(Clone, Debug)]
pub struct ProgTrace {
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
/// lanes, on core 0 of each. With a [`SampleCfg`], the stream is cut
/// into fixed-size segments and non-representative segments
/// fast-forward each lane's clock by its stratum estimate.
pub(crate) fn replay_program(
    trace: &ProgTrace,
    cfgs: &[SocConfig],
    sample: Option<&SampleCfg>,
) -> Vec<(RunReport, Option<SampleReport>)> {
    let nl = cfgs.len();
    let mut socs: Vec<Soc> = cfgs.iter().map(|c| Soc::new(c.clone())).collect();
    let plan = sample.map(|cfg| SamplePlan::for_uops(&trace.uops, cfg));
    let mut strata: Vec<Strata> = match (&plan, sample) {
        (Some(p), Some(cfg)) => (0..nl).map(|_| Strata::new(p.clusters, cfg)).collect(),
        _ => Vec::new(),
    };

    match &plan {
        None => {
            // Full replay: one SoA pass per quantum over the whole
            // stream.
            for chunk in trace.uops.chunks(QUANTUM) {
                for soc in socs.iter_mut() {
                    soc.consume_batch(0, chunk);
                }
            }
        }
        Some(p) => {
            // The same chunking `SamplePlan::for_uops` used, so segment
            // ordinals line up with the plan.
            let step = sample
                .expect("plan exists only with a sample cfg")
                .prog_segment_uops
                .max(1);
            assert_eq!(trace.uops.chunks(step).count(), p.segments());
            for (seg, chunk) in trace.uops.chunks(step).enumerate() {
                let cluster = p.cluster_of[seg];
                let detailed = p.measured[seg] || strata.iter().any(|st| !st.quiesced(cluster));
                if detailed {
                    let t0: Vec<u64> = socs.iter().map(|s| s.core_cycles(0)).collect();
                    for q in chunk.chunks(QUANTUM) {
                        for soc in socs.iter_mut() {
                            soc.consume_batch(0, q);
                        }
                    }
                    for (lane, soc) in socs.iter_mut().enumerate() {
                        strata[lane].measure(cluster, chunk.len(), soc.core_cycles(0) - t0[lane]);
                    }
                } else {
                    for (lane, soc) in socs.iter_mut().enumerate() {
                        let est = strata[lane]
                            .skip(cluster, chunk.len())
                            .expect("detailed-path guard measured this stratum");
                        let local = soc.core_cycles(0);
                        soc.advance_core(0, local + est);
                    }
                }
            }
        }
    }

    socs.into_iter()
        .enumerate()
        .map(|(lane, mut soc)| {
            let rep = soc.report(trace.exit_code);
            let sample = plan
                .as_ref()
                .map(|p| strata[lane].report(p, rep.cycles, 1.0 / (cfgs[lane].freq_ghz * 1e9)));
            (rep, sample)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;
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
        let lanes = replay_program(&trace, &cfgs, None);
        for (cfg, (rep, _)) in cfgs.iter().zip(&lanes) {
            let scalar = Soc::new(cfg.clone()).run_program(0, &prog, u64::MAX);
            assert_eq!(
                serde_json::to_string(rep).expect("reports serialize"),
                serde_json::to_string(&scalar).expect("reports serialize"),
                "lane '{}' must be bit-identical to the scalar run",
                cfg.name
            );
        }
    }

    #[test]
    fn sampled_program_replay_stays_within_bounds() {
        let k = &microbench::evaluated()[3];
        let prog = k.build(2);
        let trace = record_program(&prog, u64::MAX);
        let cfgs = [configs::rocket1(1), configs::medium_boom(1)];
        let full = replay_program(&trace, &cfgs, None);
        let cfg = SampleCfg {
            prog_segment_uops: 512,
            ..SampleCfg::default()
        };
        let sampled = replay_program(&trace, &cfgs, Some(&cfg));
        for ((f, _), (s, rep)) in full.iter().zip(&sampled) {
            let rep = rep.as_ref().expect("sampling was on");
            let rel = (s.cycles as f64 - f.cycles as f64).abs() / f.cycles as f64;
            assert!(
                rel < 0.3,
                "sampled {} vs full {} ({rel:.3})",
                s.cycles,
                f.cycles
            );
            assert_eq!(rep.total_uops, trace.uops.len() as u64);
        }
    }
}
