//! NPB EP — Embarrassingly Parallel (Table 2: "Compute").
//!
//! Generates pairs of uniform deviates with a multiplicative LCG,
//! applies the acceptance-rejection Gaussian transform (Marsaglia polar
//! method, as the original EP does), and tallies the deviates into
//! annular bins. Communication is a single allreduce at the end — which
//! is why the paper uses EP as its compute-bound probe (§5.2: "EP
//! demonstrated near performance parity between simulation and hardware
//! ... confirms the compute capabilities of the large BOOM configuration
//! are very close to those of the MILK-V hardware").

use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use serde::{Deserialize, Serialize};

/// EP problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EpConfig {
    /// Gaussian pairs attempted per rank (class A is 2^28 total; the
    /// default here is class-A-shaped at reduced size — DESIGN.md §5).
    pub pairs_per_rank: u64,
}

impl Default for EpConfig {
    fn default() -> EpConfig {
        EpConfig {
            pairs_per_rank: 1 << 15,
        }
    }
}

/// EP result.
#[derive(Clone, Debug)]
pub struct EpResult {
    /// Simulation report.
    pub report: WorldReport,
    /// Sum of accepted X deviates.
    pub sx: f64,
    /// Sum of accepted Y deviates.
    pub sy: f64,
    /// Annulus counts `q[0..10]`.
    pub counts: [f64; 10],
    /// Total accepted pairs.
    pub accepted: u64,
}

const LCG_MULT: u64 = 6364136223846793005;
const LCG_INC: u64 = 1442695040888963407;

#[inline]
fn lcg(x: &mut u64) -> f64 {
    *x = x.wrapping_mul(LCG_MULT).wrapping_add(LCG_INC);
    // Upper 53 bits as a uniform in [0, 1).
    (*x >> 11) as f64 / (1u64 << 53) as f64
}

/// Reference (non-simulated) computation of the global tallies, used by
/// tests to validate the simulated run bit-for-bit.
pub fn reference(cfg: EpConfig, ranks: usize) -> (f64, f64, [f64; 10], u64) {
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut q = [0.0f64; 10];
    let mut accepted = 0u64;
    for rank in 0..ranks {
        let mut state = 0x2709_0409u64 ^ ((rank as u64) << 32);
        for _ in 0..cfg.pairs_per_rank {
            let u1 = lcg(&mut state);
            let u2 = lcg(&mut state);
            let x = 2.0 * u1 - 1.0;
            let y = 2.0 * u2 - 1.0;
            let t = x * x + y * y;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let gx = x * f;
                let gy = y * f;
                let l = gx.abs().max(gy.abs()) as usize;
                if l < 10 {
                    q[l] += 1.0;
                }
                sx += gx;
                sy += gy;
                accepted += 1;
            }
        }
    }
    (sx, sy, q, accepted)
}

/// Runs EP on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: EpConfig, net: NetConfig) -> EpResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs EP once with timing disabled, capturing the rank programs as a
/// timing-free [`WorldTrace`] for multi-lane replay (`bsim-sweepx`).
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: EpConfig,
    net: NetConfig,
) -> (EpResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// EP under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: EpConfig,
    net: NetConfig,
) -> (EpResult, L::Out) {
    use std::sync::Mutex;
    let tallies: Mutex<(f64, f64, [f64; 10], u64)> = Mutex::new((0.0, 0.0, [0.0; 10], 0));

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let base = rank_base(rank);
        let mut state = 0x2709_0409u64 ^ ((rank as u64) << 32);
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut q = [0.0f64; 10];
        let mut accepted = 0u64;

        // Batch the trace in chunks to amortize the SoC lock.
        const CHUNK: u64 = 512;
        let mut remaining = cfg.pairs_per_rank;
        while remaining > 0 {
            let n = remaining.min(CHUNK);
            remaining -= n;
            with_trace(ctx, |g| {
                for _ in 0..n {
                    let u1 = lcg(&mut state);
                    let u2 = lcg(&mut state);
                    let x = 2.0 * u1 - 1.0;
                    let y = 2.0 * u2 - 1.0;
                    let t = x * x + y * y;
                    // LCG: serial int chain; transform + radius is a
                    // short dependent FP chain — the acceptance branch
                    // keeps this loop scalar even on vector hardware.
                    g.int_ops(4, true);
                    g.flops(7, true);
                    let accept = t <= 1.0 && t > 0.0;
                    g.branch(1, accept);
                    if accept {
                        let f = (-2.0 * t.ln() / t).sqrt();
                        let gx = x * f;
                        let gy = y * f;
                        // ln + div + sqrt: the expensive tail.
                        g.flops(6, true);
                        g.fdiv();
                        g.fsqrt();
                        let l = gx.abs().max(gy.abs()) as usize;
                        g.int_ops(3, false);
                        if l < 10 {
                            q[l] += 1.0;
                            // Bin update: load + add + store.
                            g.load(base + 0x100 + (l as u64) * 8);
                            g.flops(1, false);
                            g.store(base + 0x100 + (l as u64) * 8);
                        }
                        sx += gx;
                        sy += gy;
                        accepted += 1;
                    }
                    g.loop_overhead(2, 1);
                }
            });
        }

        // Final reduction, exactly as EP's MPI_Allreduce of sx, sy, q.
        let mut v = vec![sx, sy, accepted as f64];
        v.extend_from_slice(&q);
        let total = ctx.allreduce_f64(&v, ReduceOp::Sum);
        if rank == 0 {
            let mut t = tallies.lock().unwrap_or_else(|e| e.into_inner());
            t.0 = total[0];
            t.1 = total[1];
            t.3 = total[2] as u64;
            t.2.copy_from_slice(&total[3..13]);
        }
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let t = tallies.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        EpResult {
            report,
            sx: t.0,
            sy: t.1,
            counts: t.2,
            accepted: t.3,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    #[test]
    fn simulated_tallies_match_reference() {
        let cfg = EpConfig {
            pairs_per_rank: 2000,
        };
        let (sx, sy, q, acc) = reference(cfg, 2);
        let r = run(configs::rocket1(2), 2, cfg, NetConfig::shared_memory());
        assert_eq!(r.accepted, acc);
        assert!((r.sx - sx).abs() < 1e-9, "{} vs {sx}", r.sx);
        assert!((r.sy - sy).abs() < 1e-9);
        assert_eq!(r.counts, q);
    }

    #[test]
    fn acceptance_rate_is_pi_over_four() {
        let cfg = EpConfig {
            pairs_per_rank: 20_000,
        };
        let (_, _, _, acc) = reference(cfg, 1);
        let rate = acc as f64 / 20_000.0;
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01,
            "rate {rate}"
        );
    }

    #[test]
    fn ep_scales_with_ranks() {
        // Same total work on 1 vs 4 ranks: 4 ranks should be much faster.
        let t1 = run(
            configs::large_boom(1),
            1,
            EpConfig {
                pairs_per_rank: 8_000,
            },
            NetConfig::shared_memory(),
        )
        .report
        .run
        .cycles;
        let t4 = run(
            configs::large_boom(4),
            4,
            EpConfig {
                pairs_per_rank: 2_000,
            },
            NetConfig::shared_memory(),
        )
        .report
        .run
        .cycles;
        assert!(
            (t1 as f64) > 2.5 * t4 as f64,
            "EP is embarrassingly parallel: {t1} vs {t4}"
        );
    }

    #[test]
    fn ep_is_compute_bound() {
        let r = run(
            configs::large_boom(1),
            1,
            EpConfig::default(),
            NetConfig::shared_memory(),
        );
        let s = &r.report.run.mem_stats;
        assert!(
            (s.dram_reads + s.dram_writes) < r.report.run.retired / 100,
            "EP must not be memory bound: {} DRAM ops vs {} uops",
            s.dram_reads + s.dram_writes,
            r.report.run.retired
        );
    }
}
