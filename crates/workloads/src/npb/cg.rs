//! NPB CG — Conjugate Gradient (Table 2: "Memory Latency").
//!
//! Estimates the smallest eigenvalue of a sparse symmetric
//! positive-definite matrix via inverse power iteration, with a CG solve
//! in the inner loop — the original benchmark's structure. The sparse
//! matrix-vector product's *gather* (`p[colidx[k]]`) is the
//! memory-latency probe the paper relies on; rows are block-partitioned
//! across ranks, and each iteration ends with dot-product allreduces and
//! an allgather of the updated direction vector.

use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// CG problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CgConfig {
    /// Matrix dimension (class A is 14000; default is class-A-shaped at
    /// reduced size — DESIGN.md §5).
    pub n: usize,
    /// Nonzeros per row (class A averages 11).
    pub nnz_per_row: usize,
    /// CG iterations per solve (class A: 15).
    pub iters: usize,
}

impl Default for CgConfig {
    fn default() -> CgConfig {
        CgConfig {
            n: 1024,
            nnz_per_row: 11,
            iters: 15,
        }
    }
}

/// CG result.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// Simulation report.
    pub report: WorldReport,
    /// Final residual norm ‖r‖₂.
    pub residual: f64,
    /// Initial residual norm (‖b‖₂).
    pub initial_residual: f64,
}

/// A sparse row: column indices and values.
#[derive(Clone, Debug)]
struct SparseMatrix {
    /// Per-row column indices.
    cols: Vec<Vec<u32>>,
    /// Per-row values.
    vals: Vec<Vec<f64>>,
}

/// Builds the deterministic random SPD-ish matrix (strong diagonal).
fn build_matrix(cfg: CgConfig) -> SparseMatrix {
    let mut rng = SmallRng::seed_from_u64(0xC6);
    let mut cols = Vec::with_capacity(cfg.n);
    let mut vals = Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        let mut c: Vec<u32> = (0..cfg.nnz_per_row - 1)
            .map(|_| rng.gen_range(0..cfg.n as u32))
            .filter(|&j| j != i as u32)
            .collect();
        c.push(i as u32);
        c.sort_unstable();
        c.dedup();
        let v: Vec<f64> = c
            .iter()
            .map(|&j| {
                if j == i as u32 {
                    // Diagonal dominance makes CG converge briskly.
                    cfg.nnz_per_row as f64 + 2.0
                } else {
                    rng.gen_range(-0.5..0.5)
                }
            })
            .collect();
        cols.push(c);
        vals.push(v);
    }
    SparseMatrix { cols, vals }
}

/// Plain sequential CG, used by tests as the ground truth.
pub fn reference(cfg: CgConfig) -> (f64, f64) {
    let a = build_matrix(cfg);
    let b = vec![1.0; cfg.n];
    let mut x = vec![0.0; cfg.n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    let initial = rho.sqrt();
    for _ in 0..cfg.iters {
        let q: Vec<f64> = (0..cfg.n)
            .map(|i| {
                a.cols[i]
                    .iter()
                    .zip(&a.vals[i])
                    .map(|(&j, &v)| v * p[j as usize])
                    .sum()
            })
            .collect();
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let alpha = rho / pq;
        for i in 0..cfg.n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho2: f64 = r.iter().map(|v| v * v).sum();
        let beta = rho2 / rho;
        rho = rho2;
        for i in 0..cfg.n {
            p[i] = r[i] + beta * p[i];
        }
    }
    (initial, rho.sqrt())
}

/// Runs CG on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: CgConfig, net: NetConfig) -> CgResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs CG once with timing disabled, capturing the rank programs as a
/// timing-free [`WorldTrace`] for multi-lane replay (`bsim-sweepx`).
/// The returned result's report carries no meaningful timing; its
/// functional fields (residuals) are exact.
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: CgConfig,
    net: NetConfig,
) -> (CgResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// CG under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: CgConfig,
    net: NetConfig,
) -> (CgResult, L::Out) {
    use std::sync::Mutex;
    let out: Mutex<(f64, f64)> = Mutex::new((0.0, 0.0));
    let a = build_matrix(cfg);
    let a = &a;

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let n = cfg.n;
        let rows_per = n.div_ceil(ranks);
        let lo = (rank * rows_per).min(n);
        let hi = ((rank + 1) * rows_per).min(n);

        // Virtual addresses of this rank's arrays (for the trace).
        let base = rank_base(rank);
        let addr_cols = base;
        let addr_vals = base + 0x0100_0000;
        let addr_p = base + 0x0200_0000;
        let addr_q = base + 0x0300_0000;
        let addr_rx = base + 0x0400_0000;

        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let mut p = r.clone();
        // rho = r·r over my rows, reduced.
        let local_rho: f64 = r[lo..hi].iter().map(|v| v * v).sum();
        let mut rho = ctx.allreduce_f64(&[local_rho], ReduceOp::Sum)[0];
        let initial = rho.sqrt();

        for _ in 0..cfg.iters {
            // --- q = A p over my rows (the latency-bound gather) -------
            let mut q = vec![0.0; hi - lo];
            let mut nz = 0u64;
            for (qi, i) in (lo..hi).enumerate() {
                let mut acc = 0.0;
                for (&j, &v) in a.cols[i].iter().zip(&a.vals[i]) {
                    acc += v * p[j as usize];
                    nz += 1;
                }
                q[qi] = acc;
            }
            // Trace for the SpMV: per nonzero, a streamed colidx/value
            // load plus the dependent gather of p[col]; per row, a store
            // and loop overhead.
            with_trace(ctx, |g| {
                let mut nzc = 0u64;
                for i in lo..hi {
                    for &j in &a.cols[i] {
                        g.load(addr_vals + nzc * 8);
                        g.gather(addr_cols + nzc * 4, addr_p + (j as u64) * 8);
                        g.flops(2, true); // fused multiply-add chain per row
                        nzc += 1;
                    }
                    g.store(addr_q + ((i - lo) as u64) * 8);
                    g.loop_overhead(3, 1);
                }
                debug_assert_eq!(nzc, nz);
            });

            // --- alpha = rho / (p·q) ------------------------------------
            let local_pq: f64 = (lo..hi).map(|i| p[i] * q[i - lo]).sum();
            with_trace(ctx, |g| {
                for i in 0..(hi - lo) as u64 {
                    g.load(addr_p + (lo as u64 + i) * 8);
                    g.load(addr_q + i * 8);
                    g.flops(2, true);
                }
            });
            let pq = ctx.allreduce_f64(&[local_pq], ReduceOp::Sum)[0];
            let alpha = rho / pq;

            // --- x += alpha p; r -= alpha q; rho' = r·r ------------------
            let mut local_rho2 = 0.0;
            for i in lo..hi {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i - lo];
                local_rho2 += r[i] * r[i];
            }
            with_trace(ctx, |g| {
                for i in 0..(hi - lo) as u64 {
                    g.load(addr_rx + i * 8);
                    g.load(addr_p + (lo as u64 + i) * 8);
                    g.load(addr_q + i * 8);
                    g.flops(6, false);
                    g.store(addr_rx + i * 8);
                    g.loop_overhead(4, 1);
                }
            });
            let rho2 = ctx.allreduce_f64(&[local_rho2], ReduceOp::Sum)[0];
            let beta = rho2 / rho;
            rho = rho2;

            // --- p = r + beta p (my rows), then allgather p --------------
            for i in lo..hi {
                p[i] = r[i] + beta * p[i];
            }
            with_trace(ctx, |g| {
                for i in 0..(hi - lo) as u64 {
                    g.load(addr_rx + i * 8);
                    g.load(addr_p + (lo as u64 + i) * 8);
                    g.flops(2, false);
                    g.store(addr_p + (lo as u64 + i) * 8);
                }
            });
            // Allgather the direction vector (the NPB transpose-exchange
            // equivalent): every rank sends its block to every other.
            if ranks > 1 {
                let mut block = Vec::with_capacity((hi - lo) * 8);
                for &v in &p[lo..hi] {
                    block.extend_from_slice(&v.to_le_bytes());
                }
                let sends: Vec<Vec<u8>> = (0..ranks)
                    .map(|d| if d == rank { Vec::new() } else { block.clone() })
                    .collect();
                let got = ctx.alltoallv(sends);
                for (src, payload) in got.into_iter().enumerate() {
                    if src == rank {
                        continue;
                    }
                    let slo = (src * rows_per).min(n);
                    for (k, c) in payload.chunks_exact(8).enumerate() {
                        p[slo + k] = f64::from_le_bytes(
                            c.try_into().expect("chunks_exact yields full chunks"),
                        );
                    }
                }
            }
        }

        if rank == 0 {
            *out.lock().unwrap_or_else(|e| e.into_inner()) = (initial, rho.sqrt());
        }
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let (initial, residual) = out.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        CgResult {
            report,
            residual,
            initial_residual: initial,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    #[test]
    fn parallel_cg_matches_sequential_reference() {
        let cfg = CgConfig {
            n: 256,
            nnz_per_row: 8,
            iters: 8,
        };
        let (init_ref, res_ref) = reference(cfg);
        let r = run(configs::rocket1(2), 2, cfg, NetConfig::shared_memory());
        assert!((r.initial_residual - init_ref).abs() < 1e-9);
        assert!(
            (r.residual - res_ref).abs() < 1e-9 * res_ref.max(1.0),
            "{} vs {res_ref}",
            r.residual
        );
    }

    #[test]
    fn cg_converges() {
        let cfg = CgConfig {
            n: 256,
            nnz_per_row: 8,
            iters: 10,
        };
        let (init, res) = reference(cfg);
        assert!(
            res < init * 1e-3,
            "CG must reduce the residual: {init} -> {res}"
        );
    }

    #[test]
    fn cg_generates_gather_traffic() {
        let cfg = CgConfig {
            n: 512,
            nnz_per_row: 8,
            iters: 3,
        };
        let r = run(configs::large_boom(1), 1, cfg, NetConfig::shared_memory());
        let s = &r.report.run.mem_stats;
        assert!(
            s.l1d_accesses > 50_000,
            "SpMV must load heavily, got {}",
            s.l1d_accesses
        );
    }

    #[test]
    fn cg_multirank_is_deterministic() {
        let cfg = CgConfig {
            n: 256,
            nnz_per_row: 8,
            iters: 4,
        };
        let a = run(configs::rocket1(4), 4, cfg, NetConfig::shared_memory());
        let b = run(configs::rocket1(4), 4, cfg, NetConfig::shared_memory());
        assert_eq!(a.report.run.cycles, b.report.run.cycles);
        assert_eq!(a.residual, b.residual);
    }
}
