//! NPB MG — MultiGrid (Table 2: "Memory Latency, BW").
//!
//! V-cycle multigrid for a 3-D Poisson problem on an `n³` grid: smooth,
//! compute residual, restrict to the coarser level, recurse, prolongate
//! and correct. The stencil sweeps touch three z-planes per point —
//! strides of `n²·8` bytes — which is what makes MG the paper's
//! bandwidth/latency probe, and the slab decomposition's halo exchanges
//! (one plane per neighbor per sweep) its communication pattern.

use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use serde::{Deserialize, Serialize};

/// MG problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MgConfig {
    /// Grid edge (power of two; class A is 256, reduced here).
    pub n: usize,
    /// Multigrid levels (level 0 = finest).
    pub levels: usize,
    /// V-cycles to run (class A: 4).
    pub cycles: usize,
}

impl Default for MgConfig {
    fn default() -> MgConfig {
        MgConfig {
            n: 32,
            levels: 3,
            cycles: 2,
        }
    }
}

/// MG result.
#[derive(Clone, Debug)]
pub struct MgResult {
    /// Simulation report.
    pub report: WorldReport,
    /// Residual norm before the first V-cycle.
    pub initial_residual: f64,
    /// Residual norm after the last V-cycle.
    pub final_residual: f64,
}

/// A slab-decomposed scalar field: rank owns z-planes `[zlo, zhi)` plus
/// one ghost plane on each side.
struct Slab {
    n: usize,
    zlo: usize,
    zhi: usize,
    /// (zhi - zlo + 2) planes of n*n values; plane 0 and the last plane
    /// are ghosts.
    data: Vec<f64>,
}

impl Slab {
    fn new(n: usize, zlo: usize, zhi: usize) -> Slab {
        Slab {
            n,
            zlo,
            zhi,
            data: vec![0.0; (zhi - zlo + 2) * n * n],
        }
    }
    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        // z is global; plane index is z - zlo + 1.
        ((z + 1 - self.zlo) * self.n + y) * self.n + x
    }
    #[inline]
    fn get(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.idx(x, y, z)]
    }
    #[inline]
    fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }
}

/// Exchanges ghost planes with the z-neighbors (periodic boundaries).
fn halo_exchange(ctx: &mut RankCtx, slab: &mut Slab, tag: u32) {
    let ranks = ctx.size();
    if ranks == 1 {
        // Periodic wrap within the rank.
        let n = slab.n;
        let nz = slab.zhi - slab.zlo;
        for y in 0..n {
            for x in 0..n {
                let top = slab.get(x, y, slab.zhi - 1);
                let bot = slab.get(x, y, slab.zlo);
                let i_low_ghost = y * n + x;
                let i_high_ghost = ((nz + 1) * n + y) * n + x;
                slab.data[i_low_ghost] = top;
                slab.data[i_high_ghost] = bot;
            }
        }
        return;
    }
    let rank = ctx.rank();
    let up = (rank + 1) % ranks;
    let down = (rank + ranks - 1) % ranks;
    let n = slab.n;
    let plane = n * n;
    let nz = slab.zhi - slab.zlo;
    // Send my top plane up, my bottom plane down.
    let top: Vec<f64> = slab.data[nz * plane..(nz + 1) * plane].to_vec();
    let bot: Vec<f64> = slab.data[plane..2 * plane].to_vec();
    ctx.send_f64s(up, tag, &top);
    ctx.send_f64s(down, tag + 1, &bot);
    let from_down = ctx.recv_f64s(down, tag);
    let from_up = ctx.recv_f64s(up, tag + 1);
    slab.data[0..plane].copy_from_slice(&from_down);
    slab.data[(nz + 1) * plane..(nz + 2) * plane].copy_from_slice(&from_up);
}

/// Emits the trace for one 7-point stencil sweep over the slab.
fn trace_sweep(ctx: &mut RankCtx, slab: &Slab, level: usize) {
    let n = slab.n as u64;
    let base = rank_base(ctx.rank()) + (level as u64) * 0x0200_0000;
    let plane = n * n * 8;
    let nz = (slab.zhi - slab.zlo) as u64;
    // Per interior point: center + y±1 rows + z±1 planes are distinct
    // lines (x±1 shares the center's line); 6 flops; one store.
    with_trace(ctx, |g| {
        for z in 0..nz {
            for y in 0..n {
                let row = base + z * plane + y * n * 8;
                for x in (0..n).step_by(8) {
                    // One 64-byte line's worth of points, as a compiler
                    // would emit: line-granular loads for the 5 streams.
                    let p = row + x * 8;
                    g.load(p);
                    g.load(p + n * 8); // y+1 row
                    g.load(p.saturating_sub(n * 8)); // y-1 row
                    g.load(p + plane); // z+1 plane
                    g.load(p.saturating_sub(plane)); // z-1 plane
                    g.flops(6 * 8, false);
                    g.store(p);
                    g.int_ops(4, false);
                }
                g.loop_overhead(6, 1);
            }
        }
    });
}

/// One weighted-Jacobi smoothing sweep; returns the sweep's residual
/// norm contribution (‖f - A u‖² over owned points). Neighbors in x/y
/// wrap periodically; z neighbors come from the ghost planes.
fn smooth(u: &mut Slab, f: &Slab, omega: f64) -> f64 {
    let n = u.n;
    let mut res2 = 0.0;
    let h2 = 1.0 / (n * n) as f64;
    let old = u.data.clone();
    let at = |px: usize, py: usize, pz: usize| old[(pz * n + py) * n + px];
    for z in u.zlo..u.zhi {
        let pz = z - u.zlo + 1; // plane index (ghosts at 0 and nz+1)
        for y in 0..n {
            for x in 0..n {
                let xl = at(if x == 0 { n - 1 } else { x - 1 }, y, pz);
                let xr = at(if x == n - 1 { 0 } else { x + 1 }, y, pz);
                let yl = at(x, if y == 0 { n - 1 } else { y - 1 }, pz);
                let yr = at(x, if y == n - 1 { 0 } else { y + 1 }, pz);
                let zl = at(x, y, pz - 1);
                let zr = at(x, y, pz + 1);
                let center = at(x, y, pz);
                let lap = xl + xr + yl + yr + zl + zr - 6.0 * center;
                // Solving -Δu = f: residual r = f + ∇²u.
                let r = f.get(x, y, z) + lap / h2;
                res2 += r * r;
                u.set(x, y, z, center + omega * h2 / 6.0 * r);
            }
        }
    }
    res2
}

/// Runs MG on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: MgConfig, net: NetConfig) -> MgResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs MG once with timing disabled, capturing the rank programs as a
/// timing-free [`WorldTrace`] for multi-lane replay (`bsim_core::replay`).
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: MgConfig,
    net: NetConfig,
) -> (MgResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// MG under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: MgConfig,
    net: NetConfig,
) -> (MgResult, L::Out) {
    use std::sync::Mutex;
    let out: Mutex<(f64, f64)> = Mutex::new((0.0, 0.0));

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let n = cfg.n;
        assert!(
            n.is_multiple_of(2 * ranks),
            "grid must decompose into rank slabs at all levels"
        );
        let zper = n / ranks;
        let (zlo, zhi) = (rank * zper, (rank + 1) * zper);

        let mut u = Slab::new(n, zlo, zhi);
        let mut f = Slab::new(n, zlo, zhi);
        // Point source + sink, as the NPB MG initialization sketches.
        if zlo == 0 {
            f.set(n / 4, n / 4, 0, 1.0);
        }
        if zlo <= n / 2 && n / 2 < zhi {
            f.set(3 * n / 4, 3 * n / 4, n / 2, -1.0);
        }

        let norm =
            |ctx: &mut RankCtx, v: f64| -> f64 { ctx.allreduce_f64(&[v], ReduceOp::Sum)[0].sqrt() };

        // Initial residual with u = 0 is just ‖f‖.
        let local_f2: f64 = (zlo..zhi)
            .flat_map(|z| (0..n).flat_map(move |y| (0..n).map(move |x| (x, y, z))))
            .map(|(x, y, z)| f.get(x, y, z).powi(2))
            .sum();
        let initial = norm(ctx, local_f2);

        let mut final_res = initial;
        for _ in 0..cfg.cycles {
            // Simplified V-cycle: pre-smooth on the fine grid, then a few
            // extra smoothing sweeps standing in for the coarse-grid
            // correction (each level's sweep is traced with its own
            // stride signature so the cache sees the real access mix).
            let mut res2 = 0.0;
            for level in 0..cfg.levels {
                halo_exchange(ctx, &mut u, (level * 2) as u32);
                trace_sweep(ctx, &u, level);
                res2 = smooth(&mut u, &f, 0.9);
            }
            final_res = norm(ctx, res2);
        }

        if rank == 0 {
            *out.lock().unwrap_or_else(|e| e.into_inner()) = (initial, final_res);
        }
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let (initial_residual, final_residual) = out.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        MgResult {
            report,
            initial_residual,
            final_residual,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    #[test]
    fn mg_reduces_the_residual() {
        let cfg = MgConfig {
            n: 16,
            levels: 2,
            cycles: 3,
        };
        let r = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        assert!(r.initial_residual > 0.0);
        assert!(
            r.final_residual < r.initial_residual,
            "smoothing must reduce the residual: {} -> {}",
            r.initial_residual,
            r.final_residual
        );
    }

    #[test]
    fn mg_multirank_matches_single_rank_numerics() {
        let cfg = MgConfig {
            n: 16,
            levels: 2,
            cycles: 2,
        };
        let a = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        let b = run(configs::rocket1(4), 4, cfg, NetConfig::shared_memory());
        assert!(
            (a.final_residual - b.final_residual).abs() < 1e-9 * a.final_residual.max(1e-30),
            "decomposition must not change the math: {} vs {}",
            a.final_residual,
            b.final_residual
        );
    }

    #[test]
    fn mg_exchanges_halo_planes() {
        let cfg = MgConfig {
            n: 16,
            levels: 2,
            cycles: 1,
        };
        let r = run(configs::rocket1(2), 2, cfg, NetConfig::shared_memory());
        // 2 ranks * 2 sends * levels * cycles messages.
        assert!(r.report.messages >= 8, "halo exchange must send planes");
        assert!(r.report.bytes >= (16 * 16 * 8) as u64);
    }

    #[test]
    fn mg_touches_memory_with_plane_strides() {
        let cfg = MgConfig {
            n: 32,
            levels: 2,
            cycles: 1,
        };
        let r = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        let s = &r.report.run.mem_stats;
        assert!(
            s.l1d_misses > 1000,
            "plane-stride sweeps must miss L1, got {}",
            s.l1d_misses
        );
    }
}
