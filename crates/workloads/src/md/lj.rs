//! The LAMMPS *Lennard-Jones melt* benchmark (Figure 6).
//!
//! FCC lattice at reduced density 0.8442, LJ 6-12 potential with cutoff
//! 2.5σ, velocity-Verlet NVE integration. Atom blocks are distributed
//! over ranks; every step ends with a position allgather (the LAMMPS
//! slab-halo pattern carries less data but the same per-step
//! synchronization structure — see DESIGN.md §2).

use crate::md::common::{
    fcc_lattice, trace_force, trace_integrate, trace_pair, CellList, MdAddrs, System,
};
use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use serde::{Deserialize, Serialize};

/// LJ melt problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LjConfig {
    /// FCC cells per edge (atoms = 4·cells³; the paper runs 32,000 atoms
    /// for 100 steps — reduced here per DESIGN.md §5).
    pub cells: usize,
    /// Timesteps.
    pub steps: usize,
    /// Reduced density (LAMMPS melt: 0.8442).
    pub density: f64,
    /// Timestep (LAMMPS melt: 0.005).
    pub dt: f64,
}

impl Default for LjConfig {
    fn default() -> LjConfig {
        LjConfig {
            cells: 5,
            steps: 8,
            density: 0.8442,
            dt: 0.005,
        }
    }
}

/// LJ melt result.
#[derive(Clone, Debug)]
pub struct LjResult {
    /// Simulation report.
    pub report: WorldReport,
    /// Total energy at step 0 (after the first force evaluation).
    pub initial_energy: f64,
    /// Total energy after the last step.
    pub final_energy: f64,
    /// Atom count.
    pub atoms: usize,
}

const CUTOFF: f64 = 2.5;

/// LJ force magnitude over r (f/r) and pair energy at squared distance
/// `r2` (ε = σ = 1), with the standard cutoff.
#[inline]
fn lj_pair(r2: f64) -> (f64, f64) {
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let f_over_r = 48.0 * inv_r2 * inv_r6 * (inv_r6 - 0.5);
    let e = 4.0 * inv_r6 * (inv_r6 - 1.0);
    (f_over_r, e)
}

/// Computes forces for atoms `[lo, hi)` against all atoms; returns the
/// potential energy attributed to those atoms (half per pair).
fn compute_forces(
    sys: &mut System,
    cl: &CellList,
    lo: usize,
    hi: usize,
) -> (f64, Vec<(u64, u32, bool)>) {
    let mut pe = 0.0;
    let mut pair_log = Vec::new();
    let c2 = CUTOFF * CUTOFF;
    for i in lo..hi {
        let mut f = [0.0; 3];
        let mut cand_idx = 0u64;
        let mut candidates = Vec::new();
        cl.for_candidates(sys, i, |j| candidates.push(j));
        for j in candidates {
            if j as usize == i {
                continue;
            }
            let d = sys.delta(i, j as usize);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let within = r2 < c2;
            pair_log.push((cand_idx, j, within));
            cand_idx += 1;
            if within {
                let (f_over_r, e) = lj_pair(r2);
                for k in 0..3 {
                    f[k] -= f_over_r * d[k];
                }
                pe += 0.5 * e;
            }
        }
        sys.force[i] = f;
    }
    (pe, pair_log)
}

/// Runs the LJ melt on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: LjConfig, net: NetConfig) -> LjResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs the LJ melt once with timing disabled, capturing the rank
/// programs as a timing-free [`WorldTrace`] for multi-lane replay
/// (`bsim-sweepx`).
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: LjConfig,
    net: NetConfig,
) -> (LjResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// The LJ melt under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: LjConfig,
    net: NetConfig,
) -> (LjResult, L::Out) {
    use std::sync::Mutex;
    let out: Mutex<(f64, f64)> = Mutex::new((0.0, 0.0));
    let atoms = 4 * cfg.cells * cfg.cells * cfg.cells;

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let mut sys = fcc_lattice(cfg.cells, cfg.density);
        let n = sys.len();
        let per = n.div_ceil(ranks);
        let (lo, hi) = ((rank * per).min(n), ((rank + 1) * per).min(n));
        let addrs = MdAddrs::new(rank_base(rank));

        let mut energy_first = 0.0;
        let mut energy_last = 0.0;
        for step in 0..cfg.steps {
            // --- neighbor structure ------------------------------------
            let cl = CellList::build(&sys, CUTOFF);
            with_trace(ctx, |g| {
                // Binning: one pass of load + int ops + store per atom.
                for i in 0..n as u64 {
                    g.load(addrs.pos + i * 24);
                    g.int_ops(6, false);
                    g.store(addrs.cells + (i % 4096) * 8);
                }
            });

            // --- forces over my block -----------------------------------
            let (pe_local, pair_log) = compute_forces(&mut sys, &cl, lo, hi);
            with_trace(ctx, |g| {
                for &(ci, j, within) in &pair_log {
                    trace_pair(g, addrs, ci, j, within);
                    if within {
                        trace_force(g, addrs, j as u64 % (n as u64));
                    }
                }
            });

            // --- energy bookkeeping (step 0 and the last step) ----------
            if step == 0 || step == cfg.steps - 1 {
                let ke_local: f64 = (lo..hi)
                    .map(|i| {
                        0.5 * (sys.vel[i][0].powi(2)
                            + sys.vel[i][1].powi(2)
                            + sys.vel[i][2].powi(2))
                    })
                    .sum();
                let tot = ctx.allreduce_f64(&[pe_local, ke_local], ReduceOp::Sum);
                let e = tot[0] + tot[1];
                if step == 0 {
                    energy_first = e;
                } else {
                    energy_last = e;
                }
            }

            // --- integrate my block (velocity Verlet, single force eval:
            // standard leapfrog-equivalent kick-drift) --------------------
            for i in lo..hi {
                for k in 0..3 {
                    sys.vel[i][k] += cfg.dt * sys.force[i][k];
                    sys.pos[i][k] += cfg.dt * sys.vel[i][k];
                    sys.pos[i][k] = sys.pos[i][k].rem_euclid(sys.box_len);
                }
            }
            with_trace(ctx, |g| {
                for i in lo..hi {
                    trace_integrate(g, addrs, i as u64);
                    g.loop_overhead(21, 1);
                }
            });

            // --- position allgather (the per-step communication) ---------
            if ranks > 1 {
                let mut block = Vec::with_capacity((hi - lo) * 24);
                for p in &sys.pos[lo..hi] {
                    for c in p {
                        block.extend_from_slice(&c.to_le_bytes());
                    }
                }
                let sends: Vec<Vec<u8>> = (0..ranks)
                    .map(|d| if d == rank { Vec::new() } else { block.clone() })
                    .collect();
                let got = ctx.alltoallv(sends);
                for (src, payload) in got.into_iter().enumerate() {
                    if src == rank {
                        continue;
                    }
                    let slo = (src * per).min(n);
                    for (k, c) in payload.chunks_exact(8).enumerate() {
                        sys.pos[slo + k / 3][k % 3] = f64::from_le_bytes(
                            c.try_into().expect("chunks_exact yields full chunks"),
                        );
                    }
                }
            }
        }

        if rank == 0 {
            *out.lock().unwrap_or_else(|e| e.into_inner()) = (energy_first, energy_last);
        }
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let (initial_energy, final_energy) = out.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        LjResult {
            report,
            initial_energy,
            final_energy,
            atoms,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    #[test]
    fn energy_is_approximately_conserved() {
        let cfg = LjConfig {
            cells: 3,
            steps: 6,
            ..LjConfig::default()
        };
        let r = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        let drift = (r.final_energy - r.initial_energy).abs() / r.initial_energy.abs().max(1.0);
        assert!(
            drift < 0.05,
            "NVE drift too large: {} -> {}",
            r.initial_energy,
            r.final_energy
        );
        assert_eq!(r.atoms, 108);
    }

    #[test]
    fn lattice_energy_is_negative() {
        // A near-equilibrium LJ crystal is strongly bound.
        let cfg = LjConfig {
            cells: 3,
            steps: 2,
            ..LjConfig::default()
        };
        let r = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        assert!(
            r.initial_energy < 0.0,
            "LJ crystal must be bound, got {}",
            r.initial_energy
        );
    }

    #[test]
    fn multirank_energies_match_single_rank() {
        let cfg = LjConfig {
            cells: 3,
            steps: 4,
            ..LjConfig::default()
        };
        let a = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        let b = run(configs::rocket1(2), 2, cfg, NetConfig::shared_memory());
        assert!(
            (a.final_energy - b.final_energy).abs() < 1e-6 * a.final_energy.abs(),
            "{} vs {}",
            a.final_energy,
            b.final_energy
        );
    }

    #[test]
    fn lj_scales_with_ranks() {
        let cfg = LjConfig {
            cells: 4,
            steps: 3,
            ..LjConfig::default()
        };
        let t1 = run(configs::large_boom(1), 1, cfg, NetConfig::shared_memory())
            .report
            .run
            .cycles;
        let t4 = run(configs::large_boom(4), 4, cfg, NetConfig::shared_memory())
            .report
            .run
            .cycles;
        assert!(
            (t1 as f64) > 1.8 * t4 as f64,
            "4 ranks should speed up the melt: {t1} vs {t4}"
        );
    }
}
