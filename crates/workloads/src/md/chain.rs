//! The LAMMPS *polymer Chain* benchmark (Figure 7).
//!
//! Bead-spring chains (Kremer–Grest): FENE bonds between consecutive
//! beads of each chain plus a purely repulsive WCA pair interaction
//! between all beads. Compared to the LJ melt, the pair loop is cheaper
//! (cutoff 2^{1/6}σ) and the bond loop adds serial, bond-stride memory
//! traffic — which is why the paper's Chain runtimes are lower than LJ's
//! at the same atom count.

use crate::md::common::{
    sc_lattice, trace_force, trace_integrate, trace_pair, CellList, MdAddrs, System,
};
use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use serde::{Deserialize, Serialize};

/// Chain problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Beads per box edge (beads = cells³, simple-cubic, chains along x).
    pub cells: usize,
    /// Beads per chain (consecutive atom ids form a chain).
    pub chain_len: usize,
    /// Timesteps.
    pub steps: usize,
    /// Reduced density (LAMMPS chain: 0.85).
    pub density: f64,
    /// Timestep.
    pub dt: f64,
}

impl Default for ChainConfig {
    fn default() -> ChainConfig {
        ChainConfig {
            cells: 12,
            chain_len: 12,
            steps: 10,
            density: 0.85,
            dt: 0.003,
        }
    }
}

/// Chain result.
#[derive(Clone, Debug)]
pub struct ChainResult {
    /// Simulation report.
    pub report: WorldReport,
    /// Total energy after the first force evaluation.
    pub initial_energy: f64,
    /// Total energy after the last step.
    pub final_energy: f64,
    /// Bead count.
    pub atoms: usize,
    /// Maximum bond extension observed (must stay < R0).
    pub max_bond: f64,
}

/// WCA cutoff (2^(1/6) σ).
const WCA_CUT: f64 = 1.122462048309373;
/// FENE maximum extension.
const FENE_R0: f64 = 1.5;
/// FENE spring constant.
const FENE_K: f64 = 30.0;

#[inline]
fn wca_pair(r2: f64) -> (f64, f64) {
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let f_over_r = 48.0 * inv_r2 * inv_r6 * (inv_r6 - 0.5);
    let e = 4.0 * inv_r6 * (inv_r6 - 1.0) + 1.0; // shifted to 0 at cutoff
    (f_over_r, e)
}

#[inline]
fn fene_bond(r2: f64) -> (f64, f64) {
    let r02 = FENE_R0 * FENE_R0;
    let x = (r2 / r02).min(0.99);
    let f_over_r = -FENE_K / (1.0 - x);
    let e = -0.5 * FENE_K * r02 * (1.0 - x).ln();
    (f_over_r, e)
}

/// Runs the Chain benchmark on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: ChainConfig, net: NetConfig) -> ChainResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs the polymer chain once with timing disabled, capturing the rank
/// programs as a timing-free [`WorldTrace`] for multi-lane replay
/// (`bsim_core::replay`).
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: ChainConfig,
    net: NetConfig,
) -> (ChainResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// The Chain benchmark under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: ChainConfig,
    net: NetConfig,
) -> (ChainResult, L::Out) {
    use std::sync::Mutex;
    let out: Mutex<(f64, f64, f64)> = Mutex::new((0.0, 0.0, 0.0));
    let atoms = cfg.cells * cfg.cells * cfg.cells;

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let mut sys: System = sc_lattice(cfg.cells, cfg.density);
        let n = sys.len();
        let per = n.div_ceil(ranks);
        let (lo, hi) = ((rank * per).min(n), ((rank + 1) * per).min(n));
        let addrs = MdAddrs::new(rank_base(rank));
        let c2 = WCA_CUT * WCA_CUT;

        let row = cfg.cells; // beads per x-row of the lattice
        let bonded = move |i: usize, j: usize| -> bool {
            // Chains run along x-rows; consecutive beads of the same
            // chain segment within one row are bonded.
            i.abs_diff(j) == 1
                && i / row == j / row
                && (i % row) / cfg.chain_len == (j % row) / cfg.chain_len
        };

        let mut e_first = 0.0;
        let mut e_last = 0.0;
        let mut max_bond: f64 = 0.0;
        for step in 0..cfg.steps {
            let cl = CellList::build(&sys, WCA_CUT.max(FENE_R0));
            with_trace(ctx, |g| {
                for i in 0..n as u64 {
                    g.load(addrs.pos + i * 24);
                    g.int_ops(6, false);
                    g.store(addrs.cells + (i % 4096) * 8);
                }
            });

            // --- pair + bond forces over my block -----------------------
            let mut pe = 0.0;
            let mut pair_log: Vec<(u64, u32, bool)> = Vec::new();
            let mut bond_count = 0u64;
            for i in lo..hi {
                let mut f = [0.0; 3];
                let mut ci = 0u64;
                let mut candidates = Vec::new();
                cl.for_candidates(&sys, i, |j| candidates.push(j));
                for j in candidates {
                    let j = j as usize;
                    if j == i || bonded(i, j) {
                        continue;
                    }
                    let d = sys.delta(i, j);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    let within = r2 < c2;
                    pair_log.push((ci, j as u32, within));
                    ci += 1;
                    if within {
                        let (f_over_r, e) = wca_pair(r2);
                        for k in 0..3 {
                            f[k] -= f_over_r * d[k];
                        }
                        pe += 0.5 * e;
                    }
                }
                // FENE bonds with the chain neighbors.
                for j in [i.wrapping_sub(1), i + 1] {
                    if j < n && bonded(i, j) {
                        let d = sys.delta(i, j);
                        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        max_bond = max_bond.max(r2.sqrt());
                        let (f_over_r, e) = fene_bond(r2);
                        for k in 0..3 {
                            f[k] -= f_over_r * d[k];
                        }
                        pe += 0.5 * e;
                        bond_count += 1;
                    }
                }
                sys.force[i] = f;
            }
            with_trace(ctx, |g| {
                for &(ci, j, within) in &pair_log {
                    trace_pair(g, addrs, ci, j, within);
                    if within {
                        trace_force(g, addrs, j as u64 % (n as u64));
                    }
                }
                // Bond loop: fixed-stride neighbor loads + ln/div-heavy
                // FENE evaluation.
                for b in 0..bond_count {
                    g.load(addrs.pos + (b % n as u64) * 24);
                    g.flops(8, false);
                    g.fdiv();
                    g.flops(4, true);
                    g.store(addrs.force + (b % n as u64) * 24);
                }
            });

            if step == 0 || step == cfg.steps - 1 {
                let ke_local: f64 = (lo..hi)
                    .map(|i| {
                        0.5 * (sys.vel[i][0].powi(2)
                            + sys.vel[i][1].powi(2)
                            + sys.vel[i][2].powi(2))
                    })
                    .sum();
                let tot = ctx.allreduce_f64(&[pe, ke_local], ReduceOp::Sum);
                if step == 0 {
                    e_first = tot[0] + tot[1];
                } else {
                    e_last = tot[0] + tot[1];
                }
            }

            // --- integrate + exchange ------------------------------------
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
                    g.loop_overhead(22, 1);
                }
            });
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

        // Reduce max bond extension for the sanity check.
        let mb = ctx.allreduce_f64(&[max_bond], ReduceOp::Max)[0];
        if rank == 0 {
            *out.lock().unwrap_or_else(|e| e.into_inner()) = (e_first, e_last, mb);
        }
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let (initial_energy, final_energy, max_bond) =
        out.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        ChainResult {
            report,
            initial_energy,
            final_energy,
            atoms,
            max_bond,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    fn tiny() -> ChainConfig {
        ChainConfig {
            cells: 6,
            chain_len: 6,
            steps: 5,
            ..ChainConfig::default()
        }
    }

    #[test]
    fn bonds_stay_below_fene_maximum() {
        let r = run(configs::rocket1(1), 1, tiny(), NetConfig::shared_memory());
        assert!(r.max_bond > 0.0, "bonds must exist");
        assert!(
            r.max_bond < FENE_R0,
            "FENE must cap extension: {}",
            r.max_bond
        );
    }

    #[test]
    fn chain_energy_bounded() {
        let r = run(configs::rocket1(1), 1, tiny(), NetConfig::shared_memory());
        let drift = (r.final_energy - r.initial_energy).abs() / r.initial_energy.abs().max(1.0);
        assert!(
            drift < 0.25,
            "chain drift: {} -> {}",
            r.initial_energy,
            r.final_energy
        );
    }

    #[test]
    fn multirank_matches_single_rank() {
        let a = run(configs::rocket1(1), 1, tiny(), NetConfig::shared_memory());
        let b = run(configs::rocket1(2), 2, tiny(), NetConfig::shared_memory());
        assert!(
            (a.final_energy - b.final_energy).abs() < 1e-6 * a.final_energy.abs().max(1.0),
            "{} vs {}",
            a.final_energy,
            b.final_energy
        );
    }

    #[test]
    fn chain_is_cheaper_than_lj_per_step() {
        use crate::md::lj::{self, LjConfig};
        // Compare at matched atom counts: 4*5^3 = 500 vs 8^3 = 512.
        let lj_cfg = LjConfig {
            cells: 5,
            steps: 3,
            ..LjConfig::default()
        };
        let ch_cfg = ChainConfig {
            cells: 8,
            chain_len: 8,
            steps: 3,
            ..ChainConfig::default()
        };
        let t_lj = lj::run(
            configs::large_boom(1),
            1,
            lj_cfg,
            NetConfig::shared_memory(),
        )
        .report
        .run
        .cycles;
        let t_ch = run(
            configs::large_boom(1),
            1,
            ch_cfg,
            NetConfig::shared_memory(),
        )
        .report
        .run
        .cycles;
        assert!(
            t_ch < t_lj,
            "the short WCA cutoff must make Chain cheaper: {t_ch} vs {t_lj}"
        );
    }
}
