//! UME — Unstructured Mesh Explorations (LANL proxy app, §3.2.3).
//!
//! Builds a 3-D hexahedral mesh with *explicit* connectivity — zones,
//! points, faces, and corners (one corner per zone-point incidence) —
//! and runs the paper's three kernels:
//!
//! 1. the **original** gather kernel: zone-centered accumulation of
//!    point values through the zone→corner→point maps,
//! 2. the **inverted** kernel: the same sum driven from the corner side,
//! 3. the **face-area** kernel: per-face normal-area from point
//!    coordinates (cross products).
//!
//! The multi-level indirection (`zone → corner → point → value`) is what
//! gives UME its signature: "very high integer operation counts, very
//! high load/store ratios, and low floating-point intensity". Runtimes
//! reported by the paper (Figure 5) are the sum of the three kernels.

use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use serde::{Deserialize, Serialize};

/// UME problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct UmeConfig {
    /// Zones per edge (the paper runs 32³ = 32,768 zones; reduced here).
    pub n: usize,
    /// Repetitions of the three-kernel sequence.
    pub passes: usize,
}

impl Default for UmeConfig {
    fn default() -> UmeConfig {
        UmeConfig { n: 12, passes: 2 }
    }
}

/// UME result.
#[derive(Clone, Debug)]
pub struct UmeResult {
    /// Simulation report.
    pub report: WorldReport,
    /// Global sum of the gather kernel (kernels 1 and 2 must agree).
    pub gather_sum: f64,
    /// Same sum from the inverted kernel.
    pub inverted_sum: f64,
    /// Total face area of the mesh surface + interior faces.
    pub total_face_area: f64,
}

/// The explicit-connectivity hexahedral mesh.
struct Mesh {
    /// zone → 8 corner ids.
    zone_corners: Vec<[u32; 8]>,
    /// corner → point id.
    corner_point: Vec<u32>,
    /// face → 4 point ids.
    face_points: Vec<[u32; 4]>,
    /// Point coordinates.
    points: Vec<[f64; 3]>,
}

/// Builds the `n³`-zone structured-as-unstructured mesh.
fn build_mesh(n: usize) -> Mesh {
    let np = n + 1;
    let pid = |x: usize, y: usize, z: usize| ((z * np + y) * np + x) as u32;
    let mut points = Vec::with_capacity(np * np * np);
    for z in 0..np {
        for y in 0..np {
            for x in 0..np {
                points.push([x as f64, y as f64, z as f64]);
            }
        }
    }
    let mut zone_corners = Vec::with_capacity(n * n * n);
    let mut corner_point = Vec::with_capacity(8 * n * n * n);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let p = [
                    pid(x, y, z),
                    pid(x + 1, y, z),
                    pid(x + 1, y + 1, z),
                    pid(x, y + 1, z),
                    pid(x, y, z + 1),
                    pid(x + 1, y, z + 1),
                    pid(x + 1, y + 1, z + 1),
                    pid(x, y + 1, z + 1),
                ];
                let base = corner_point.len() as u32;
                let mut corners = [0u32; 8];
                for (k, &point) in p.iter().enumerate() {
                    corners[k] = base + k as u32;
                    corner_point.push(point);
                }
                zone_corners.push(corners);
            }
        }
    }
    // Faces: the three axis-aligned families (interior + boundary).
    let mut face_points = Vec::new();
    for z in 0..n {
        for y in 0..n {
            for x in 0..=n {
                face_points.push([
                    pid(x, y, z),
                    pid(x, y + 1, z),
                    pid(x, y + 1, z + 1),
                    pid(x, y, z + 1),
                ]);
            }
        }
    }
    for z in 0..n {
        for y in 0..=n {
            for x in 0..n {
                face_points.push([
                    pid(x, y, z),
                    pid(x + 1, y, z),
                    pid(x + 1, y, z + 1),
                    pid(x, y, z + 1),
                ]);
            }
        }
    }
    for z in 0..=n {
        for y in 0..n {
            for x in 0..n {
                face_points.push([
                    pid(x, y, z),
                    pid(x + 1, y, z),
                    pid(x + 1, y + 1, z),
                    pid(x, y + 1, z),
                ]);
            }
        }
    }
    Mesh {
        zone_corners,
        corner_point,
        face_points,
        points,
    }
}

fn quad_area(p: [[f64; 3]; 4]) -> f64 {
    // Area via the cross product of the diagonals (planar quads here).
    let d1 = [p[2][0] - p[0][0], p[2][1] - p[0][1], p[2][2] - p[0][2]];
    let d2 = [p[3][0] - p[1][0], p[3][1] - p[1][1], p[3][2] - p[1][2]];
    let cx = d1[1] * d2[2] - d1[2] * d2[1];
    let cy = d1[2] * d2[0] - d1[0] * d2[2];
    let cz = d1[0] * d2[1] - d1[1] * d2[0];
    0.5 * (cx * cx + cy * cy + cz * cz).sqrt()
}

/// Runs UME on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: UmeConfig, net: NetConfig) -> UmeResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs UME once with timing disabled, capturing the rank programs as a
/// timing-free [`WorldTrace`] for multi-lane replay (`bsim-sweepx`).
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: UmeConfig,
    net: NetConfig,
) -> (UmeResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// UME under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: UmeConfig,
    net: NetConfig,
) -> (UmeResult, L::Out) {
    use std::sync::Mutex;
    let out: Mutex<(f64, f64, f64)> = Mutex::new((0.0, 0.0, 0.0));
    let mesh = build_mesh(cfg.n);
    let mesh = &mesh;

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let nz = mesh.zone_corners.len();
        let zper = nz.div_ceil(ranks);
        let (zlo, zhi) = ((rank * zper).min(nz), ((rank + 1) * zper).min(nz));
        let nf = mesh.face_points.len();
        let fper = nf.div_ceil(ranks);
        let (flo, fhi) = ((rank * fper).min(nf), ((rank + 1) * fper).min(nf));

        // Point field gathered by the kernels: value = x + 2y + 3z.
        let pval: Vec<f64> = mesh
            .points
            .iter()
            .map(|p| p[0] + 2.0 * p[1] + 3.0 * p[2])
            .collect();

        let base = rank_base(rank);
        let a_zc = base; // zone→corner map
        let a_cp = base + 0x0100_0000; // corner→point map
        let a_pv = base + 0x0200_0000; // point values
        let a_zs = base + 0x0300_0000; // zone sums
        let a_fp = base + 0x0400_0000; // face→point map
        let a_px = base + 0x0500_0000; // point coords

        let mut gather = 0.0;
        let mut inverted = 0.0;
        let mut area = 0.0;
        for _ in 0..cfg.passes {
            // --- kernel 1: original (zone-driven gather) ----------------
            gather = 0.0;
            for zi in zlo..zhi {
                let mut acc = 0.0;
                for &c in &mesh.zone_corners[zi] {
                    acc += pval[mesh.corner_point[c as usize] as usize];
                }
                gather += acc;
            }
            with_trace(ctx, |g| {
                for zi in zlo..zhi {
                    for &c in &mesh.zone_corners[zi] {
                        // zone→corner is streamed; corner→point and
                        // point→value are dependent gathers.
                        g.load(a_zc + (zi as u64) * 32 + (c as u64 % 8) * 4);
                        g.gather(
                            a_cp + (c as u64) * 4,
                            a_pv + (mesh.corner_point[c as usize] as u64) * 8,
                        );
                        g.int_ops(3, false);
                        g.flops(1, true);
                    }
                    g.store(a_zs + (zi as u64) * 8);
                    g.loop_overhead(10, 1);
                }
            });

            // --- kernel 2: inverted (corner-driven scatter) --------------
            inverted = 0.0;
            for zi in zlo..zhi {
                for &c in &mesh.zone_corners[zi] {
                    inverted += pval[mesh.corner_point[c as usize] as usize];
                }
            }
            with_trace(ctx, |g| {
                let clo = (zlo * 8) as u64;
                let chi = (zhi * 8) as u64;
                for c in clo..chi {
                    let point = mesh.corner_point[c as usize] as u64;
                    g.load(a_cp + c * 4);
                    g.gather(a_cp + c * 4, a_pv + point * 8);
                    // Scatter: read-modify-write of the owning zone's sum.
                    let zone = c / 8;
                    g.load(a_zs + zone * 8);
                    g.flops(1, false);
                    g.store(a_zs + zone * 8);
                    g.int_ops(4, false);
                    g.loop_overhead(11, 1);
                }
            });

            // --- kernel 3: face areas --------------------------------------
            area = 0.0;
            for fi in flo..fhi {
                let ps = mesh.face_points[fi];
                area += quad_area([
                    mesh.points[ps[0] as usize],
                    mesh.points[ps[1] as usize],
                    mesh.points[ps[2] as usize],
                    mesh.points[ps[3] as usize],
                ]);
            }
            with_trace(ctx, |g| {
                for fi in flo..fhi {
                    for (k, &p) in mesh.face_points[fi].iter().enumerate() {
                        g.load(a_fp + (fi as u64) * 16 + k as u64 * 4);
                        // Three coordinate gathers per point.
                        g.gather(a_fp + (fi as u64) * 16, a_px + (p as u64) * 24);
                    }
                    // Cross products + norm: ~12 flops, a sqrt, a store.
                    g.flops(12, false);
                    g.fsqrt();
                    g.store(a_zs + 0x10_0000 + (fi as u64) * 8);
                    g.loop_overhead(12, 1);
                }
            });
        }

        let totals = ctx.allreduce_f64(&[gather, inverted, area], ReduceOp::Sum);
        if rank == 0 {
            *out.lock().unwrap_or_else(|e| e.into_inner()) = (totals[0], totals[1], totals[2]);
        }
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let (gather_sum, inverted_sum, total_face_area) =
        out.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        UmeResult {
            report,
            gather_sum,
            inverted_sum,
            total_face_area,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    #[test]
    fn mesh_entity_counts_scale_like_the_paper_says() {
        // §3.2.3: "about 8 corners per zone, about 8 points per zone,
        // about 6 faces per zone" (3·n²·(n+1) faces → ~3/zone + surface).
        let m = build_mesh(8);
        let zones = 8 * 8 * 8;
        assert_eq!(m.zone_corners.len(), zones);
        assert_eq!(m.corner_point.len(), 8 * zones);
        assert_eq!(m.points.len(), 9 * 9 * 9);
        assert_eq!(m.face_points.len(), 3 * 8 * 8 * 9);
    }

    #[test]
    fn gather_and_inverted_kernels_agree() {
        let r = run(
            configs::rocket1(1),
            1,
            UmeConfig { n: 6, passes: 1 },
            NetConfig::shared_memory(),
        );
        assert!(
            (r.gather_sum - r.inverted_sum).abs() < 1e-9 * r.gather_sum.abs(),
            "{} vs {}",
            r.gather_sum,
            r.inverted_sum
        );
        assert!(r.gather_sum > 0.0);
    }

    #[test]
    fn face_area_matches_unit_mesh_analytics() {
        // Unit-cube zones: every face has area 1, so total = face count.
        let n = 6;
        let r = run(
            configs::rocket1(1),
            1,
            UmeConfig { n, passes: 1 },
            NetConfig::shared_memory(),
        );
        let expected = (3 * n * n * (n + 1)) as f64;
        assert!(
            (r.total_face_area - expected).abs() < 1e-9 * expected,
            "{} vs {expected}",
            r.total_face_area
        );
    }

    #[test]
    fn multirank_totals_match_single_rank() {
        let cfg = UmeConfig { n: 6, passes: 1 };
        let a = run(configs::rocket1(1), 1, cfg, NetConfig::shared_memory());
        let b = run(configs::rocket1(4), 4, cfg, NetConfig::shared_memory());
        assert!((a.gather_sum - b.gather_sum).abs() < 1e-9);
        assert!((a.total_face_area - b.total_face_area).abs() < 1e-9);
    }

    #[test]
    fn ume_is_load_heavy_and_flop_light() {
        let r = run(
            configs::large_boom(1),
            1,
            UmeConfig { n: 8, passes: 1 },
            NetConfig::shared_memory(),
        );
        let loads = r.report.run.core_stats[0].loads;
        let retired = r.report.run.retired;
        assert!(
            loads as f64 > 0.3 * retired as f64,
            "UME's signature is indirection: {loads} loads of {retired} uops"
        );
    }
}
