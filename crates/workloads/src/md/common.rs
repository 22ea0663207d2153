//! Shared molecular-dynamics machinery: periodic boxes, cell lists,
//! velocity-Verlet integration, and the trace shapes for pair loops.

use crate::trace::TraceGen;
use serde::{Deserialize, Serialize};

/// A particle system in a cubic periodic box.
#[derive(Clone, Debug)]
pub struct System {
    /// Positions (wrapped into `[0, box_len)`).
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
    /// Forces (scratch, recomputed each step).
    pub force: Vec<[f64; 3]>,
    /// Cubic box edge length.
    pub box_len: f64,
}

impl System {
    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if the system has no atoms.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Minimum-image displacement from atom `i` to atom `j`.
    #[inline]
    pub fn delta(&self, i: usize, j: usize) -> [f64; 3] {
        let mut d = [0.0; 3];
        for (k, dk) in d.iter_mut().enumerate() {
            let mut x = self.pos[j][k] - self.pos[i][k];
            if x > self.box_len * 0.5 {
                x -= self.box_len;
            } else if x < -self.box_len * 0.5 {
                x += self.box_len;
            }
            *dk = x;
        }
        d
    }
}

/// Builds an FCC lattice of `4 * cells³` atoms at the given reduced
/// density, with small deterministic velocity perturbations (net-zero
/// momentum) — the LAMMPS `melt` initial condition.
pub fn fcc_lattice(cells: usize, density: f64) -> System {
    let natoms = 4 * cells * cells * cells;
    let box_len = (natoms as f64 / density).cbrt();
    let a = box_len / cells as f64;
    let offsets = [
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
    ];
    let mut pos = Vec::with_capacity(natoms);
    for z in 0..cells {
        for y in 0..cells {
            for x in 0..cells {
                for o in &offsets {
                    pos.push([
                        (x as f64 + o[0]) * a,
                        (y as f64 + o[1]) * a,
                        (z as f64 + o[2]) * a,
                    ]);
                }
            }
        }
    }
    let mut state = 0x5EED_F00Du64;
    let mut unit = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut vel: Vec<[f64; 3]> = (0..natoms).map(|_| [unit(), unit(), unit()]).collect();
    // Zero the net momentum.
    let mut mean = [0.0; 3];
    for v in &vel {
        for k in 0..3 {
            mean[k] += v[k] / natoms as f64;
        }
    }
    for v in &mut vel {
        for k in 0..3 {
            v[k] -= mean[k];
        }
    }
    System {
        force: vec![[0.0; 3]; natoms],
        vel,
        pos,
        box_len,
    }
}

/// A link-cell neighbor structure over the periodic box.
pub struct CellList {
    /// Cells per edge.
    pub ncell: usize,
    /// Atom ids per cell.
    pub cells: Vec<Vec<u32>>,
}

impl CellList {
    /// Bins all atoms into cells of edge ≥ `cutoff`.
    pub fn build(sys: &System, cutoff: f64) -> CellList {
        let ncell = ((sys.box_len / cutoff).floor() as usize).max(1);
        let mut cells = vec![Vec::new(); ncell * ncell * ncell];
        let scale = ncell as f64 / sys.box_len;
        for (i, p) in sys.pos.iter().enumerate() {
            let cx = ((p[0] * scale) as usize).min(ncell - 1);
            let cy = ((p[1] * scale) as usize).min(ncell - 1);
            let cz = ((p[2] * scale) as usize).min(ncell - 1);
            cells[(cz * ncell + cy) * ncell + cx].push(i as u32);
        }
        CellList { ncell, cells }
    }

    /// Calls `f(candidate)` for every atom in the 27-cell neighborhood
    /// of atom `i`'s cell (including `i` itself — callers filter). Each
    /// candidate is visited exactly once: with fewer than 3 cells per
    /// edge the ±1 offsets wrap onto each other, so small boxes fall
    /// back to scanning every atom once.
    pub(crate) fn for_candidates(&self, sys: &System, i: usize, mut f: impl FnMut(u32)) {
        if self.ncell < 3 {
            for cell in &self.cells {
                for &j in cell {
                    f(j);
                }
            }
            return;
        }
        let scale = self.ncell as f64 / sys.box_len;
        let p = sys.pos[i];
        let cx = ((p[0] * scale) as usize).min(self.ncell - 1) as isize;
        let cy = ((p[1] * scale) as usize).min(self.ncell - 1) as isize;
        let cz = ((p[2] * scale) as usize).min(self.ncell - 1) as isize;
        let n = self.ncell as isize;
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let x = (cx + dx).rem_euclid(n) as usize;
                    let y = (cy + dy).rem_euclid(n) as usize;
                    let z = (cz + dz).rem_euclid(n) as usize;
                    for &j in &self.cells[(z * self.ncell + y) * self.ncell + x] {
                        f(j);
                    }
                }
            }
        }
    }
}

/// Builds a simple-cubic lattice of `n³` beads at the given density,
/// ordered x-fastest so consecutive atom ids are lattice neighbors —
/// the initial condition for bead-spring chains (bond length = lattice
/// constant, well inside the FENE maximum).
pub(crate) fn sc_lattice(n: usize, density: f64) -> System {
    let natoms = n * n * n;
    let box_len = (natoms as f64 / density).cbrt();
    let a = box_len / n as f64;
    let mut pos = Vec::with_capacity(natoms);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                pos.push([
                    (x as f64 + 0.5) * a,
                    (y as f64 + 0.5) * a,
                    (z as f64 + 0.5) * a,
                ]);
            }
        }
    }
    let mut state = 0xC4A1_0409u64;
    let mut unit = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5) * 0.2
    };
    let mut vel: Vec<[f64; 3]> = (0..natoms).map(|_| [unit(), unit(), unit()]).collect();
    let mut mean = [0.0; 3];
    for v in &vel {
        for k in 0..3 {
            mean[k] += v[k] / natoms as f64;
        }
    }
    for v in &mut vel {
        for k in 0..3 {
            v[k] -= mean[k];
        }
    }
    System {
        force: vec![[0.0; 3]; natoms],
        vel,
        pos,
        box_len,
    }
}

/// MD trace addresses (per rank).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MdAddrs {
    /// Position array base.
    pub pos: u64,
    /// Force array base.
    pub force: u64,
    /// Neighbor/cell structure base.
    pub cells: u64,
}

impl MdAddrs {
    /// Standard layout inside a rank's segment.
    pub fn new(base: u64) -> MdAddrs {
        MdAddrs {
            pos: base,
            force: base + 0x0100_0000,
            cells: base + 0x0200_0000,
        }
    }
}

/// Emits the trace for one candidate-pair evaluation: neighbor-id load,
/// position gather, distance computation, and the cutoff branch.
#[inline]
pub(crate) fn trace_pair(g: &mut TraceGen<'_>, a: MdAddrs, cand_idx: u64, j: u32, within: bool) {
    g.load(a.cells + cand_idx * 4);
    g.gather(a.cells + cand_idx * 4, a.pos + (j as u64) * 24);
    g.flops(8, false); // dx, dy, dz, minimum image, r²
    g.masked_branch(20, within);
}

/// Emits the trace for the accepted-pair force kernel (LJ-style):
/// `1/r²` divide, `r⁻⁶` chain, force accumulation.
#[inline]
pub(crate) fn trace_force(g: &mut TraceGen<'_>, a: MdAddrs, i: u64) {
    g.fdiv();
    g.flops(10, false); // vectorizes across accepted pairs
    g.load(a.force + i * 24);
    g.flops(3, false);
    g.store(a.force + i * 24);
}

/// Emits the trace for integrating one atom (velocity Verlet half-kick +
/// drift): position/velocity/force loads, FMA updates, stores.
#[inline]
pub(crate) fn trace_integrate(g: &mut TraceGen<'_>, a: MdAddrs, i: u64) {
    g.load(a.pos + i * 24);
    g.load(a.force + i * 24);
    g.flops(9, false);
    g.store(a.pos + i * 24);
    g.int_ops(2, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcc_lattice_has_right_density() {
        let s = fcc_lattice(4, 0.8442);
        assert_eq!(s.len(), 256);
        let v = s.box_len.powi(3);
        assert!((s.len() as f64 / v - 0.8442).abs() < 1e-12);
    }

    #[test]
    fn initial_momentum_is_zero() {
        let s = fcc_lattice(4, 0.8442);
        for k in 0..3 {
            let pk: f64 = s.vel.iter().map(|v| v[k]).sum();
            assert!(pk.abs() < 1e-9, "momentum {k} = {pk}");
        }
    }

    #[test]
    fn minimum_image_is_bounded() {
        let s = fcc_lattice(3, 0.8442);
        for i in 0..s.len().min(50) {
            for j in 0..s.len().min(50) {
                let d = s.delta(i, j);
                for dk in &d {
                    assert!(dk.abs() <= s.box_len * 0.5 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn cell_list_finds_all_close_pairs() {
        let s = fcc_lattice(3, 0.8442);
        let cutoff = 2.5;
        let cl = CellList::build(&s, cutoff);
        // Brute-force close pairs of atom 0.
        let brute: std::collections::HashSet<u32> = (0..s.len() as u32)
            .filter(|&j| {
                let d = s.delta(0, j as usize);
                j != 0 && d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutoff * cutoff
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        cl.for_candidates(&s, 0, |j| {
            seen.insert(j);
        });
        for j in &brute {
            assert!(seen.contains(j), "cell list missed neighbor {j}");
        }
    }

    #[test]
    fn cells_partition_all_atoms() {
        let s = fcc_lattice(4, 0.8442);
        let cl = CellList::build(&s, 2.5);
        let total: usize = cl.cells.iter().map(Vec::len).sum();
        assert_eq!(total, s.len());
    }
}
