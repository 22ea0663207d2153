//! Figure 6: LAMMPS Lennard-Jones melt runtimes and relative speedups on
//! both platform pairs, 1/2/4 MPI ranks.

fn main() {
    bsim_bench::with_timer("fig6", || {
        let fig = bsim_core::experiments::figure("fig6")
            .run(bsim_bench::sizes(), bsim_bench::parallelism());
        bsim_bench::emit(&fig);
    });
}
