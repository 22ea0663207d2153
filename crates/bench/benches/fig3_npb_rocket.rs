//! Figure 3: NPB relative speedups of the Rocket-family models vs the
//! Banana Pi hardware, for 1 (3a) and 4 (3b) MPI ranks.

fn main() {
    bsim_bench::with_timer("fig3", || {
        for key in ["fig3a", "fig3b"] {
            let fig = bsim_core::experiments::figure(key)
                .run(bsim_bench::sizes(), bsim_bench::parallelism());
            bsim_bench::emit(&fig);
        }
    });
}
