//! Figure 4: NPB relative speedups of the BOOM configurations (4a) and
//! the tuned MILK-V Sim Model (4b) vs the MILK-V hardware, 1 and 4 ranks.

fn main() {
    bsim_bench::with_timer("fig4", || {
        for key in ["fig4a", "fig4b1", "fig4b4"] {
            let fig = bsim_core::experiments::figure(key)
                .run(bsim_bench::sizes(), bsim_bench::parallelism());
            bsim_bench::emit(&fig);
        }
    });
}
