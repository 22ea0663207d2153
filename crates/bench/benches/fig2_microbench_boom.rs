//! Figure 2: MicroBench relative performance of Small/Medium/Large BOOM
//! and the tuned MILK-V Sim Model, normalized by MILK-V hardware.

fn main() {
    bsim_bench::with_timer("fig2", || {
        let fig = bsim_core::experiments::figure("fig2")
            .run(bsim_bench::sizes(), bsim_bench::parallelism());
        bsim_bench::emit(&fig);
    });
}
