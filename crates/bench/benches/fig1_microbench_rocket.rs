//! Figure 1: MicroBench relative performance of the Banana Pi Sim Model
//! and the Fast Banana Pi Sim Model, normalized by Banana Pi hardware.

fn main() {
    bsim_bench::with_timer("fig1", || {
        let fig = bsim_core::experiments::figure("fig1")
            .run(bsim_bench::sizes(), bsim_bench::parallelism());
        bsim_bench::emit(&fig);
    });
}
