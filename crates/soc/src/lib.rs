//! # bsim-soc — SoC assembly and the paper's platform catalog
//!
//! Combines a core timing model (`bsim-uarch`), a memory hierarchy
//! (`bsim-mem`) and a clock into a runnable [`Soc`], and provides every
//! **named configuration** the paper evaluates:
//!
//! | Config | Paper reference |
//! |---|---|
//! | [`configs::rocket1`] | Table 4 "Rocket 1" (Huge Rocket, 1 L2 bank, 64-bit bus) |
//! | [`configs::rocket2`] | Table 4 "Rocket 2" (4 L2 banks) |
//! | [`configs::banana_pi_sim`] | §4 "Banana Pi Sim Model" (4 banks + 128-bit bus) |
//! | [`configs::fast_banana_pi_sim`] | §4 "Fast Banana Pi Sim Model" (clock ×2 → 3.2 GHz) |
//! | [`configs::small_boom`] / [`configs::medium_boom`] / [`configs::large_boom`] | Table 4 BOOM rows |
//! | [`configs::milkv_sim`] | §4 "MILK-V Simulation Model" (tuned Large BOOM) |
//! | [`configs::banana_pi_hw`] | Table 5 Banana Pi hardware column (dual-issue 8-stage K1, LPDDR4-2666) |
//! | [`configs::milkv_hw`] | Table 5 MILK-V hardware column (SG2042, DDR4-3200, 64 MiB LLC) |
//!
//! The FireSim-hosted configurations use the DDR3-2000 FR-FCFS quad-rank
//! memory model with token quantization; the hardware references use the
//! real parts' memory (LPDDR4 / DDR4) — reproducing the central
//! limitation the paper keeps returning to: *FireSim only has DDR3*.
//!
//! A [`Soc`] is one trace-driven timing object: cores, caches and DRAM
//! advance inside [`Soc::consume_batch`], not as models exchanging
//! tokens. The §3.2.2 token stall is the DRAM model rounding each
//! completion up to its `token_quantum_cycles` (4 on the DDR3 preset).

pub mod configs;
pub mod preflight;
pub mod runner;

/// Where a timing loop's branch, TLB and L1 tag decisions come from; the
/// lane loop above the SoC shares them between lanes through it.
pub use bsim_mem::front;
pub use bsim_telemetry::{Bucket, CycleStack, TelemetryConfig};
pub use configs::{CoreModel, SocConfig};
pub use preflight::{preflight, preflight_all};
pub use runner::{RunReport, Soc, RUN_QUANTUM};
