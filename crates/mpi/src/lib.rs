//! # bsim-mpi — a deterministic virtual-time MPI over simulated cores
//!
//! The paper runs NPB, UME and LAMMPS as MPI programs, with ranks bound
//! to the cores of one 4-core cluster (§3.1.2: "we use only one cluster
//! with 4-core by binding the processes to those cores"). This crate
//! provides the equivalent runtime for the simulated SoCs:
//!
//! * each **rank** runs as a host thread bound to one simulated core of
//!   a shared [`bsim_soc::Soc`];
//! * ranks execute under a **turn-taking scheduler** — exactly one rank
//!   runs at any host instant, and the next runnable rank is chosen
//!   deterministically — so results are bit-identical across runs and
//!   host machines (the same guarantee FireSim's token protocol gives);
//! * communication advances **virtual time** with a LogGP-flavoured cost
//!   model: a message sent at sender-time `s` arrives at
//!   `s + o_send + bytes/bw + latency`, and a receive posted at `r`
//!   completes at `max(arrival, r) + o_recv`;
//! * collectives (barrier, allreduce, alltoall) complete at
//!   `max(entry times) + cost(n, bytes)` — the usual tree-cost model.
//!
//! Compute between MPI calls is charged by feeding micro-ops to the
//! rank's simulated core ([`RankCtx::consume`] / [`RankCtx::consume_batch`]),
//! which shares the SoC's L2/DRAM with the other ranks — so memory
//! contention across ranks (the effect behind the paper's MG scaling
//! observation in §5.2.2) is modeled by the same hierarchy state.

pub mod net;
pub mod procmap;
pub mod record;
pub mod world;

pub use net::NetConfig;
pub use procmap::RankMap;
pub use record::{publish_rank_counters, Ev, WorldTrace};
pub use world::{MpiWorld, RankCtx, ReduceOp, WorldReport};
