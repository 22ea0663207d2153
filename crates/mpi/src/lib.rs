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
//! * everything a rank does is an event ([`Ev`]) in that global order,
//!   and one timing model ([`Timing`]) turns events into **virtual
//!   time** with a LogGP-flavoured cost model: a message sent at
//!   sender-time `s` arrives at `s + o_send + bytes/bw + latency`, a
//!   receive posted at `r` completes at `max(arrival, r) + o_recv`, and
//!   collectives (barrier, allreduce, alltoall) complete at
//!   `max(entry times) + cost(n, bytes)` — the usual tree-cost model;
//! * a run is timed as it happens ([`MpiWorld::run`]) or kept as a
//!   [`WorldTrace`] ([`MpiWorld::record`]) and timed later, on as many
//!   configs as a sweep wants — same events, same [`Timing`], same
//!   numbers. [`Launch`] names that choice for code generic over it.
//!
//! Compute between MPI calls is charged by feeding micro-ops to the
//! rank's simulated core ([`RankCtx::consume_batch`], or a quantum at a
//! time through [`RankCtx::segment`]), which shares the
//! SoC's L2/DRAM with the other ranks — so memory contention across
//! ranks (the effect behind the paper's MG scaling observation in
//! §5.2.2) is modeled by the same hierarchy state.

pub mod net;
pub mod record;
pub mod timing;
pub mod world;

pub use net::NetConfig;
pub use record::{Ev, WorldTrace};
pub use timing::Timing;
pub use world::{Launch, MpiWorld, RankCtx, Recorded, ReduceOp, Segment, Timed, WorldReport};
