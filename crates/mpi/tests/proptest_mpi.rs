//! Property tests for the MPI runtime: determinism across repeated runs
//! and collective correctness against sequential references, for random
//! communication schedules.

use bsim_mpi::{MpiWorld, NetConfig, RankCtx, ReduceOp};
use bsim_soc::configs;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn allreduce_matches_sequential_sum(vals in prop::collection::vec(-1e6f64..1e6, 4)) {
        let vals2 = vals.clone();
        let rep = MpiWorld::run(configs::rocket1(4), 4, NetConfig::shared_memory(), move |ctx: &mut RankCtx| {
            let got = ctx.allreduce_f64(&[vals2[ctx.rank()]], ReduceOp::Sum)[0];
            assert!((got - vals2.iter().sum::<f64>()).abs() < 1e-6);
        });
        prop_assert!(rep.run.cycles > 0);
    }

    #[test]
    fn random_ring_schedule_is_deterministic(
        charges in prop::collection::vec(1u64..5_000, 4),
        rounds in 1usize..4,
    ) {
        let run_once = |charges: Vec<u64>, rounds: usize| {
            MpiWorld::run(configs::rocket1(4), 4, NetConfig::shared_memory(), move |ctx: &mut RankCtx| {
                let n = ctx.size();
                for round in 0..rounds as u32 {
                    ctx.charge(charges[ctx.rank()]);
                    let next = (ctx.rank() + 1) % n;
                    let prev = (ctx.rank() + n - 1) % n;
                    ctx.send(next, round, vec![ctx.rank() as u8]);
                    let got = ctx.recv(prev, round);
                    assert_eq!(got, vec![prev as u8]);
                }
                ctx.barrier();
            })
        };
        let a = run_once(charges.clone(), rounds);
        let b = run_once(charges, rounds);
        prop_assert_eq!(a.rank_cycles, b.rank_cycles);
        prop_assert_eq!(a.run.cycles, b.run.cycles);
    }

    #[test]
    fn alltoall_preserves_payloads(seed in any::<u64>()) {
        MpiWorld::run(configs::rocket1(3), 3, NetConfig::shared_memory(), move |ctx: &mut RankCtx| {
            let me = ctx.rank() as u8;
            let sends: Vec<Vec<u8>> = (0..3u8)
                .map(|d| if d as usize == ctx.rank() { vec![] } else { vec![seed as u8 ^ me, d] })
                .collect();
            let got = ctx.alltoallv(sends);
            for (src, p) in got.iter().enumerate() {
                if src != ctx.rank() {
                    assert_eq!(p, &vec![seed as u8 ^ src as u8, me]);
                }
            }
        });
    }

    #[test]
    fn barrier_always_aligns(charges in prop::collection::vec(0u64..100_000, 4)) {
        let rep = MpiWorld::run(configs::rocket1(4), 4, NetConfig::shared_memory(), move |ctx: &mut RankCtx| {
            ctx.charge(charges[ctx.rank()]);
            ctx.barrier();
        });
        let max = rep.rank_cycles.iter().max().unwrap();
        let min = rep.rank_cycles.iter().min().unwrap();
        prop_assert_eq!(max, min);
    }
}
