//! NPB IS — Integer Sort (Table 2: "Memory Latency, BW").
//!
//! Bucket sort of uniformly distributed integer keys: each rank builds a
//! local histogram (random-access increments — the latency component),
//! the histograms are allreduced, keys are redistributed with an
//! all-to-all so rank `r` receives the `r`-th key range, and each rank
//! ranks its keys locally (the bandwidth component).

use crate::trace::{rank_base, with_trace};
use bsim_mpi::{Launch, NetConfig, RankCtx, Recorded, ReduceOp, Timed, WorldReport, WorldTrace};
use bsim_soc::SocConfig;
use serde::{Deserialize, Serialize};

/// IS problem size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IsConfig {
    /// Keys per rank (class A is 2^23 total keys; reduced here).
    pub keys_per_rank: usize,
    /// Key range: keys are in `[0, max_key)` (class A: 2^19).
    pub max_key: u32,
    /// Ranking repetitions (the NPB benchmark does 10 timed iterations).
    pub iterations: usize,
}

impl Default for IsConfig {
    fn default() -> IsConfig {
        IsConfig {
            keys_per_rank: 1 << 14,
            max_key: 1 << 15,
            iterations: 2,
        }
    }
}

/// IS result.
#[derive(Clone, Debug)]
pub struct IsResult {
    /// Simulation report.
    pub report: WorldReport,
    /// True if every rank's final key slice was sorted and the slices
    /// partition the key space in rank order.
    pub sorted: bool,
    /// Total keys sorted.
    pub total_keys: usize,
}

fn gen_keys(rank: usize, cfg: IsConfig) -> Vec<u32> {
    let mut state = 0x1234_5678_9ABC_DEF0u64 ^ ((rank as u64) << 40);
    (0..cfg.keys_per_rank)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % cfg.max_key as u64) as u32
        })
        .collect()
}

/// Runs IS on `ranks` ranks of the given platform.
pub fn run(soc: SocConfig, ranks: usize, cfg: IsConfig, net: NetConfig) -> IsResult {
    launch::<Timed>(soc, ranks, cfg, net).0
}

/// Runs IS once with timing disabled, capturing the rank programs as a
/// timing-free [`WorldTrace`] for multi-lane replay (`bsim-sweepx`).
pub fn record(
    soc: SocConfig,
    ranks: usize,
    cfg: IsConfig,
    net: NetConfig,
) -> (IsResult, WorldTrace) {
    launch::<Recorded>(soc, ranks, cfg, net)
}

/// IS under either launch mode: its result, and what the mode
/// yields besides (nothing when [`Timed`], the trace when [`Recorded`]).
pub fn launch<L: Launch>(
    soc: SocConfig,
    ranks: usize,
    cfg: IsConfig,
    net: NetConfig,
) -> (IsResult, L::Out) {
    use std::sync::Mutex;
    let outcome: Mutex<(bool, usize)> = Mutex::new((true, 0));

    let program = |ctx: &mut RankCtx| {
        let rank = ctx.rank();
        let base = rank_base(rank);
        let addr_keys = base;
        let addr_hist = base + 0x0100_0000;
        let keys = gen_keys(rank, cfg);
        let range_per = (cfg.max_key as usize).div_ceil(ranks) as u32;

        let mut final_slice: Vec<u32> = Vec::new();
        for _ in 0..cfg.iterations {
            // --- local histogram (random-access increments) -------------
            let mut hist = vec![0.0f64; cfg.max_key as usize];
            for &k in &keys {
                hist[k as usize] += 1.0;
            }
            with_trace(ctx, |g| {
                for (i, &k) in keys.iter().enumerate() {
                    g.load(addr_keys + (i as u64) * 4);
                    g.int_ops(2, false);
                    // hist[k]++: dependent load + store at a random slot.
                    g.gather(addr_keys + (i as u64) * 4, addr_hist + (k as u64) * 8);
                    g.store(addr_hist + (k as u64) * 8);
                    g.loop_overhead(5, 1);
                }
            });

            // --- global histogram (allreduce, as NPB IS does) -----------
            let global = ctx.allreduce_f64(&hist, ReduceOp::Sum);

            // --- key redistribution: all-to-all by key range -------------
            let mut sends: Vec<Vec<u8>> = vec![Vec::new(); ranks];
            for &k in &keys {
                let dest = ((k / range_per) as usize).min(ranks - 1);
                sends[dest].extend_from_slice(&k.to_le_bytes());
            }
            // Keep my own slice directly (self-entry of the alltoall).
            let mine_direct: Vec<u32> = {
                let payload = std::mem::take(&mut sends[rank]);
                payload
                    .chunks_exact(4)
                    .map(|c| {
                        u32::from_le_bytes(c.try_into().expect("chunks_exact yields full chunks"))
                    })
                    .collect()
            };
            let mut my_keys: Vec<u32> = mine_direct;
            if ranks > 1 {
                let got = ctx.alltoallv(sends);
                for (src, payload) in got.into_iter().enumerate() {
                    if src == rank {
                        continue;
                    }
                    for c in payload.chunks_exact(4) {
                        my_keys.push(u32::from_le_bytes(
                            c.try_into().expect("chunks_exact yields full chunks"),
                        ));
                    }
                }
            }

            // --- local ranking via counting over my key range -----------
            let lo = rank as u32 * range_per;
            let hi = ((rank + 1) as u32 * range_per).min(cfg.max_key);
            let mut counts = vec![0usize; (hi.saturating_sub(lo)) as usize];
            for &k in &my_keys {
                counts[(k - lo) as usize] += 1;
            }
            let mut sorted = Vec::with_capacity(my_keys.len());
            for (off, &c) in counts.iter().enumerate() {
                for _ in 0..c {
                    sorted.push(lo + off as u32);
                }
            }
            with_trace(ctx, |g| {
                // Counting pass: streamed key loads + random count bumps.
                for i in 0..my_keys.len() as u64 {
                    g.load(addr_keys + i * 4);
                    g.int_ops(2, false);
                    g.store(addr_hist + (my_keys[i as usize] as u64 % 4096) * 8);
                }
                // Output pass: streaming stores.
                for i in 0..sorted.len() as u64 {
                    g.store(addr_keys + 0x80_0000 + i * 4);
                    g.int_ops(1, false);
                }
            });
            // Sanity: my counts agree with the allreduced histogram.
            let consistent =
                (lo..hi).all(|k| global[k as usize] as usize == counts[(k - lo) as usize]);
            final_slice = sorted;
            if !consistent {
                outcome.lock().unwrap_or_else(|e| e.into_inner()).0 = false;
            }
        }

        // --- verification -------------------------------------------------
        let sorted_ok = final_slice.windows(2).all(|w| w[0] <= w[1]);
        let range_ok = final_slice
            .iter()
            .all(|&k| k / range_per == rank as u32 || (k / range_per) as usize >= ranks);
        let mut o = outcome.lock().unwrap_or_else(|e| e.into_inner());
        o.0 &= sorted_ok && range_ok;
        o.1 += final_slice.len();
    };
    let (report, yielded) = L::launch(soc, ranks, net, program);

    let (sorted, total_keys) = outcome.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        IsResult {
            report,
            sorted,
            total_keys,
        },
        yielded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::configs;

    #[test]
    fn is_sorts_correctly_across_ranks() {
        let cfg = IsConfig {
            keys_per_rank: 2000,
            max_key: 1 << 12,
            iterations: 1,
        };
        let r = run(configs::rocket1(4), 4, cfg, NetConfig::shared_memory());
        assert!(
            r.sorted,
            "every rank's slice must be sorted and range-correct"
        );
        assert_eq!(r.total_keys, 8000, "no key may be lost in the exchange");
    }

    #[test]
    fn is_single_rank_works() {
        let cfg = IsConfig {
            keys_per_rank: 4000,
            max_key: 1 << 12,
            iterations: 1,
        };
        let r = run(configs::large_boom(1), 1, cfg, NetConfig::shared_memory());
        assert!(r.sorted);
        assert_eq!(r.total_keys, 4000);
    }

    #[test]
    fn is_moves_real_bytes() {
        let cfg = IsConfig {
            keys_per_rank: 4000,
            max_key: 1 << 12,
            iterations: 1,
        };
        let r = run(configs::rocket1(2), 2, cfg, NetConfig::shared_memory());
        // ~half of each rank's keys belong to the other rank.
        assert!(
            r.report.bytes > 4000,
            "alltoall must carry keys, got {}",
            r.report.bytes
        );
    }
}
