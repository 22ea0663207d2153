//! How a recording of the MPI workloads is cut, and that a live run
//! times exactly what a recording replays.
//!
//! A rank's micro-ops reach its core a quantum at a time
//! (`workloads::trace::with_trace`), but a recording keeps one
//! `Ev::Consume` per traced loop nest however many quanta it arrived in:
//! segments are what the sampler stratifies, so a recording cut at
//! quantum boundaries would replay to the same cycles and sample to
//! different ones. `tests/golden.rs` pins each workload's recorded
//! events; they move only if a workload's trace does.

use silicon_bridge::core::experiments::{MpiWork, Sizes};
use silicon_bridge::core::replay_world;
use silicon_bridge::mpi::{Ev, MpiWorld, NetConfig, RankCtx, Timed, WorldReport};
use silicon_bridge::soc::{configs, RUN_QUANTUM};
use silicon_bridge::workloads::trace::{rank_base, with_trace};

/// Segments tile the arena in event order: each starts where the last
/// one ended.
#[test]
fn a_recording_tiles_its_arena_in_event_order() {
    let sizes = Sizes::smoke();
    for work in [
        MpiWork::Cg,
        MpiWork::Is,
        MpiWork::Mg,
        MpiWork::Ume,
        MpiWork::Lj,
    ] {
        let trace = work.record(&sizes, configs::rocket1(2), 2);
        let mut at = 0;
        for ev in &trace.events {
            if let Ev::Consume { start, len, .. } = *ev {
                assert_eq!(start, at, "{}: a gap in the arena", work.label());
                at += len;
            }
        }
        assert_eq!(at, trace.uops.len());
    }
}

#[test]
fn a_live_run_reports_what_a_replay_of_its_recording_reports() {
    let sizes = Sizes::smoke();
    let net = NetConfig::shared_memory();
    let works = [
        MpiWork::Cg,
        MpiWork::Ep,
        MpiWork::Is,
        MpiWork::Mg,
        MpiWork::Ume,
        MpiWork::Lj,
        MpiWork::Chain,
    ];
    let json = |r: &WorldReport| serde_json::to_string(r).expect("reports serialize");
    for work in works {
        for platform in [configs::rocket1, configs::large_boom] {
            for ranks in [1, 2, 4] {
                let cfg = platform(ranks);
                let (live, ()) = work.launch::<Timed>(&sizes, cfg.clone(), ranks);
                let trace = work.record(&sizes, cfg.clone(), ranks);
                let label = format!("{} x{ranks} on {}", work.label(), cfg.name);
                let lanes = replay_world(&trace, &[cfg], net, None);
                assert_eq!(json(&live), json(&lanes[0].report), "{label}");
            }
        }
    }
}

/// Loads per traced segment: nothing, one op, and each side of one and
/// of two quanta.
const SEGMENT_LOADS: [usize; 6] = [
    0,
    1,
    RUN_QUANTUM - 1,
    RUN_QUANTUM,
    RUN_QUANTUM + 1,
    2 * RUN_QUANTUM,
];

/// One traced segment of each length, a ring message and a collective
/// after each: whatever is left in a generator's quantum has to reach
/// the core before the rank's next event.
fn boundary_program(ctx: &mut RankCtx) {
    let (me, n) = (ctx.rank(), ctx.size());
    let base = rank_base(me);
    for (tag, loads) in SEGMENT_LOADS.into_iter().enumerate() {
        with_trace(ctx, |g| {
            for i in 0..loads as u64 {
                g.load(base + (i % 512) * 64);
            }
        });
        ctx.send((me + 1) % n, tag as u32, vec![me as u8; 64]);
        let from = (me + n - 1) % n;
        assert_eq!(ctx.recv(from, tag as u32), vec![from as u8; 64]);
        ctx.barrier();
    }
}

#[test]
fn a_segment_ending_on_either_side_of_a_quantum_is_one_consume_and_replays() {
    let net = NetConfig::shared_memory();
    let json = |r: &WorldReport| serde_json::to_string(r).expect("reports serialize");
    // No compiler overhead on the silicon reference, 200 per mille on the
    // FireSim target: there the overhead ops cross the boundaries too.
    for cfg in [configs::banana_pi_hw(2), configs::rocket1(2)] {
        let per_mille = cfg.compiler_overhead_per_mille as usize;
        let expected: Vec<usize> = SEGMENT_LOADS
            .iter()
            .map(|loads| loads + loads * per_mille / 1000)
            .collect();
        let (_, trace) = MpiWorld::record(cfg.clone(), 2, net, boundary_program);
        for rank in 0..2 {
            let consumes: Vec<usize> = trace
                .events
                .iter()
                .filter_map(|ev| match *ev {
                    Ev::Consume { rank: r, len, .. } if r == rank => Some(len),
                    _ => None,
                })
                .collect();
            assert_eq!(consumes, expected, "rank {rank} on {}", cfg.name);
        }
        let live = MpiWorld::run(cfg.clone(), 2, net, boundary_program);
        let name = cfg.name.clone();
        let lanes = replay_world(&trace, &[cfg], net, None);
        assert_eq!(json(&live), json(&lanes[0].report), "{name}");
    }
}
