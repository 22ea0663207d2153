//! Pins the MPI timing model: one synthetic rank program that produces
//! every `Ev` variant, at 2 and 4 ranks, on an in-order and an
//! out-of-order platform, over both stock links. The expected numbers
//! are literals, so a change to the send / receive / collective timing
//! fails here whether it is made to the timed run, the replay, or both.
//!
//! Each case checks a timed `MpiWorld::run` and a one-lane
//! `replay_world` of `MpiWorld::record` of the same program.

use silicon_bridge::mpi::{MpiWorld, NetConfig, RankCtx, ReduceOp, WorldReport};
use silicon_bridge::soc::{configs, SocConfig, TelemetryConfig};
use silicon_bridge::sweepx::replay_world;
use silicon_bridge::workloads::trace::{rank_base, with_trace};

/// A streaming load / fused-multiply-add / store loop over `lines`
/// cache lines of the rank's private segment, starting at `offset`.
fn compute(ctx: &mut RankCtx, offset: u64, lines: u64) {
    let base = rank_base(ctx.rank()) + offset;
    with_trace(ctx, |g| {
        for i in 0..lines {
            g.load(base + i * 64);
            g.flops(2, true);
            g.store(base + 0x10_0000 + i * 64);
            g.loop_overhead(1, 1);
        }
    });
}

/// Every `RankCtx` operation once: skewed compute and analytic charges,
/// a ring exchange on two tags with unequal sizes (received in the
/// opposite order to the sends), the three collectives back to back (so
/// a fast rank enters the next one before a slow rank has left the
/// last), and the highest rank returning while the others still compute
/// and pass one more message down the line.
fn program(ctx: &mut RankCtx) {
    let (me, n) = (ctx.rank(), ctx.size());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);

    compute(ctx, 0, 96 + 32 * me as u64);
    ctx.charge(1_000 * (me as u64 + 1));

    ctx.send(next, 1, vec![me as u8; 64 + 512 * me]);
    ctx.send(next, 2, vec![me as u8; 4096]);
    assert_eq!(ctx.recv(prev, 2), vec![prev as u8; 4096]);
    assert_eq!(ctx.recv(prev, 1), vec![prev as u8; 64 + 512 * prev]);

    ctx.barrier();
    let sum = ctx.allreduce_f64(&[me as f64, 1.0], ReduceOp::Sum);
    assert_eq!(sum, vec![(n * (n - 1) / 2) as f64, n as f64]);
    let sends = (0..n)
        .map(|d| vec![me as u8; if d == me { 0 } else { 128 * (d + 1) }])
        .collect();
    let got = ctx.alltoallv(sends);
    for (src, payload) in got.iter().enumerate() {
        let len = if src == me { 0 } else { 128 * (me + 1) };
        assert_eq!(payload, &vec![src as u8; len]);
    }

    if me == n - 1 {
        return;
    }
    compute(ctx, 0x20_0000, 48);
    ctx.charge(300);
    if me > 0 {
        assert_eq!(ctx.recv(me - 1, 3), vec![7; 24]);
    }
    if me + 1 < n - 1 {
        ctx.send(me + 1, 3, vec![7; 24]);
    }
}

/// What one case pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    rank_cycles: Vec<u64>,
    cycles: u64,
    messages: u64,
    bytes: u64,
    send_cycles: Vec<u64>,
    wait_cycles: Vec<u64>,
}

fn observed(report: &WorldReport) -> Pinned {
    let snap = report
        .run
        .telemetry
        .as_ref()
        .expect("telemetry enabled on the SoC config");
    let per_rank = |what: &str| {
        (0..report.rank_cycles.len())
            .map(|r| {
                snap.counter(&format!("mpi.rank{r}.{what}"))
                    .expect("every finished rank publishes its counters")
            })
            .collect()
    };
    Pinned {
        rank_cycles: report.rank_cycles.clone(),
        cycles: report.run.cycles,
        messages: report.messages,
        bytes: report.bytes,
        send_cycles: per_rank("send_cycles"),
        wait_cycles: per_rank("wait_cycles"),
    }
}

fn check(platform: fn(usize) -> SocConfig, ranks: usize, net: NetConfig, expected: Pinned) {
    let cfg = platform(ranks).with_telemetry(TelemetryConfig::counters());
    let label = format!("{} x{ranks} latency {}", cfg.name, net.latency);

    let timed = MpiWorld::run(cfg.clone(), ranks, net, program);
    assert_eq!(observed(&timed), expected, "timed run, {label}");

    let (_, trace) = MpiWorld::record(cfg.clone(), ranks, net, program);
    let lanes = replay_world(&trace, &[cfg], net, None);
    assert_eq!(
        observed(&lanes[0].report),
        expected,
        "one-lane replay, {label}"
    );
}

/// Message and byte totals depend on the rank count only.
fn pinned(rank_cycles: &[u64], send_cycles: &[u64], wait_cycles: &[u64]) -> Pinned {
    let (messages, bytes) = match rank_cycles.len() {
        2 => (6, 9216),
        _ => (22, 23600),
    };
    Pinned {
        rank_cycles: rank_cycles.to_vec(),
        cycles: rank_cycles.iter().copied().max().unwrap_or(0),
        messages,
        bytes,
        send_cycles: send_cycles.to_vec(),
        wait_cycles: wait_cycles.to_vec(),
    }
}

#[test]
fn in_order_platform_reproduces_the_pinned_timing() {
    let (shm, eth) = (NetConfig::shared_memory(), NetConfig::ethernet_10g());
    check(
        configs::rocket1,
        2,
        shm,
        pinned(&[66110, 55712], &[1020, 1084], &[32870, 4834]),
    );
    check(
        configs::rocket1,
        2,
        eth,
        pinned(&[81182, 70786], &[2433, 2536], &[46531, 18456]),
    );
    check(
        configs::rocket1,
        4,
        shm,
        pinned(
            &[167391, 183165, 184115, 135878],
            &[1273, 1337, 1148, 1212],
            &[113036, 85250, 82729, 8692],
        ),
    );
    check(
        configs::rocket1,
        4,
        eth,
        pinned(
            &[193451, 209775, 213575, 161384],
            &[3238, 3341, 2638, 2740],
            &[137129, 109854, 110697, 32670],
        ),
    );
}

#[test]
fn out_of_order_platform_reproduces_the_pinned_timing() {
    let (shm, eth) = (NetConfig::shared_memory(), NetConfig::ethernet_10g());
    check(
        configs::large_boom,
        2,
        shm,
        pinned(&[59864, 50607], &[1020, 1084], &[29855, 4834]),
    );
    check(
        configs::large_boom,
        2,
        eth,
        pinned(&[74936, 65681], &[2433, 2536], &[43516, 18456]),
    );
    check(
        configs::large_boom,
        4,
        shm,
        pinned(
            &[153869, 169604, 170554, 122444],
            &[1273, 1337, 1148, 1212],
            &[101692, 76921, 78100, 8692],
        ),
    );
    check(
        configs::large_boom,
        4,
        eth,
        pinned(
            &[179929, 196214, 200014, 147950],
            &[3238, 3341, 2638, 2740],
            &[125785, 101525, 106068, 32670],
        ),
    );
}
