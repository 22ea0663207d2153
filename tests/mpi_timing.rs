//! The MPI timing model replays what it times: a one-lane `replay_world`
//! of `MpiWorld::record` reports what a timed `MpiWorld::run` of the same
//! program reports, for one synthetic rank program that produces every
//! `Ev` kind, at 2 and 4 ranks, on an in-order and an out-of-order
//! platform, over both stock links. The timed runs are the golden
//! store's `mpi every-event …` entries (`tests/golden.rs` checks them
//! against a timed run), so each replay is compared with its stored
//! entry and a change to the send / receive / collective timing fails
//! whether it is made to the timed run, the replay, or both. Each rank's
//! whole cycle stack is compared with a live run's.

mod common;

use silicon_bridge::core::replay_world;
use silicon_bridge::mpi::{MpiWorld, NetConfig};
use silicon_bridge::soc::{configs, SocConfig, TelemetryConfig};

fn replays_what_it_timed(platform: fn(usize) -> SocConfig, name: &str) {
    let golden = common::golden();
    let links = [
        ("shm", NetConfig::shared_memory()),
        ("eth", NetConfig::ethernet_10g()),
    ];
    let moved: Vec<String> = [2, 4]
        .into_iter()
        .flat_map(|ranks| links.map(|link| (ranks, link)))
        .filter_map(|(ranks, (link, net))| {
            let cfg = platform(ranks).with_telemetry(TelemetryConfig::counters());
            let (_, trace) = MpiWorld::record(cfg.clone(), ranks, net, common::every_event);
            let lanes = replay_world(&trace, std::slice::from_ref(&cfg), net, None);
            let live = MpiWorld::run(cfg, ranks, net, common::every_event);
            assert_eq!(
                lanes[0].report.run.telemetry, live.run.telemetry,
                "x{ranks} {link} {name}: the replay's cycle stacks"
            );
            let pin = format!("mpi every-event x{ranks} {link} {name}");
            common::moved(&golden, &pin, &common::observed(&lanes[0].report))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "the replay differs from the timed run:\n{}",
        moved.concat()
    );
}

#[test]
fn in_order_platform_replays_what_it_timed() {
    replays_what_it_timed(configs::rocket1, "rocket1");
}

#[test]
fn out_of_order_platform_replays_what_it_timed() {
    replays_what_it_timed(configs::large_boom, "large_boom");
}
