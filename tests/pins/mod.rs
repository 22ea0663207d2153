//! The table of the golden store (`tests/golden.json`) and its compare
//! loop. `tests/golden.rs` holds the store's own tests and its one bless.
//!
//! [`table`] names each pinned observation and computes it through the
//! public API as a JSON tree. A test checks the pins it names, through
//! [`check`]; `golden.rs` holds that every pin is named by one test.

use crate::common;
use serde::{Serialize, Value};
use silicon_bridge::core::claims::PAPER_CLAIMS;
use silicon_bridge::core::experiments::{microbench_cell, MpiWork, Sizes, FIGURES};
use silicon_bridge::core::tuning::choose_best_model;
use silicon_bridge::core::{table, CkptStore, FigureData, Parallelism, Snapshot};
use silicon_bridge::mpi::{MpiWorld, NetConfig, Timed};
use silicon_bridge::soc::{configs, SocConfig, TelemetryConfig};
use silicon_bridge::workloads::microbench;

/// One named observation of the simulator.
pub struct Pin {
    pub name: String,
    /// The observation. The store it gets is the one being compared
    /// against or blessed: only the claims and fig 5's printed table
    /// read it, for its figures.
    pub observe: Box<dyn Fn(&CkptStore) -> Value>,
}

fn pin(name: String, observe: impl Fn(&CkptStore) -> Value + 'static) -> Pin {
    Pin {
        name,
        observe: Box::new(observe),
    }
}

type Platform = fn(usize) -> SocConfig;

/// Scale-1 MicroBench cells, by platform. Between them the MILK-V cells
/// hit and miss the LLC, write dirty L2 victims into it, evict dirty LLC
/// lines to DRAM (`ML2_BW_st` on `milkv_sim`) and train the prefetcher
/// (`ML2_BW_ld` on `milkv_hw`); the Banana Pi cell has no LLC; `Cca`,
/// `Cce`, `ML2_BW_ld` and `MM` exercise the out-of-order core's ROB and
/// LSQ (`rob_high_water` is the field a ROB change gets wrong first);
/// `MM` and `MM_st` read the shared pointer ring; `Cca`, `STc` and `MM`
/// on both core kinds cover the decode-time lowering.
const CELLS: [(&str, Platform, &[&str]); 4] = [
    ("rocket1", configs::rocket1, &["Cca", "STc", "MM"]),
    (
        "milkv_hw",
        configs::milkv_hw,
        &[
            "Cca",
            "Cce",
            "EM5",
            "MC",
            "ML2_BW_ld",
            "ML2_BW_st",
            "MM",
            "MM_st",
        ],
    ),
    (
        "milkv_sim",
        configs::milkv_sim,
        &[
            "Cca",
            "Cce",
            "CCh_st",
            "EM5",
            "MC",
            "ML2_BW_ld",
            "ML2_BW_st",
            "MM",
            "STc",
        ],
    ),
    ("banana_pi_hw", configs::banana_pi_hw, &["ML2_BW_st"]),
];

/// The MPI workloads whose recordings are pinned, on `rocket1(2)`.
const RECORDED: [MpiWork; 5] = [
    MpiWork::Cg,
    MpiWork::Is,
    MpiWork::Mg,
    MpiWork::Ume,
    MpiWork::Lj,
];

/// Every pin, in store order: the figures come before the claims that
/// are scored on them and the table that prints one.
pub fn table() -> Vec<Pin> {
    let mut pins = Vec::new();
    for spec in &FIGURES {
        pins.push(pin(spec.key.into(), move |_| {
            spec.run(Sizes::smoke(), Parallelism::Sequential).save()
        }));
    }
    pins.push(pin("claims".into(), claims));
    pins.push(pin("cli fig 5 --smoke".into(), fig5_stdout));

    for (platform, cfg, kernels) in CELLS {
        for &kernel in kernels {
            pins.push(pin(format!("micro {kernel} {platform}"), move |_| {
                let rep = microbench_cell(cfg(1), kernel, 1).expect("a suite kernel");
                assert_eq!(rep.exit_code, Some(0), "{kernel} on {platform}");
                rep.to_value()
            }));
        }
    }

    // Four ranks probe and invalidate the other cores' L1Ds on every store.
    pins.push(pin("mpi CG x4 milkv_sim".into(), |_| {
        let sizes = Sizes::smoke();
        let (world, ()) = MpiWork::Cg.launch::<Timed>(&sizes, configs::milkv_sim(4), 4);
        world.to_value()
    }));
    let platforms: [(&str, Platform); 2] = [
        ("rocket1", configs::rocket1),
        ("large_boom", configs::large_boom),
    ];
    let links = [
        ("shm", NetConfig::shared_memory()),
        ("eth", NetConfig::ethernet_10g()),
    ];
    for (platform, cfg) in platforms {
        for ranks in [2, 4] {
            for (link, net) in links {
                pins.push(pin(
                    format!("mpi every-event x{ranks} {link} {platform}"),
                    move |_| {
                        let cfg = cfg(ranks).with_telemetry(TelemetryConfig::counters());
                        let report = MpiWorld::run(cfg, ranks, net, common::every_event);
                        common::observed(&report)
                    },
                ));
            }
        }
    }

    for work in RECORDED {
        pins.push(pin(
            format!("recording {} x2 rocket1", work.label()),
            move |_| {
                let trace = work.record(&Sizes::smoke(), configs::rocket1(2), 2);
                let events = trace.events.iter().map(|ev| format!("{ev:?}"));
                Value::Map(vec![
                    (
                        "events".into(),
                        Value::Seq(events.map(Value::Str).collect()),
                    ),
                    ("uops".into(), Value::U64(trace.uops.len() as u64)),
                ])
            },
        ));
    }

    // The cores' cycle stacks: two ranks on an out-of-order core, with
    // DRAM token stalls and MPI sends and waits.
    pins.push(pin("stacks CG x2 large_boom".into(), |_| {
        let cfg = configs::large_boom(2).with_telemetry(TelemetryConfig::counters());
        let (world, ()) = MpiWork::Cg.launch::<Timed>(&Sizes::smoke(), cfg, 2);
        world.to_value()
    }));
    pins.push(pin("tune milkv_hw large_boom".into(), |_| {
        let probes: Vec<_> = microbench::evaluated()
            .into_iter()
            .filter(|k| ["Cca", "ED1", "EI", "MD", "DP1d"].contains(&k.name))
            .collect();
        choose_best_model(&[configs::large_boom(1)], &configs::milkv_hw(1), &probes, 1).to_value()
    }));
    pins
}

/// Every paper claim's verdict, scored on `store`'s smoke figures.
fn claims(store: &CkptStore) -> Value {
    let figs = common::smoke_figures(store);
    Value::Map(
        PAPER_CLAIMS
            .iter()
            .map(|c| {
                let verdict = common::score(&figs, c).verdict;
                (c.id.to_string(), Value::Str(format!("{verdict:?}")))
            })
            .collect(),
    )
}

/// What `bsim fig 5 --smoke` prints for `store`'s `fig5`, line by line:
/// the table's layout is pinned with its numbers.
fn fig5_stdout(store: &CkptStore) -> Value {
    let fig: FigureData = store
        .get("fig5")
        .expect("a figure entry is well-formed")
        .expect("fig5 is pinned before its table");
    let text = format!("{}\n", table::render(&fig));
    Value::Seq(text.lines().map(|l| Value::Str(l.into())).collect())
}

/// The compare loop: each pin `names` names against its stored tree.
/// Every pin that moved is named with the lines that moved in it.
pub fn check(names: &[&str]) {
    let pins = table();
    if let Some(name) = names.iter().find(|n| !pins.iter().any(|p| p.name == **n)) {
        panic!("{name} is no pin of the table");
    }
    let store = common::golden();
    let moved: Vec<String> = pins
        .iter()
        .filter(|pin| names.contains(&pin.name.as_str()))
        .filter_map(|pin| common::moved(&store, &pin.name, &(pin.observe)(&store)))
        .collect();
    assert!(
        moved.is_empty(),
        "moved from tests/golden.json:\n{}",
        moved.concat()
    );
}
