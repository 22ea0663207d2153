//! The golden store: every simulated number a test pins, in one file.
//!
//! `pins/mod.rs` holds the store's table: it names each pinned
//! observation and computes it through the public API as a JSON tree: a
//! subfigure's whole `FigureData` at `Sizes::smoke()` and the table
//! `bsim fig 5 --smoke` prints, a MicroBench cell's whole `RunReport`,
//! an MPI world's `WorldReport` (one of them with its cycle stacks), a
//! recording's events, a tuning run's `TuningOutcome`, the paper claims'
//! verdicts. `golden.json` beside this file is a `CkptStore` of those
//! trees keyed by pin name. A test checks the pins it names through the
//! one compare loop, `pins::check`, which names every pin that moved with
//! the lines that moved in it. The tests below check the figures, worlds,
//! recordings, stacks and the tuning run; the MicroBench cells are
//! checked by the tests that first pinned them, in `cache_tables.rs`,
//! `program_image.rs` and `lowering_diff.rs`.
//!
//! A deliberate model change re-blesses the whole store with
//! `cargo test --release --test golden -- --ignored bless`, and then
//! pins the new `(CODE_VERSION, crc)` pair in `bsim-core`'s `key.rs`
//! (`the_code_version_is_bumped_with_the_golden`). Where an entry that
//! was already stored moved, stored cell results are stale: bump
//! `CODE_VERSION` with the CRC. Where the bless only added or renamed
//! pins, re-pin the CRC alone. The diff of `golden.json` is the review;
//! a value that moved and was not predicted is a finding.
//!
//! Checks that need no pinned number stay beside what they check: live
//! against replay (`trace_shape.rs`, `mpi_timing.rs`), segment tiling,
//! resident pages (`program_image.rs`), inequalities.

mod common;
mod pins;

use pins::{check, table};
use serde::Value;
use silicon_bridge::core::snapshot::CkptError;
use silicon_bridge::core::{CkptStore, Snapshot};
use std::fs;

/// The subfigures, and fig 5 as `bsim fig 5 --smoke` prints it.
#[test]
fn figures() {
    check(&[
        "fig3a",
        "fig3b",
        "fig4a",
        "fig4b1",
        "fig4b4",
        "fig5",
        "fig6",
        "fig7",
        "cli fig 5 --smoke",
    ]);
}

/// CI runs this in release.
#[test]
#[ignore = "figures 1-2 take minutes in debug; run with --ignored in release"]
fn microbench_figures() {
    check(&["fig1", "fig2"]);
}

#[test]
fn claims_on_the_smoke_figures() {
    check(&["claims"]);
}

#[test]
fn mpi_worlds() {
    check(&[
        "mpi CG x4 milkv_sim",
        "mpi every-event x2 shm rocket1",
        "mpi every-event x2 eth rocket1",
        "mpi every-event x4 shm rocket1",
        "mpi every-event x4 eth rocket1",
        "mpi every-event x2 shm large_boom",
        "mpi every-event x2 eth large_boom",
        "mpi every-event x4 shm large_boom",
        "mpi every-event x4 eth large_boom",
    ]);
}

#[test]
fn recordings() {
    check(&[
        "recording CG x2 rocket1",
        "recording IS x2 rocket1",
        "recording MG x2 rocket1",
        "recording UME x2 rocket1",
        "recording LJ x2 rocket1",
    ]);
}

#[test]
fn counter_exports() {
    check(&["stacks CG x2 large_boom", "tune milkv_hw large_boom"]);
}

/// A stale entry or an unblessed pin fails here by name.
#[test]
fn the_store_holds_exactly_the_table() {
    let names: Vec<String> = table().into_iter().map(|pin| pin.name).collect();
    let store = common::golden();
    let keys: Vec<&str> = store.entries().map(|(key, _)| key).collect();
    let stale: Vec<&&str> = keys
        .iter()
        .filter(|k| !names.iter().any(|n| n == **k))
        .collect();
    let unblessed: Vec<&String> = names
        .iter()
        .filter(|n| !keys.contains(&n.as_str()))
        .collect();
    assert!(
        stale.is_empty() && unblessed.is_empty(),
        "stale entries {stale:?}, unblessed pins {unblessed:?}"
    );
    assert_eq!(keys.len(), names.len(), "two pins share a name");
}

/// Every pin is checked, by one test: the names the `tests/*.rs` files
/// pass to `pins::check` are the table's names, each once.
#[test]
fn every_pin_is_checked_by_one_test() {
    // Split so that this file's own source does not match.
    let call = concat!("check", "(&[");
    let mut checked: Vec<String> = Vec::new();
    let dir = common::store_path();
    let dir = dir.parent().expect("the store is in tests/");
    for file in fs::read_dir(dir).expect("tests/ lists") {
        let path = file.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let src = fs::read_to_string(&path).expect("a test file reads");
            for list in src.split(call).skip(1) {
                let list = &list[..list.find("])").expect("a name list ends")];
                checked.extend(list.split('"').skip(1).step_by(2).map(String::from));
            }
        }
    }
    let names: Vec<String> = table().into_iter().map(|pin| pin.name).collect();
    let unchecked: Vec<&String> = names.iter().filter(|n| !checked.contains(n)).collect();
    let twice: Vec<&String> = names
        .iter()
        .filter(|n| checked.iter().filter(|c| c == n).count() > 1)
        .collect();
    let unknown: Vec<&String> = checked.iter().filter(|c| !names.contains(c)).collect();
    assert!(
        unchecked.is_empty() && twice.is_empty() && unknown.is_empty(),
        "unchecked pins {unchecked:?}, pins checked twice {twice:?}, no pins {unknown:?}"
    );
}

/// A tree as the bless puts it: the store's entries are JSON, not typed
/// state.
struct Entry(Value);

impl Snapshot for Entry {
    fn save(&self) -> Value {
        self.0.clone()
    }
    fn restore(value: &Value) -> Result<Entry, CkptError> {
        Ok(Entry(value.clone()))
    }
}

/// The one re-bless: rewrites the whole store from this binary.
#[test]
#[ignore = "rewrites tests/golden.json; run by hand after a deliberate model change"]
fn bless() {
    let mut store = CkptStore::new();
    for pin in table() {
        let tree = (pin.observe)(&store);
        store.put(&pin.name, &Entry(tree));
    }
    store
        .save(&common::store_path())
        .expect("the golden store writes");
}
