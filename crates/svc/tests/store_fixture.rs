//! A store file written by an earlier binary is the compatibility
//! contract of the result store: `fixtures/parent_store_v1.json` was
//! flushed by the daemon of the commit before the store held canonical
//! bytes (a 3 platform × 2 kernel sweep, then `fig 5 --smoke`, whose
//! series are floats). This binary must open it clean, serve every
//! entry, derive the same keys for the same cells, and write the same
//! file back.

use bsim_svc::{micro_cell_key, ResultStore, SvcRequest};
use serde::Value;
use std::path::PathBuf;

const FIXTURE: &str = include_str!("fixtures/parent_store_v1.json");

/// The fixture's `(key, tree)` entries in file order, read with nothing
/// but the JSON parser.
fn fixture_entries() -> Vec<(String, Value)> {
    let file = serde_json::from_str(FIXTURE).expect("the fixture is JSON");
    let Some(Value::Map(cells)) = file.get("cells") else {
        panic!("the fixture has no cells map");
    };
    cells
        .iter()
        .map(|(key, entry)| {
            let tree = entry.get("tree").expect("entries are {crc, tree}");
            (key.clone(), tree.clone())
        })
        .collect()
}

fn scratch_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bsim-svc-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    std::fs::write(&path, FIXTURE).unwrap();
    path
}

#[test]
fn the_parent_binarys_store_opens_clean_and_serves_every_key() {
    let path = scratch_copy("open");
    let (store, report) = ResultStore::open(&path);
    assert!(report.is_clean(), "{report}");
    let entries = fixture_entries();
    assert_eq!(entries.len(), 7);
    assert_eq!(store.len(), entries.len());
    for (key, tree) in &entries {
        assert_eq!(store.get(key).as_ref(), Some(tree), "{key}");
    }
    assert!(
        FIXTURE.contains("0.0000947125"),
        "the fig entry's floats are part of what the fixture covers"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn flush_reproduces_the_parent_binarys_file_byte_for_byte() {
    let path = scratch_copy("flush");
    let (store, _) = ResultStore::open(&path);
    std::fs::remove_file(&path).unwrap();
    let written = store.flush().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(written as usize, bytes.len());
    assert!(
        bytes == FIXTURE.as_bytes(),
        "open → flush must be the identity on a store file"
    );

    // The same entries put one by one into a fresh store, in the same
    // order, flush to the same file: nothing depends on having been
    // loaded.
    let (mut fresh, _) = ResultStore::open(&path.with_extension("fresh.json"));
    for (key, tree) in fixture_entries() {
        fresh.put(&key, &tree);
    }
    fresh.flush().unwrap();
    let rebuilt = std::fs::read(path.with_extension("fresh.json")).unwrap();
    assert!(rebuilt == FIXTURE.as_bytes(), "put → flush differs");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("fresh.json")).ok();
}

#[test]
fn the_requests_that_filled_the_fixture_still_derive_its_keys() {
    // The file is in completion order (the cells ran on two workers),
    // the request in grid order: compare as sets.
    let mut keys: Vec<String> = fixture_entries().into_iter().map(|(k, _)| k).collect();
    keys.sort();
    let sweep = SvcRequest::parse(
        r#"{"kind":"sweep","platforms":["Rocket 1","Large BOOM","MILK-V Pioneer"],
            "kernels":["EM5","STc"],"scale":1,"seed":0}"#,
    )
    .unwrap();
    let fig = SvcRequest::parse(r#"{"kind":"fig","id":"5","sizes":"smoke"}"#).unwrap();
    let mut derived: Vec<String> = sweep
        .cells()
        .into_iter()
        .chain(fig.cells())
        .map(|c| c.key)
        .collect();
    let rocket1 = bsim_soc::configs::by_name("Rocket 1", 1).unwrap();
    assert_eq!(micro_cell_key(&rocket1, "EM5", 1, 0), derived[0]);
    derived.sort();
    assert_eq!(derived, keys, "a key moved: every stored entry is orphaned");
}
