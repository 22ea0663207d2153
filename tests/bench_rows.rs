//! Every committed `BENCH_*.json` at the repo root parses against the one
//! row schema of `silicon_bridge::bench`: every field present and no
//! other, `n` walls per arm, one stdout digest, and the verdict its walls
//! give at its bar. `examples/pairs.rs` is what writes them.

use silicon_bridge::bench;
use std::path::Path;

#[test]
fn every_committed_bench_file_parses_against_the_row_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("the repo root")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    for name in ["BENCH_fig.json", "BENCH_ooo.json"] {
        assert!(names.iter().any(|n| n == name), "{name} is committed");
    }
    for name in &names {
        let text = std::fs::read_to_string(root.join(name)).expect("readable");
        let rows = bench::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!rows.is_empty(), "{name}");
    }
}
