//! The service-layer row of the `bsim faults` survival matrix.
//!
//! `store-corrupt` ([`ROWS`]) flips one seeded bit of a flushed
//! result-store file and requires quarantine-not-serve: after reopen,
//! every key returns either its original value or nothing — never
//! flipped bits served as a result — and a [`scrub`] pass leaves a file
//! that opens clean.

use bsim_core::campaign::{Ctx, FaultRow};
use bsim_resilience::{scrub, ResultStore};
use serde::Value;
use std::path::{Path, PathBuf};

/// In-process-safe: a temp file.
pub static ROWS: [FaultRow; 1] = [FaultRow {
    guard: true,
    ..FaultRow::new(
        "store-corrupt",
        "one bit flipped in the result store file",
        "checksum quarantines, never serves; scrub opens clean",
        store_corrupt,
    )
}];

/// Stages the corruption in a temp file and cleans up after itself.
fn store_corrupt(ctx: &Ctx) -> (String, bool) {
    let seed = ctx.seed;
    let path = std::env::temp_dir().join(format!(
        "bsim-guard-store-corrupt-{}-{seed}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let verdict = stage(seed, &path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.quarantined", path.display())));
    verdict
}

fn stage(seed: u64, path: &Path) -> (String, bool) {
    let original = Value::Map(vec![
        ("cycles".into(), Value::U64(123_456_789)),
        ("platform".into(), Value::Str("milkv".into())),
    ]);
    let (mut store, report) = ResultStore::open(path);
    if !report.is_clean() {
        return (format!("fresh store opened dirty: {report}"), false);
    }
    store.put("cell", &original);
    if let Err(e) = store.flush() {
        return (format!("flush failed: {e}"), false);
    }
    let mut bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return (format!("store unreadable: {e}"), false),
    };
    let target = (seed as usize).wrapping_mul(2_654_435_761) % (bytes.len() * 8);
    bytes[target / 8] ^= 1 << (target % 8);
    if let Err(e) = std::fs::write(path, &bytes) {
        return (format!("corruption write failed: {e}"), false);
    }
    // Reopen. Depending on where the bit landed this is a whole-file
    // quarantine (SV003/SV004), a single dropped entry (SV005), or —
    // when the flip missed anything load-bearing, e.g. renamed the key —
    // a clean open; in every case the served value must be the original
    // bytes or nothing at all.
    let (reopened, _) = ResultStore::open(path);
    let served = reopened.get("cell");
    let never_wrong = served.as_ref().is_none_or(|v| *v == original);
    drop(reopened);
    let (scrubbed, _) = scrub(path);
    let (after, post) = ResultStore::open(path);
    let clean_after = post.is_clean() && after.get("cell").is_none_or(|v| v == original);
    (
        format!(
            "bit {target}: served {}; scrub scanned={} quarantined={}; clean_after={clean_after}",
            if served.is_some() {
                "original"
            } else {
                "nothing"
            },
            scrubbed.scanned,
            scrubbed.quarantined.len(),
        ),
        never_wrong && clean_after,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_store_corruption_is_always_survived() {
        for seed in [0, 1, 7, 42, 1_000_003] {
            let scenario = ROWS[0].scenario(&Ctx::new(seed, Vec::new()));
            assert_eq!(scenario.name, "store-corrupt");
            assert!(scenario.pass, "seed {seed}: {}", scenario.observed);
        }
    }
}
