//! The content-addressed result store: a [`CkptStore`] keyed by the
//! canonical cell hashes of [`crate::key`], persisted in the same
//! versioned JSON format as every other checkpoint in the workspace.
//!
//! Entries are raw value trees, not typed snapshots: the daemon serves
//! responses by re-rendering the stored tree, so a cache-served cell is
//! byte-identical to the simulated one by construction — there is no
//! decode/re-encode step to drift through.
//!
//! ## Quarantine on open
//!
//! A store written by an incompatible binary (version header mismatch,
//! SV003) or torn by a crash mid-write (unparseable JSON, SV004) is
//! **ignored, never served**: the file is renamed aside to
//! `<path>.quarantined` and the daemon starts with an empty store,
//! reporting what happened as warnings. Flushes go through
//! [`CkptStore::save`] (temp-file + rename), so only an external
//! truncation — not the daemon's own writer — can produce SV004.
//!
//! ## Entry checksums (bsim-guard)
//!
//! Every entry is stored wrapped as `{"crc": <crc32>, "tree": <value>}`
//! where the CRC32 is taken over the tree's canonical JSON rendering.
//! [`ResultStore::open`] re-verifies every entry and **quarantines**
//! (drops, never serves) any whose checksum mismatches — or that lacks
//! a checksum at all, e.g. written by a pre-guard binary — reporting
//! each as an SV005 warning. [`ResultStore::get`] re-verifies on every
//! read, so even a file corrupted *after* open degrades to a cache
//! miss and a recompute, never to serving flipped bits as results.
//! [`scrub`] is the offline form (`bsim scrub`): audit a store file,
//! drop what fails, rewrite the clean remainder atomically.

use bsim_check::{Diagnostic, Report};
use bsim_resilience::ckpt::CkptStore;
use bsim_resilience::crc32;
use bsim_resilience::snapshot::{CkptError, Snapshot};
use serde::Value;
use std::path::{Path, PathBuf};

/// A raw value tree stored verbatim — `save` and `restore` are clones,
/// which is exactly the "no reinterpretation" property byte-identical
/// serving needs.
struct Raw(Value);

impl Snapshot for Raw {
    fn save(&self) -> Value {
        self.0.clone()
    }
    fn restore(value: &Value) -> Result<Raw, CkptError> {
        Ok(Raw(value.clone()))
    }
}

/// The daemon's result store: an in-memory [`CkptStore`] of canonical
/// key → result tree, optionally backed by a JSON file.
pub struct ResultStore {
    path: Option<PathBuf>,
    store: CkptStore,
}

/// The canonical bytes an entry checksum covers: the tree's compact
/// JSON rendering (deterministic — the shim preserves map order).
fn canonical(tree: &Value) -> String {
    serde_json::to_string(tree).expect("shim renderer is total")
}

/// Wraps a result tree with its CRC32 for storage.
fn wrap(tree: &Value) -> Value {
    Value::Map(vec![
        (
            "crc".to_string(),
            Value::U64(crc32(canonical(tree).as_bytes()) as u64),
        ),
        ("tree".to_string(), tree.clone()),
    ])
}

/// Unwraps a stored entry, returning the tree only if its checksum
/// verifies. `None` covers every failure: not a wrapper map, missing
/// fields, wrong types, or a CRC mismatch.
fn unwrap_verified(entry: &Value) -> Option<Value> {
    let Value::Map(fields) = entry else {
        return None;
    };
    let want = match fields.iter().find(|(k, _)| k == "crc")? {
        (_, Value::U64(v)) => *v,
        _ => return None,
    };
    let (_, tree) = fields.iter().find(|(k, _)| k == "tree")?;
    if crc32(canonical(tree).as_bytes()) as u64 == want {
        Some(tree.clone())
    } else {
        None
    }
}

/// What a [`scrub`] pass found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries whose checksum verified.
    pub ok: usize,
    /// Keys dropped for a missing or mismatching checksum.
    pub quarantined: Vec<String>,
    /// Whether the file was rewritten (something was dropped).
    pub rewritten: bool,
}

impl ResultStore {
    /// An in-memory store with no backing file (flushes are no-ops).
    pub fn ephemeral() -> ResultStore {
        ResultStore {
            path: None,
            store: CkptStore::new(),
        }
    }

    /// Opens the store at `path`, quarantining anything unservable.
    /// The returned [`Report`] carries SV003/SV004 warnings when the
    /// existing file was set aside and SV005 warnings for individual
    /// entries dropped by the checksum verification pass; an absent
    /// file is simply a fresh start.
    pub fn open(path: &Path) -> (ResultStore, Report) {
        let mut report = Report::new();
        let mut store = match CkptStore::load(path) {
            Ok(s) => s,
            Err(CkptError::VersionMismatch { found, supported }) => {
                report.push(
                    Diagnostic::warning(
                        "SV003",
                        path.display().to_string(),
                        format!(
                            "result store has format version {found}, this daemon reads \
                             {supported}: stale entries ignored, not served"
                        ),
                    )
                    .with_help("the old file was renamed to <store>.quarantined"),
                );
                quarantine(path);
                CkptStore::new()
            }
            Err(e) if path.exists() => {
                report.push(
                    Diagnostic::warning(
                        "SV004",
                        path.display().to_string(),
                        format!("result store is unreadable ({e}): quarantined, not served"),
                    )
                    .with_help("likely a process killed mid-write; the daemon starts empty"),
                );
                quarantine(path);
                CkptStore::new()
            }
            Err(_) => CkptStore::new(), // no file yet: fresh store
        };
        for key in verify_entries(&mut store) {
            report.push(
                Diagnostic::warning(
                    "SV005",
                    format!("{}[{key}]", path.display()),
                    "entry checksum missing or mismatched: quarantined, not served",
                )
                .with_help("the cell will be recomputed on demand; `bsim scrub` rewrites the file"),
            );
        }
        (
            ResultStore {
                path: Some(path.to_path_buf()),
                store,
            },
            report,
        )
    }

    /// The stored tree for `key`, if present **and** its checksum
    /// verifies. An entry corrupted after open degrades to a cache miss
    /// (recompute), never to serving flipped bits.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.store
            .get::<Raw>(key)
            .expect("raw entries always restore")
            .and_then(|r| unwrap_verified(&r.0))
    }

    /// Stores `tree` under `key` (replacing any previous entry),
    /// wrapped with its CRC32.
    pub fn put(&mut self, key: &str, tree: &Value) {
        self.store.put(key, &Raw(wrap(tree)));
    }

    /// Number of stored entries (the `host.svc.cache.entries` gauge).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Flushes to the backing file atomically (temp-file + rename).
    /// Returns bytes written, or 0 for an ephemeral store.
    pub fn flush(&self) -> Result<u64, CkptError> {
        match &self.path {
            Some(path) => self.store.save(path),
            None => Ok(0),
        }
    }
}

/// Drops every entry whose checksum fails verification, returning the
/// dropped keys in store order.
fn verify_entries(store: &mut CkptStore) -> Vec<String> {
    let bad: Vec<String> = store
        .entries()
        .filter(|(_, v)| unwrap_verified(v).is_none())
        .map(|(k, _)| k.to_string())
        .collect();
    for k in &bad {
        store.remove(k);
    }
    bad
}

/// `bsim scrub`: audit the store file at `path`, quarantine every entry
/// whose checksum fails, and — when anything was dropped — atomically
/// rewrite the clean remainder. An unreadable or version-mismatched
/// file is set aside whole (same SV003/SV004 story as
/// [`ResultStore::open`]); an absent file scrubs to an empty report.
pub fn scrub(path: &Path) -> (ScrubReport, Report) {
    let mut scrub = ScrubReport::default();
    let mut report = Report::new();
    let mut store = match CkptStore::load(path) {
        Ok(s) => s,
        Err(CkptError::VersionMismatch { found, supported }) => {
            report.push(
                Diagnostic::warning(
                    "SV003",
                    path.display().to_string(),
                    format!(
                        "result store has format version {found}, this binary reads \
                         {supported}: file quarantined whole"
                    ),
                )
                .with_help("the old file was renamed to <store>.quarantined"),
            );
            quarantine(path);
            return (scrub, report);
        }
        Err(e) if path.exists() => {
            report.push(
                Diagnostic::warning(
                    "SV004",
                    path.display().to_string(),
                    format!("result store is unreadable ({e}): file quarantined whole"),
                )
                .with_help("likely a torn write; nothing in it is servable"),
            );
            quarantine(path);
            return (scrub, report);
        }
        Err(_) => return (scrub, report), // no file: nothing to scrub
    };
    scrub.scanned = store.len();
    scrub.quarantined = verify_entries(&mut store);
    scrub.ok = scrub.scanned - scrub.quarantined.len();
    for key in &scrub.quarantined {
        report.push(
            Diagnostic::warning(
                "SV005",
                format!("{}[{key}]", path.display()),
                "entry checksum missing or mismatched: dropped from the store",
            )
            .with_help("the cell will be recomputed the next time it is requested"),
        );
    }
    if !scrub.quarantined.is_empty() {
        match store.save(path) {
            Ok(_) => scrub.rewritten = true,
            Err(e) => report.push(Diagnostic::error(
                "SV004",
                path.display().to_string(),
                format!("cannot rewrite scrubbed store: {e}"),
            )),
        }
    }
    (scrub, report)
}

fn quarantine(path: &Path) {
    let mut q = path.as_os_str().to_os_string();
    q.push(".quarantined");
    // Best-effort: if the rename fails the load error already told the
    // operator the file is bad, and we still refuse to serve from it.
    std::fs::rename(path, &q).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bsim-svc-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.json", std::process::id()))
    }

    #[test]
    fn roundtrip_through_flush_and_open() {
        let path = tmp("roundtrip");
        let (mut store, report) = ResultStore::open(&path);
        assert!(report.is_clean(), "{report}");
        store.put("00ff", &Value::Map(vec![("cycles".into(), Value::U64(9))]));
        assert!(store.flush().unwrap() > 0);

        let (reloaded, report) = ResultStore::open(&path);
        assert!(report.is_clean(), "{report}");
        assert_eq!(reloaded.len(), 1);
        assert_eq!(
            reloaded.get("00ff").unwrap(),
            Value::Map(vec![("cycles".into(), Value::U64(9))])
        );
        assert!(reloaded.get("beef").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_quarantined_with_sv003() {
        let path = tmp("stale");
        std::fs::write(&path, r#"{"version":99,"cells":{"k":1}}"#).unwrap();
        let (store, report) = ResultStore::open(&path);
        assert!(store.is_empty(), "stale entries must not be served");
        assert!(report.has_code("SV003"), "{report}");
        assert!(!path.exists(), "bad file must be renamed aside");
        let q = PathBuf::from(format!("{}.quarantined", path.display()));
        assert!(q.exists());
        std::fs::remove_file(&q).ok();
    }

    #[test]
    fn truncated_store_is_quarantined_with_sv004() {
        let path = tmp("torn");
        // A flush killed mid-write by an external truncation: valid
        // prefix, no closing braces.
        std::fs::write(&path, r#"{"version":1,"cells":{"00ff":{"cy"#).unwrap();
        let (store, report) = ResultStore::open(&path);
        assert!(store.is_empty());
        assert!(report.has_code("SV004"), "{report}");
        assert!(!path.exists());
        let q = PathBuf::from(format!("{}.quarantined", path.display()));
        assert!(q.exists());
        std::fs::remove_file(&q).ok();
    }

    #[test]
    fn corrupted_store_bytes_are_never_served_as_results() {
        // Seeded property sweep: flip one bit (or truncate) anywhere in
        // the serialized store, reopen, and require that every get()
        // returns either the original bytes or nothing — corruption can
        // cost a cache hit, never change a served result.
        let path = tmp("bitflip");
        let a = Value::Map(vec![
            ("cycles".into(), Value::U64(123_456)),
            ("platform".into(), Value::Str("milkv".into())),
        ]);
        let b = Value::Str("fig4 result document".into());
        let (mut store, _) = ResultStore::open(&path);
        store.put("aaaa", &a);
        store.put("bbbb", &b);
        store.flush().unwrap();
        let clean = std::fs::read(&path).unwrap();
        let quarantined = PathBuf::from(format!("{}.quarantined", path.display()));

        let mut state: u64 = 0xB51D_5EED;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..200u32 {
            let mut mutated = clean.clone();
            if round % 5 == 0 {
                mutated.truncate((rng() as usize) % (mutated.len() + 1));
            } else {
                let at = (rng() as usize) % mutated.len();
                mutated[at] ^= 1 << (rng() % 8);
            }
            std::fs::write(&path, &mutated).unwrap();
            let (opened, _) = ResultStore::open(&path);
            for (key, original) in [("aaaa", &a), ("bbbb", &b)] {
                if let Some(v) = opened.get(key) {
                    assert_eq!(
                        &v, original,
                        "round {round}: corrupted store served wrong bytes for {key}"
                    );
                }
            }
            std::fs::remove_file(&quarantined).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scrub_quarantines_corrupt_entries_and_rewrites_clean() {
        let path = tmp("scrub");
        let (mut store, _) = ResultStore::open(&path);
        store.put("good", &Value::U64(7));
        store.put("evil", &Value::U64(123_456_789));
        store.flush().unwrap();
        // Flip one digit inside the "evil" tree, JSON-preserving: the
        // file still parses, only the entry checksum can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let mutated = text.replace("123456789", "123456780");
        assert_ne!(text, mutated, "fixture digit not found");
        std::fs::write(&path, &mutated).unwrap();

        let (sr, report) = scrub(&path);
        assert_eq!(sr.scanned, 2);
        assert_eq!(sr.ok, 1);
        assert_eq!(sr.quarantined, vec!["evil".to_string()]);
        assert!(sr.rewritten);
        assert!(report.has_code("SV005"), "{report}");

        // The rewritten file opens clean; the dropped cell is a miss.
        let (reopened, report) = ResultStore::open(&path);
        assert!(report.is_clean(), "{report}");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get("good"), Some(Value::U64(7)));
        assert!(reopened.get("evil").is_none());

        // Scrubbing a clean store is a no-op.
        let (sr2, report2) = scrub(&path);
        assert_eq!((sr2.scanned, sr2.ok), (1, 1));
        assert!(sr2.quarantined.is_empty());
        assert!(!sr2.rewritten);
        assert!(report2.is_clean(), "{report2}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unchecksummed_legacy_entries_are_dropped_with_sv005() {
        let path = tmp("legacy");
        // A pre-guard store: raw tree, no {"crc", "tree"} wrapper.
        std::fs::write(&path, r#"{"version":1,"cells":{"old":{"cycles":9}}}"#).unwrap();
        let (store, report) = ResultStore::open(&path);
        assert!(store.is_empty(), "unverifiable entries must not be served");
        assert!(report.has_code("SV005"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absent_file_is_a_clean_fresh_start() {
        let path = tmp("fresh-never-written");
        std::fs::remove_file(&path).ok();
        let (store, report) = ResultStore::open(&path);
        assert!(store.is_empty());
        assert!(report.is_clean(), "{report}");
    }
}
