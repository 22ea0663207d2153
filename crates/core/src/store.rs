//! The content-addressed result store: canonical result bytes keyed by
//! the cell hashes of [`crate::WireCell::key`], persisted in the
//! versioned [`CkptStore`] JSON format. It is the one place a cell's
//! result is kept: `bsim fig --store` and `bsim serve --store` both read
//! and write it, so a file filled by either answers the other.
//!
//! ## Entries are the bytes their checksum covers
//!
//! In memory an entry is exactly one thing: the *canonical bytes* of its
//! result — the tree's compact JSON rendering — next to the CRC32 taken
//! over them, found through a key index. A read
//! (`ResultStore::get_bytes`) re-verifies the CRC over those resident
//! bytes and hands the same allocation out; nothing is cloned,
//! re-rendered or reinterpreted on the way, so the bytes a reader
//! splices into a response are the very bytes that were just verified,
//! and a store-served cell is byte-identical to the simulated one by
//! construction. [`ResultStore::get`] parses a tree out of them on
//! demand.
//!
//! The store reads its file once, in [`ResultStore::open`], and never
//! again: what the per-read check guards is the **memory-resident
//! bytes** — a bit flipped in a long-lived process's heap between `put`
//! and `get` degrades to a cache miss and a recompute, never to flipped
//! bits served as a result. Corruption of the *file* is the business of
//! the verification pass in `open` and of [`scrub`].
//!
//! ## File format
//!
//! On disk every entry is `{"crc": <crc32>, "tree": <value>}` inside a
//! `CkptStore` v1 file; the CRC32 covers the tree's canonical rendering,
//! i.e. the resident bytes. [`ResultStore::open`] parses the file,
//! re-verifies every entry and keeps its canonical bytes;
//! [`ResultStore::flush`] parses each entry's bytes back into a tree and
//! saves through [`CkptStore::save`] (temp-file + rename). The renderer
//! is a fixed point of parse → render, so a file survives
//! open → flush byte for byte.
//!
//! ## Quarantine on open
//!
//! A store written by an incompatible binary (version header mismatch,
//! SV003) or torn by a crash mid-write (unparseable JSON, SV004) is
//! **ignored, never served**: the file is renamed aside to
//! `<path>.quarantined` and the caller starts with an empty store,
//! reporting what happened as warnings. Only an external truncation —
//! not the store's own atomic writer — can produce SV004. An entry
//! whose checksum mismatches — or that lacks one, e.g. written by a
//! pre-guard binary — is **quarantined** (dropped, never served) with an
//! SV005 warning while the rest of the file still serves. [`scrub`] is
//! the offline form (`bsim scrub`): audit a store file, drop what
//! fails, rewrite the clean remainder atomically.

use crate::ckpt::CkptStore;
use crate::guard::crc32;
use crate::snapshot::CkptError;
use bsim_check::{Diagnostic, Report};
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One resident entry: the canonical bytes and the CRC32 over them.
struct Entry {
    key: String,
    crc: u32,
    bytes: Arc<str>,
}

impl Entry {
    /// The resident bytes, if they still match their checksum.
    fn verified(&self) -> Option<&Arc<str>> {
        (crc32(self.bytes.as_bytes()) == self.crc).then_some(&self.bytes)
    }
}

/// The result store: canonical key → canonical result bytes in
/// memory (insertion-ordered, indexed by key), optionally backed by a
/// JSON file.
pub struct ResultStore {
    path: Option<PathBuf>,
    entries: Vec<Entry>,
    index: HashMap<String, usize>,
}

/// The canonical bytes an entry checksum covers: the tree's compact
/// JSON rendering (deterministic — the shim preserves map order).
pub fn canonical(tree: &Value) -> String {
    serde_json::to_string(tree).expect("shim renderer is total")
}

/// The file-format entry for a result tree and the CRC32 of its
/// canonical bytes.
fn wrap(crc: u32, tree: Value) -> Value {
    Value::Map(vec![
        ("crc".to_string(), Value::U64(u64::from(crc))),
        ("tree".to_string(), tree),
    ])
}

/// Unwraps a file-format entry, returning the tree's canonical bytes
/// only if its checksum verifies over them. `None` covers every
/// failure: not a wrapper map, missing fields, wrong types, or a CRC
/// mismatch.
fn unwrap_verified(entry: &Value) -> Option<String> {
    let Value::Map(fields) = entry else {
        return None;
    };
    let want = match fields.iter().find(|(k, _)| k == "crc")? {
        (_, Value::U64(v)) => *v,
        _ => return None,
    };
    let (_, tree) = fields.iter().find(|(k, _)| k == "tree")?;
    let bytes = canonical(tree);
    (u64::from(crc32(bytes.as_bytes())) == want).then_some(bytes)
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
            entries: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Opens the store at `path`, quarantining anything unservable.
    /// The returned [`Report`] carries SV003/SV004 warnings when the
    /// existing file was set aside and SV005 warnings for individual
    /// entries dropped by the checksum verification pass; an absent
    /// file is simply a fresh start.
    pub fn open(path: &Path) -> (ResultStore, Report) {
        let (store, _, report) = ResultStore::open_audited(path);
        (store, report)
    }

    /// [`ResultStore::open`], also naming the entries the checksum pass
    /// dropped, in file order.
    fn open_audited(path: &Path) -> (ResultStore, Vec<String>, Report) {
        let mut report = Report::new();
        let file = load_or_quarantine(path, &mut report).unwrap_or_default();
        let mut store = ResultStore {
            path: Some(path.to_path_buf()),
            ..ResultStore::ephemeral()
        };
        let mut dropped = Vec::new();
        for (key, entry) in file.entries() {
            match unwrap_verified(entry) {
                Some(bytes) => store.put_bytes(key, bytes.into()),
                None => {
                    dropped.push(key.to_string());
                    report.push(
                        Diagnostic::warning(
                            "SV005",
                            format!("{}[{key}]", path.display()),
                            "entry checksum missing or mismatched: quarantined, not served",
                        )
                        .with_help(
                            "the cell is recomputed on demand; `bsim scrub` drops it from the file",
                        ),
                    );
                }
            }
        }
        (store, dropped, report)
    }

    /// The canonical bytes stored under `key`, if present **and** their
    /// checksum verifies over the resident copy — the very allocation
    /// handed out. A mismatch is a cache miss (recompute), never served.
    pub fn get_bytes(&self, key: &str) -> Option<Arc<str>> {
        let entry = &self.entries[*self.index.get(key)?];
        entry.verified().cloned()
    }

    /// The stored tree for `key`, parsed from its verified bytes.
    pub fn get(&self, key: &str) -> Option<Value> {
        serde_json::from_str(&self.get_bytes(key)?).ok()
    }

    /// Stores `tree` under `key` (replacing any previous entry) as its
    /// canonical bytes and their CRC32.
    pub fn put(&mut self, key: &str, tree: &Value) {
        self.put_bytes(key, canonical(tree).into());
    }

    /// [`ResultStore::put`] for a tree already rendered by
    /// [`canonical`].
    pub fn put_bytes(&mut self, key: &str, bytes: Arc<str>) {
        let crc = crc32(bytes.as_bytes());
        match self.index.get(key) {
            Some(&at) => {
                let entry = &mut self.entries[at];
                (entry.crc, entry.bytes) = (crc, bytes);
            }
            None => {
                self.index.insert(key.to_string(), self.entries.len());
                self.entries.push(Entry {
                    key: key.to_string(),
                    crc,
                    bytes,
                });
            }
        }
    }

    /// Number of stored entries (the `host.svc.cache.entries` gauge).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flushes to the backing file atomically (temp-file + rename), in
    /// insertion order. Returns bytes written, or 0 for an ephemeral
    /// store. An entry whose resident bytes no longer verify is left
    /// out of the file, as a read would have missed it.
    pub fn flush(&self) -> Result<u64, CkptError> {
        let Some(path) = &self.path else {
            return Ok(0);
        };
        let file = self
            .entries
            .iter()
            .filter_map(|entry| {
                let tree = serde_json::from_str(entry.verified()?).ok()?;
                Some((entry.key.clone(), wrap(entry.crc, tree)))
            })
            .collect();
        CkptStore::from_entries(file).save(path)
    }
}

/// `bsim scrub`: [`ResultStore::open`] the file at `path` — which sets
/// an unreadable or version-mismatched file aside whole and drops every
/// entry whose checksum fails — and, when entries were dropped,
/// atomically rewrite the clean remainder. An absent file scrubs to an
/// empty report.
pub fn scrub(path: &Path) -> (ScrubReport, Report) {
    let (store, quarantined, mut report) = ResultStore::open_audited(path);
    let mut scrub = ScrubReport {
        scanned: store.len() + quarantined.len(),
        ok: store.len(),
        quarantined,
        rewritten: false,
    };
    if !scrub.quarantined.is_empty() {
        match store.flush() {
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

/// The file at `path`, for [`ResultStore::open`] and [`scrub`] alike.
/// One this binary cannot read — another format version (SV003) or not
/// parseable (SV004) — is reported, renamed aside to
/// `<path>.quarantined` and `None`, as is (silently) an absent one.
fn load_or_quarantine(path: &Path, report: &mut Report) -> Option<CkptStore> {
    let finding = match CkptStore::load(path) {
        Ok(file) => return Some(file),
        Err(CkptError::VersionMismatch { found, supported }) => Diagnostic::warning(
            "SV003",
            path.display().to_string(),
            format!(
                "result store has format version {found}, this binary reads {supported}: \
                 quarantined whole, nothing in it is served"
            ),
        ),
        Err(e) if path.exists() => Diagnostic::warning(
            "SV004",
            path.display().to_string(),
            format!(
                "result store is unreadable ({e}, likely a torn write): \
                 quarantined whole, nothing in it is served"
            ),
        ),
        Err(_) => return None,
    };
    report.push(finding.with_help("the file was renamed to <store>.quarantined"));
    // Best-effort: if the rename fails the finding already told the
    // operator the file is bad, and we still refuse to serve from it.
    let mut aside = path.as_os_str().to_os_string();
    aside.push(".quarantined");
    std::fs::rename(path, &aside).ok();
    None
}

impl ResultStore {
    /// Fault injection, for this crate's tests and the daemon's: flips
    /// the low bit of the first digit in the bytes resident under `key`
    /// and leaves the stored checksum alone — a bit gone bad in a
    /// long-lived process's heap. A digit stays a digit, so the bytes
    /// still parse: only the checksum can tell. Panics when `key` is
    /// absent or its entry holds no digit.
    pub fn flip_resident_bit(&mut self, key: &str) {
        let entry = &mut self.entries[self.index[key]];
        let mut bytes = entry.bytes.as_bytes().to_vec();
        let at = bytes
            .iter()
            .position(u8::is_ascii_digit)
            .expect("the entry holds a number");
        bytes[at] ^= 1;
        entry.bytes = String::from_utf8(bytes).expect("still ASCII there").into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bsim-result-store-test");
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
    fn a_flipped_resident_byte_is_a_miss_not_a_served_result() {
        let tree = Value::Map(vec![("cycles".into(), Value::U64(123_456))]);
        let mut store = ResultStore::ephemeral();
        store.put("aaaa", &tree);
        store.put("bbbb", &tree);
        assert_eq!(
            store.get_bytes("aaaa").as_deref(),
            Some(r#"{"cycles":123456}"#)
        );

        store.flip_resident_bit("aaaa");
        assert_eq!(store.entries[0].bytes.as_ref(), r#"{"cycles":023456}"#);
        assert!(store.get_bytes("aaaa").is_none(), "flipped bytes served");
        assert!(store.get("aaaa").is_none(), "flipped tree served");
        assert_eq!(
            store.get("bbbb"),
            Some(tree.clone()),
            "the rest still serves"
        );
        assert_eq!(store.len(), 2, "a failed read drops nothing");

        // A recompute replaces the entry in place and it serves again.
        store.put("aaaa", &tree);
        assert_eq!(store.get("aaaa"), Some(tree));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn a_flipped_resident_entry_is_left_out_of_the_flush() {
        let path = tmp("resident-flip");
        let (mut store, _) = ResultStore::open(&path);
        store.put("good", &Value::U64(7));
        store.put("evil", &Value::U64(9));
        store.flip_resident_bit("evil");
        store.flush().unwrap();
        let (reopened, report) = ResultStore::open(&path);
        assert!(report.is_clean(), "{report}");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get("good"), Some(Value::U64(7)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reads_hand_out_the_resident_allocation() {
        let mut store = ResultStore::ephemeral();
        store.put("k", &Value::Str("one copy".into()));
        let (a, b) = (store.get_bytes("k").unwrap(), store.get_bytes("k").unwrap());
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &store.entries[0].bytes));
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
