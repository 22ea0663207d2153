//! Versioned on-disk checkpoint store.
//!
//! A [`CkptStore`] is a keyed collection of [`Snapshot`] trees that
//! serializes to a single deterministic JSON file with a format version
//! header, so a stale file from an incompatible binary fails loudly with
//! [`CkptError::VersionMismatch`] instead of silently misparsing. It is
//! a file format, not a cache: it vouches for nothing it holds. Cell
//! results are kept in a [`crate::ResultStore`], which wraps this format
//! with a checksum per entry and is keyed by cell content hashes; what
//! uses a bare `CkptStore` is the figure golden file and harness
//! checkpoint tests.
//!
//! ## Format (v1)
//!
//! ```json
//! { "version": 1, "cells": { "<key>": <snapshot tree>, ... } }
//! ```
//!
//! Keys keep insertion order, so re-writing the same store is
//! byte-stable — the property the store re-flush tests rely on.

use crate::snapshot::{field, CkptError, Snapshot};
use serde::Value;
use std::path::Path;

/// Checkpoint format version this binary reads and writes.
///
/// Bump on any layout change; `load` refuses other versions. There is
/// deliberately no migration machinery — checkpoints are short-lived
/// run artifacts, not archives.
const CKPT_VERSION: u64 = 1;

/// Keyed, versioned collection of snapshot trees.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CkptStore {
    entries: Vec<(String, Value)>,
}

impl CkptStore {
    pub fn new() -> CkptStore {
        CkptStore::default()
    }

    /// A store of `entries` as they are, in their order — for a caller
    /// that keeps its own keyed collection and only needs the file
    /// format. The keys must be distinct: [`CkptStore::put`]'s
    /// replace-by-key scan is what this skips.
    pub(crate) fn from_entries(entries: Vec<(String, Value)>) -> CkptStore {
        CkptStore { entries }
    }

    /// Number of checkpointed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Save `state` under `key`, replacing any previous entry for it.
    pub fn put<T: Snapshot>(&mut self, key: &str, state: &T) {
        let tree = state.save();
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = tree,
            None => self.entries.push((key.to_string(), tree)),
        }
    }

    /// Restore the entry under `key`, or `None` if absent. A present
    /// but malformed entry is an error, not a silent miss.
    pub fn get<T: Snapshot>(&self, key: &str) -> Result<Option<T>, CkptError> {
        match self.entries.iter().find(|(k, _)| k == key) {
            Some((_, tree)) => T::restore(tree).map(Some),
            None => Ok(None),
        }
    }

    /// Raw `(key, tree)` views in insertion order — [`crate::ResultStore`]
    /// walks these to verify entry checksums without interpreting the
    /// trees.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".to_string(), Value::U64(CKPT_VERSION)),
            ("cells".to_string(), Value::Map(self.entries.clone())),
        ])
    }

    /// Render the store to its on-disk JSON text.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("shim renderer is total")
    }

    /// Parse a store from JSON text, verifying the version header.
    pub(crate) fn from_json(text: &str) -> Result<CkptStore, CkptError> {
        let tree = serde_json::from_str(text).map_err(|e| CkptError::Corrupt {
            detail: e.to_string(),
        })?;
        let version = field(&tree, "version")?
            .as_u64()
            .ok_or(CkptError::WrongType {
                field: "version".to_string(),
                expected: "u64",
            })?;
        if version != CKPT_VERSION {
            return Err(CkptError::VersionMismatch {
                found: version,
                supported: CKPT_VERSION,
            });
        }
        match field(&tree, "cells")? {
            Value::Map(entries) => Ok(CkptStore {
                entries: entries.clone(),
            }),
            _ => Err(CkptError::WrongType {
                field: "cells".to_string(),
                expected: "map",
            }),
        }
    }

    /// Write the store to `path` through a temp-file-plus-rename,
    /// returning the byte count written. A reader (or a crash) can never
    /// observe a half-written store: the rename is atomic on POSIX
    /// filesystems, and a write that fails or a process killed mid-write
    /// leaves the previous complete file in place (plus, for the kill, an
    /// orphaned `.tmp`).
    pub fn save(&self, path: &Path) -> Result<u64, CkptError> {
        let text = self.to_json();
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &text).map_err(|e| CkptError::Corrupt {
            detail: format!("write {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| CkptError::Corrupt {
            detail: format!("rename {} -> {}: {e}", tmp.display(), path.display()),
        })?;
        Ok(text.len() as u64)
    }

    /// Load a store from `path`.
    pub fn load(path: &Path) -> Result<CkptStore, CkptError> {
        let text = std::fs::read_to_string(path).map_err(|e| CkptError::Corrupt {
            detail: format!("read {}: {e}", path.display()),
        })?;
        CkptStore::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_json_roundtrip() {
        let mut store = CkptStore::new();
        store.put("fig4/cell0", &(1.5f64, 42u64));
        store.put("fig4/cell1", &(2.5f64, 43u64));
        store.put("fig4/cell0", &(9.0f64, 99u64)); // overwrite, order kept
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.entries().map(|(k, _)| k).collect::<Vec<_>>(),
            ["fig4/cell0", "fig4/cell1"]
        );
        assert_eq!(
            store.get::<(f64, u64)>("fig4/cell0").unwrap(),
            Some((9.0, 99))
        );
        assert_eq!(store.get::<(f64, u64)>("fig9/none").unwrap(), None);

        let text = store.to_json();
        let reloaded = CkptStore::from_json(&text).unwrap();
        assert_eq!(reloaded, store);
        // Byte-stable re-render.
        assert_eq!(reloaded.to_json(), text);
    }

    #[test]
    fn from_entries_builds_the_store_put_would() {
        let mut put = CkptStore::new();
        put.put("a", &1u64);
        put.put("b", &2u64);
        let built = CkptStore::from_entries(vec![
            ("a".to_string(), Value::U64(1)),
            ("b".to_string(), Value::U64(2)),
        ]);
        assert_eq!(built, put);
        assert_eq!(built.to_json(), put.to_json());
    }

    #[test]
    fn version_and_shape_are_enforced() {
        assert!(matches!(
            CkptStore::from_json(r#"{"version":99,"cells":{}}"#),
            Err(CkptError::VersionMismatch { found: 99, .. })
        ));
        assert!(matches!(
            CkptStore::from_json(r#"{"cells":{}}"#),
            Err(CkptError::MissingField { .. })
        ));
        assert!(matches!(
            CkptStore::from_json(r#"{"version":1,"cells":[]}"#),
            Err(CkptError::WrongType { .. })
        ));
        assert!(matches!(
            CkptStore::from_json("not json"),
            Err(CkptError::Corrupt { .. })
        ));
        // Malformed entry under a present key is loud.
        let store = CkptStore::from_json(r#"{"version":1,"cells":{"a":"nope"}}"#).unwrap();
        assert!(store.get::<u64>("a").is_err());
    }

    #[test]
    fn file_save_load_accounts_bytes() {
        let dir = std::env::temp_dir().join("bsim-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("store-{}.ckpt.json", std::process::id()));
        let mut store = CkptStore::new();
        store.put("k", &7u64);
        let bytes = store.save(&path).unwrap();
        assert!(bytes > 0);
        assert_eq!(CkptStore::load(&path).unwrap(), store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("bsim-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("atomic-{}.ckpt.json", std::process::id()));
        let mut store = CkptStore::new();
        store.put("k", &1u64);
        store.save(&path).unwrap();
        store.put("k", &2u64);
        store.save(&path).unwrap();
        assert_eq!(
            CkptStore::load(&path).unwrap().get::<u64>("k").unwrap(),
            Some(2)
        );
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        assert!(!tmp.exists(), "temp file must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_save_leaves_the_previous_file_intact() {
        let dir = std::env::temp_dir().join("bsim-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn-{}.ckpt.json", std::process::id()));
        let mut store = CkptStore::new();
        store.put("k", &1u64);
        store.save(&path).unwrap();
        // A directory squatting on the temp path makes the write fail.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        store.put("k", &2u64);
        let err = store.save(&path).expect_err("the temp path is unwritable");
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
        assert_eq!(
            CkptStore::load(&path).unwrap().get::<u64>("k").unwrap(),
            Some(1),
            "the previous complete store must still load"
        );
        std::fs::remove_dir(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }
}
