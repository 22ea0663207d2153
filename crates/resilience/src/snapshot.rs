//! The [`Snapshot`] trait: serde-`Value`-based save/restore.
//!
//! The workspace's serde shim serializes (lowers a value into a
//! [`serde::Value`] tree) but has no deserializer, so a stored result
//! needs an explicit restore path. `Snapshot` pairs `save` (usually just
//! `Serialize::to_value`) with a hand-written `restore` that rebuilds
//! the type from the tree, reporting shape mismatches as typed
//! [`CkptError`]s instead of panicking — a store file is external
//! input and may come from an older binary.

use serde::Value;
use std::fmt;

/// Error restoring state from a checkpoint tree.
#[derive(Clone, Debug, PartialEq)]
pub enum CkptError {
    /// A required field was absent from a map.
    MissingField {
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field existed but held the wrong value shape.
    WrongType {
        /// Dotted path of the offending field.
        field: String,
        /// What the restore code expected, e.g. `"u64"`.
        expected: &'static str,
    },
    /// The checkpoint's format version is not one this binary reads.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this binary writes.
        supported: u64,
    },
    /// The file could not be read or parsed at all.
    Corrupt {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::MissingField { field } => {
                write!(f, "checkpoint missing field `{field}`")
            }
            CkptError::WrongType { field, expected } => {
                write!(f, "checkpoint field `{field}` is not a {expected}")
            }
            CkptError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint version {found} unsupported (this binary reads v{supported})"
            ),
            CkptError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// State that can be stored and restored.
///
/// `save` must capture everything `restore` needs to rebuild the value
/// bit-identically; anything deliberately excluded (host-side caches,
/// telemetry accumulators) must be documented at the impl site.
pub trait Snapshot: Sized {
    /// Lower the state into a value tree.
    fn save(&self) -> Value;
    /// Rebuild the state from a tree produced by [`Snapshot::save`].
    fn restore(value: &Value) -> Result<Self, CkptError>;
}

/// Fetch `value[field]`, typed error if absent.
pub fn field<'a>(value: &'a Value, field_name: &str) -> Result<&'a Value, CkptError> {
    value
        .get(field_name)
        .ok_or_else(|| CkptError::MissingField {
            field: field_name.to_string(),
        })
}

/// Fetch `value[field]` as `T` via its `Snapshot` impl.
pub fn restore_field<T: Snapshot>(value: &Value, field_name: &str) -> Result<T, CkptError> {
    T::restore(field(value, field_name)?)
}

impl Snapshot for u64 {
    fn save(&self) -> Value {
        Value::U64(*self)
    }
    fn restore(value: &Value) -> Result<Self, CkptError> {
        value.as_u64().ok_or(CkptError::WrongType {
            field: String::new(),
            expected: "u64",
        })
    }
}

impl Snapshot for f64 {
    fn save(&self) -> Value {
        Value::F64(*self)
    }
    fn restore(value: &Value) -> Result<Self, CkptError> {
        value.as_f64().ok_or(CkptError::WrongType {
            field: String::new(),
            expected: "f64",
        })
    }
}

impl Snapshot for String {
    fn save(&self) -> Value {
        Value::Str(self.clone())
    }
    fn restore(value: &Value) -> Result<Self, CkptError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or(CkptError::WrongType {
                field: String::new(),
                expected: "string",
            })
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self) -> Value {
        Value::Seq(self.iter().map(Snapshot::save).collect())
    }
    fn restore(value: &Value) -> Result<Self, CkptError> {
        value
            .as_seq()
            .ok_or(CkptError::WrongType {
                field: String::new(),
                expected: "sequence",
            })?
            .iter()
            .map(T::restore)
            .collect()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self) -> Value {
        match self {
            Some(v) => v.save(),
            None => Value::Null,
        }
    }
    fn restore(value: &Value) -> Result<Self, CkptError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::restore(value).map(Some)
        }
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self) -> Value {
        Value::Seq(vec![self.0.save(), self.1.save()])
    }
    fn restore(value: &Value) -> Result<Self, CkptError> {
        match value.as_seq() {
            Some([a, b]) => Ok((A::restore(a)?, B::restore(b)?)),
            _ => Err(CkptError::WrongType {
                field: String::new(),
                expected: "2-tuple",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + PartialEq + fmt::Debug>(v: T) {
        assert_eq!(T::restore(&v.save()).unwrap(), v);
    }

    #[test]
    fn scalars_and_containers_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(1.5f64);
        roundtrip(String::from("fig4/x86"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(9u64));
        roundtrip((3.25f64, 99u64));
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        assert!(matches!(
            u64::restore(&Value::Str("no".into())),
            Err(CkptError::WrongType {
                expected: "u64",
                ..
            })
        ));
        assert!(matches!(
            <(f64, u64)>::restore(&Value::Seq(vec![Value::F64(1.0)])),
            Err(CkptError::WrongType { .. })
        ));
        let map = Value::Map(vec![("cycle".into(), Value::U64(5))]);
        assert_eq!(restore_field::<u64>(&map, "cycle").unwrap(), 5);
        assert!(matches!(
            restore_field::<u64>(&map, "missing"),
            Err(CkptError::MissingField { .. })
        ));
    }

    #[test]
    fn errors_render() {
        let e = CkptError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(format!("{e}").contains("version 9"));
    }
}
