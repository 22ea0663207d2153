//! Golden digests of the simulated statistics. A host-side optimisation
//! must leave every simulated number identical, so each run digests the
//! serialized report of every cell and compares it with `golden.json`;
//! `ledger bless` regenerates that file after a deliberate model change.

use serde::Value;
use std::collections::BTreeMap;

/// The committed goldens, compiled in so a run needs no file lookup.
const GOLDEN_JSON: &str = include_str!("../golden.json");

/// Digests by cell key. Keys are sorted, so seed-permuted cell order
/// never shows in the file or in a comparison.
pub type Section = BTreeMap<String, String>;

/// FNV-1a 64 of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The golden section `name` (`<sizes>/<workload>`); empty when the
/// file has none yet.
pub fn section(name: &str) -> Section {
    all_sections().remove(name).unwrap_or_default()
}

/// Renders `sections` as the golden file: sorted, one digest per line.
pub fn render(sections: &BTreeMap<String, Section>) -> String {
    let mut out = String::from("{\n");
    let mut first_section = true;
    for (name, section) in sections {
        if !first_section {
            out.push_str(",\n");
        }
        first_section = false;
        out.push_str(&format!("  \"{name}\": {{\n"));
        let mut first = true;
        for (k, d) in section {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("    \"{k}\": \"{d}\""));
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Every section currently in the golden file.
pub fn all_sections() -> BTreeMap<String, Section> {
    let tree = serde_json::from_str(GOLDEN_JSON).expect("golden.json is valid JSON");
    let Value::Map(sections) = tree else {
        return BTreeMap::new();
    };
    let digests = |v: &Value| -> Section {
        let Value::Map(entries) = v else {
            return Section::new();
        };
        entries
            .iter()
            .filter_map(|(k, d)| Some((k.clone(), d.as_str()?.to_string())))
            .collect()
    };
    sections
        .iter()
        .map(|(name, v)| (name.clone(), digests(v)))
        .collect()
}

/// Output checker of one run: compares what a pass produced with the
/// golden section, and keeps what it saw so `bless` can write it back.
pub struct Check {
    golden: Section,
    pub observed: Section,
    bless: bool,
}

impl Check {
    pub fn new(section_name: &str, bless: bool) -> Check {
        Check {
            golden: section(section_name),
            observed: Section::new(),
            bless,
        }
    }

    /// True when `text` digests to the golden value for `key` (and to
    /// what an earlier pass of this run produced for it).
    pub fn verify(&mut self, key: &str, text: &str) -> bool {
        let d = digest(text);
        let repeat_ok = match self.observed.get(key) {
            Some(seen) => *seen == d,
            None => {
                self.observed.insert(key.to_string(), d.clone());
                true
            }
        };
        repeat_ok && (self.bless || self.golden.get(key) == Some(&d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a64() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn check_flags_a_changed_or_unknown_cell() {
        let mut c = Check {
            golden: Section::from([("k".to_string(), digest("same"))]),
            observed: Section::new(),
            bless: false,
        };
        assert!(c.verify("k", "same"));
        assert!(c.verify("k", "same"));
        assert!(
            !c.verify("k", "drifted"),
            "differs from golden and from pass 1"
        );
        assert!(!c.verify("new", "anything"), "no golden for this cell");
        let mut b = Check {
            golden: Section::new(),
            observed: Section::new(),
            bless: true,
        };
        assert!(b.verify("new", "anything"));
        assert!(
            !b.verify("new", "else"),
            "bless still demands repeatability"
        );
    }

    #[test]
    fn rendered_goldens_parse_back() {
        let mut s = BTreeMap::new();
        s.insert(
            "full/w".to_string(),
            Section::from([("a".into(), "01".into()), ("b".into(), "02".into())]),
        );
        let text = render(&s);
        let tree = serde_json::from_str(&text).unwrap();
        assert_eq!(
            tree.get("full/w")
                .and_then(|w| w.get("b"))
                .and_then(Value::as_str),
            Some("02")
        );
    }
}
