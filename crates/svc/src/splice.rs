//! Splicing stored bytes into a pretty-printed document.
//!
//! The store holds each result as its compact rendering and the daemon
//! answers in the pretty one. [`reindent`] turns the first into the
//! second in a single pass over the bytes — no tree is parsed, cloned
//! or rendered — and its output is byte-identical to what
//! `serde_json::to_string_pretty` prints for the same value nested at
//! the same depth. That holds because the two renderings of the shim
//! differ in whitespace only, and only at structural bytes: a newline
//! and two spaces per level after `{`, `[` and `,` and before `}` and
//! `]`, one space after `:`, nothing inside an empty `{}` or `[]`, and
//! nothing at all inside a string. Scalars and string bodies are copied
//! through as they are.

/// `out.push('\n')` plus two spaces per `depth`.
fn newline_indent(out: &mut String, depth: usize) {
    const SPACES: &str = "                                ";
    out.push('\n');
    let mut width = 2 * depth;
    while width > 0 {
        let n = width.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        width -= n;
    }
}

/// Appends the pretty rendering of `compact` — one value in the shim's
/// compact rendering, i.e. no whitespace outside strings — as it prints
/// when the value sits `depth` levels deep in a document. The opening
/// byte goes where `out` ends: the caller has already written the
/// indentation or the `"key": ` in front of it.
pub(crate) fn reindent(out: &mut String, compact: &str, mut depth: usize) {
    let bytes = compact.as_bytes();
    // Every split below is at an ASCII byte, hence on a char boundary.
    let mut copied = 0;
    let mut at = 0;
    while at < bytes.len() {
        let byte = bytes[at];
        if byte == b'"' {
            // Skip to the closing quote; the run is copied verbatim.
            at += 1;
            while at < bytes.len() && bytes[at] != b'"' {
                at += if bytes[at] == b'\\' { 2 } else { 1 };
            }
            at += 1;
            continue;
        }
        if !matches!(byte, b'{' | b'[' | b'}' | b']' | b',' | b':') {
            at += 1;
            continue;
        }
        out.push_str(&compact[copied..at]);
        at += 1;
        copied = at;
        match byte {
            b'{' | b'[' => {
                out.push(byte as char);
                if matches!(bytes.get(at), Some(b'}' | b']')) {
                    // Empty: the pair prints closed up.
                    out.push(bytes[at] as char);
                    at += 1;
                    copied = at;
                } else {
                    depth += 1;
                    newline_indent(out, depth);
                }
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                newline_indent(out, depth);
                out.push(byte as char);
            }
            b',' => {
                out.push(',');
                newline_indent(out, depth);
            }
            _ => out.push_str(": "),
        }
    }
    out.push_str(&compact[copied..]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use serde::Value;

    /// Random value trees: empty and non-empty maps and seqs nested up
    /// to `depth` levels, strings made of the bytes the re-indenter
    /// treats as structure, and every numeric corner the renderer has a
    /// rule for.
    pub(crate) struct Trees {
        pub(crate) depth: usize,
    }

    const CHARS: [char; 16] = [
        '"', '\\', '{', '}', '[', ']', ',', ':', '\n', '\t', '\u{1}', '\u{1f}', ' ', 'a', 'é', '✓',
    ];

    fn string(rng: &mut TestRng) -> String {
        (0..rng.below(9))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// Strings out of the same alphabet as the trees' keys and values.
    pub(crate) struct Strings;

    impl Strategy for Strings {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            string(rng)
        }
    }

    fn scalar(rng: &mut TestRng) -> Value {
        match rng.below(12) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::U64(rng.below(1000)),
            3 => Value::U64(u64::MAX - rng.below(3)),
            4 => Value::I64(-(rng.below(1000) as i64) - 1),
            5 => Value::I64(i64::MIN + rng.below(3) as i64),
            6 => Value::F64(rng.below(100) as f64),
            7 => Value::F64((rng.unit_f64() - 0.5) * 1e6),
            8 => Value::F64([1e300, -1e-300, 5e-324, f64::MAX][rng.below(4) as usize]),
            9 => Value::F64([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize]),
            _ => Value::Str(string(rng)),
        }
    }

    impl Strategy for Trees {
        type Value = Value;

        fn generate(&self, rng: &mut TestRng) -> Value {
            if self.depth == 0 {
                return scalar(rng);
            }
            let below = Trees {
                depth: self.depth - 1,
            };
            // Lengths 0..=3, so empty containers are a quarter of them.
            match rng.below(4) {
                0 => scalar(rng),
                1 => Value::Seq((0..rng.below(4)).map(|_| below.generate(rng)).collect()),
                _ => Value::Map(
                    (0..rng.below(4))
                        .map(|_| (string(rng), below.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// `v` as the only element of `depth` nested one-element seqs.
    fn nested(v: &Value, depth: usize) -> Value {
        (0..depth).fold(v.clone(), |inner, _| Value::Seq(vec![inner]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn reindented_compact_bytes_are_the_pretty_rendering(
            v in Trees { depth: 5 },
            depth in 0usize..20,
        ) {
            let compact = serde_json::to_string(&v).unwrap();
            let mut got = String::new();
            reindent(&mut got, &compact, depth);
            // The pretty rendering of `v` nested `depth` deep is `depth`
            // openers, each followed by its newline and indentation,
            // then `v`, then the closers the same way.
            let pretty = serde_json::to_string_pretty(&nested(&v, depth)).unwrap();
            let lead: usize = (1..=depth).map(|d| 2 + 2 * d).sum();
            let tail: usize = (0..depth).map(|d| 2 + 2 * d).sum();
            prop_assert_eq!(&got, &pretty[lead..pretty.len() - tail]);
        }
    }

    #[test]
    fn deep_nesting_indents_past_the_space_table() {
        let v = nested(&Value::Map(vec![("k".into(), Value::U64(1))]), 40);
        let mut got = String::new();
        reindent(&mut got, &serde_json::to_string(&v).unwrap(), 0);
        assert_eq!(got, serde_json::to_string_pretty(&v).unwrap());
    }

    #[test]
    fn malformed_input_never_panics() {
        // Unreachable from the store (entries are renderer output behind
        // a CRC), but a closer without an opener or a string that never
        // ends must still come back as text, not as a panic.
        for bad in ["}", "]]", "\"abc", "\"abc\\", "{\"a\":", "[,,]", "{", ""] {
            let mut out = String::new();
            reindent(&mut out, bad, 0);
        }
    }
}
