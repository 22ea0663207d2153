//! Cell identity: a stable, field-order-independent hash of *what a
//! cell computes* — (canonicalized platform config × workload × sizes ×
//! seed × code/schema version). [`crate::WireCell::key`] is the one way
//! to a key and a key is the only thing that indexes a
//! [`crate::ResultStore`], so identical cells collide in the
//! store whichever command asked for them — `bsim fig` or a `bsim
//! submit` — and are served instead of re-simulated. Labels
//! (`fig3a`, `fig:3/smoke/0`, `Rocket 1/EM5`) are display names.
//!
//! ## Canonical form
//!
//! The hash is taken over the deterministic JSON rendering of a
//! *canonicalized* [`Value`] tree:
//!
//! - map keys are sorted, so two maps built in different insertion
//!   orders (the shim's `Value::Map` is insertion-ordered) hash alike;
//! - any `telemetry` field is dropped — [`bsim_soc::SocConfig`]
//!   documents that telemetry never affects simulated timing, so two
//!   configs differing only in observability are semantically equal;
//! - non-negative integers unify to `U64` (the shim's `I64(3)` and
//!   `U64(3)` render identically anyway, but the canonical tree should
//!   not depend on that), and `-0.0` normalizes to `0.0`;
//! - non-finite floats normalize to the tagged strings `"__f64:nan"`,
//!   `"__f64:inf"`, and `"__f64:-inf"`. Every NaN — any sign, any
//!   payload — collapses to the *same* canonical form, so two configs
//!   that serialized NaN differently can never hash to distinct keys,
//!   while the two infinities stay distinct from each other and from
//!   every finite value. The `__f64:` prefix keeps the markers out of
//!   the namespace any plausible config string occupies.
//!
//! Any *semantic* knob change — a cache way, the clock, the kernel
//! name, the size preset, the seed — lands in the rendered text and
//! therefore changes the key; host-side knobs (worker count, rank
//! count) have no field to land in. The unit tests pin both directions.
//!
//! ## Prefix and streaming suffix
//!
//! FNV-1a is a left-to-right fold over the canonical text, and the
//! canonical text of a micro cell sorts its fields as `code`, `config`,
//! `kind`, `scale`, `schema`, `seed`, `workload`: everything up to and
//! including the rendered `SocConfig` — the expensive part — is the same
//! for every cell of one platform, and every per-cell field sorts after
//! it. A [`MicroKeyer`] therefore hashes that prefix once and resumes
//! the fold over each cell's short suffix. It is the only micro-cell key
//! path ([`micro_cell_key`] goes through it); the generic
//! `key_of(versioned(..))` that the fig and tune keys use builds and
//! renders the whole tree, and is the oracle the keyer is tested
//! against. A field added to the micro key must sort after `config`, or
//! move into the prefix.

use serde::{Serialize, Value};
use std::fmt::{self, Write};

/// Result-store schema the daemon stamps on every result document.
/// Folded into every cell key so a schema migration invalidates old
/// entries by construction. (The id predates the perf ledger; renaming
/// it would orphan every stored entry.)
pub const STORE_SCHEMA: &str = "bsim-bench-v1";

/// Simulation code version folded into every cell key. Bump when a
/// model change makes previously stored results stale — old entries
/// then simply stop colliding instead of being served wrongly, in every
/// store any command filled. `the_code_version_is_bumped_with_the_golden`
/// below fails when the golden store is re-blessed without a bump.
const CODE_VERSION: u64 = 1;

/// `text` as a JSON string literal, in the renderer's own escaping.
pub fn json_str(text: &str) -> String {
    serde_json::to_string(text).expect("shim renderer is total")
}

/// Canonicalizes a value tree for hashing (see module docs).
fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Map(entries) => {
            let mut es: Vec<(String, Value)> = entries
                .iter()
                .filter(|(k, _)| k != "telemetry")
                .map(|(k, val)| (k.clone(), canonicalize(val)))
                .collect();
            es.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(es)
        }
        Value::Seq(s) => Value::Seq(s.iter().map(canonicalize).collect()),
        Value::I64(i) if *i >= 0 => Value::U64(*i as u64),
        Value::F64(f) if f.is_nan() => Value::Str("__f64:nan".into()),
        Value::F64(f) if *f == f64::INFINITY => Value::Str("__f64:inf".into()),
        Value::F64(f) if *f == f64::NEG_INFINITY => Value::Str("__f64:-inf".into()),
        Value::F64(f) if *f == 0.0 => Value::F64(0.0),
        other => other.clone(),
    }
}

/// 64-bit FNV-1a over the canonical JSON rendering. FNV is not
/// collision-resistant against adversaries, but cache keys here only
/// ever face honest configs, and 64 bits over a handful of entries is
/// far below birthday territory.
fn content_hash(v: &Value) -> u64 {
    let mut h = Fnv::default();
    h.update(&canonical_text(v));
    h.0
}

/// The text the hash is taken over: the compact rendering of the
/// canonicalized tree.
fn canonical_text(v: &Value) -> String {
    serde_json::to_string(&canonicalize(v)).expect("shim renderer is total")
}

/// Streaming FNV-1a 64 state; `write!` into it to fold formatted text
/// without building the string.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn update(&mut self, text: &str) {
        // A local accumulator: `self` may have been lent to `write!`,
        // after which the compiler has to assume `text` can alias it
        // and would reload and store the state around every byte.
        let mut h = self.0;
        for b in text.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The 16-hex-digit store key of the text folded so far.
    fn key(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.update(text);
        Ok(())
    }
}

/// Renders a canonical tree's hash as the 16-hex-digit store key.
fn key_of(v: &Value) -> String {
    Fnv(content_hash(v)).key()
}

fn versioned(kind: &str, mut fields: Vec<(String, Value)>) -> Value {
    fields.push(("kind".into(), Value::Str(kind.into())));
    fields.push(("schema".into(), Value::Str(STORE_SCHEMA.into())));
    fields.push(("code".into(), Value::U64(CODE_VERSION)));
    Value::Map(fields)
}

/// Keys the microbenchmark cells of one platform: the FNV state after
/// the cell-invariant prefix `{"code":…,"config":<canonical SocConfig>`
/// of the canonical text (see the module docs).
pub struct MicroKeyer(Fnv);

impl MicroKeyer {
    /// Canonicalizes, renders and hashes `cfg` — once per platform.
    pub fn new(cfg: &bsim_soc::SocConfig) -> MicroKeyer {
        let mut h = Fnv::default();
        write!(h, "{{\"code\":{CODE_VERSION},\"config\":").expect("hashing cannot fail");
        h.update(&canonical_text(&cfg.to_value()));
        MicroKeyer(h)
    }

    /// Key for the cell `kernel × scale × seed` on this platform, under
    /// the current schema/code version.
    pub fn key(&self, kernel: &str, scale: u32, seed: u64) -> String {
        let mut h = self.0;
        let (schema, workload) = (json_str(STORE_SCHEMA), json_str(kernel));
        write!(
            h,
            ",\"kind\":\"micro\",\"scale\":{scale},\"schema\":{schema},\
             \"seed\":{seed},\"workload\":{workload}}}"
        )
        .expect("hashing cannot fail");
        h.key()
    }
}

/// Key for one microbenchmark cell: platform config × kernel × scale ×
/// seed, under the current schema/code version. A grid builds one
/// `MicroKeyer` per platform instead.
pub fn micro_cell_key(cfg: &bsim_soc::SocConfig, kernel: &str, scale: u32, seed: u64) -> String {
    MicroKeyer::new(cfg).key(kernel, scale, seed)
}

/// Key for one figure subcell (e.g. `fig3a`) at a named size preset.
/// Host parallelism is deliberately absent: figures are bit-identical
/// across worker counts, so `--par` must not fragment the cache.
pub(crate) fn fig_cell_key(figure: &str, subkey: &str, sizes: &str, seed: u64) -> String {
    key_of(&versioned(
        "fig",
        vec![
            ("figure".into(), Value::Str(figure.into())),
            ("subkey".into(), Value::Str(subkey.into())),
            ("sizes".into(), Value::Str(sizes.into())),
            ("seed".into(), Value::U64(seed)),
        ],
    ))
}

/// Key for the §4 model-selection loop at a given probe scale.
pub(crate) fn tune_cell_key(scale: u32, seed: u64) -> String {
    key_of(&versioned(
        "tune",
        vec![
            ("scale".into(), Value::U64(u64::from(scale))),
            ("seed".into(), Value::U64(seed)),
        ],
    ))
}

/// Key for a cell that names nothing this binary has (an unknown
/// figure, subfigure or platform). Such a cell cannot run, so nothing
/// is ever stored under its key; it only has to differ from every
/// runnable cell's.
pub(crate) fn unrunnable_cell_key(label: &str, seed: u64) -> String {
    key_of(&versioned(
        "unrunnable",
        vec![
            ("label".into(), Value::Str(label.into())),
            ("seed".into(), Value::U64(seed)),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsim_soc::{configs, TelemetryConfig};

    #[test]
    fn map_key_order_does_not_matter() {
        let a = Value::Map(vec![
            ("x".into(), Value::U64(1)),
            ("y".into(), Value::Str("b".into())),
        ]);
        let b = Value::Map(vec![
            ("y".into(), Value::Str("b".into())),
            ("x".into(), Value::U64(1)),
        ]);
        assert_eq!(content_hash(&a), content_hash(&b));
        // ... including inside nested maps.
        let na = Value::Map(vec![("inner".into(), a)]);
        let nb = Value::Map(vec![("inner".into(), b)]);
        assert_eq!(content_hash(&na), content_hash(&nb));
    }

    #[test]
    fn numeric_and_zero_normalization() {
        assert_eq!(
            content_hash(&Value::I64(7)),
            content_hash(&Value::U64(7)),
            "non-negative ints unify"
        );
        assert_eq!(
            content_hash(&Value::F64(-0.0)),
            content_hash(&Value::F64(0.0))
        );
        assert_ne!(content_hash(&Value::I64(-7)), content_hash(&Value::U64(7)));
    }

    #[test]
    fn non_finite_floats_canonicalize() {
        // Every NaN — negated, payload-carrying, the default — is the
        // same canonical value, so serialization differences cannot
        // fragment the cache.
        let quiet = f64::NAN;
        let negated = -f64::NAN;
        let payload = f64::from_bits(f64::NAN.to_bits() | 0xdead);
        assert!(payload.is_nan());
        let h = content_hash(&Value::F64(quiet));
        assert_eq!(h, content_hash(&Value::F64(negated)));
        assert_eq!(h, content_hash(&Value::F64(payload)));

        // The infinities stay distinct from each other, from NaN, and
        // from large finite values.
        let pinf = content_hash(&Value::F64(f64::INFINITY));
        let ninf = content_hash(&Value::F64(f64::NEG_INFINITY));
        assert_ne!(pinf, ninf);
        assert_ne!(pinf, h);
        assert_ne!(ninf, h);
        assert_ne!(pinf, content_hash(&Value::F64(f64::MAX)));

        // The markers live in a tagged namespace: an actual config
        // string "inf" does not collide with the float infinity.
        assert_ne!(pinf, content_hash(&Value::Str("inf".into())));
        assert_ne!(h, content_hash(&Value::Str("NaN".into())));
    }

    #[test]
    fn equal_configs_hash_identically_telemetry_stripped() {
        // Two differently-constructed but semantically equal platforms:
        // telemetry is observational only, so enabling it must not
        // fragment the cache.
        let plain = configs::rocket1(1);
        let observed = configs::rocket1(1).with_telemetry(TelemetryConfig::counters());
        assert_eq!(
            micro_cell_key(&plain, "EM5", 1, 0),
            micro_cell_key(&observed, "EM5", 1, 0)
        );
        // And a by-name catalog lookup of the same platform agrees with
        // direct construction.
        let by_name = configs::by_name("rocket 1", 1).unwrap();
        assert_eq!(
            micro_cell_key(&plain, "EM5", 1, 0),
            micro_cell_key(&by_name, "EM5", 1, 0)
        );
    }

    #[test]
    fn any_knob_change_changes_the_key() {
        let base = configs::rocket1(1);
        let k = micro_cell_key(&base, "EM5", 1, 0);

        let mut faster = configs::rocket1(1);
        faster.freq_ghz += 0.1;
        assert_ne!(k, micro_cell_key(&faster, "EM5", 1, 0), "clock knob");

        let wider = configs::rocket1(2);
        assert_ne!(k, micro_cell_key(&wider, "EM5", 1, 0), "core count");

        assert_ne!(k, micro_cell_key(&base, "STc", 1, 0), "workload");
        assert_ne!(k, micro_cell_key(&base, "EM5", 2, 0), "scale");
        assert_ne!(k, micro_cell_key(&base, "EM5", 1, 1), "seed");
        assert_ne!(
            k,
            micro_cell_key(&configs::rocket2(1), "EM5", 1, 0),
            "different platform"
        );
    }

    /// The generic path the fig and tune keys take, applied to a micro
    /// cell: build the whole tree, canonicalize it, render it, hash it.
    fn generic_micro_tree(cfg: &bsim_soc::SocConfig, kernel: &str, scale: u32, seed: u64) -> Value {
        versioned(
            "micro",
            vec![
                ("config".into(), cfg.to_value()),
                ("workload".into(), Value::Str(kernel.into())),
                ("scale".into(), Value::U64(u64::from(scale))),
                ("seed".into(), Value::U64(seed)),
            ],
        )
    }

    fn generic_micro_key(cfg: &bsim_soc::SocConfig, kernel: &str, scale: u32, seed: u64) -> String {
        key_of(&generic_micro_tree(cfg, kernel, scale, seed))
    }

    #[test]
    fn the_keyer_agrees_with_the_generic_path_on_the_whole_catalog() {
        let mut kernels: Vec<String> = bsim_workloads::microbench::suite()
            .iter()
            .map(|k| k.name.to_string())
            .collect();
        // A name the renderer has to escape, and one made of the bytes
        // the canonical text is punctuated with.
        kernels.push("a\"b\\c\n\u{1}".into());
        kernels.push("},\"seed\":7".into());
        let names: Vec<String> = configs::catalog(1).into_iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 10, "the ten platforms `bsim list` prints");
        let mut platforms: Vec<bsim_soc::SocConfig> = names
            .iter()
            .map(|name| configs::by_name(name, 1).expect("cataloged"))
            .collect();
        platforms.push(configs::large_boom(4).with_telemetry(TelemetryConfig::counters()));
        for cfg in &platforms {
            let keyer = MicroKeyer::new(cfg);
            for kernel in &kernels {
                for seed in [0, 1, 1_000_000] {
                    for scale in [1, 3] {
                        let want = generic_micro_key(cfg, kernel, scale, seed);
                        assert_eq!(
                            keyer.key(kernel, scale, seed),
                            want,
                            "{} / {kernel:?} / scale {scale} / seed {seed}",
                            cfg.name
                        );
                        assert_eq!(micro_cell_key(cfg, kernel, scale, seed), want);
                    }
                }
            }
        }
    }

    #[test]
    fn kinds_and_subkeys_do_not_collide() {
        assert_ne!(fig_cell_key("1", "fig1", "smoke", 0), tune_cell_key(1, 0));
        assert_ne!(
            fig_cell_key("3", "fig3a", "smoke", 0),
            fig_cell_key("3", "fig3b", "smoke", 0)
        );
        assert_ne!(
            fig_cell_key("1", "fig1", "smoke", 0),
            fig_cell_key("1", "fig1", "default", 0)
        );
    }

    /// `tree` with its `code` field replaced.
    fn at_code_version(tree: Value, code: u64) -> Value {
        let Value::Map(mut fields) = tree else {
            panic!("a key tree is a map");
        };
        for (name, value) in &mut fields {
            if name == "code" {
                *value = Value::U64(code);
            }
        }
        Value::Map(fields)
    }

    #[test]
    fn the_code_version_changes_every_key() {
        let tree = versioned("tune", vec![("seed".into(), Value::U64(0))]);
        let now = key_of(&tree);
        assert_eq!(now, key_of(&at_code_version(tree.clone(), CODE_VERSION)));
        assert_ne!(now, key_of(&at_code_version(tree, CODE_VERSION + 1)));
        // `versioned` is the only way to a fig, tune or unrunnable
        // key, and the micro prefix spells the same field.
        let cfg = configs::rocket1(1);
        let micro = generic_micro_tree(&cfg, "EM5", 1, 0);
        assert_eq!(micro_cell_key(&cfg, "EM5", 1, 0), key_of(&micro));
        assert_ne!(
            micro_cell_key(&cfg, "EM5", 1, 0),
            key_of(&at_code_version(micro, CODE_VERSION + 1))
        );
    }

    /// The checksum of the golden store is pinned with `CODE_VERSION`.
    /// After a re-bless of `tests/golden.json` (the root crate's
    /// `tests/golden.rs`), update the pair below. Where an entry that was
    /// already stored moved, a model change moved simulated numbers and
    /// every stored result is stale: bump `CODE_VERSION` too. Where the
    /// bless only added or renamed pins, the CRC alone moves.
    #[test]
    fn the_code_version_is_bumped_with_the_golden() {
        const GOLDEN: &[u8] = include_bytes!("../../../tests/golden.json");
        assert_eq!(
            (CODE_VERSION, crate::crc32(GOLDEN)),
            (1, 0x4233_cd58),
            "the golden store changed: pin its new CRC, and bump CODE_VERSION \
             if an entry that was already stored moved"
        );
    }

    #[test]
    fn keys_are_16_hex_digits() {
        let k = tune_cell_key(1, 42);
        assert_eq!(k.len(), 16);
        assert!(k.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
