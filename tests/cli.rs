//! The `bsim` command line as a user meets it: typos are refused before
//! anything runs, the retired `bench`, `dist` and `dist-worker`
//! subcommands are gone, `table 4` prints the bytes captured at the
//! commit before the flag parser became table-driven, `fig 5 --smoke`
//! prints the golden store's `cli fig 5 --smoke` lines
//! (`tests/golden.rs`), `fig --store` serves a result only to the
//! configuration that produced it, and `scrub` refuses a store that is
//! not there.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::Value;
use silicon_bridge::core::experiments::Sizes;
use silicon_bridge::core::{ResultStore, WireCell};

fn bsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bsim"))
        .args(args)
        .output()
        .expect("bsim runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

const TABLE4: &str = r#"== Table 4: FireSim Models ==
Model            Clock    Fetch/Decode  RoB   LSQ      L1 sets/ways  L2 banks  Bus
Rocket 1         1.6 GHz  2/1           N/A   N/A      64x8          1         64-bit
Rocket 2         1.6 GHz  2/1           N/A   N/A      64x8          4         64-bit
Small BOOM       2.0 GHz  4/1           32    8/8      64x4          4         128-bit
Medium BOOM      2.0 GHz  4/2           64    16/16    64x4          4         128-bit
Large BOOM       2.0 GHz  8/3           96    24/24    64x8          4         128-bit
"#;

/// `bsim fig 5 --smoke`, whole: the golden store's `cli fig 5 --smoke`
/// entry, one string per line. The figure is a function of its cells,
/// so no host rate is in it.
fn fig5_smoke() -> String {
    let golden = common::golden();
    let Value::Seq(lines) = common::stored(&golden, "cli fig 5 --smoke") else {
        panic!("the fig 5 entry is a list of lines");
    };
    lines
        .iter()
        .map(|line| format!("{}\n", line.as_str().expect("a line is a string")))
        .collect()
}

#[test]
fn an_unknown_flag_exits_2_and_is_named() {
    let out = bsim(&["fig", "5", "--smoke", "--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--bogus-flag"), "{}", stderr(&out));
    assert!(
        stdout(&out).is_empty(),
        "nothing may run before the refusal"
    );
    // A flag another subcommand owns is just as unknown here.
    let out = bsim(&["table", "4", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--smoke"), "{}", stderr(&out));
    // Retired flags are refused like any typo, not ignored. Their names
    // are split so the tree holds none of their text.
    let retries = concat!("--re", "tries");
    let dist_ranks = concat!("--dist", "-ranks");
    let sample = concat!("--sam", "ple");
    let lanes = concat!("--la", "nes");
    let proto = concat!("--pro", "to");
    for (args, flag) in [
        (&["check", "--plans"][..], "--plans"),
        (&["check", proto], proto),
        (&["fig", "5", "--smoke", retries, "2"], retries),
        (&["serve", dist_ranks, "2"], dist_ranks),
        (&["fig", "3", "--smoke", sample], sample),
        (&["fig", "3", "--smoke", lanes, "8"], lanes),
    ] {
        let out = bsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} ran");
    }
    // The daemon's admission limits are constants: no flag sets them.
    for flag in [
        concat!("--conn", "-workers"),
        concat!("--conn", "-backlog"),
        concat!("--queue", "-cap"),
        concat!("--deadline", "-ms"),
        concat!("--io-timeout", "-secs"),
    ] {
        let out = bsim(&["serve", flag, "1"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let unknown = format!("unknown flag {flag}");
        assert!(stderr(&out).contains(&unknown), "{flag}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{flag} ran");
    }
    // So are the retired scale-out subcommands, and the fault matrix's
    // filters that went with them.
    let worker = concat!("dist", "-worker");
    let in_process = concat!("--in-", "process");
    for args in [
        &["dist"][..],
        &["dist", "--ranks", "2"],
        &[worker],
        &["faults", in_process],
        &["faults", "--guard"],
    ] {
        let out = bsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} ran");
    }
}

#[test]
fn a_surplus_positional_argument_exits_2_and_is_named() {
    for args in [
        &["tune", "extra"][..],
        &["list", "extra"],
        &["table", "4", "extra"],
        &["micro", "Cca", "Rocket 1", "extra"],
        &["fig", "5", "extra", "--smoke"],
        &["score", "extra"],
        &["status", "127.0.0.1:9", "job-1", "extra"],
    ] {
        let out = bsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let named = "unexpected argument extra";
        assert!(stderr(&out).contains(named), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} ran");
    }
}

#[test]
fn a_flag_missing_its_value_exits_2() {
    for args in [
        &["fig", "5", "--smoke", "--par"][..],
        &["fig", "5", "--par", "--smoke"],
    ] {
        let out = bsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("--par"), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} ran");
    }
    let out = bsim(&["fig", "5", "--smoke", "--par", "zero"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--par takes"), "{}", stderr(&out));
}

#[test]
fn the_bench_subcommand_is_gone() {
    let out = bsim(&["bench"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("usage:"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("bench"), "{}", stderr(&out));
}

#[test]
fn table_4_prints_the_golden_bytes() {
    let out = bsim(&["table", "4"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), TABLE4);
}

#[test]
fn fig_5_smoke_prints_the_golden_bytes() {
    let out = bsim(&["fig", "5", "--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), fig5_smoke());
    // The two presets cannot both apply.
    let out = bsim(&["fig", "5", "--smoke", "--paper"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn the_paper_preset_lints_clean_and_is_no_smaller_than_the_default() {
    let (p, d) = (Sizes::paper(), Sizes::default());
    assert!(
        p.lint("sizes.paper").is_clean(),
        "WL001 on the paper preset"
    );
    for ((name, p), (_, d)) in p.fields().into_iter().zip(d.fields()) {
        assert!(p >= d, "{name}: paper {p} < default {d}");
    }
}

/// A `--store` file path no other test (or process) shares, absent.
fn scratch_store(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bsim-cli-{name}-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// One `bsim fig <args> --store <store>` run that must exit 0.
struct FigRun {
    /// stdout, whole.
    tables: String,
    /// How many subfigures stderr reports as replayed from the store.
    replayed: usize,
    /// How many subfigures stderr reports a simulation's host rate for.
    simulated: usize,
    /// Entries the store file holds afterwards, every one verified.
    entries: usize,
}

fn fig_with_store(args: &[&str], store: &Path) -> FigRun {
    let store_arg = store.to_str().expect("temp paths are UTF-8");
    let out = bsim(&[&["fig"], args, &["--store", store_arg]].concat());
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
    let (opened, report) = ResultStore::open(store);
    assert!(
        report.is_clean(),
        "{args:?} left a store with findings: {report}"
    );
    let stderr = stderr(&out);
    let count = |pick: fn(&str) -> bool| stderr.lines().filter(|l| pick(l)).count();
    FigRun {
        tables: stdout(&out),
        replayed: count(|l| l.ends_with(": replayed from the result store")),
        simulated: count(|l| l.contains(": host sweep: ") && l.ends_with(" target-MHz aggregate")),
        entries: opened.len(),
    }
}

/// The size preset is part of a cell's identity: what a `--smoke` run
/// stored must never print under another preset's name.
#[test]
fn a_store_filled_at_smoke_does_not_answer_another_preset() {
    let store = scratch_store("preset");
    let smoke = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((smoke.replayed, smoke.entries), (0, 1));
    assert_eq!(
        smoke.simulated, 1,
        "a simulated subfigure reports its host rate"
    );
    let fig5 = fig5_smoke();
    assert_eq!(smoke.tables, fig5);

    let default = fig_with_store(&["5"], &store);
    assert_eq!(default.replayed, 0, "the smoke result answered for default");
    assert_eq!(default.entries, 2, "the default result is stored beside it");
    assert_ne!(default.tables, fig5, "default sizes print their own table");

    // Each preset then hits its own entry, byte for byte, and a replay
    // simulates nothing, so it has no host rate to report.
    let again = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((again.replayed, again.entries), (1, 2));
    assert_eq!(again.simulated, 0, "a replay reported a host rate");
    assert_eq!(again.tables, fig5);
    let again = fig_with_store(&["5"], &store);
    assert_eq!((again.replayed, again.entries), (1, 2));
    assert_eq!(again.tables, default.tables);
    std::fs::remove_file(&store).ok();
}

/// A mistyped path is no clean store: `scrub` of an absent file fails
/// naming it and creates nothing, where `fig --store` starts a new one.
#[test]
fn scrub_of_an_absent_store_fails_naming_it() {
    let store = scratch_store("absent");
    let arg = store.to_str().expect("temp paths are UTF-8");
    let out = bsim(&["scrub", "--store", arg]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains(arg), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(!store.exists(), "scrub created the store");
}

/// `--store` opens what is there: a second command on the same file adds
/// to it and the first command's result is still served afterwards.
#[test]
fn a_second_run_adds_to_an_existing_store() {
    let store = scratch_store("append");
    let first = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((first.replayed, first.entries), (0, 1));
    let other = fig_with_store(&["3", "--smoke"], &store);
    assert_eq!(other.replayed, 0);
    assert_eq!(other.entries, 3, "figure 3's two subfigures join figure 5");
    let again = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((again.replayed, again.entries), (1, 3));
    assert_eq!(again.tables, first.tables);
    std::fs::remove_file(&store).ok();
}

/// A stored entry that verifies but is no figure is a store that has
/// started lying: `bsim fig` stops with a loud error before it simulates
/// a missing subfigure, and leaves the file as it was.
#[test]
fn a_stored_entry_that_is_no_figure_stops_the_run_before_anything_runs() {
    let store = scratch_store("lying");
    let (mut lying, _) = ResultStore::open(&store);
    let fig3b = &WireCell::figure_cells("3", "smoke")[1];
    lying.put(&fig3b.key(0), &serde::Value::Str("not a figure".into()));
    lying.flush().expect("store file is writable");

    let store_arg = store.to_str().expect("temp paths are UTF-8");
    let out = bsim(&["fig", "3", "--smoke", "--store", store_arg]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("result store error"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    let (after, report) = ResultStore::open(&store);
    assert!(report.is_clean(), "{report}");
    assert_eq!(after.len(), 1, "figure 3a was not simulated and stored");
    std::fs::remove_file(&store).ok();
}

/// Every diagnostic code the crates can emit is documented by
/// `bsim check --list`, as itself or inside an `XX001-XX009` range, and
/// by a table row of `crates/check/README.md`; neither names a code no
/// crate emits, and every code README, DESIGN, EXPERIMENTS and
/// `crates/check/README.md` cite is one the list names.
#[test]
fn check_list_covers_every_diagnostic_code_in_the_sources() {
    /// `(offset, code)` of the `XX000`-shaped words of `text` (so not
    /// the `SG204` of `SG2042`); with `quoted`, only `"XX000"` literals.
    fn codes(text: &str, quoted: bool) -> Vec<(usize, &str)> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        for at in 0..bytes.len().saturating_sub(4) {
            let word = &bytes[at..at + 5];
            let shaped = word[..2].iter().all(u8::is_ascii_uppercase)
                && word[2..].iter().all(u8::is_ascii_digit);
            let (before, after) = (at.checked_sub(1).map(|i| bytes[i]), bytes.get(at + 5));
            let whole = !before.is_some_and(|b| b.is_ascii_alphanumeric())
                && !after.is_some_and(u8::is_ascii_alphanumeric);
            let fenced = before == Some(b'"') && after == Some(&b'"');
            if shaped && whole && (fenced || !quoted) {
                out.push((at, &text[at..at + 5]));
            }
        }
        out
    }
    fn sources(dir: &std::path::Path, out: &mut String) {
        for entry in std::fs::read_dir(dir).expect("source dir reads").flatten() {
            let path = entry.path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push_str(&std::fs::read_to_string(&path).expect("source file reads"));
            }
        }
    }

    let out = bsim(&["check", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    let listed = stdout(&out);
    // `lo-hi` covers the range; any other mention covers itself.
    let mentions = codes(&listed, false);
    let mut covered: Vec<(&str, &str)> = mentions.iter().map(|&(_, c)| (c, c)).collect();
    for pair in mentions.windows(2) {
        let ((lo_at, lo), (hi_at, hi)) = (pair[0], pair[1]);
        if &listed[lo_at + 5..hi_at] == "-" {
            covered.push((lo, hi));
        }
    }

    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut text = String::new();
    for krate in std::fs::read_dir(&crates).expect("crates/ reads").flatten() {
        sources(&krate.path().join("src"), &mut text);
    }
    let mut emitted: Vec<&str> = codes(&text, true).into_iter().map(|(_, c)| c).collect();
    emitted.sort_unstable();
    emitted.dedup();
    assert!(emitted.len() > 50, "scan found only {emitted:?}");
    let missing: Vec<_> = emitted
        .iter()
        .filter(|code| {
            !covered
                .iter()
                .any(|(lo, hi)| lo[..2] == code[..2] && (lo..=hi).contains(code))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "not in `bsim check --list`: {missing:?}"
    );
    // Nor do the documents cite a code the list does not name.
    let root = crates.parent().expect("crates/ has a parent");
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "crates/check/README.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("the doc reads");
        let unlisted: Vec<&str> = codes(&text, false)
            .into_iter()
            .map(|(_, code)| code)
            .filter(|code| {
                !covered
                    .iter()
                    .any(|(lo, hi)| lo[..2] == code[..2] && (lo..=hi).contains(&code))
            })
            .collect();
        assert!(
            unlisted.is_empty(),
            "{doc} cites codes `bsim check --list` does not name: {unlisted:?}"
        );
    }
    // Nor does the hard-coded part of `--list` outlive a deleted lint:
    // every code it prints, range bounds included, is emitted.
    let stale: Vec<_> = mentions
        .iter()
        .map(|&(_, code)| code)
        .filter(|code| !emitted.contains(code))
        .collect();
    assert!(
        stale.is_empty(),
        "`bsim check --list` names codes no crate emits: {stale:?}"
    );

    // `crates/check/README.md` has a table row for each of them, and for
    // no code the crates do not emit.
    let readme = std::fs::read_to_string(crates.join("check/README.md")).expect("README reads");
    let mut documented: Vec<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| "))
        .filter_map(|row| Some(codes(row.get(..5)?, false).first()?.1))
        .collect();
    documented.sort_unstable();
    documented.dedup();
    let undocumented: Vec<_> = emitted.iter().filter(|c| !documented.contains(c)).collect();
    assert!(
        undocumented.is_empty(),
        "no row in crates/check/README.md: {undocumented:?}"
    );
    let unemitted: Vec<_> = documented.iter().filter(|c| !emitted.contains(c)).collect();
    assert!(
        unemitted.is_empty(),
        "a crates/check/README.md row no crate emits: {unemitted:?}"
    );
}

/// `bsim faults` prints every row of the fault table, in table order,
/// and the panics its rows expect and catch stay off stderr.
#[test]
fn faults_prints_every_table_row_quietly() {
    let out = bsim(&["faults", "--deny-unsurvived", "--seed", "42"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let printed = stdout(&out);
    let names: Vec<&str> = printed
        .lines()
        .skip(2)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let want: Vec<&str> = silicon_bridge::fault_rows()
        .map(|row| row.name)
        .chain(["10/10"])
        .collect();
    assert_eq!(names, want, "{printed}");
    assert!(
        printed.ends_with("10/10 scenarios behaved as specified\n"),
        "{printed}"
    );
    assert!(!stderr(&out).contains("panicked at"), "{}", stderr(&out));
}
