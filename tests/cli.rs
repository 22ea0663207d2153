//! The `bsim` command line as a user meets it: typos are refused before
//! anything runs, the retired `bench` subcommand is gone, and what
//! `table`/`fig` print is pinned to the bytes captured at the commit
//! before the flag parser became table-driven, and `fig --store` serves
//! a result only to the configuration that produced it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use silicon_bridge::core::experiments::Sizes;
use silicon_bridge::resilience::ResultStore;

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

/// `bsim fig 5 --smoke` without its note line, whose `host sweep:` part
/// carries a wall-clock rate.
const FIG5_SMOKE: &str = r#"== Figure 5: UME — simulation models vs hardware ==
               Banana Pi (hw) runtime [s]  Banana Pi Sim Model runtime [s]          MILK-V (hw) runtime [s]     MILK-V Sim Model runtime [s]           Banana Pi rel. speedup              MILK-V rel. speedup
1 ranks                             0.000                            0.000                            0.000                            0.000                            0.729                            0.655
2 ranks                             0.000                            0.000                            0.000                            0.000                            0.716                            0.670
4 ranks                             0.000                            0.000                            0.000                            0.000                            0.771                            0.682

"#;

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
}

#[test]
fn a_flag_missing_its_value_exits_2() {
    for args in [
        &["fig", "5", "--smoke", "--lanes"][..],
        &["fig", "5", "--lanes", "--smoke"],
    ] {
        let out = bsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("--lanes"), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} ran scalar instead");
    }
    let out = bsim(&["fig", "5", "--smoke", "--lanes", "zero"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--lanes takes"), "{}", stderr(&out));
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
    let printed: String = stdout(&out)
        .lines()
        .filter(|l| !l.contains("host sweep:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(printed, FIG5_SMOKE);
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
    /// stdout minus the note lines carrying a wall-clock `host sweep:` rate.
    tables: String,
    /// How many subfigures stderr reports as replayed from the store.
    replayed: usize,
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
    FigRun {
        tables: stdout(&out)
            .lines()
            .filter(|l| !l.contains("host sweep:"))
            .map(|l| format!("{l}\n"))
            .collect(),
        replayed: stderr(&out)
            .lines()
            .filter(|l| l.ends_with("replayed from the result store"))
            .count(),
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
    assert_eq!(smoke.tables, FIG5_SMOKE);

    let default = fig_with_store(&["5"], &store);
    assert_eq!(default.replayed, 0, "the smoke result answered for default");
    assert_eq!(default.entries, 2, "the default result is stored beside it");
    assert_ne!(
        default.tables, FIG5_SMOKE,
        "default sizes print their own table"
    );

    // Each preset then hits its own entry, byte for byte.
    let again = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((again.replayed, again.entries), (1, 2));
    assert_eq!(again.tables, FIG5_SMOKE);
    let again = fig_with_store(&["5"], &store);
    assert_eq!((again.replayed, again.entries), (1, 2));
    assert_eq!(again.tables, default.tables);
    std::fs::remove_file(&store).ok();
}

/// A sampled run's digits are an estimate: they are stored apart from
/// the exact run's and neither answers for the other, whichever filled
/// the store first. Figure 3 is where the two visibly differ at smoke.
#[test]
fn sampled_and_exact_results_never_answer_for_each_other() {
    let exact_first = scratch_store("exact-first");
    let exact = fig_with_store(&["3", "--smoke"], &exact_first);
    assert_eq!((exact.replayed, exact.entries), (0, 2));
    let sampled = fig_with_store(&["3", "--smoke", "--sample"], &exact_first);
    assert_eq!(sampled.replayed, 0, "exact digits passed for an estimate");
    assert_eq!(sampled.entries, 4);
    assert_ne!(
        sampled.tables, exact.tables,
        "fig 3 no longer tells them apart"
    );

    let sampled_first = scratch_store("sampled-first");
    let estimate = fig_with_store(&["3", "--smoke", "--sample"], &sampled_first);
    assert_eq!((estimate.replayed, estimate.entries), (0, 2));
    assert_eq!(estimate.tables, sampled.tables);
    let rerun = fig_with_store(&["3", "--smoke"], &sampled_first);
    assert_eq!(rerun.replayed, 0, "an estimate passed for the exact result");
    assert_eq!(rerun.entries, 4);
    assert_eq!(rerun.tables, exact.tables);

    // The executor is not part of the key: lanes replay the scalar run.
    let lanes = fig_with_store(&["3", "--smoke", "--lanes", "8"], &exact_first);
    assert_eq!((lanes.replayed, lanes.entries), (2, 4));
    assert_eq!(lanes.tables, exact.tables);
    std::fs::remove_file(&exact_first).ok();
    std::fs::remove_file(&sampled_first).ok();
}

/// `--store` opens what is there: a second command on the same file adds
/// to it and the first command's result is still served afterwards.
#[test]
fn a_second_run_adds_to_an_existing_store() {
    let store = scratch_store("append");
    let first = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((first.replayed, first.entries), (0, 1));
    let other = fig_with_store(&["3", "--smoke", "--lanes", "8"], &store);
    assert_eq!(other.replayed, 0);
    assert_eq!(other.entries, 3, "figure 3's two subfigures join figure 5");
    let again = fig_with_store(&["5", "--smoke"], &store);
    assert_eq!((again.replayed, again.entries), (1, 3));
    assert_eq!(again.tables, first.tables);
    std::fs::remove_file(&store).ok();
}

/// Every diagnostic code the crates can emit is documented by
/// `bsim check --list`, as itself or inside an `XX001-XX009` range.
#[test]
fn check_list_covers_every_diagnostic_code_in_the_sources() {
    /// `(offset, code)` of the `XX000`-shaped tokens of `text`; with
    /// `quoted`, only `"XX000"` literals.
    fn codes(text: &str, quoted: bool) -> Vec<(usize, &str)> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        for at in 0..bytes.len().saturating_sub(4) {
            let word = &bytes[at..at + 5];
            let shaped = word[..2].iter().all(u8::is_ascii_uppercase)
                && word[2..].iter().all(u8::is_ascii_digit);
            let fenced = at > 0 && bytes[at - 1] == b'"' && bytes.get(at + 5) == Some(&b'"');
            if shaped && (fenced || !quoted) {
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
}

/// `bsim faults --in-process` prints the fault table minus the rows that
/// spawn processes, in table order, and the panics its rows expect and
/// catch stay off stderr.
#[test]
fn faults_in_process_prints_the_table_rows_quietly() {
    let out = bsim(&["faults", "--in-process", "--seed", "42"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let printed = stdout(&out);
    let names: Vec<&str> = printed
        .lines()
        .skip(2)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let want: Vec<&str> = silicon_bridge::fault_rows()
        .filter(|row| !row.needs_processes)
        .map(|row| row.name)
        .chain(["12/12"])
        .collect();
    assert_eq!(names, want, "{printed}");
    assert!(
        printed.ends_with("12/12 scenarios behaved as specified; 1 watchdog trip(s)\n"),
        "{printed}"
    );
    assert!(!stderr(&out).contains("panicked at"), "{}", stderr(&out));
}
