//! `ledger selfcheck`: does the benchmark agree with itself? Two
//! interleaved sets of runs of the current build, every run a fresh
//! process with its own seed, started exactly as the driver starts it;
//! per (workload, end-to-end metric) both medians, their difference, each
//! set's IQR/median, and PASS/FAIL against the bound `BENCHMARK.json`
//! fixes. The table goes in the README; a metric that fails here cannot
//! resolve a real regression and is reported as unresolved.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_over_median, median};
use crate::NOMINAL_SECONDS;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Runs per set when `--runs` is not given.
const DEFAULT_RUNS: usize = 5;

/// Regression bound per end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, f64> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} is readable: {e}", path.display()));
    let tree = serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON");
    let mut out = BTreeMap::new();
    for m in tree
        .get("end_to_end")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        if let (Some(name), Some(bound)) = (
            m.get("name").and_then(Value::as_str),
            m.get("bound").and_then(Value::as_f64),
        ) {
            out.insert(name.to_string(), bound);
        }
    }
    out
}

/// What one run reported: its end-to-end metrics, the spread of its pass
/// walls, and whether every op was correct.
struct Run {
    metrics: BTreeMap<String, f64>,
    pass_spread_pct: f64,
    correct: bool,
}

/// One `ledger run` in a fresh process.
fn one_run(workload: &str, seed: u64) -> Option<Run> {
    let exe = std::env::current_exe().expect("the ledger binary knows its own path");
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &NOMINAL_SECONDS.to_string(), "--trace", "0"])
        .output()
        .expect("the ledger binary can be spawned");
    if !output.status.success() {
        eprintln!(
            "run of {workload} seed {seed} exited with {}",
            output.status
        );
        return None;
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let tree = serde_json::from_str(stdout.lines().last()?).ok()?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Map(entries)) = tree.get("metrics") {
        for (name, m) in entries {
            metrics.insert(name.clone(), m.get("value")?.as_f64()?);
        }
    }
    // The witness rows read `  <name> <value> <unit>`.
    let pass_spread_pct = stdout.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some("host.pass_spread_pct")).then(|| words.next()?.parse().ok())?
    })?;
    Some(Run {
        metrics,
        pass_spread_pct,
        correct: tree.get("correct")?.as_bool()?,
    })
}

pub fn main(args: &[String]) -> i32 {
    let runs = match args {
        [] => Some(DEFAULT_RUNS),
        [flag, n] if flag == "--runs" => n.parse().ok().filter(|n| *n >= 2),
        _ => None,
    };
    let Some(runs) = runs else {
        eprintln!("usage: ledger selfcheck [--runs <n ≥ 2>]");
        return 2;
    };
    let bounds = bounds();
    let mut all_ok = true;
    println!("| workload | metric | median A | median B | B vs A | IQR/med A | IQR/med B | IQR/med A∪B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut spreads = Vec::new();
    for workload in WORKLOADS {
        // A and B alternate, so a slow minute on the host lands on both.
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut pass_spread = Vec::new();
        let mut correct = true;
        for i in 0..runs {
            for (s, set) in sets.iter_mut().enumerate() {
                let seed = 1000 + (2 * i + s) as u64;
                match one_run(workload, seed) {
                    Some(run) => {
                        correct &= run.correct;
                        pass_spread.push(run.pass_spread_pct);
                        for (name, v) in run.metrics {
                            set.entry(name).or_default().push(v);
                        }
                    }
                    None => correct = false,
                }
            }
        }
        for (name, _, _) in END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(name), sets[1].get(name)) else {
                all_ok = false;
                println!("| {workload} | {name} | missing | | | | | | | FAIL |");
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                all_ok = false;
                println!("| {workload} | {name} | too few runs | | | | | | | FAIL |");
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let diff = (mb - ma) / ma;
            let (sa, sb) = (iqr_over_median(a), iqr_over_median(b));
            // What the driver computes: the spread of all the runs together.
            let pooled = iqr_over_median(&[a.as_slice(), b.as_slice()].concat());
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            // Two sets of one build must agree either way, and a spread
            // of more than half the bound could hide a regression of it.
            let ok = correct && diff.abs() <= bound && sa.max(sb) <= bound / 2.0;
            all_ok &= ok;
            println!(
                "| {workload} | {name} | {ma:.4} | {mb:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                100.0 * diff,
                100.0 * sa,
                100.0 * sb,
                100.0 * pooled,
                100.0 * bound,
                if ok { "PASS" } else { "unresolved" }
            );
        }
        if !correct {
            println!("| {workload} | ops_failed | > 0 in some run | | | | | | | FAIL |");
        }
        if !pass_spread.is_empty() {
            let worst = pass_spread.iter().copied().fold(0.0, f64::max);
            spreads.push(format!(
                "{workload} {:.1} % (worst {worst:.1} %)",
                median(&pass_spread)
            ));
        }
    }
    println!();
    println!(
        "`host.pass_spread_pct`, median over the runs: {}.",
        spreads.join(", ")
    );
    i32::from(!all_ok)
}
