//! `bsim` — command-line front end for the silicon-bridge experiments.
//!
//! ```text
//! bsim list                         # platforms + experiments
//! bsim table 1|2|4|5                # print a paper table
//! bsim fig 1|2|3|4|5|6|7|all [--smoke|--paper] [--par seq|auto|N]
//!          [--store FILE]
//!                                   # regenerate a paper figure at the
//!                                   # default, CI-smoke or near-paper
//!                                   # workload sizes; --par
//!                                   # fans the platform×workload grid
//!                                   # across N host threads; --store
//!                                   # replays the subfigures FILE holds
//!                                   # and adds the ones it computes (the
//!                                   # result store serve uses);
//!                                   # stderr carries each simulated
//!                                   # subfigure's host rate
//! bsim score [--smoke|--paper] [--par seq|auto|N] [--store FILE]
//!                                   # run every figure as `fig all` does
//!                                   # and score each paper claim on it:
//!                                   # EXPERIMENTS.md's generated block
//! bsim micro <kernel> [platform]    # run one microbenchmark
//! bsim tune                         # the §4 model-selection loop
//! bsim faults [--seed N] [--deny-unsurvived]
//!                                   # fault-injection campaign: prints
//!                                   # the survival matrix; deny exits
//!                                   # non-zero on any miss
//! bsim check [--deny-warnings] [--json] [--list] [--source]
//!            [platform ...]
//!                                   # static preflight: model-graph +
//!                                   # config lints, before any cycle;
//!                                   # --source audits the workspace
//!                                   # sources
//! bsim serve [--addr H:P] [--store FILE] [--workers N] [--budget N]
//!            [--par seq|auto|N]
//!                                   # bsimd: simulation-as-a-service
//!                                   # daemon with a content-addressed
//!                                   # memoizing result store
//! bsim submit ADDR fig <id> [--smoke] [--seed N] [--wait]
//! bsim submit ADDR sweep --platforms A,B --kernels C,D
//!             [--scale N] [--seed N] [--wait]
//! bsim submit ADDR tune [--scale N] [--seed N] [--wait]
//!                                   # enqueue a request; --wait blocks
//!                                   # and prints the result document
//! bsim status ADDR [JOB]            # job state, or /metrics without JOB
//! bsim fetch ADDR JOB               # the result document
//! ```

use silicon_bridge::check;
use silicon_bridge::core::campaign::SurvivalMatrix;
use silicon_bridge::core::experiments::{
    self, subfigures, FigureData, FigureSpec, Series, Sizes, FIGURE_IDS,
};
use silicon_bridge::core::tuning::tune_milkv;
use silicon_bridge::core::{claims, table};
use silicon_bridge::core::{CellOutcome, CellPool, Parallelism, ResultStore, Snapshot, WireCell};
use silicon_bridge::mpi::NetConfig;
use silicon_bridge::soc::{configs, Soc, SocConfig};
use silicon_bridge::svc::{client, Daemon, DaemonConfig};
use silicon_bridge::workloads::microbench;

fn platforms() -> Vec<SocConfig> {
    configs::catalog(1)
}

fn platform_or_exit(name: &str) -> SocConfig {
    configs::by_name(name, 1)
        .unwrap_or_else(|| fail(format!("unknown platform {name}; try `bsim list`")))
}

/// What `bsim` prints for a bad invocation: one entry per subcommand,
/// whose continuation lines are indented past the `bsim`.
const USAGE: &str = "usage:\n  bsim list\n  bsim table <1|2|4|5>\n  \
     bsim fig <1..7|all> [--smoke|--paper] [--par seq|auto|N] [--store FILE]\n  \
     bsim score [--smoke|--paper] [--par seq|auto|N] [--store FILE]\n  \
     bsim micro <kernel> [platform]\n  bsim tune\n  \
     bsim faults [--seed N] [--deny-unsurvived]\n  \
     bsim check [--deny-warnings] [--json] [--list] [--source] [platform ...]\n  \
     bsim scrub --store FILE\n  \
     bsim serve [--addr H:P] [--store FILE] [--workers N] [--budget N] [--par seq|auto|N]\n  \
     bsim submit ADDR fig <id> [--smoke] [--seed N] [--wait]\n  \
     bsim submit ADDR sweep --platforms A,B --kernels C,D [--scale N] [--seed N] [--wait]\n  \
     bsim submit ADDR tune [--scale N] [--seed N] [--wait]\n  \
     bsim status ADDR [JOB]\n  \
     bsim fetch ADDR JOB";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Prints `msg` and exits 2, the code every bad invocation gets.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A subcommand's flags, as `(flag, takes_value)`.
type FlagTable = &'static [(&'static str, bool)];

/// The flags each subcommand accepts, and the most positional arguments
/// it takes.
fn flag_table(cmd: &str) -> Option<(FlagTable, usize)> {
    const PLAN: FlagTable = &[
        ("--smoke", false),
        ("--paper", false),
        ("--par", true),
        ("--store", true),
    ];
    Some(match cmd {
        "list" | "tune" => (&[], 0),
        "table" => (&[], 1),
        "micro" | "status" | "fetch" => (&[], 2),
        "fig" => (PLAN, 1),
        "score" => (PLAN, 0),
        "faults" => (&[("--seed", true), ("--deny-unsurvived", false)], 0),
        "check" => (
            &[
                ("--deny-warnings", false),
                ("--json", false),
                ("--list", false),
                ("--source", false),
            ],
            usize::MAX,
        ),
        "scrub" => (&[("--store", true)], 0),
        "serve" => (
            &[
                ("--addr", true),
                ("--store", true),
                ("--workers", true),
                ("--budget", true),
                ("--par", true),
            ],
            0,
        ),
        "submit" => (
            &[
                ("--smoke", false),
                ("--seed", true),
                ("--wait", false),
                ("--platforms", true),
                ("--kernels", true),
                ("--scale", true),
            ],
            3,
        ),
        _ => return None,
    })
}

/// One subcommand's argv, split by its flag table: the flags that were
/// given (with their values) and the positionals in order.
struct Flags<'a> {
    given: Vec<(&'a str, &'a str)>,
    pos: Vec<&'a str>,
}

/// Splits `args` by `table`; an unknown `--flag`, a flag missing its
/// value or a positional argument past the `most` the subcommand takes
/// exits 2 naming it, so a typo never runs with defaults.
fn parse_flags<'a>(cmd: &str, args: &'a [String], table: FlagTable, most: usize) -> Flags<'a> {
    let mut flags = Flags {
        given: Vec::new(),
        pos: Vec::new(),
    };
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            flags.pos.push(arg);
            continue;
        }
        let Some(&(_, takes_value)) = table.iter().find(|(f, _)| *f == arg) else {
            fail(format!("bsim {cmd}: unknown flag {arg}"))
        };
        let value = match it.next_if(|v| takes_value && !v.starts_with("--")) {
            Some(v) => v,
            None if takes_value => fail(format!("bsim {cmd}: {arg} needs a value")),
            None => "",
        };
        flags.given.push((arg, value));
    }
    if let Some(extra) = flags.pos.get(most) {
        fail(format!("bsim {cmd}: unexpected argument {extra}"))
    }
    flags
}

impl<'a> Flags<'a> {
    /// The value given with `flag` (empty for a switch), if it was given.
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// `flag`'s value through `parse`; a value it rejects exits 2 with
    /// "`flag` takes `what`".
    fn flag_with<T>(&self, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        self.get(flag)
            .map(|v| parse(v).unwrap_or_else(|| fail(format!("{flag} takes {what}"))))
    }

    /// A numeric flag's value, or `default` when the flag is absent.
    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.flag_with(flag, "a non-negative integer", |v| v.parse().ok())
            .unwrap_or(default)
    }

    fn par(&self, default: Parallelism) -> Parallelism {
        self.flag_with("--par", "seq, auto, or a worker count", Parallelism::parse)
            .unwrap_or(default)
    }

    fn path(&self, flag: &str) -> Option<std::path::PathBuf> {
        self.get(flag).map(std::path::PathBuf::from)
    }
}

/// `bsim check`: the static analysis pass, standalone. Lints every named
/// platform (or just the ones given), the stock network links, and the
/// workload size presets, then renders rustc-style diagnostics (or JSON)
/// and sets the exit code like a compiler would.
fn run_check(f: &Flags) -> ! {
    if f.has("--list") {
        println!("registered lints (see crates/check/README.md for the full taxonomy):");
        let regs: Vec<(&str, Vec<(&str, &str)>)> = vec![
            ("cache", check::rules::cache_lints().codes()),
            ("bus", check::rules::bus_lints().codes()),
            ("dram", check::rules::dram_lints().codes()),
            ("tlb", check::rules::tlb_lints().codes()),
            ("in-order core", check::rules::inorder_lints().codes()),
            ("ooo core", check::rules::ooo_lints().codes()),
            ("soc", silicon_bridge::soc::preflight::soc_lints().codes()),
        ];
        for (group, codes) in regs {
            for (code, summary) in codes {
                println!("  {code:7} [{group}] {summary}");
            }
        }
        println!(
            "  MG001-MG006 [model graph] wiring analysis (zero-latency wires, tokenless cycles,\n          \
             fan-in conflicts, dangling ports, undersized channels, unconsumed outputs)\n  \
             CL040-CL045 [hierarchy] cross-level consistency and monotonicity\n  \
             NC001   [network] degenerate link bandwidth saturates to 'never delivers'\n  \
             NC002   [network] zero-latency link with finite bandwidth: timing model is vacuous\n  \
             WL001   [workloads] zero-valued workload size degenerates the benchmark\n  \
             SV000   [service] request body is not valid JSON / lacks required fields\n  \
             SV001   [service] request references an unknown figure, preset, platform, or kernel\n  \
             SV002   [service] request cell count exceeds the per-request budget\n  \
             SV003   [result store] file version mismatch: stale entries ignored, not served\n  \
             SV004   [result store] torn/unreadable file quarantined on open\n  \
             SV005   [result store] entry checksum missing/mismatched: quarantined, not served\n  \
             AU001-AU007 [source audit] panicking unwraps, expect on hot paths, HashMap-order\n          \
             results, host clocks in virtual-time crates, pub items nothing outside their\n          \
             crate mentions, host work on per-op paths, text a simplification removed\n          \
             that is back (--source; AU000 notes waivers)\n  \
             CL081   [lane sweep] degenerate lane plan: every group is a singleton, sweep\n          \
             degrades to scalar\n  \
             CL085-CL087 [sampling] degenerate sampling budget, under-measured clusters,\n          \
             extra-rate so high sampling cannot pay for itself"
        );
        std::process::exit(0);
    }
    let targets: Vec<SocConfig> = if f.pos.is_empty() {
        platforms()
    } else {
        f.pos.iter().map(|n| platform_or_exit(n)).collect()
    };
    let mut report = silicon_bridge::soc::preflight_all(targets.iter());
    if f.pos.is_empty() {
        // Full sweep: also lint the link models and workload presets the
        // figure generators use.
        report.merge(NetConfig::shared_memory().lint("net.shared_memory"));
        report.merge(NetConfig::ethernet_10g().lint("net.ethernet_10g"));
        report.merge(Sizes::default().lint("sizes.default"));
        report.merge(Sizes::smoke().lint("sizes.smoke"));
        report.merge(Sizes::paper().lint("sizes.paper"));
    }
    if f.has("--source") {
        let audit = check::audit::audit_workspace();
        println!(
            "source audit: {} files scanned, {} finding(s) waived",
            audit.files, audit.waived
        );
        report.merge(audit.report);
    }
    if f.has("--json") {
        println!("{}", report.to_json());
    } else if report.is_clean() {
        println!(
            "check passed: {} platform(s) clean, 0 diagnostics",
            targets.len()
        );
    } else {
        println!("{}", report.render());
    }
    let failed = report.has_errors() || (f.has("--deny-warnings") && report.has_warnings());
    std::process::exit(if failed { 1 } else { 0 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let Some((table, most)) = flag_table(cmd) else {
        usage()
    };
    let f = parse_flags(cmd, &args[1..], table, most);
    match cmd {
        "list" => {
            println!("platforms:");
            for p in platforms() {
                println!(
                    "  {:26} {} GHz  {}  [{}]",
                    p.name,
                    p.freq_ghz,
                    p.hierarchy.dram.name,
                    if p.is_simulation {
                        "FireSim model"
                    } else {
                        "silicon reference"
                    }
                );
            }
            println!("\nmicrobenchmarks (Table 1):");
            for k in microbench::suite() {
                println!("  {:10} {:13} {}", k.name, k.category.name(), k.description);
            }
            println!("\nfigures: 1 2 3 4 5 6 7   tables: 1 2 4 5");
        }
        "table" => {
            match f.pos.first().copied() {
                Some("4") => print!("{}", experiments::table4()),
                Some("5") => print!("{}", experiments::table5()),
                Some("1") => {
                    for k in microbench::suite() {
                        println!("{:10} {:13} {}", k.name, k.category.name(), k.description);
                    }
                }
                Some("2") => {
                    for (n, c) in [
                        ("CG", "Memory Latency"),
                        ("EP", "Compute"),
                        ("IS", "Memory Latency, BW"),
                        ("MG", "Memory Latency, BW"),
                    ] {
                        println!("{n:10} class A (size-scaled)  {c}");
                    }
                }
                _ => usage(),
            };
        }
        "fig" => {
            let Some(&id) = f.pos.first() else { usage() };
            let mut failed = 0usize;
            for (spec, outcome) in run_plan(&f, id) {
                match outcome {
                    Ok(fig) => println!("{}", table::render(&fig)),
                    Err(diag) => {
                        failed += 1;
                        eprintln!("{}: FAILED: {diag}", spec.key);
                    }
                }
            }
            if failed > 0 {
                eprintln!("{failed} subfigure(s) failed; completed ones were kept");
                std::process::exit(1);
            }
        }
        "score" => {
            let figs: Vec<(&str, FigureData)> = run_plan(&f, "all")
                .into_iter()
                .map(|(spec, outcome)| {
                    let fig = outcome.unwrap_or_else(|diag| {
                        eprintln!("{}: FAILED: {diag}", spec.key);
                        std::process::exit(1)
                    });
                    (spec.key, fig)
                })
                .collect();
            let view: Vec<(&str, &[Series])> = figs
                .iter()
                .map(|(key, fig)| (*key, &fig.series[..]))
                .collect();
            match claims::markdown(&view, preset(&f)) {
                Ok(block) => print!("{block}"),
                Err(e) => fail(format!("bsim score: {e}")),
            }
        }
        "faults" => {
            let seed = f.num("--seed", 42u64);
            let scenarios = silicon_bridge::fault_rows()
                .map(|row| {
                    // A panic the row expects and catches would still
                    // print its message and backtrace; keep stderr for
                    // the unexpected.
                    if row.panics {
                        let loud = std::panic::take_hook();
                        std::panic::set_hook(Box::new(|_| {}));
                        let scenario = row.scenario(seed);
                        std::panic::set_hook(loud);
                        scenario
                    } else {
                        row.scenario(seed)
                    }
                })
                .collect();
            let matrix = SurvivalMatrix::new(seed, scenarios);
            print!("{}", matrix.render());
            if f.has("--deny-unsurvived") && !matrix.all_pass() {
                std::process::exit(1);
            }
        }
        "micro" => {
            let Some(&kname) = f.pos.first() else { usage() };
            let Some(kernel) = microbench::find(kname) else {
                fail(format!("unknown kernel {kname}; try `bsim list`"))
            };
            let prog = kernel.build(1);
            let targets: Vec<SocConfig> = match f.pos.get(1) {
                Some(p) => vec![platform_or_exit(p)],
                None => platforms(),
            };
            println!(
                "{:26} {:>14} {:>10} {:>12}",
                "platform", "cycles", "IPC", "seconds"
            );
            for cfg in targets {
                let mut soc = Soc::new(cfg);
                let rep = soc.run_program(0, &prog, u64::MAX);
                println!(
                    "{:26} {:>14} {:>10.3} {:>12.3e}",
                    rep.platform,
                    rep.cycles,
                    rep.ipc(),
                    rep.seconds
                );
            }
        }
        "tune" => {
            let out = tune_milkv(1);
            print!("{}", out.explanation());
            println!("selected: {}", out.best());
        }
        "check" => run_check(&f),
        // `bsim scrub`: offline integrity audit of a result-store file —
        // verify every entry checksum, quarantine failures, atomically
        // rewrite the clean remainder. Exit 0 when nothing was wrong.
        "scrub" => {
            let Some(path) = f.get("--store") else {
                usage()
            };
            // A store that is not there is a mistyped path, not a clean one.
            if !std::path::Path::new(path).exists() {
                fail(format!("bsim scrub: no result store at {path}"))
            }
            let (scrubbed, report) = silicon_bridge::core::scrub(std::path::Path::new(path));
            if !report.is_clean() {
                eprint!("{}", report.render());
            }
            println!(
                "{path}: {} entr{} scanned, {} ok, {} quarantined{}",
                scrubbed.scanned,
                if scrubbed.scanned == 1 { "y" } else { "ies" },
                scrubbed.ok,
                scrubbed.quarantined.len(),
                if scrubbed.rewritten {
                    "; clean remainder rewritten"
                } else {
                    ""
                }
            );
            for key in &scrubbed.quarantined {
                println!("  quarantined {key}");
            }
            let clean = scrubbed.quarantined.is_empty() && report.is_clean();
            std::process::exit(if clean { 0 } else { 1 })
        }
        "serve" => run_serve(&f),
        "submit" => run_submit(&f),
        "status" => {
            let Some(addr) = f.pos.first() else { usage() };
            let result = match f.pos.get(1) {
                Some(job) => client::status(addr, job),
                None => client::metrics(addr),
            };
            finish_wire(result);
        }
        "fetch" => {
            let (Some(addr), Some(job)) = (f.pos.first(), f.pos.get(1)) else {
                usage()
            };
            finish_wire(client::fetch(addr, job));
        }
        _ => usage(),
    }
}

/// Prints a wire response body and exits 0 on 2xx, 1 otherwise.
fn finish_wire(result: std::io::Result<(u16, String)>) -> ! {
    match result {
        Ok((status, body)) => {
            println!("{body}");
            std::process::exit(if (200..300).contains(&status) { 0 } else { 1 })
        }
        Err(e) => fail(format!("wire error: {e}")),
    }
}

/// The result store a `--store FILE` names, opened or created; without
/// the flag, one that lives as long as the command. What the file holds
/// but nothing vouches for is quarantined and reported here — never
/// served, never fatal, never truncated.
fn open_store(path: Option<std::path::PathBuf>) -> ResultStore {
    let Some(path) = path else {
        return ResultStore::ephemeral();
    };
    let (store, report) = ResultStore::open(&path);
    if !report.is_clean() {
        eprint!("{}", report.render());
    }
    store
}

/// The size preset `--smoke` / `--paper` name, `default` without either.
fn preset(f: &Flags) -> &'static str {
    match (f.has("--smoke"), f.has("--paper")) {
        (true, true) => fail("--smoke and --paper are exclusive"),
        (true, false) => "smoke",
        (false, true) => "paper",
        (false, false) => "default",
    }
}

/// `bsim fig` and `bsim score`: every subfigure of figure `id` (`all`:
/// of every figure) at the flags' preset, in plan order, each replayed
/// from the result store or run through the one cell pool.
fn run_plan(f: &Flags, id: &str) -> Vec<(&'static FigureSpec, Result<FigureData, String>)> {
    let preset = preset(f);
    let sizes = Sizes::parse(preset).expect("the three presets are named");
    let par = f.par(Parallelism::Sequential);
    // `all` is every subfigure of the table, in plan order; each goes
    // with the `WireCell::Fig` a `bsim submit fig` of the same preset
    // would run.
    let plan: Vec<(&'static FigureSpec, WireCell)> = FIGURE_IDS
        .iter()
        .filter(|fid| id == "all" || **fid == id)
        .flat_map(|id| subfigures(id).zip(WireCell::figure_cells(id, preset)))
        .collect();
    if plan.is_empty() {
        usage()
    }
    // The host rate depends on the host and --par, so it goes to stderr
    // and never into the figure.
    let run = |i: usize| {
        let grid = plan[i].0.grid(sizes);
        let (fig, rate) = grid.run(par);
        eprintln!(
            "{}: host sweep: {} cells, {:.2} target-MHz aggregate",
            plan[i].0.key,
            grid.cells.len(),
            rate.mhz()
        );
        fig
    };
    // Seed 0 is what `bsim submit` keys at.
    let keys: Vec<String> = plan.iter().map(|(_, cell)| cell.key(0)).collect();
    let pool = CellPool::with_on_put(open_store(f.path("--store")), flush_store);
    // A stored entry that verifies but is no figure is a store that has
    // started lying: stop before anything is simulated.
    let stored = keys.iter().filter_map(|key| pool.get(key));
    if let Some(Err(e)) = stored.map(|bytes| figure(&bytes)).find(Result::is_err) {
        fail(format!("result store error: {e}"))
    }
    // One subfigure at a time: `--par` fans out inside each.
    let sweep = pool.run(&keys, Parallelism::Sequential, |i| Ok(run(i).save()));
    plan.iter()
        .zip(sweep.outcomes)
        .map(|((spec, _), outcome)| {
            let fig = match outcome {
                CellOutcome::Ok { value, restored } => {
                    if restored {
                        eprintln!("{}: replayed from the result store", spec.key);
                    }
                    figure(&value).unwrap_or_else(|e| fail(format!("result store error: {e}")))
                }
                CellOutcome::Failed { diag } => return (*spec, Err(diag)),
            };
            (*spec, Ok(fig))
        })
        .collect()
}

/// A subfigure's stored bytes as the figure they render.
fn figure(bytes: &str) -> Result<FigureData, String> {
    let tree = serde_json::from_str(bytes).map_err(|e| e.to_string())?;
    FigureData::restore(&tree).map_err(|e| e.to_string())
}

/// Flushes `store` to its file, if it has one: the `on_put` of every
/// command's pool, so a run killed midway leaves what it finished. A
/// store that cannot be written costs the next run its hits, not this
/// run its results.
fn flush_store(store: &ResultStore) {
    if let Err(e) = store.flush() {
        eprintln!("warning: cannot write the result store: {e}");
    }
}

/// `bsim serve`: run bsimd in the foreground until a `/shutdown`
/// request drains it. Prints the bound address first, so scripts (and
/// the CI smoke test) can bind port 0 and scrape the real port.
fn run_serve(f: &Flags) -> ! {
    let defaults = DaemonConfig::default();
    let cfg = DaemonConfig {
        addr: f.get("--addr").unwrap_or("127.0.0.1:4780").into(),
        store_path: f.path("--store"),
        workers: f.num("--workers", defaults.workers),
        budget: f.num("--budget", defaults.budget),
        par: f.par(Parallelism::Auto),
    };
    match Daemon::spawn(cfg) {
        Ok((daemon, report)) => {
            if !report.is_clean() {
                eprint!("{}", report.render());
            }
            println!("bsimd listening on {}", daemon.addr());
            daemon.join();
            std::process::exit(0)
        }
        Err(e) => fail(format!("cannot start bsimd: {e}")),
    }
}

/// `bsim submit ADDR <fig|sweep|tune> ...`: build the request JSON,
/// enqueue it, and either print the 202 ticket or (`--wait`) block for
/// and print the result document.
fn run_submit(f: &Flags) -> ! {
    use serde::Value;
    let (Some(&addr), Some(&kind)) = (f.pos.first(), f.pos.get(1)) else {
        usage()
    };
    let seed: u64 = f.num("--seed", 0);
    let scale: u64 = f.num("--scale", 1);
    let list = |flag: &str| -> Vec<Value> {
        let Some(raw) = f.get(flag) else {
            fail(format!("submit sweep needs {flag} A,B,..."))
        };
        raw.split(',')
            .filter(|s| !s.is_empty())
            .map(|s| Value::Str(s.trim().to_string()))
            .collect()
    };
    let mut fields = vec![("kind".to_string(), Value::Str(kind.into()))];
    match kind {
        "fig" => {
            let Some(&id) = f.pos.get(2) else { usage() };
            fields.push(("id".into(), Value::Str(id.into())));
            let sizes = if f.has("--smoke") { "smoke" } else { "default" };
            fields.push(("sizes".into(), Value::Str(sizes.into())));
        }
        "sweep" => {
            fields.push(("platforms".into(), Value::Seq(list("--platforms"))));
            fields.push(("kernels".into(), Value::Seq(list("--kernels"))));
            fields.push(("scale".into(), Value::U64(scale)));
        }
        "tune" => fields.push(("scale".into(), Value::U64(scale))),
        _ => usage(),
    }
    fields.push(("seed".into(), Value::U64(seed)));
    let body = serde_json::to_string(&Value::Map(fields)).expect("shim renderer is total");

    let (status, response) =
        client::submit(addr, &body).unwrap_or_else(|e| fail(format!("wire error: {e}")));
    if status != 202 {
        println!("{response}");
        std::process::exit(1)
    }
    if !f.has("--wait") {
        finish_wire(Ok((status, response)))
    }
    let job = client::job_id(&response)
        .unwrap_or_else(|| fail(format!("daemon returned no job id: {response}")));
    eprintln!("{job} queued; waiting...");
    finish_wire(client::wait(
        addr,
        &job,
        std::time::Duration::from_secs(600),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each subcommand's entry in [`USAGE`] — its `bsim <sub>` lines and
    /// their continuations — with the `--flags` it names, sorted.
    fn usage_flags() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("bsim ") {
                let sub = rest.split_whitespace().next().unwrap_or_default();
                if !entries.iter().any(|(s, _)| *s == sub) {
                    entries.push((sub, Vec::new()));
                }
            }
            let Some((_, flags)) = entries.last_mut() else {
                continue;
            };
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            flags.extend(words.filter(|w| w.starts_with("--")));
        }
        for (_, flags) in &mut entries {
            flags.sort_unstable();
            flags.dedup();
        }
        entries
    }

    #[test]
    fn the_usage_names_exactly_the_flags_each_subcommand_accepts() {
        let entries = usage_flags();
        for (sub, named) in &entries {
            let (table, _) = flag_table(sub).unwrap_or_else(|| panic!("usage names `bsim {sub}`"));
            let mut accepted: Vec<&str> = table.iter().map(|(flag, _)| *flag).collect();
            accepted.sort_unstable();
            assert_eq!(named, &accepted, "bsim {sub}");
        }
        let listed: Vec<&str> = entries.iter().map(|(sub, _)| *sub).collect();
        assert_eq!(
            listed,
            [
                "list", "table", "fig", "score", "micro", "tune", "faults", "check", "scrub",
                "serve", "submit", "status", "fetch"
            ],
            "every subcommand has a usage entry"
        );
        // The retired scale-out subcommands have no entry and no parser.
        for retired in ["dist", concat!("dist", "-worker")] {
            assert!(flag_table(retired).is_none(), "bsim {retired}");
        }
    }
}
