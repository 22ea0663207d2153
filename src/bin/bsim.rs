//! `bsim` — command-line front end for the silicon-bridge experiments.
//!
//! ```text
//! bsim list                         # platforms + experiments
//! bsim table 1|2|4|5                # print a paper table
//! bsim fig 1|2|3|4|5|6|7|all [--smoke|--paper] [--par seq|auto|N]
//!          [--store FILE] [--retries N] [--lanes N] [--sample]
//!                                   # regenerate a paper figure at the
//!                                   # default, CI-smoke or near-paper
//!                                   # workload sizes; --par
//!                                   # fans the platform×workload grid
//!                                   # across N host threads; --store
//!                                   # replays the subfigures FILE holds
//!                                   # and adds the ones it computes (the
//!                                   # result store dist and serve use);
//!                                   # --lanes records each workload once
//!                                   # and replays up to N configs as
//!                                   # parallel lanes, --sample adds
//!                                   # SimPoint-style sampled timing
//! bsim micro <kernel> [platform]    # run one microbenchmark
//! bsim tune                         # the §4 model-selection loop
//! bsim faults [--seed N] [--deny-unsurvived] [--in-process] [--guard]
//!                                   # fault-injection campaign: prints
//!                                   # the survival matrix (plus a
//!                                   # process-kill row spawning real
//!                                   # workers; --in-process skips it,
//!                                   # --guard keeps the integrity rows);
//!                                   # deny exits non-zero on any miss
//! bsim check [--deny-warnings] [--json] [--list] [--proto] [--plans]
//!            [--source] [platform ...]
//!                                   # static preflight: model-graph +
//!                                   # config lints, before any cycle;
//!                                   # --proto model-checks the svc/dist
//!                                   # wire protocols, --plans lints a
//!                                   # catalog of partition plans for
//!                                   # cross-rank deadlock, --source
//!                                   # audits the workspace sources
//! bsim dist [--ranks N] [--figs 1,2] [--smoke] [--store FILE] [--json]
//!           [--kill-rank R --kill-after K]
//!                                   # fan a cell sweep across N worker
//!                                   # processes over socket token links;
//!                                   # --store answers what FILE holds and
//!                                   # adds the rest; --kill-rank SIGKILLs
//!                                   # a worker mid-sweep to exercise
//!                                   # recovery
//! bsim dist --graph-demo CYCLES [--ranks N] [--ring N] [--latency L]
//!           [--quantum Q] [--seed N]
//!                                   # partition the demo ring across N
//!                                   # processes and prove the distributed
//!                                   # schedule bit-identical to Harness
//! bsim serve [--addr H:P] [--store FILE] [--workers N] [--budget N]
//!            [--par seq|auto|N] [--dist-ranks N]
//!                                   # bsimd: simulation-as-a-service
//!                                   # daemon with a content-addressed
//!                                   # memoizing result store; --dist-ranks
//!                                   # prewarms it via worker processes
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
use silicon_bridge::core::campaign::{Ctx, SurvivalMatrix};
use silicon_bridge::core::experiments::{self, subfigures, FigureSpec, Sizes, FIGURE_IDS};
use silicon_bridge::core::table;
use silicon_bridge::core::tuning::tune_milkv;
use silicon_bridge::core::{run_grid_keyed, Parallelism, ResultStore, RetryPolicy};
use silicon_bridge::dist::launcher::{run_graph_demo, run_sweep, KillSpec, LaunchOpts};
use silicon_bridge::dist::{faults as dist_faults, worker as dist_worker, WireCell};
use silicon_bridge::mpi::NetConfig;
use silicon_bridge::resilience::CellOutcome;
use silicon_bridge::soc::{configs, Soc, SocConfig};
use silicon_bridge::svc::{client, Daemon, DaemonConfig};
use silicon_bridge::sweepx::{run_lanes, LaneOpts, SampleCfg};
use silicon_bridge::workloads::microbench;

fn platforms() -> Vec<SocConfig> {
    configs::catalog(1)
}

fn platform_or_exit(name: &str) -> SocConfig {
    configs::by_name(name, 1)
        .unwrap_or_else(|| fail(format!("unknown platform {name}; try `bsim list`")))
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  bsim list\n  bsim table <1|2|4|5>\n  \
         bsim fig <1..7|all> [--smoke|--paper] [--par seq|auto|N] [--store FILE] [--retries N]\n       \
         [--lanes N] [--sample]\n  \
         bsim micro <kernel> [platform]\n  bsim tune\n  \
         bsim faults [--seed N] [--deny-unsurvived] [--in-process] [--guard]\n  \
         bsim check [--deny-warnings] [--json] [--list] [--proto] [--plans] [--source] [platform ...]\n  \
         bsim scrub --store FILE\n  \
         bsim dist [--ranks N] [--figs 1,2] [--smoke] [--store FILE] [--json] [--kill-rank R --kill-after K]\n  \
         bsim dist --graph-demo CYCLES [--ranks N] [--ring N] [--latency L] [--quantum Q] [--seed N]\n  \
         bsim serve [--addr H:P] [--store FILE] [--workers N] [--budget N] [--par seq|auto|N] [--dist-ranks N]\n       \
         [--conn-workers N] [--conn-backlog N] [--queue-cap N] [--deadline-ms N] [--io-timeout-secs N]\n  \
         bsim submit ADDR fig <id> [--smoke] [--seed N] [--wait]\n  \
         bsim submit ADDR sweep --platforms A,B --kernels C,D [--scale N] [--seed N] [--wait]\n  \
         bsim submit ADDR tune [--scale N] [--seed N] [--wait]\n  \
         bsim status ADDR [JOB]\n  \
         bsim fetch ADDR JOB"
    );
    std::process::exit(2)
}

/// Prints `msg` and exits 2, the code every bad invocation gets.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The flags each subcommand accepts, as `(flag, takes_value)`.
fn flag_table(cmd: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match cmd {
        "list" | "table" | "micro" | "tune" | "status" | "fetch" | "dist-worker" => &[],
        "fig" => &[
            ("--smoke", false),
            ("--paper", false),
            ("--par", true),
            ("--store", true),
            ("--retries", true),
            ("--lanes", true),
            ("--sample", false),
        ],
        "faults" => &[
            ("--seed", true),
            ("--deny-unsurvived", false),
            ("--in-process", false),
            ("--guard", false),
        ],
        "check" => &[
            ("--deny-warnings", false),
            ("--json", false),
            ("--list", false),
            ("--proto", false),
            ("--plans", false),
            ("--source", false),
        ],
        "scrub" => &[("--store", true)],
        "dist" => &[
            ("--ranks", true),
            ("--figs", true),
            ("--smoke", false),
            ("--store", true),
            ("--json", false),
            ("--kill-rank", true),
            ("--kill-after", true),
            ("--graph-demo", true),
            ("--ring", true),
            ("--latency", true),
            ("--quantum", true),
            ("--seed", true),
        ],
        "serve" => &[
            ("--addr", true),
            ("--store", true),
            ("--workers", true),
            ("--budget", true),
            ("--par", true),
            ("--dist-ranks", true),
            ("--conn-workers", true),
            ("--conn-backlog", true),
            ("--queue-cap", true),
            ("--deadline-ms", true),
            ("--io-timeout-secs", true),
        ],
        "submit" => &[
            ("--smoke", false),
            ("--seed", true),
            ("--wait", false),
            ("--platforms", true),
            ("--kernels", true),
            ("--scale", true),
        ],
        _ => return None,
    })
}

/// One subcommand's argv, split by its flag table: the flags that were
/// given (with their values) and the positionals in order.
struct Flags<'a> {
    given: Vec<(&'a str, &'a str)>,
    pos: Vec<&'a str>,
}

/// Splits `args` by `table`; an unknown `--flag` or a flag missing its
/// value exits 2 naming it, so a typo never runs with defaults.
fn parse_flags<'a>(cmd: &str, args: &'a [String], table: &[(&str, bool)]) -> Flags<'a> {
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

    fn flag<T: std::str::FromStr>(&self, flag: &str, what: &str) -> Option<T> {
        self.flag_with(flag, what, |v| v.parse().ok())
    }

    /// A numeric flag's value, or `default` when the flag is absent.
    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.flag(flag, "a non-negative integer").unwrap_or(default)
    }

    fn par(&self, default: Parallelism) -> Parallelism {
        self.flag_with("--par", "seq, auto, or a worker count", Parallelism::parse)
            .unwrap_or(default)
    }

    fn path(&self, flag: &str) -> Option<std::path::PathBuf> {
        self.get(flag).map(std::path::PathBuf::from)
    }
}

/// The argv a dist launcher spawns per rank: this very binary, re-entered
/// through the hidden `dist-worker` subcommand.
fn worker_argv() -> Vec<String> {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.to_str().map(String::from))
        .unwrap_or_else(|| "bsim".into());
    vec![exe, "dist-worker".into()]
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
            ("engine schedule", check::rules::engine_lints().codes()),
            ("soc", silicon_bridge::soc::preflight::soc_lints().codes()),
            ("guard", check::guard::guard_lints().codes()),
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
             RS001-RS004 [fault plan] out-of-range fault targets/cycles, duplicate events,\n          \
             bit index past the token width\n  \
             RS010-RS011 [watchdog] zero stall budget, poll period at or above the budget\n  \
             SV000   [service] request body is not valid JSON / lacks required fields\n  \
             SV001   [service] request references an unknown figure, preset, platform, or kernel\n  \
             SV002   [service] request cell count exceeds the per-request budget\n  \
             SV003   [result store] file version mismatch: stale entries ignored, not served\n  \
             SV004   [result store] torn/unreadable file quarantined on open\n  \
             SV005   [result store] entry checksum missing/mismatched: quarantined, not served\n  \
             DL001-DL006 [partition plan] rank bounds, orphan models, empty ranks, cut latency\n          \
             vs quantum, dangling relay endpoints\n  \
             PV001-PV007 [protocol] transition-table model checking: unreachable states,\n          \
             unhandled frames, joint deadlock, no quiesced path, table shape, fault\n          \
             handling, state-space truncation (--proto)\n  \
             DD001-DD004 [distributed deadlock] cross-rank token cycles, sub-quantum cycle\n          \
             slack, missing return path, fast-forward licensing holes (--plans)\n  \
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
    if f.has("--proto") {
        // Exhaustively model-check the wire-protocol transition tables
        // the svc and dist runtimes drive.
        for spec in [check::proto::svc_protocol(), check::proto::dist_protocol()] {
            let explored = check::proto::explore(&spec);
            println!(
                "proto {}: {} joint states, {} transitions explored",
                spec.name, explored.states, explored.transitions
            );
            report.merge(explored.report);
        }
    }
    if f.has("--plans") {
        // Cross-rank deadlock analysis over a catalog of partition
        // shapes the dist/soc layers actually produce: every ring size
        // and rank split the demos reach, at the default 16-cycle link
        // latency and quantum (latency >= quantum keeps the rank cycle
        // out of the sub-quantum warning band).
        let mut plans = 0usize;
        for (cores, ranks) in [
            (2, 1),
            (2, 2),
            (4, 1),
            (4, 2),
            (4, 4),
            (6, 2),
            (6, 3),
            (8, 2),
            (8, 4),
            (8, 8),
        ] {
            let (_, r) = silicon_bridge::soc::partition::plan_cores(cores, ranks, 16, 16);
            report.merge(r);
            plans += 1;
        }
        println!("plans: {plans} partition shapes analyzed");
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
    let Some(table) = flag_table(cmd) else {
        usage()
    };
    let f = parse_flags(cmd, &args[1..], table);
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
            let preset = match (f.has("--smoke"), f.has("--paper")) {
                (true, true) => fail("--smoke and --paper are exclusive"),
                (true, false) => "smoke",
                (false, true) => "paper",
                (false, false) => "default",
            };
            let sizes = Sizes::parse(preset).expect("the three presets are named");
            let par = f.par(Parallelism::Sequential);
            let Some(&id) = f.pos.first() else { usage() };
            // `all` is every subfigure of the table, in plan order; each
            // goes with the `WireCell::Fig` a `bsim submit fig` or `bsim
            // dist --figs` of the same preset would run.
            let plan: Vec<(&'static FigureSpec, WireCell)> = FIGURE_IDS
                .iter()
                .filter(|fid| id == "all" || **fid == id)
                .flat_map(|id| subfigures(id).zip(WireCell::figure_cells(id, preset)))
                .collect();
            if plan.is_empty() {
                usage()
            }
            let at_least_one = |v: &str| v.parse::<u32>().ok().filter(|&n| n >= 1);
            let policy = match f.flag_with("--retries", "an attempt count >= 1", at_least_one) {
                Some(max_attempts) => RetryPolicy {
                    max_attempts,
                    ..RetryPolicy::default()
                },
                None => RetryPolicy::once(),
            };
            // --lanes / --sample hand each subfigure's grid to the
            // bsim-sweepx record-once/replay-many executor instead of
            // simulating every cell on its own. A full replay prints the
            // scalar run's series, so the executor (like --par) is no
            // part of a cell's key and one store serves both; a sampled
            // replay is an estimate, keyed by the budget it ran under.
            let lanes = f
                .flag_with("--lanes", "a lane count >= 1", at_least_one)
                .map(|n| n as usize);
            let sample = f.has("--sample").then(SampleCfg::default);
            let lane_opts = (lanes.is_some() || sample.is_some()).then(|| LaneOpts {
                lanes: lanes.unwrap_or(LaneOpts::default().lanes),
                sample,
            });
            let run = |i: usize| match &lane_opts {
                Some(opts) => run_lanes(&plan[i].0.grid(sizes), par, opts),
                None => plan[i].0.run(sizes, par),
            };
            // Seed 0 is what `bsim submit` and `bsim dist` key at.
            let keys: Vec<String> = plan
                .iter()
                .map(|(_, cell)| match &sample {
                    Some(cfg) => cell.key_sampled(0, cfg),
                    None => cell.key(0),
                })
                .collect();
            let mut store = open_store(f.path("--store"));
            // One subfigure at a time: `--par` fans out inside each.
            let sweep = run_grid_keyed(
                &keys,
                Parallelism::Sequential,
                &policy,
                &mut store,
                flush_store,
                run,
            )
            .unwrap_or_else(|e| fail(format!("result store error: {e}")));
            let mut failed = 0usize;
            for ((spec, _), outcome) in plan.iter().zip(sweep.outcomes) {
                let name = spec.key;
                match outcome {
                    CellOutcome::Ok { value, attempts } => {
                        if attempts == 0 {
                            eprintln!("{name}: replayed from the result store");
                        }
                        println!("{}", table::render(&value));
                    }
                    CellOutcome::Failed { diag, attempts } => {
                        failed += 1;
                        eprintln!("{name}: FAILED after {attempts} attempt(s): {diag}");
                    }
                }
            }
            if failed > 0 {
                eprintln!("{failed} subfigure(s) failed; completed ones were kept");
                std::process::exit(1);
            }
        }
        "faults" => {
            let ctx = Ctx::new(f.num("--seed", 42u64), worker_argv());
            // `--guard` keeps only the bsim-guard integrity rows (the CI
            // guard job's fast path); `--in-process` drops the rows that
            // spawn worker processes, for environments where spawning is
            // off the table.
            let (guard_only, in_process) = (f.has("--guard"), f.has("--in-process"));
            let scenarios = silicon_bridge::fault_rows()
                .filter(|row| row.guard || !guard_only)
                .filter(|row| !(row.needs_processes && in_process))
                .map(|row| {
                    // A panic the row expects and catches would still
                    // print its message and backtrace; keep stderr for
                    // the unexpected.
                    if row.panics {
                        let loud = std::panic::take_hook();
                        std::panic::set_hook(Box::new(|_| {}));
                        let scenario = row.scenario(&ctx);
                        std::panic::set_hook(loud);
                        scenario
                    } else {
                        row.scenario(&ctx)
                    }
                })
                .collect();
            let matrix = SurvivalMatrix::new(&ctx, scenarios);
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
            print!("{}", out.explanation(10));
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
            let (scrubbed, report) = silicon_bridge::resilience::scrub(std::path::Path::new(path));
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
        "dist" => run_dist(&f),
        // Hidden: the worker half of `bsim dist`. The launcher spawns
        // `bsim dist-worker` per rank with the rendezvous address and
        // rank number in the environment.
        "dist-worker" => match dist_worker::run_from_env() {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("dist-worker: {e}");
                std::process::exit(1)
            }
        },
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

/// Flushes `store` to its file, if it has one. A store that cannot be
/// written costs the next run its hits, not this run its results.
fn flush_store(store: &ResultStore) {
    if let Err(e) = store.flush() {
        eprintln!("warning: cannot write the result store: {e}");
    }
}

/// `bsim dist`: the multi-process scale-out front end. The default mode
/// fans a sweep of serializable cells across `--ranks` worker processes
/// connected by socket token links; `--kill-rank`/`--kill-after` SIGKILL
/// a worker mid-sweep so the recovery path (respawn + re-plan of what
/// has not arrived) is exercisable from the shell. `--graph-demo`
/// instead partitions the demo ring across the ranks and checks the
/// distributed schedule against the in-process `Harness` bit for bit.
fn run_dist(f: &Flags) -> ! {
    let ranks = f.num("--ranks", 2usize).max(1);

    if f.has("--graph-demo") {
        let cycles = f.num("--graph-demo", 400);
        let ring = f.num("--ring", 4usize).max(2);
        let latency = f.num("--latency", 2).max(1);
        let quantum = f.num("--quantum", 16usize).max(1);
        let seed = f.num("--seed", 42);
        let opts = LaunchOpts::processes(ranks, worker_argv());
        let out = run_graph_demo(ring, latency, quantum, cycles, seed, &opts)
            .unwrap_or_else(|e| fail(format!("graph demo failed: {e}")));
        println!("in-process:  {}", out.reference);
        println!("distributed: {}", out.fingerprint);
        if out.identical() {
            println!("bit-identical across {ranks} process(es) after {cycles} cycles");
            std::process::exit(0)
        }
        eprintln!("FINGERPRINT MISMATCH: the distributed schedule diverged");
        std::process::exit(1)
    }

    let sizes = if f.has("--smoke") { "smoke" } else { "default" };
    let cells: Vec<WireCell> = match f.get("--figs") {
        Some(raw) => raw
            .split(',')
            .filter(|s| !s.is_empty())
            .flat_map(|id| {
                let cells = WireCell::figure_cells(id.trim(), sizes);
                if cells.is_empty() {
                    fail(format!("unknown figure {id}; try `bsim list`"));
                }
                cells
            })
            .collect(),
        // The default sweep is the same platform×kernel grid the
        // process-kill fault scenario uses: small, and wide enough to
        // give every rank real work.
        None => dist_faults::kill_sweep_cells(),
    };

    let mut opts = LaunchOpts::processes(ranks, worker_argv());
    if let Some(rank) = f.flag::<usize>("--kill-rank", "a rank number") {
        if rank >= ranks {
            fail(format!(
                "--kill-rank {rank} is out of range for --ranks {ranks}"
            ));
        }
        opts.kill = Some(KillSpec {
            rank,
            after_cells: f.num("--kill-after", 1usize).max(1),
        });
    }

    // Seed 0: the keys `bsim fig --store` and a default `bsim submit`
    // look the same cells up under.
    let mut store = open_store(f.path("--store"));
    let outcome = run_sweep(&cells, 0, &opts, &mut store).unwrap_or_else(|e| {
        eprintln!("dist sweep failed: {e}");
        std::process::exit(1);
    });
    flush_store(&store);

    if f.has("--json") {
        use serde::Value;
        let map: Vec<(String, Value)> = outcome
            .results
            .iter()
            .map(|(label, json)| {
                let tree = serde_json::from_str(json).unwrap_or(Value::Str(json.to_string()));
                (label.clone(), tree)
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string(&Value::Map(map)).expect("shim renderer is total")
        );
    } else {
        for (label, json) in &outcome.results {
            println!("{label}: {} bytes", json.len());
        }
    }
    eprintln!(
        "{} cell(s) across {} rank(s), {} respawn(s)",
        outcome.results.len(),
        outcome.ranks,
        outcome.respawns
    );
    std::process::exit(0)
}

/// `bsim serve`: run bsimd in the foreground until a `/shutdown`
/// request drains it. Prints the bound address first, so scripts (and
/// the CI smoke test) can bind port 0 and scrape the real port.
fn run_serve(f: &Flags) -> ! {
    let defaults = DaemonConfig::default();
    let dist_ranks = f.num("--dist-ranks", 0);
    let cfg = DaemonConfig {
        addr: f.get("--addr").unwrap_or("127.0.0.1:4780").into(),
        store_path: f.path("--store"),
        workers: f.num("--workers", defaults.workers),
        budget: f.num("--budget", defaults.budget),
        par: f.par(Parallelism::Auto),
        retry: defaults.retry,
        dist_ranks,
        dist_worker: if dist_ranks > 0 {
            worker_argv()
        } else {
            Vec::new()
        },
        conn_workers: f.num("--conn-workers", defaults.conn_workers),
        conn_backlog: f.num("--conn-backlog", defaults.conn_backlog),
        queue_cap: f.num("--queue-cap", defaults.queue_cap),
        // A deadline is opt-in: absent flag = no deadline. `0` is left
        // to the GD002 preflight to reject loudly rather than silently
        // dropped here.
        deadline: f
            .flag("--deadline-ms", "a non-negative integer")
            .map(std::time::Duration::from_millis),
        read_timeout: std::time::Duration::from_secs(
            f.num("--io-timeout-secs", defaults.read_timeout.as_secs()),
        ),
        write_timeout: std::time::Duration::from_secs(
            f.num("--io-timeout-secs", defaults.write_timeout.as_secs()),
        ),
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
