//! `ledger` — the repo's benchmark. One process per workload:
//!
//! ```text
//! ledger run --workload W --seed S [--seconds N] [--trace 0|1] [--passes P] [--smoke]
//! ledger bless                                  (regenerate golden.json)
//! ledger selfcheck [--runs N]                   (two interleaved sets of runs)
//! ```
//!
//! `run` prints every end-to-end metric by name and unit, checks the
//! outputs against the golden digests, and ends with one JSON line the
//! driver reads. With `--trace 1` it is the separate traced run that
//! yields the per-layer numbers instead.

mod golden;
mod host;
mod metrics;
mod pace;
mod probes;
mod seed;
mod selfcheck;
mod span;
mod stats;
mod workloads;

use golden::Check;
use host::ProcUsage;
use metrics::{result_line, Values, END_TO_END, PER_LAYER, WORKLOADS};
use pace::{Pace, Stretch};
use span::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use workloads::{pace_slices, Ctx, Layers, PassOut};

/// Measured passes of a run: a literal, like the sizes, so that every
/// commit is scored by the same statistic over the same work.
const PASSES: u32 = 3;
/// What the three passes are sized to take together on this host, and
/// `run_seconds` in `BENCHMARK.json`. The work of a run is fixed, so
/// `--seconds` does not change it; a run says how long it measured.
pub const NOMINAL_SECONDS: f64 = 20.0;
/// `setup` runs this often per run and the median is reported: a single
/// second-long set-up does not repeat within a tenth on a shared host.
const SETUP_REPEATS: usize = 3;
/// Pace slices before and after every timed stretch, besides the ones
/// the workloads run between their ops.
const BRACKET_SLICES: usize = 5;

/// Parsed command line of `run`.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub passes: u32,
    pub smoke: bool,
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger run --workload <{}> --seed <n> [--seconds <n>] [--trace 0|1] \
         [--passes <n>] [--smoke]\n       ledger bless\n       ledger selfcheck [--runs <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: NOMINAL_SECONDS,
        passes: PASSES,
        smoke: false,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--workload" => out.workload = value().to_string(),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => out.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--passes" => out.passes = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                out.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => out.smoke = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) || out.seconds <= 0.0 || out.passes == 0 {
        usage();
    }
    out
}

/// Where traces and the `svc-mixed` stores go: `benchmark/out/`, which
/// git ignores.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

fn sizes_name(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// Runs `f` between two brackets of pace slices. Returns its result, the
/// host time it took at the nominal pace (slices taken out), and the
/// stretch: the pace factor and the raw time can be read off it.
fn paced<T>(cx: &mut Ctx, f: impl FnOnce(&mut Ctx) -> T) -> (T, f64, Stretch) {
    let t = Instant::now();
    pace_slices(&cx.pace, BRACKET_SLICES);
    let out = f(cx);
    pace_slices(&cx.pace, BRACKET_SLICES);
    let measured_s = t.elapsed().as_secs_f64();
    let stretch = cx.pace.lock().expect("no slice panics").take();
    (out, stretch.at_nominal_pace(measured_s), stretch)
}

fn paced_pass(w: &mut dyn workloads::Workload, cx: &mut Ctx, pass: u32) -> (PassOut, f64, Stretch) {
    cx.tracer.set_pass(pass);
    paced(cx, |cx| {
        let open = cx.tracer.enter("core", "pass", false);
        let out = w.pass(cx, pass);
        cx.tracer.exit(open);
        out
    })
}

fn print_rows(title: &str, rows: &[(&'static str, &'static str, f64)]) {
    println!("{title}");
    for (name, unit, v) in rows {
        println!("  {name:<32} {v:>16.6} {unit}");
    }
}

/// The end-to-end run: tracing off, set-up three times, then the
/// measured passes. Returns the output checker (for `bless`) and how
/// many ops failed.
fn run_end_to_end(args: &RunArgs, bless: bool) -> (Check, u64) {
    let mut w = workloads::by_name(&args.workload, args.smoke).expect("workload name was checked");
    let section = format!("{}/{}", sizes_name(args.smoke), args.workload);
    let mut cx = Ctx {
        seed: args.seed,
        check: Check::new(&section, bless),
        tracer: Tracer::new(false),
        pace: Mutex::new(Pace::default()),
    };
    let usage0 = ProcUsage::now();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setups, mut factors) = (Vec::new(), Vec::new());
    for _ in 0..if bless { 1 } else { SETUP_REPEATS } {
        let ((a, f), setup_s, stretch) = paced(&mut cx, |cx| w.setup(cx));
        setups.push(setup_s);
        factors.push(stretch.factor);
        attempted += a;
        failed += f;
    }

    let (mut walls, mut rates, mut op_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_walls, mut slices) = (Vec::new(), 0);
    for pass in 0..args.passes {
        let (out, wall_s, stretch) = paced_pass(w.as_mut(), &mut cx, pass);
        attempted += out.op_ms.len() as u64 + out.checks;
        failed += out.failed;
        walls.push(wall_s);
        rates.push(out.insts as f64 / wall_s / 1e6);
        op_ms.extend(out.op_ms.iter().map(|ms| ms / stretch.factor));
        raw_walls.push(wall_s * stretch.factor);
        factors.push(stretch.factor);
        slices += stretch.slices;
    }
    let peak_rss_mb = host::peak_rss_mb();
    let usage = ProcUsage::now().since(&usage0);

    let mut e2e = Values::default();
    e2e.set(&END_TO_END, "wall_s", stats::median(&walls));
    e2e.set(&END_TO_END, "sim_minst_per_s", stats::median(&rates));
    e2e.set(&END_TO_END, "op_p50_ms", stats::median(&op_ms));
    e2e.set(&END_TO_END, "setup_s", stats::median(&setups));
    e2e.set(&END_TO_END, "peak_rss_mb", peak_rss_mb);
    let rows = e2e.rows(&END_TO_END);

    println!(
        "workload {} seed {} sizes {}: {} passes measured {:.1} s (--seconds {}), {} ops pooled, \
         {} pace slices",
        args.workload,
        args.seed,
        sizes_name(args.smoke),
        walls.len(),
        raw_walls.iter().sum::<f64>(),
        args.seconds,
        op_ms.len(),
        slices
    );
    println!("  pass walls as measured   {raw_walls:.3?} s");
    println!("  pace factors             {factors:.3?} (set-ups, then passes)");
    println!("  pass walls at pace 1     {walls:.3?} s");
    print_rows(
        "end-to-end (tracing off; host times at the nominal pace, medians over the passes):",
        &rows,
    );
    if let Some(p) = stats::highest_supported_percentile(op_ms.len()).filter(|p| *p > 50.0) {
        println!(
            "  op_p{p}_ms{:<24} {:>16.6} ms   ({} samples)",
            "",
            stats::percentile(&op_ms, p),
            op_ms.len()
        );
    }
    let spread_pct = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        100.0 * (hi - lo) / stats::median(v)
    };
    let n_setups = setups.len();
    let witnesses = [
        ("host.pace_factor", "x", stats::median(&factors[n_setups..])),
        ("host.pace_factor_setup", "x", stats::median(&factors[..n_setups])),
        ("host.user_s", "s", usage.user_s),
        ("host.sys_s", "s", usage.sys_s),
        ("host.sys_share", "share", usage.sys_share()),
        ("host.minflt", "count", usage.minflt as f64),
        ("host.pass_spread_pct", "%", spread_pct(&walls)),
        ("host.raw_pass_spread_pct", "%", spread_pct(&raw_walls)),
    ];
    print_rows("host witnesses:", &witnesses);
    println!("ops_attempted {attempted}  ops_failed {failed}");
    println!("{}", result_line(attempted, failed, &rows));
    (cx.check, failed)
}

/// The traced run: one untraced and one traced pass, the staged spans
/// that split the traced pass by layer, and the fixed probes.
fn run_traced(args: &RunArgs) {
    let mut w = workloads::by_name(&args.workload, args.smoke).expect("workload name was checked");
    let section = format!("{}/{}", sizes_name(args.smoke), args.workload);
    let mut cx = Ctx {
        seed: args.seed,
        check: Check::new(&section, false),
        tracer: Tracer::new(true),
        pace: Mutex::new(Pace::default()),
    };
    let usage0 = ProcUsage::now();
    let ((mut attempted, mut failed), _, _) = paced(&mut cx, |cx| w.setup(cx));

    // Pass 0 with tracing off, pass 1 with it on: their difference is
    // what the tracing costs.
    cx.tracer.set_enabled(false);
    let (plain, plain_wall, plain_stretch) = paced_pass(w.as_mut(), &mut cx, 0);
    cx.tracer.set_enabled(true);
    let (traced, traced_wall, stretch) = paced_pass(w.as_mut(), &mut cx, 1);
    for out in [&plain, &traced] {
        attempted += out.op_ms.len() as u64 + out.checks;
        failed += out.failed;
    }

    let mut layers = Layers(Values::default());
    w.layers(&mut cx, &mut layers);
    probes::run(&mut layers, args.smoke);
    let usage = ProcUsage::now().since(&usage0);

    layers.set("core.cell_p90_ms", stats::percentile(&traced.op_ms, 90.0));
    layers.set("ops.count", traced.op_ms.len() as f64);
    layers.set("ops.p50_ms", stats::median(&traced.op_ms));
    let tail = stats::highest_supported_percentile(traced.op_ms.len()).unwrap_or(50.0);
    layers.set("ops.tail_percentile", tail);
    layers.set("ops.tail_ms", stats::percentile(&traced.op_ms, tail));
    layers.set("host.user_s", usage.user_s);
    layers.set("host.sys_s", usage.sys_s);
    layers.set("host.sys_share", usage.sys_share());
    layers.set("host.minflt", usage.minflt as f64);
    layers.set("host.pace_factor", stretch.factor);
    layers.set(
        "host.pass_spread_pct",
        100.0 * (stretch.factor - plain_stretch.factor).abs()
            / stretch.factor.min(plain_stretch.factor),
    );
    layers.set(
        "host.trace_overhead_pct",
        100.0 * (traced_wall - plain_wall) / plain_wall,
    );

    let path = out_dir().join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, cx.tracer.to_json(&args.workload)).expect("trace file is writable");

    let rows = layers.0.rows(&PER_LAYER);
    println!(
        "workload {} seed {} sizes {}: traced pass {traced_wall:.3} s, untraced {plain_wall:.3} s \
         (both at pace 1), {} spans in {}",
        args.workload,
        args.seed,
        sizes_name(args.smoke),
        cx.tracer.spans().len(),
        path.display()
    );
    print_rows(
        "per-layer (traced run; 0 = layer not on this workload's path):",
        &rows,
    );
    println!("ops_attempted {attempted}  ops_failed {failed}");
    println!("{}", result_line(attempted, failed, &rows));
}

/// Regenerates `golden.json` from one pass of every workload at both
/// sizes. The goldens are compiled in: rebuild after blessing.
fn bless() -> i32 {
    let mut sections: BTreeMap<String, golden::Section> = golden::all_sections();
    for smoke in [false, true] {
        for workload in WORKLOADS {
            let args = RunArgs {
                workload: workload.to_string(),
                seed: 1,
                seconds: NOMINAL_SECONDS,
                passes: 1,
                smoke,
                trace: false,
            };
            let (check, failed) = run_end_to_end(&args, true);
            if failed > 0 {
                eprintln!(
                    "{workload} did not repeat its own outputs; golden.json is left as it was"
                );
                return 1;
            }
            sections.insert(format!("{}/{workload}", sizes_name(smoke)), check.observed);
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    std::fs::write(&path, golden::render(&sections)).expect("golden.json is writable");
    eprintln!(
        "wrote {}; rebuild to compile the new goldens in",
        path.display()
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A run that finds wrong outputs still exits 0: it says so in its
    // result line (`correct`, `failed`), which is what the driver reads.
    let code = match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run_args(&args[1..]);
            // One core's worth of load on every workload, and the pace
            // loop times the core that does the work. Unpinned, the
            // threads of `svc-mixed` wake each other across the two
            // virtual CPUs, and whenever the host is slow to schedule
            // the sleeping one a 6-second pass takes up to 17.
            host::one_malloc_arena();
            match host::pin_to_current_cpu() {
                Some(cpu) => println!("pinned to cpu {cpu}"),
                None => println!("not pinned: the kernel refused"),
            }
            if run.trace {
                run_traced(&run);
            } else {
                run_end_to_end(&run, false);
            }
            0
        }
        Some("bless") => bless(),
        Some("selfcheck") => selfcheck::main(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}
