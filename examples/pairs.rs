//! A verdict is one command: two command lines run in alternating pairs,
//! one row appended to `BENCH_<name>.json` at the repo root.
//! ```text
//! cargo build --release --example pairs
//! target/release/examples/pairs --name fig --n 10 --bar 0.1 \
//!     --a "target/release/bsim fig all" --b "target/release/bsim fig all --par auto"
//! ```
//! `--a` is the baseline and `--b` the arm judged against it; the two may
//! be different binaries (a parent's and a change's) or one binary with
//! different flags. A command line is split at spaces, and a `"…"` span
//! is one argument. Pair `i` runs `a` first when `i` is odd and `b` first
//! when it is even, so a host that speeds up or slows down over minutes
//! charges both arms alike. Every run must exit 0 and print the same
//! stdout (FNV-1a digest) as every other run of either arm, or nothing is
//! written. `--a-commit` and `--b-commit` name the commits the two
//! binaries were built from (default: this checkout's `HEAD`).
//!
//! Each run's peak resident set is the child's `ru_maxrss`, which
//! `wait4` returns with its exit status (Linux; elsewhere none is
//! recorded). The verdict is on wall time alone.
//!
//! Prints the pairs as a Markdown table, with medians, quartiles,
//! per-pair ratios, wins and the verdict against `--bar`
//! (`silicon_bridge::bench`), and the median peak RSS of each arm, and
//! appends the row with every wall time and peak, the commits, the
//! commands, `nproc`, the CPU model and the date.

use silicon_bridge::bench::{self, Host, Row, Run};
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: pairs --name NAME --n N --bar FRACTION --a \"CMD\" --b \"CMD\" \
                     [--a-commit C] [--b-commit C]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        let at = args.iter().position(|a| a == name)?;
        Some(
            args.get(at + 1)
                .unwrap_or_else(|| fail(&format!("{name} needs a value"))),
        )
    };
    let required = |name: &str| flag(name).unwrap_or_else(|| fail(&format!("{name} is required")));
    let name = required("--name");
    if name.is_empty() || !name.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_') {
        fail("--name: letters, digits and '_' only");
    }
    let n: usize = required("--n")
        .parse()
        .unwrap_or_else(|_| fail("--n: a count"));
    let bar: f64 = required("--bar")
        .parse()
        .unwrap_or_else(|_| fail("--bar: a fraction"));
    let (a, b) = (required("--a"), required("--b"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let head = || git_head(root);
    let a_commit = flag("--a-commit").cloned().unwrap_or_else(head);
    let b_commit = flag("--b-commit").cloned().unwrap_or_else(head);

    let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
    for i in 1..=n {
        if i % 2 == 1 {
            a_runs.push(run(a));
            b_runs.push(run(b));
        } else {
            b_runs.push(run(b));
            a_runs.push(run(a));
        }
        let (x, y) = (a_runs[i - 1], b_runs[i - 1]);
        eprintln!("pair {i}/{n}: a {:.3} s, b {:.3} s", x.wall_s, y.wall_s);
        if [x, y]
            .iter()
            .any(|r| r.stdout_fnv1a != a_runs[0].stdout_fnv1a)
        {
            fail(&format!("no row written: stdout differs in pair {i}"));
        }
    }
    let host = Host {
        date: utc_now(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        cpu: cpu_model(),
    };
    let row = Row::new(host, (&a_commit, a), (&b_commit, b), &a_runs, &b_runs, bar)
        .unwrap_or_else(|e| fail(&format!("no row written: {e}")));
    print!("{}", row.table());
    let path = root.join(format!("BENCH_{name}.json"));
    bench::append(&path, &row).unwrap_or_else(|e| fail(&e));
    eprintln!("appended a row to {}", path.display());
}

fn fail(message: &str) -> ! {
    eprintln!("pairs: {message}\n{USAGE}");
    std::process::exit(2)
}

/// Splits a command line at spaces; a `"…"` span is one argument.
fn split(command: &str) -> Vec<String> {
    let (mut args, mut arg, mut quoted, mut any) = (Vec::new(), String::new(), false, false);
    for c in command.chars() {
        match c {
            ' ' if !quoted => {
                if any {
                    args.push(std::mem::take(&mut arg));
                }
                any = false;
            }
            '"' => {
                quoted = !quoted;
                any = true;
            }
            c => {
                arg.push(c);
                any = true;
            }
        }
    }
    if any {
        args.push(arg);
    }
    args
}

/// Runs `command` once, stdout captured and stderr discarded.
fn run(command: &str) -> Run {
    let args = split(command);
    let Some((program, rest)) = args.split_first() else {
        fail("an empty command")
    };
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(rest)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("{program}: {e}")));
    let mut stdout = Vec::new();
    let read = child.stdout.take().expect("piped").read_to_end(&mut stdout);
    let (success, maxrss_mb) = reap(child);
    let wall_s = (start.elapsed().as_secs_f64() * 1e3).round() / 1e3;
    if !success || read.is_err() {
        fail(&format!("`{command}` failed"));
    }
    Run {
        wall_s,
        maxrss_mb,
        stdout_fnv1a: bench::fnv1a(&stdout),
    }
}

/// Waits for `child`: whether it exited 0, and its peak resident MB.
#[cfg(target_os = "linux")]
fn reap(child: Child) -> (bool, Option<f64>) {
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut [i64; 18]) -> i32;
    }
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    // the first of which, `usage[4]`, is `ru_maxrss` in KiB.
    let (pid, mut status, mut usage) = (child.id() as i32, 0, [0i64; 18]);
    // SAFETY: both pointers are valid for writes for the whole call. The
    // child is reaped here, so `Child` is dropped without a wait of its own.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    drop(child);
    if rc != pid {
        fail(&format!("wait4: {}", std::io::Error::last_os_error()));
    }
    // MB as the ledger's `peak_rss_mb` counts them: KiB / 1024.
    let mb = (usage[4] as f64 / 1024.0 * 1e3).round() / 1e3;
    (status == 0, Some(mb))
}

#[cfg(not(target_os = "linux"))]
fn reap(mut child: Child) -> (bool, Option<f64>) {
    let status = child.wait().unwrap_or_else(|e| fail(&format!("wait: {e}")));
    (status.success(), None)
}

fn git_head(root: &Path) -> String {
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output();
    match out {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info.lines().find_map(|l| {
        let (key, value) = l.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    });
    model.unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Now, UTC, as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + (month <= 2) as i64;
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
