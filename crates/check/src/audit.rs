//! AU-series workspace source audit.
//!
//! A lightweight line-oriented scanner over the workspace's crate sources
//! that flags patterns banned in deterministic or hot-path code:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | AU000 | note     | summary of findings waived via `// bsim: allow(..)` |
//! | AU001 | error    | `.unwrap()` outside tests: a panic tears the simulation down instead of surfacing a typed error |
//! | AU002 | warning  | `.expect(..)` in a designated hot-path file (token channel, wire framing, daemon dispatch, interpreter loop, timing cores, memory hierarchy) |
//! | AU003 | warning  | iteration over a `HashMap` binding: order is nondeterministic and must not feed results or wire frames |
//! | AU004 | warning  | `Instant`/`SystemTime` in a virtual-time crate: host clocks break determinism |
//! | AU005 | note     | a `pub` fn, struct, enum, trait, const, static or type of any crate that nothing outside the crate's `src/` mentions and no other `pub` declaration carries: surface to shrink |
//! | AU006 | warning  | `std::env::`, `println!`/`eprintln!` or `format!` in a per-op hot-path file (interpreter, timing cores, memory hierarchy and the loops feeding them): host work — an environment lookup, a lock on stdout, an allocation — where every micro-op pays for it |
//! | AU007 | error    | text a simplification took out of a set of files is back: one row of [`BANS`] per collapse (a deleted entry point, a cost model read outside its two files, a second place that builds or catches what one place should) |
//!
//! Findings are waived inline with a `// bsim: allow(AU001)` comment on the
//! same line or on the line directly above; several codes may be listed,
//! comma-separated; `// bsim: allow-file(AU005)` waives AU005 for a whole
//! file. `#[cfg(test)]` regions are skipped entirely (brace-depth
//! tracked; an AU007 row may opt in), and line comments are stripped before pattern matching so
//! documentation cannot trip the scanner.
//!
//! The scan is deliberately textual, not syntactic: it runs in milliseconds
//! over the whole workspace, has no parser to keep in sync with the
//! language, and the waiver escape hatch keeps the false-positive cost at
//! one comment. `bsim check --source` runs it over every `crates/*/src` and
//! the root `src/`, and AU007 rows that name `examples/` over the examples
//! too; AU005 additionally reads every other `.rs` file of the repository
//! (tests — a crate's own integration tests included — examples,
//! `benchmark/src`) as potential callers.

use crate::diag::{Diagnostic, Report};
use std::fs;
use std::path::{Path, PathBuf};

// Pattern needles are assembled with `concat!` so this file does not flag
// itself when the audit runs over the check crate.
const UNWRAP: &str = concat!(".unw", "rap()");
const EXPECT: &str = concat!(".exp", "ect(");
const INSTANT: &str = concat!("Instant::", "now");
const SYSTIME: &str = concat!("System", "Time");
const HASHMAP_TY: &str = concat!("Hash", "Map<");
const HASHMAP_NEW: &str = concat!("Hash", "Map::new");
const ALLOW: &str = concat!("bsim: ", "allow(");
const CFG_TEST: &str = concat!("#[cfg(", "test)]");
const ALLOW_FILE: &str = concat!("bsim: ", "allow-file(");
/// Item keywords AU005 audits after `pub`.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];
/// AU006 needles: host work that does not belong on a per-op path.
/// (`println!(` also matches inside `eprintln!(`.)
const HOST_WORK: &[&str] = &[
    concat!("std::", "env::"),
    concat!("println", "!("),
    concat!("format", "!("),
];

/// Files whose failure modes reach the per-token or per-frame path: a
/// panic here kills a quantum mid-flight, so even `.expect` needs a
/// waiver arguing the invariant.
const HOT_PATHS: &[&str] = &[
    "crates/engine/src/channel.rs",
    "crates/engine/src/harness.rs",
    "crates/engine/src/link.rs",
    "crates/engine/src/graph.rs",
    "crates/core/src/frame.rs",
    "crates/svc/src/proto.rs",
    "crates/svc/src/daemon.rs",
];

/// Hot paths that run once per instruction, micro-op or memory access —
/// the functional front end, both timing cores, the memory hierarchy and
/// the loops that feed them. AU002 applies as on [`HOT_PATHS`]; on top,
/// host work (AU006) needs a waiver stating when it runs, because here
/// it is paid tens of millions of times a figure.
const PER_OP_PATHS: &[&str] = &[
    "crates/isa/src/interp.rs",
    "crates/isa/src/mem.rs",
    "crates/uarch/src/uop.rs",
    "crates/uarch/src/inorder.rs",
    "crates/uarch/src/ooo.rs",
    "crates/uarch/src/tlb.rs",
    "crates/uarch/src/predictor.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/front.rs",
    "crates/mem/src/hierarchy.rs",
    "crates/mem/src/dram.rs",
    "crates/mem/src/llc.rs",
    "crates/soc/src/runner.rs",
    "crates/mpi/src/timing.rs",
    "crates/workloads/src/trace.rs",
];

/// Crates whose code runs under virtual time; host clocks are banned there
/// (the resilience watchdog in `engine` carries explicit waivers).
const VIRTUAL_TIME_CRATES: &[&str] = &[
    "engine",
    "mem",
    "uarch",
    "isa",
    "soc",
    "workloads",
    "mpi",
    "core",
];

const ITER_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "drain(",
    "into_iter()",
];

/// One AU007 row: text a past change took out of some files and that
/// must not come back. A comment-stripped line is a hit when it
/// contains any of `needles` — and `with`, for a ban on two things
/// meeting — in a file under `within` that is not one of `except`.
pub struct Ban {
    pub needles: &'static [&'static str],
    /// A second text the line must hold too; empty for none.
    pub with: &'static str,
    /// Path prefixes the ban covers.
    pub within: &'static [&'static str],
    /// Files under `within` where the text belongs.
    pub except: &'static [&'static str],
    /// Whether `#[cfg(test)]` regions are covered as well.
    pub in_tests: bool,
    pub message: &'static str,
}

impl Ban {
    fn covers(&self, path: &str) -> bool {
        self.within.iter().any(|p| path.starts_with(p)) && !self.except.contains(&path)
    }

    fn hit(&self, code: &str) -> Option<&'static str> {
        let needle = self.needles.iter().find(|n| code.contains(**n))?;
        code.contains(self.with).then_some(needle)
    }
}

const SHIPPED: &[&str] = &["crates/", "src/"];
const DAEMON: &[&str] = &["crates/svc/src/daemon.rs"];
const CKPT_STORE: &[&str] = &[concat!("Ckpt", "Store")];
const CKPT_STORE_MESSAGE: &str =
    "a command keeps a cell's result through ResultStore, not the bare file format under it";

/// The AU007 table, one row per collapse that had a grep guarding it.
pub const BANS: &[Ban] = &[
    Ban {
        needles: &[
            concat!("collective", "_cost"),
            concat!(".arriv", "al("),
            concat!(".o_", "recv"),
            concat!(".o_", "send"),
            concat!("transfer", "_cycles"),
        ],
        with: "",
        within: &["crates/"],
        except: &["crates/mpi/src/net.rs", "crates/mpi/src/timing.rs"],
        in_tests: true,
        message: "the MPI cost model is read by net.rs and timing.rs and by no other code",
    },
    Ban {
        needles: &[concat!("catch", "_unwind")],
        with: "",
        within: &["crates/core/src/"],
        except: &["crates/core/src/retry.rs"],
        in_tests: false,
        message: "bsim_core::catch is the one place a cell panic is caught",
    },
    Ban {
        needles: &[concat!("Scenario", " {")],
        with: "",
        within: SHIPPED,
        except: &["crates/core/src/campaign.rs"],
        in_tests: true,
        message: "a fault row's Scenario is built in campaign.rs only",
    },
    Ban {
        needles: &[
            concat!("run_", "grid("),
            concat!("run_grid_", "checkpointed"),
            concat!("run_plan", "_with"),
            concat!("backoff", "_after"),
            concat!("BACKOFF_", "CAP_MS"),
            concat!("save_", "atomic"),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "a collapsed runner, backoff or save path reappeared",
    },
    Ban {
        needles: &[concat!("write", "!(")],
        with: "",
        within: &["crates/svc/src/proto.rs"],
        except: &[],
        in_tests: false,
        message: "a wire message is one buffer and one write_all; \
                  formatting onto the stream is a write(2) per piece",
    },
    Ban {
        needles: &[concat!("to_string", "_pretty")],
        with: "",
        within: DAEMON,
        except: &[],
        in_tests: false,
        message: "a response is spliced from stored bytes, not pretty-printed from a tree",
    },
    Ban {
        needles: CKPT_STORE,
        with: "",
        within: &["src/bin/bsim.rs", "crates/core/src/resilient.rs"],
        except: &[],
        in_tests: true,
        message: CKPT_STORE_MESSAGE,
    },
    Ban {
        needles: CKPT_STORE,
        with: "",
        within: DAEMON,
        except: &[],
        in_tests: false,
        message: CKPT_STORE_MESSAGE,
    },
    Ban {
        needles: &[".get(", ".get_bytes(", ".put(", ".put_bytes("],
        with: concat!("lab", "el()"),
        within: SHIPPED,
        except: &[],
        in_tests: false,
        message: "a display label never indexes a store; WireCell::key does",
    },
    Ban {
        needles: &[
            concat!("run_grid", "_keyed"),
            concat!("run_grid", "_resilient"),
            concat!("Resilient", "Sweep"),
            concat!("exec", "_cell"),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "bsim fig and bsimd run their cells through one CellPool",
    },
    Ban {
        needles: &[".get_bytes(", ".put_bytes(", "inflight"],
        with: "",
        within: &["src/bin/bsim.rs", "crates/svc/src/daemon.rs"],
        except: &[],
        in_tests: false,
        message: "a command reaches the result store through the cell pool: \
                  one probe, one claim, one put",
    },
    Ban {
        needles: &[
            concat!("Harness", "Ckpt"),
            concat!("Rank", "Ckpt"),
            concat!("Sender", "Ckpt"),
            concat!("resume_", "parallel"),
            concat!("run_parallel_", "checkpointed"),
            concat!("run_parallel_", "with_telemetry"),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "recovery is per cell: the token-level checkpoint layer is gone, \
                  and a parallel run's counters come from run_guarded",
    },
    Ban {
        needles: &[concat!("FnMut(&Micro", "Op)")],
        with: "",
        within: &["crates/"],
        except: &["crates/workloads/src/trace.rs"],
        in_tests: false,
        message: "a live micro-op reaches its core in a quantum, not through a per-op callback",
    },
    Ban {
        needles: &["load("],
        with: ".data",
        within: &["crates/"],
        except: &["crates/isa/src/mem.rs"],
        in_tests: false,
        message: "a program's data image is mounted, not copied",
    },
    Ban {
        needles: &[
            concat!("PlanSpec::", "Graph"),
            concat!("Frame::", "Link"),
            concat!("run_graph", "_demo"),
            concat!("lint_graph", "_plan"),
            concat!("plan_", "cores"),
            concat!("analyze_", "partition"),
            concat!("partition", "_lints"),
            concat!("\"--graph", "-demo\""),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "no process runs a partitioned token graph, so nothing plans or lints one",
    },
    Ban {
        needles: &[
            concat!("Trace", "Ring"),
            concat!("Samp", "ler"),
            concat!("sample_interval", "_cycles"),
            concat!("trace_", "capacity"),
            concat!("ff_", "stats"),
            concat!("observe_", "retire"),
        ],
        with: "",
        within: &["crates/", "src/", "examples/"],
        except: &[],
        in_tests: true,
        message: "telemetry is the cycle stacks a report carries: no timeline, no trace ring, \
                  no per-op observed schedule, no core fast-forward tally",
    },
    Ban {
        needles: &[
            concat!("Gap", "Report"),
            concat!("counters", "_csv"),
            concat!("counters", "_mut"),
        ],
        with: "",
        within: &["crates/", "src/", "examples/"],
        except: &[],
        in_tests: true,
        message: "a gap is explained by cycle stacks: no counter export beside them, \
                  no counter ranking",
    },
    Ban {
        needles: &[concat!("fn pub", "lish")],
        with: "",
        within: &["crates/uarch/src/stats.rs", "crates/mem/src/stats.rs"],
        except: &[],
        in_tests: true,
        message: "core and memory statistics ride the report; nothing republishes them \
                  as named counters",
    },
    Ban {
        needles: &[
            concat!("Retry", "Policy"),
            concat!("max_", "attempts"),
            concat!("Break", "er"),
            concat!("Peer", "Watchdog"),
            concat!("prewarm", "_dist"),
            concat!("dist_", "ranks"),
            concat!("Link", "Guard"),
            concat!("\"--re", "tries\""),
            concat!("\"--dist", "-ranks\""),
        ],
        with: "",
        within: &["crates/", "src/", "examples/"],
        except: &[],
        in_tests: true,
        message: "a failed cell fails once: \
                  no retry policy, breaker, peer watchdog, daemon dist prewarm or link lint",
    },
    Ban {
        needles: &[
            concat!("run_with", "_telemetry"),
            concat!("with_fast", "_forward"),
            concat!("lint_", "schedule"),
            concat!("Schedule", "Spec"),
            concat!("count_by", "_kind"),
            concat!("\"fault.", "injected."),
            concat!("\"host.", "engine."),
        ],
        with: "",
        within: &["crates/", "src/", "examples/"],
        except: &[],
        in_tests: true,
        message: "the token engine keeps what the fault matrix runs: one sequential run that \
                  always fast-forwards, a parallel run that never does, and no engine or \
                  injected-fault counters or schedule lints",
    },
    Ban {
        needles: &[concat!("body", ".clone()"), concat!("sle", "ep(")],
        with: "",
        within: &["crates/svc/src/daemon.rs", "crates/svc/src/client.rs"],
        except: &[],
        in_tests: false,
        message: "a finished job's body moves to the one fetch that delivers it, \
                  and the daemon, not the client, paces a wait",
    },
    Ban {
        needles: &[
            concat!("Tick", "Model"),
            concat!("Fault", "Plan"),
            concat!("Fault", "Kind"),
            concat!("run_", "guarded"),
            concat!("Watchdog", "Config"),
        ],
        with: "",
        within: &["crates/core/", "crates/svc/src/faults.rs", "src/"],
        except: &[],
        in_tests: true,
        message: "the survival matrix tests the product path: no fault row drives the token engine",
    },
    Ban {
        needles: &[
            concat!("27", ".7"),
            concat!("0.35", "-0.37"),
            concat!("0.35", "–0.37"),
            concat!("0.28", "-0.43"),
            concat!("0.28", "–0.43"),
        ],
        with: "",
        within: &["crates/", "src/", "tests/", "examples/"],
        except: &["crates/core/src/claims.rs"],
        in_tests: true,
        message: "a paper value lives in PAPER_CLAIMS: read the claim's `paper`, do not restate it",
    },
    Ban {
        needles: &[
            concat!("key", "_sampled"),
            concat!("sampled", "_cell_key"),
            concat!("Sample", "Agg"),
            concat!("Lane", "Opts"),
            concat!("\"--sam", "ple\""),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "a figure is a function of its cells: no figure executor estimates one, \
                  and no store key holds an estimate",
    },
    Ban {
        needles: &[
            concat!("run_", "lanes"),
            concat!("run_", "chunked"),
            concat!("run_grid_", "chunks_metered"),
            concat!("record_", "program"),
            concat!("replay_", "program"),
            concat!("\"--la", "nes\""),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "a figure has one executor, FigureGrid::run: every cell simulated on its own, \
                  no lane-replay path and no chunked grid runner beside it",
    },
    Ban {
        needles: &[
            concat!("run_", "sweep"),
            concat!("Launch", "Opts"),
            concat!("Worker", "Spawn"),
            concat!("partition", "_cells"),
            concat!("needs_", "processes"),
            concat!("\"dist", "-worker\""),
            concat!("\"--in-", "process\""),
        ],
        with: "",
        within: SHIPPED,
        except: &[],
        in_tests: true,
        message: "a cell runs in the process that asked for it: no launcher spawns workers, \
                  and no fault row needs one",
    },
    Ban {
        needles: &[
            concat!("Guard", "Spec"),
            concat!("guard", "_lints"),
            concat!("Wire", "Timeouts"),
            concat!("DEADLINE", "_EXCEEDED"),
            concat!("\"--deadline", "-ms\""),
            concat!("\"--queue", "-cap\""),
            concat!("\"--conn", "-workers\""),
            concat!("\"--conn", "-backlog\""),
            concat!("\"--io-timeout", "-secs\""),
        ],
        with: "",
        within: &["src/", "crates/", "examples/"],
        except: &[],
        in_tests: true,
        message: "the daemon's admission limits and wire timeout are constants: no flag, \
                  field or lint sets them, and no request carries a deadline",
    },
    Ban {
        needles: &[
            concat!("Track", "er"),
            concat!("svc_", "protocol"),
            concat!("svc_", "cached"),
            concat!("Protocol", "Spec"),
            concat!("response", "_event"),
            concat!("\"--pro", "to\""),
        ],
        with: "",
        within: &["src/", "crates/", "examples/"],
        except: &[],
        in_tests: true,
        message: "the wire is what tests/svc.rs pins: no protocol table, tracker or model \
                  checker shadows the daemon or its client",
    },
    Ban {
        needles: &[
            concat!("bsim_", "resilience"),
            concat!("bsim_", "dist"),
            concat!("bsim_", "sweepx"),
        ],
        with: "",
        within: &["crates/", "src/", "tests/", "examples/"],
        except: &[],
        in_tests: true,
        message: "the store, cell and lane code lives in bsim_core and the rank graph, link, \
                  fault plan and watchdog in bsim_engine: no crate re-exports them",
    },
    Ban {
        needles: &[concat!("fn ", "bless")],
        with: "",
        within: &["crates/", "src/", "tests/", "examples/"],
        except: &["tests/golden.rs"],
        in_tests: true,
        message: "a simulated number is pinned in tests/golden.json, and tests/golden.rs holds \
                  the one bless that rewrites it",
    },
    Ban {
        needles: &[
            concat!("SMOKE_", "VERDICTS"),
            concat!("FIG5_", "SMOKE"),
            concat!("OOO_", "CORES"),
        ],
        with: "",
        within: &["tests/", "crates/"],
        except: &[],
        in_tests: true,
        message: "a test reads a pinned simulated number from tests/golden.json, \
                  not from a literal of its own",
    },
];

/// Outcome of a workspace audit.
#[derive(Debug)]
pub struct Audit {
    pub report: Report,
    /// Files scanned.
    pub files: usize,
    /// Findings suppressed by inline waivers.
    pub waived: usize,
}

/// Codes listed after `marker` on a line, e.g. `// bsim: allow(AU001, AU003)`.
fn waivers_at(raw: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(i) = raw.find(marker) {
        let rest = &raw[i + marker.len()..];
        if let Some(end) = rest.find(')') {
            for code in rest[..end].split(',') {
                let code = code.trim();
                if !code.is_empty() {
                    out.push(code.to_string());
                }
            }
        }
    }
    out
}

/// Waivers in force on `raw`: its own plus those of a comment line
/// directly above, which `above` carries from line to line.
fn waivers_for(raw: &str, above: &mut Vec<String>) -> Vec<String> {
    let own = waivers_at(raw, ALLOW);
    let mut allowed = own.clone();
    allowed.append(above);
    if raw.trim_start().starts_with("//") {
        *above = own;
    }
    allowed
}

/// Binding or field name a `HashMap` is stored under on this line, if any.
fn hashmap_binding(code: &str) -> Option<String> {
    if !(code.contains(HASHMAP_TY) || code.contains(HASHMAP_NEW)) {
        return None;
    }
    let t = code.trim_start();
    if let Some(i) = t.find("let ") {
        let rest = t[i + 4..].trim_start().trim_start_matches("mut ");
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()) {
            return Some(name);
        }
    }
    // Struct field or parameter: the identifier directly before the `:`.
    if let Some(i) = t.find(':') {
        let head = &t[..i];
        let name: String = head
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()) {
            return Some(name);
        }
    }
    None
}

fn iterates_map(code: &str, name: &str) -> bool {
    for m in ITER_METHODS {
        if code.contains(&format!("{name}.{m}")) {
            return true;
        }
    }
    code.contains(&format!("in &{name}")) || code.contains(&format!("in &mut {name}"))
}

/// Tracks `#[cfg(test)]` regions by brace depth, one line at a time.
#[derive(Default)]
struct TestRegions {
    depth: i32,
    in_test: bool,
    exit_depth: i32,
    armed: bool,
}

impl TestRegions {
    /// Feeds one comment-stripped line; true when the line began inside
    /// a test region.
    fn step(&mut self, code: &str) -> bool {
        let began_in_test = self.in_test;
        if code.contains(CFG_TEST) {
            self.armed = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    if self.armed && !self.in_test {
                        self.in_test = true;
                        self.exit_depth = self.depth;
                        self.armed = false;
                    }
                    self.depth += 1;
                }
                '}' => {
                    self.depth -= 1;
                    if self.in_test && self.depth <= self.exit_depth {
                        self.in_test = false;
                    }
                }
                _ => {}
            }
        }
        began_in_test
    }
}

/// Crate a repo-relative source path belongs to (`crates/<name>/src/..`).
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Whether `path` is shipped simulation code: `crates/*/src` and the
/// root `src/`, not tests, benches, examples or the benchmark.
fn shipped(path: &str) -> bool {
    path.starts_with("src/")
        || crate_of(path).is_some_and(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Scan one file's source text, pushing findings into `report` and counting
/// waived ones into `waived`. `path` is the repo-relative path used both for
/// spans and for the hot-path / virtual-time scoping. AU001–AU004 and AU006
/// apply to shipped code only; AU007 to whatever files its rows cover.
pub fn scan_source(path: &str, text: &str, report: &mut Report, waived: &mut usize) {
    let is_shipped = shipped(path);
    let per_op = PER_OP_PATHS.contains(&path);
    let hot = per_op || HOT_PATHS.contains(&path);
    let vt = crate_of(path).is_some_and(|c| VIRTUAL_TIME_CRATES.contains(&c));

    // Pass 1: HashMap binding and field names declared anywhere in the file.
    let mut map_names: Vec<String> = Vec::new();
    for line in text.lines() {
        let code = line.split("//").next().unwrap_or(line);
        if let Some(name) = hashmap_binding(code) {
            if !map_names.contains(&name) {
                map_names.push(name);
            }
        }
    }

    // Pass 2: findings, with `#[cfg(test)]` regions skipped via brace depth.
    let bans: Vec<&Ban> = BANS.iter().filter(|b| b.covers(path)).collect();
    let mut regions = TestRegions::default();
    let mut prev_waivers: Vec<String> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let code = raw.split("//").next().unwrap_or(raw);
        let allowed = waivers_for(raw, &mut prev_waivers);
        let in_test_here = regions.step(code);

        let span = format!("{path}:{lineno}");
        let mut emit = |d: Diagnostic, code: &str, report: &mut Report| {
            if allowed.iter().any(|c| c == code) {
                *waived += 1;
            } else {
                report.push(d);
            }
        };

        for ban in bans.iter().filter(|b| b.in_tests || !in_test_here) {
            if let Some(needle) = ban.hit(code) {
                emit(
                    Diagnostic::error(
                        "AU007",
                        span.clone(),
                        format!("`{needle}`: {}", ban.message),
                    )
                    .with_help(
                        "use what replaced it, or waive stating why this site is not that path",
                    ),
                    "AU007",
                    report,
                );
            }
        }
        if in_test_here || !is_shipped {
            continue;
        }

        if code.contains(UNWRAP) {
            emit(
                Diagnostic::error(
                    "AU001",
                    span.clone(),
                    format!("{UNWRAP} in non-test code: a panic here tears the simulation down"),
                )
                .with_help("return a typed error (SimError / io::Error) or waive with a rationale"),
                "AU001",
                report,
            );
        }
        if hot && code.contains(EXPECT) {
            emit(
                Diagnostic::warning(
                    "AU002",
                    span.clone(),
                    format!("{EXPECT}..) on a hot path: a panic here kills a quantum mid-flight"),
                )
                .with_help("convert to a typed error, or waive stating why the invariant holds"),
                "AU002",
                report,
            );
        }
        if let Some(what) = HOST_WORK.iter().find(|w| per_op && code.contains(**w)) {
            emit(
                Diagnostic::warning(
                    "AU006",
                    span.clone(),
                    format!("{what}..) on a per-op path: host work every micro-op pays for"),
                )
                .with_help("move it off the per-op path, or waive stating when it runs"),
                "AU006",
                report,
            );
        }
        if let Some(name) = map_names.iter().find(|n| iterates_map(code, n)) {
            emit(
                Diagnostic::warning(
                    "AU003",
                    span.clone(),
                    format!(
                        "iteration over `{name}` (a HashMap): iteration order is nondeterministic \
                         and must not feed results or wire frames"
                    ),
                )
                .with_help(
                    "sort the keys first, use an indexed Vec, or waive if order is irrelevant",
                ),
                "AU003",
                report,
            );
        }
        if vt && (code.contains(INSTANT) || code.contains(SYSTIME)) {
            emit(
                Diagnostic::warning(
                    "AU004",
                    span.clone(),
                    "host clock in a virtual-time crate: time must derive from cycles".to_string(),
                )
                .with_help("use the harness cycle counter, or waive for host-side watchdog code"),
                "AU004",
                report,
            );
        }
    }
}

/// True when `text` mentions `name` as a whole identifier.
fn mentions(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(i, _)| !text[..i].ends_with(ident) && !text[i + name.len()..].starts_with(ident))
}

/// The `(kind, name)` of the `pub` item a comment-stripped line declares,
/// if it declares one: `pub const fn new(` is `("fn", "new")`.
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let rest = ["const ", "unsafe "]
        .iter()
        .find_map(|q| rest.strip_prefix(q).filter(|r| r.starts_with("fn ")))
        .unwrap_or(rest);
    let (kind, rest) = ITEM_KINDS
        .iter()
        .find_map(|k| Some((*k, rest.strip_prefix(k)?.strip_prefix(' ')?)))?;
    let name = rest.trim_start();
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    (end > 0).then(|| (kind, &name[..end]))
}

/// The non-test `pub` declarations of one file as `(line index, text)`:
/// a declaration runs to the line that opens or ends its body (`{`, `;`,
/// a field's `,`), and an enum's or a trait's through its body, whose
/// variants and methods are as public as it is. Re-exports are not
/// declarations.
fn pub_decls(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut regions = TestRegions::default();
    // The declaration being collected: does it run through its body, and
    // how deep in `(`/`{` are we.
    let mut open: Option<(bool, i32)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let code = raw.split("//").next().unwrap_or(raw);
        if regions.step(code) {
            continue;
        }
        if open.is_none() {
            let head = code.trim_start();
            let reexport = head.starts_with("pub use ") || head.starts_with("pub mod ");
            if !head.starts_with("pub ") || reexport {
                continue;
            }
            let through_body = matches!(pub_item(code), Some(("enum" | "trait", _)));
            open = Some((through_body, 0));
            out.push((idx, String::new()));
        }
        let (Some((through_body, depth)), Some((_, decl))) = (&mut open, out.last_mut()) else {
            continue;
        };
        decl.push_str(code);
        decl.push('\n');
        for ch in code.chars() {
            match ch {
                '(' | '{' => *depth += 1,
                ')' | '}' => *depth -= 1,
                _ => {}
            }
        }
        let done = if *through_body {
            *depth == 0 && code.contains(['}', ';'])
        } else {
            let closed = code.contains(';') || code.trim_end().ends_with(',');
            code.contains('{') || (*depth == 0 && closed)
        };
        if done {
            open = None;
        }
    }
    out
}

/// AU005 over one crate: a note for every non-test `pub` item (fn,
/// struct, enum, trait, const, static, type) in `own` (repo-relative
/// path, source text) whose name no text of `outside` — every `.rs` file
/// of the repository that is not the crate's own — mentions. A type also
/// counts as used when another `pub` declaration of its crate carries it
/// (a signature, a field, a variant): callers reach it through that
/// item without naming it. Textual like the rest of the audit: a name
/// shared with any outside identifier (`new`, `run`) is never reported.
/// Besides the per-line waiver, a `bsim: allow-file(AU005)` comment
/// waives a whole file — for tables such as an ISA's mnemonics, where one
/// reason covers every row.
pub fn scan_surface(
    krate: &str,
    own: &[(&str, &str)],
    outside: &[&str],
    report: &mut Report,
    waived: &mut usize,
) {
    let decls: Vec<(&str, usize, String)> = own
        .iter()
        .flat_map(|&(path, text)| {
            pub_decls(text)
                .into_iter()
                .map(move |(at, decl)| (path, at, decl))
        })
        .collect();
    for &(path, text) in own {
        let file_waived = text
            .lines()
            .any(|l| waivers_at(l, ALLOW_FILE).iter().any(|c| c == "AU005"));
        let mut regions = TestRegions::default();
        let mut prev_waivers: Vec<String> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let code = raw.split("//").next().unwrap_or(raw);
            let allowed = waivers_for(raw, &mut prev_waivers);
            if regions.step(code) {
                continue;
            }
            let Some((kind, name)) = pub_item(code) else {
                continue;
            };
            let is_type = ["struct", "enum", "trait", "type"].contains(&kind);
            let carried = || {
                decls
                    .iter()
                    .any(|(file, at, decl)| (*file, *at) != (path, idx) && mentions(decl, name))
            };
            if outside.iter().any(|t| mentions(t, name)) || (is_type && carried()) {
                continue;
            }
            if file_waived || allowed.iter().any(|c| c == "AU005") {
                *waived += 1;
                continue;
            }
            report.push(
                Diagnostic::note(
                    "AU005",
                    format!("{path}:{}", idx + 1),
                    format!("pub {kind} {name} is not mentioned outside crate `{krate}`"),
                )
                .with_help("make it pub(crate) or delete it, or waive stating who needs it"),
            );
        }
    }
}

/// Locate the workspace root: the nearest ancestor (of the check crate's
/// manifest dir, or of the current directory) whose `Cargo.toml` declares
/// `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let mut candidates: Vec<PathBuf> = vec![PathBuf::from(env!("CARGO_MANIFEST_DIR"))];
    if let Ok(cwd) = std::env::current_dir() {
        candidates.push(cwd);
    }
    for base in candidates {
        for dir in base.ancestors() {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir.to_path_buf());
                }
            }
        }
    }
    None
}

/// Collect `.rs` files under `dir`, recursively, sorted by path for
/// deterministic diagnostic order. Build output is skipped.
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" {
                continue;
            }
            collect_sources(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Run the AU-series audit over the whole workspace (`crates/*/src` plus the
/// root `src/`). Returns the report plus scan statistics; waived findings
/// surface as a single AU000 summary note.
pub fn audit_workspace() -> Audit {
    let mut report = Report::new();
    let Some(root) = workspace_root() else {
        report.push(
            Diagnostic::warning(
                "AU000",
                "audit",
                "workspace root not found; source audit skipped",
            )
            .with_help("run from inside the repository"),
        );
        return Audit {
            report,
            files: 0,
            waived: 0,
        };
    };

    // Every `.rs` file of the repository, read once: AU005 counts all of
    // them as potential callers.
    let mut paths: Vec<PathBuf> = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        collect_sources(&root.join(dir), &mut paths);
    }
    let sources: Vec<(String, String)> = paths
        .iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(&root).unwrap_or(path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            Some((rel, fs::read_to_string(path).ok()?))
        })
        .collect();

    // Shipped code, plus the examples and the root and crate tests for
    // the AU007 rows that cover them.
    let mut waived = 0usize;
    let mut scanned = 0usize;
    let scope = |rel: &str| {
        shipped(rel)
            || rel.starts_with("examples/")
            || rel.starts_with("tests/")
            || crate_of(rel).is_some_and(|c| rel.starts_with(&format!("crates/{c}/tests/")))
    };
    for (rel, text) in sources.iter().filter(|(rel, _)| scope(rel)) {
        scanned += 1;
        scan_source(rel, text, &mut report, &mut waived);
    }

    let mut crates: Vec<&str> = sources
        .iter()
        .filter_map(|(rel, _)| crate_of(rel))
        .collect();
    crates.dedup();
    for krate in crates {
        // A crate's integration tests see only its `pub` items, like any
        // other crate: they are outside.
        let src = format!("crates/{krate}/src/");
        let (own, outside): (Vec<_>, Vec<_>) = sources
            .iter()
            .map(|(rel, text)| (rel.as_str(), text.as_str()))
            .partition(|(rel, _)| rel.starts_with(&src));
        let outside: Vec<&str> = outside.into_iter().map(|(_, text)| text).collect();
        scan_surface(krate, &own, &outside, &mut report, &mut waived);
    }
    if waived > 0 {
        report.push(Diagnostic::note(
            "AU000",
            "audit",
            format!("{waived} finding(s) waived inline via `{ALLOW}..)`"),
        ));
    }
    Audit {
        report,
        files: scanned,
        waived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, text: &str) -> (Report, usize) {
        let mut r = Report::new();
        let mut w = 0;
        scan_source(path, text, &mut r, &mut w);
        (r, w)
    }

    #[test]
    fn unwrap_is_flagged_and_waivable() {
        let hit = format!("fn f() {{ x{UNWRAP}; }}\n");
        let (r, w) = scan("crates/mem/src/x.rs", &hit);
        assert!(r.has_code("AU001") && r.has_errors(), "{}", r.render());
        assert_eq!(w, 0);

        let inline = format!("fn f() {{ x{UNWRAP}; }} // {ALLOW}AU001) infallible\n");
        let (r, w) = scan("crates/mem/src/x.rs", &inline);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(w, 1);

        let above = format!("// {ALLOW}AU001) infallible\nfn f() {{ x{UNWRAP}; }}\n");
        let (r, w) = scan("crates/mem/src/x.rs", &above);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(w, 1);
    }

    #[test]
    fn cfg_test_regions_and_comments_are_skipped() {
        let text = format!(
            "fn f() {{}}\n{CFG_TEST}\nmod tests {{\n    fn g() {{ x{UNWRAP}; }}\n}}\nfn h() {{}}\n"
        );
        let (r, _) = scan("crates/mem/src/x.rs", &text);
        assert!(r.is_clean(), "{}", r.render());

        let doc = format!("/// calls {UNWRAP} internally\nfn f() {{}}\n");
        let (r, _) = scan("crates/mem/src/x.rs", &doc);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn code_after_cfg_test_region_is_still_scanned() {
        let text =
            format!("{CFG_TEST}\nmod tests {{\n    fn g() {{}}\n}}\nfn h() {{ x{UNWRAP}; }}\n");
        let (r, _) = scan("crates/mem/src/x.rs", &text);
        assert!(r.has_code("AU001"), "{}", r.render());
    }

    #[test]
    fn expect_only_flags_hot_paths() {
        let text = format!("fn f() {{ x{EXPECT}\"y\"); }}\n");
        let (r, _) = scan("crates/core/src/frame.rs", &text);
        assert!(r.has_code("AU002") && !r.has_errors(), "{}", r.render());
        let (r, _) = scan("crates/workloads/src/x.rs", &text);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn host_work_only_flags_per_op_paths() {
        for what in HOST_WORK {
            let text = format!("fn f() {{ let _ = {what}\"X\"); }}\n");
            let (r, _) = scan("crates/uarch/src/inorder.rs", &text);
            assert!(r.has_code("AU006") && !r.has_errors(), "{}", r.render());
            assert_eq!(r.warning_count(), 1, "{}", r.render());
            // Not in cold files, and not on the per-frame hot paths, whose
            // replies and errors are strings.
            for cold in ["crates/workloads/src/x.rs", "crates/svc/src/proto.rs"] {
                let (r, _) = scan(cold, &text);
                assert!(r.is_clean(), "{}", r.render());
            }

            let waived = format!("// {ALLOW}AU006) report time only\n{text}");
            let (r, w) = scan("crates/uarch/src/inorder.rs", &waived);
            assert!(r.is_clean() && w == 1, "{}", r.render());
            let in_test = format!("{CFG_TEST}\nmod tests {{\n    {text}}}\n");
            let (r, _) = scan("crates/uarch/src/inorder.rs", &in_test);
            assert!(r.is_clean(), "{}", r.render());
        }
        // The trace generator emits every micro-op of figs 3-7.
        for per_op in ["crates/mem/src/cache.rs", "crates/workloads/src/trace.rs"] {
            let (r, _) = scan(per_op, "fn f() { eprintln!(\"x\"); }\n");
            assert!(r.has_code("AU006"), "{}", r.render());
        }
    }

    #[test]
    fn hashmap_iteration_is_flagged() {
        let text = format!(
            "fn f() {{\n    let mut seen: {HASHMAP_TY}u32, u32> = {HASHMAP_NEW}();\n    for (k, v) in &seen {{ use_(k, v); }}\n}}\n"
        );
        let (r, _) = scan("crates/mem/src/x.rs", &text);
        assert!(r.has_code("AU003"), "{}", r.render());

        let methods = format!(
            "struct S {{ children: {HASHMAP_TY}u32, u32> }}\nfn f(s: &mut S) {{ for c in s.children.values() {{ go(c); }} }}\n"
        );
        let (r, _) = scan("crates/mem/src/x.rs", &methods);
        assert!(r.has_code("AU003"), "{}", r.render());

        // Lookups are fine — only iteration is order-sensitive.
        let lookup = format!(
            "fn f() {{\n    let seen: {HASHMAP_TY}u32, u32> = {HASHMAP_NEW}();\n    let _ = seen.get(&1);\n}}\n"
        );
        let (r, _) = scan("crates/mem/src/x.rs", &lookup);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn host_clocks_flag_only_virtual_time_crates() {
        let text = format!("fn f() {{ let t = {INSTANT}(); }}\n");
        let (r, _) = scan("crates/engine/src/x.rs", &text);
        assert!(r.has_code("AU004"), "{}", r.render());
        let (r, _) = scan("crates/svc/src/x.rs", &text);
        assert!(r.is_clean(), "{}", r.render());
    }

    fn surface(own: &[(&str, &str)], outside: &[&str]) -> (Report, usize) {
        let mut r = Report::new();
        let mut w = 0;
        scan_surface("core", own, outside, &mut r, &mut w);
        (r, w)
    }

    #[test]
    fn unmentioned_pub_items_are_noted_and_waivable() {
        let text = format!(
            "pub fn used() {{}}\npub fn orphan() {{}}\npub(crate) fn inner() {{}}\n\
             // {ALLOW}AU005) kept for the ledger\npub fn kept() {{}}\n\
             pub const fn built() {{}}\npub const LIMIT: u32 = 1;\npub static TABLE: [u8; 0] = [];\n\
             {CFG_TEST}\nmod tests {{\n    pub fn helper() {{}}\n}}\n"
        );
        let own = [("crates/core/src/x.rs", text.as_str())];
        let (r, w) = surface(&own, &["fn main() { used(); orphan_like(); TABLE; }"]);
        let notes: Vec<_> = r.with_code("AU005").collect();
        let said: Vec<&str> = notes.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(notes.len(), 3, "{}", r.render());
        assert!(said[0].starts_with("pub fn orphan "), "{said:?}");
        assert!(said[1].starts_with("pub fn built "), "{said:?}");
        assert!(said[2].starts_with("pub const LIMIT "), "{said:?}");
        assert_eq!(notes[0].span, "crates/core/src/x.rs:2");
        assert!(!r.has_errors() && r.warning_count() == 0, "AU005 is a note");
        assert_eq!(w, 1, "`kept` is waived");

        let waived = format!("// {ALLOW_FILE}AU005) a table\n{text}");
        let (r, w) = surface(&[("crates/core/src/x.rs", waived.as_str())], &[]);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(w, 6, "every pub item of a waived file");
    }

    #[test]
    fn a_type_is_used_when_another_pub_declaration_carries_it() {
        let text = "pub struct Out {\n    pub rows: Vec<Row>,\n    hidden: Inner,\n}\n\
                    pub struct Row;\npub struct Inner;\npub struct Opts;\n\
                    pub enum Work {\n    Mpi(Kind),\n}\npub enum Kind {\n    A,\n}\n\
                    pub fn run(\n    opts: &Opts,\n) -> Out {\n    todo()\n}\n\
                    pub use other::Gone;\npub struct Gone;\n";
        let (r, _) = surface(&[("crates/core/src/x.rs", text)], &["run(); Work::Mpi"]);
        let said: Vec<&str> = r.with_code("AU005").map(|d| d.message.as_str()).collect();
        // `Out`, `Row`, `Opts` and `Kind` ride on `run`, a pub field and a
        // variant; a private field and a re-export carry nothing.
        assert_eq!(said.len(), 2, "{}", r.render());
        assert!(said[0].starts_with("pub struct Inner "), "{said:?}");
        assert!(said[1].starts_with("pub struct Gone "), "{said:?}");
    }

    #[test]
    fn workspace_audit_runs_and_has_no_errors() {
        let audit = audit_workspace();
        assert!(audit.files > 20, "scanned only {} files", audit.files);
        let errs: Vec<String> = audit
            .report
            .with_code("AU001")
            .map(|d| format!("{d:?}"))
            .collect();
        assert!(
            !audit.report.has_errors(),
            "unwaived AU001 findings:\n{}",
            errs.join("\n")
        );
    }

    #[test]
    fn every_path_the_audit_names_is_on_disk() {
        let root = workspace_root().expect("the tests run inside the workspace");
        let crates = VIRTUAL_TIME_CRATES
            .iter()
            .map(|c| format!("crates/{c}/src"));
        let files = HOT_PATHS.iter().chain(PER_OP_PATHS).map(|p| p.to_string());
        let rows = BANS
            .iter()
            .flat_map(|b| b.within.iter().chain(b.except))
            .map(|p| p.to_string());
        let stale: Vec<String> = files
            .chain(crates)
            .chain(rows)
            .filter(|p| !root.join(p).exists())
            .collect();
        assert!(
            stale.is_empty(),
            "the audit names paths that are gone: {stale:?}"
        );
    }
}
