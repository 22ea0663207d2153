//! Where the host's time goes, by instruction address: a `SIGPROF`
//! sampler around the ledger's cell lists. The ledger's staged spans name
//! the *layer* a pass spends its time in; this names the *line*, with no
//! `perf` in the sandbox (Linux x86-64; a stub `main` elsewhere).
//! ```text
//! cargo build --release --example hostprof
//! target/release/examples/hostprof apps-mpi 10 > prof.txt  # `offset count`, hottest first
//! head -20 prof.txt | cut -d' ' -f1 | addr2line -f -i -C -e target/release/examples/hostprof
//! ```
//! `micro-isa` and `apps-mpi` are the ledger's cell lists at its measured
//! sizes; `sweep-lanes` records CG once, unsampled, and samples 16-lane
//! `replay_world`s; `svc-mixed` prewarms an in-process daemon with the
//! ledger's seven warm sweep bodies and samples warm round trips to it;
//! `fig N` runs every subfigure of `bsim fig N` in turn, sequentially and
//! at default sizes, as `bsim fig N` does without flags.
//! The next argument is the number of passes (default 3); `ITIMER_PROF`
//! fires once a kernel tick, ≈ 250 samples a CPU-second.
//!
//! `sweep-lanes` also prints, on stderr, the grid's front groups (lanes
//! whose first member decides branches, TLB levels and L1 tags for the
//! rest), the host seconds per replay and the host nanoseconds per lane
//! micro-op (every lane's retired micro-ops), so a profile of the lane
//! loop starts from what a leading lane and a following lane cost.
//!
//! `micro-isa` also prints, on stderr, the host seconds a pass spends per
//! platform. The four platforms run the same kernels, mostly L1- and
//! L2-resident, so a platform whose share stands out is paying a per-cell
//! fixed cost (building its SoC, its memory system's tables) rather than
//! simulating: that split is what found the MILK-V LLC's tables being
//! zeroed for every cell.
//!
//! `svc-mixed` runs the daemon (one job worker, `Parallelism::Sequential`,
//! an in-memory store) in this process, so its connection and job threads
//! are sampled with the client's. A pass is `WARM_REQUESTS` warm
//! `client::submit` → `client::wait` round trips, each body in turn, every
//! response checked byte for byte against its prewarm response; the host
//! µs per round trip go to stderr, and so do the connections the daemon
//! accepted per round trip (`host.guard.conns.accepted`: 0.00 when every
//! round trip rides the client's kept connection) and the cells it
//! re-indented per round trip (`host.svc.cache.reindented`: 0.00 when
//! every cell is served from its kept fragment). None of them
//! simulates: a pass is the warm path alone, request parse and preflight,
//! cell keys, store reads, the spliced response and the wire.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO_RESTART: i32 = 4 | 0x1000_0000;
    /// `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64 `ucontext_t`:
    /// `uc_flags`, `uc_link` and `uc_stack` are 40 bytes, RIP is greg 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;
    /// Preallocated, because the handler may not allocate.
    const CAP: usize = 1 << 18;
    static SAMPLES: [AtomicU64; CAP] = [const { AtomicU64::new(0) }; CAP];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// glibc's x86-64 `struct sigaction`: handler, mask, flags, restorer.
    #[repr(C)]
    struct SigAction(extern "C" fn(i32, *mut u8, *mut u8), [u64; 16], i32, usize);
    /// `struct itimerval`: interval and first expiry, each `(s, µs)`.
    #[repr(C)]
    struct Itimerval([i64; 4]);
    extern "C" {
        fn sigaction(sig: i32, new: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        /// Linker-defined: where this executable's image starts and its text ends.
        static __executable_start: u8;
        static etext: u8;
    }

    /// Async-signal-safe: one read and two atomic operations.
    extern "C" fn on_prof(_sig: i32, _info: *mut u8, ucontext: *mut u8) {
        // SAFETY: under `SA_SIGINFO` the third argument is a `ucontext_t`,
        // and `RIP_OFFSET` lies inside it.
        let rip = unsafe { ucontext.add(RIP_OFFSET).cast::<u64>().read() };
        if let Some(slot) = SAMPLES.get(TAKEN.fetch_add(1, Relaxed)) {
            slot.store(rip, Relaxed);
        }
    }

    fn every(us: i64) {
        let t = Itimerval([0, us, 0, us]);
        // SAFETY: `t` is a valid `struct itimerval`; no old value is asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF)");
    }

    /// Samples the interrupted RIP as often as the kernel will.
    pub fn start() {
        let action = SigAction(on_prof, [0; 16], SA_SIGINFO_RESTART, 0);
        // SAFETY: glibc's layout, and `on_prof` is async-signal-safe.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF)");
        every(1000);
    }

    /// Stops sampling and prints `offset count` per sampled address of
    /// this executable, hottest first; the tally goes to stderr.
    pub fn stop_and_report() {
        every(0);
        let text = &raw const __executable_start as u64..&raw const etext as u64;
        let taken = TAKEN.load(Relaxed).min(CAP);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for rip in SAMPLES[..taken].iter().map(|slot| slot.load(Relaxed)) {
            if text.contains(&rip) {
                *counts.entry(rip - text.start).or_default() += 1;
            }
        }
        let inside: u64 = counts.values().sum();
        let mut rows: Vec<(u64, u64)> = counts.into_iter().collect();
        rows.sort_by_key(|&(offset, count)| (std::cmp::Reverse(count), offset));
        for (offset, count) in rows {
            println!("{offset:#x} {count}");
        }
        eprintln!("{taken} samples, {inside} in this executable (the rest: libc, vdso)");
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    use silicon_bridge::core::experiments::{microbench_cell, subfigures, MpiWork, Sizes};
    use silicon_bridge::core::{cache_tuning_grid, front_groups, replay_world, Parallelism};
    use silicon_bridge::mpi::{NetConfig, Timed};
    use silicon_bridge::soc::configs::{banana_pi_hw, banana_pi_sim, milkv_hw, milkv_sim};
    use silicon_bridge::svc::{client, Daemon, DaemonConfig};
    use silicon_bridge::workloads::microbench;
    use std::cell::Cell;
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    // The ledger's `svc-mixed` warm requests
    // (`benchmark/src/workloads/svc_mixed.rs`): its first four platforms
    // × a 12-kernel window of its 14 kernels, seven windows.
    const SVC_PLATFORMS: [&str; 4] = [
        "Rocket 1",
        "Banana Pi Sim Model",
        "Medium BOOM",
        "Large BOOM",
    ];
    const SVC_KERNELS: [&str; 14] = [
        "Cca", "CCh", "CS1", "DP1d", "ED1", "EM5", "MD", "STc", "CF1", "EI", "MI", "ML2", "Cce",
        "EF",
    ];
    const WARM_KERNELS: usize = 12;
    /// Round trips per `svc-mixed` pass: the ledger's requests per pass.
    const WARM_REQUESTS: usize = 1500;
    const TIMEOUT: Duration = Duration::from_secs(30);

    let args: Vec<String> = std::env::args().skip(1).collect();
    // `fig` takes the figure's id as its own second word.
    let (target, rest) = match args.split_first() {
        Some((fig, [id, rest @ ..])) if fig == "fig" => (format!("fig {id}"), rest),
        Some((target, rest)) => (target.clone(), rest),
        None => (String::new(), &[][..]),
    };
    let passes = rest.first().map_or(Ok(3), |n| n.parse::<usize>());
    // The ledger's measured sizes (`benchmark/src/workloads/`).
    let sizes = Sizes {
        cg_iters: 12,
        mg_cycles: 2,
        lj_cells: 4,
        md_steps: 4,
        chain_cells: 7,
        ..Sizes::default()
    };
    let platforms = [banana_pi_hw, banana_pi_sim, milkv_hw, milkv_sim];
    // Host seconds per platform over every `micro-isa` pass.
    let split = [const { Cell::new(0.0) }; 4];
    // Host seconds and lane micro-ops over every `sweep-lanes` replay.
    let replays = Cell::new(0.0);
    let lane_uops = Cell::new(0u64);
    // Host seconds over every `svc-mixed` round trip, and its daemon.
    let round_trips = Cell::new(0.0);
    let mut daemon: Option<Daemon> = None;
    // The daemon's `host.guard.conns.accepted` and
    // `host.svc.cache.reindented`, read over the client's connection as
    // every round trip is.
    let counters = |addr: &str| -> [u64; 2] {
        let (_, metrics) = client::metrics(addr).expect("metrics");
        ["host.guard.conns.accepted", "host.svc.cache.reindented"].map(|name| {
            let name = format!("\"{name}\": ");
            let at = metrics.find(&name).expect("the counter is exported") + name.len();
            let digits: String = metrics[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("a count")
        })
    };
    let counters_before_passes = Cell::new([0; 2]);
    // `fig N`'s subfigures; empty for every other target.
    let figure: Vec<_> = target
        .strip_prefix("fig ")
        .map_or(Vec::new(), |id| subfigures(id).collect());
    let pass: Box<dyn Fn() + '_> = match target.as_str() {
        "micro-isa" => Box::new(|| {
            for kernel in microbench::evaluated().iter().filter(|k| k.name != "MM_st") {
                for (platform, seconds) in platforms.iter().zip(&split) {
                    let start = Instant::now();
                    black_box(microbench_cell(platform(1), kernel.name, 1));
                    seconds.set(seconds.get() + start.elapsed().as_secs_f64());
                }
            }
        }),
        "apps-mpi" => Box::new(move || {
            use MpiWork::*;
            for work in [Cg, Ep, Is, Mg, Ume, Lj, Chain] {
                for platform in [banana_pi_sim, milkv_sim] {
                    for ranks in [1, 2, 4] {
                        black_box(work.launch::<Timed>(&sizes, platform(ranks), ranks));
                    }
                }
            }
        }),
        "sweep-lanes" => {
            let grid = cache_tuning_grid(2, 16);
            let groups = front_groups(&grid);
            let members: Vec<String> = groups.iter().map(|g| g.len().to_string()).collect();
            eprintln!(
                "front groups: {} × ({}) lanes: {} lead, {} follow",
                groups.len(),
                members.join(", "),
                groups.len(),
                grid.len() - groups.len()
            );
            let trace = MpiWork::Cg.record(&sizes, grid[0].clone(), 2);
            let net = NetConfig::shared_memory();
            let (replays, lane_uops) = (&replays, &lane_uops);
            Box::new(move || {
                let start = Instant::now();
                let lanes = black_box(replay_world(&trace, &grid, net, None));
                replays.set(replays.get() + start.elapsed().as_secs_f64());
                let retired: u64 = lanes.iter().map(|lane| lane.report.run.retired).sum();
                lane_uops.set(lane_uops.get() + retired);
            })
        }
        "svc-mixed" => {
            let (spawned, report) = Daemon::spawn(DaemonConfig {
                workers: 1,
                par: Parallelism::Sequential,
                ..DaemonConfig::default()
            })
            .expect("daemon spawn");
            assert!(!report.has_errors(), "daemon preflight: {report}");
            let addr = spawned.addr();
            daemon = Some(spawned);
            let quoted = |names: &[&str]| {
                let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                names.join(",")
            };
            let round_trip = move |addr: &str, body: &str| {
                let (status, submitted) = client::submit(addr, body).expect("submit");
                assert_eq!(status, 202, "submit: {submitted}");
                let job = client::job_id(&submitted).expect("a job id");
                let (status, response) = client::wait(addr, &job, TIMEOUT).expect("fetch");
                assert_eq!(status, 200, "fetch: {response}");
                response
            };
            // Prewarm: each body once, cold, before sampling starts.
            let warm: Vec<(String, String)> = (0..SVC_KERNELS.len())
                .step_by(2)
                .map(|k| {
                    let kernels: Vec<&str> = (0..WARM_KERNELS)
                        .map(|i| SVC_KERNELS[(k + i) % SVC_KERNELS.len()])
                        .collect();
                    let body = format!(
                        "{{\"kind\":\"sweep\",\"platforms\":[{}],\"kernels\":[{}],\"scale\":1,\"seed\":0}}",
                        quoted(&SVC_PLATFORMS),
                        quoted(&kernels)
                    );
                    let response = round_trip(&addr, &body);
                    (body, response)
                })
                .collect();
            counters_before_passes.set(counters(&addr));
            let round_trips = &round_trips;
            Box::new(move || {
                let start = Instant::now();
                for (body, prewarmed) in warm.iter().cycle().take(WARM_REQUESTS) {
                    assert!(
                        round_trip(&addr, body) == *prewarmed,
                        "a warm response changed"
                    );
                }
                round_trips.set(round_trips.get() + start.elapsed().as_secs_f64());
            })
        }
        _ if !figure.is_empty() => Box::new(move || {
            for spec in &figure {
                black_box(spec.run(Sizes::default(), Parallelism::Sequential));
            }
        }),
        _ => {
            eprintln!("usage: hostprof <micro-isa|apps-mpi|sweep-lanes|svc-mixed|fig N> [passes]");
            std::process::exit(2);
        }
    };
    let passes = passes.expect("passes: a number");
    sampler::start();
    (0..passes).for_each(|_| pass());
    sampler::stop_and_report();
    if let Some(daemon) = daemon {
        let addr = daemon.addr();
        let [accepted, reindented] = counters(&addr);
        let [accepted_before, reindented_before] = counters_before_passes.get();
        client::shutdown(&addr).expect("shutdown");
        daemon.join();
        let round_trips_made = (passes * WARM_REQUESTS) as f64;
        eprintln!(
            "host µs per warm round trip: {:.1}",
            round_trips.get() / round_trips_made * 1e6
        );
        eprintln!(
            "connections accepted per warm round trip: {:.2}",
            (accepted - accepted_before) as f64 / round_trips_made
        );
        eprintln!(
            "re-indents per warm round trip: {:.2}",
            (reindented - reindented_before) as f64 / round_trips_made
        );
    }
    if replays.get() > 0.0 {
        eprintln!(
            "host seconds per replay: {:.3} s, host ns per lane micro-op: {:.1}",
            replays.get() / passes as f64,
            replays.get() / lane_uops.get() as f64 * 1e9
        );
    }
    if split.iter().any(|s| s.get() > 0.0) {
        let per_pass: Vec<String> = platforms
            .iter()
            .zip(&split)
            .map(|(platform, s)| format!("{} {:.3} s", platform(1).name, s.get() / passes as f64))
            .collect();
        eprintln!("host seconds per pass by platform: {}", per_pass.join(", "));
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("hostprof reads RIP from a Linux x86-64 ucontext; nothing to do on this target");
}
