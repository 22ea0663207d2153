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
//! `replay_world`s. The second argument is the number of passes (default
//! 3); `ITIMER_PROF` fires once a kernel tick, ≈ 250 samples a CPU-second.

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
    use silicon_bridge::core::experiments::{microbench_cell, MpiWork, Sizes};
    use silicon_bridge::mpi::{NetConfig, Timed};
    use silicon_bridge::soc::configs::{banana_pi_hw, banana_pi_sim, milkv_hw, milkv_sim};
    use silicon_bridge::sweepx::{cache_tuning_grid, replay_world};
    use silicon_bridge::workloads::microbench;
    use std::hint::black_box;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let passes = args.get(1).map_or(Ok(3), |n| n.parse::<usize>());
    // The ledger's measured sizes (`benchmark/src/workloads/`).
    let sizes = Sizes {
        cg_iters: 12,
        mg_cycles: 2,
        lj_cells: 4,
        md_steps: 4,
        chain_cells: 7,
        ..Sizes::default()
    };
    let pass: Box<dyn Fn()> = match args.first().map(String::as_str) {
        Some("micro-isa") => Box::new(|| {
            for kernel in microbench::evaluated().iter().filter(|k| k.name != "MM_st") {
                for platform in [banana_pi_hw, banana_pi_sim, milkv_hw, milkv_sim] {
                    black_box(microbench_cell(platform(1), kernel.name, 1));
                }
            }
        }),
        Some("apps-mpi") => Box::new(move || {
            use MpiWork::*;
            for work in [Cg, Ep, Is, Mg, Ume, Lj, Chain] {
                for platform in [banana_pi_sim, milkv_sim] {
                    for ranks in [1, 2, 4] {
                        black_box(work.launch::<Timed>(&sizes, platform(ranks), ranks));
                    }
                }
            }
        }),
        Some("sweep-lanes") => {
            let grid = cache_tuning_grid(2, 16);
            let trace = MpiWork::Cg.record(&sizes, grid[0].clone(), 2);
            let net = NetConfig::shared_memory();
            Box::new(move || drop(black_box(replay_world(&trace, &grid, net, None))))
        }
        _ => {
            eprintln!("usage: hostprof <micro-isa|apps-mpi|sweep-lanes> [passes]");
            std::process::exit(2);
        }
    };
    sampler::start();
    (0..passes.expect("passes: a number")).for_each(|_| pass());
    sampler::stop_and_report();
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("hostprof reads RIP from a Linux x86-64 ucontext; nothing to do on this target");
}
