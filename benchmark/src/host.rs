//! Host-noise witnesses: what the machine was doing while the ledger
//! measured, so a noisy verdict can be pinned on the host or on the
//! program without running again.

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keeps every thread's allocations in glibc's main arena. With an arena
/// per thread, which arena a daemon or rank thread's tables land in — and
/// so how much of each arena stays resident — differs from run to run:
/// `peak_rss_mb` of `svc-mixed` spread by 17 % over ten runs, with one
/// arena by 3 %. The process is pinned to one CPU, so the shared lock
/// costs nothing. Not glibc: nothing to do.
pub fn one_malloc_arena() {
    #[cfg(target_env = "gnu")]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only takes two integers.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
}

/// Pins this process, and every thread it starts from here on, to the
/// CPU it is running on. Returns that CPU, or `None` where the kernel
/// refuses.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: both calls only read their arguments; the mask outlives
    // the call and is as long as `cpusetsize` says.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok().filter(|c| *c < 1024)?;
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0).then_some(cpu)
    }
}

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// `USER_HZ`, which is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// CPU time and minor faults of this process so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcUsage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl ProcUsage {
    /// Reads `/proc/self/stat`; all zeros where `/proc` is missing.
    pub fn now() -> ProcUsage {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| ProcUsage::parse(&s))
            .unwrap_or_default()
    }

    /// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
    /// parenthesised and may itself hold spaces, so fields are counted
    /// from the last `)`.
    pub fn parse(stat: &str) -> Option<ProcUsage> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state): minflt is field 10, utime 14,
        // stime 15.
        Some(ProcUsage {
            minflt: f.get(7)?.parse().ok()?,
            user_s: f.get(11)?.parse::<f64>().ok()? / USER_HZ,
            sys_s: f.get(12)?.parse::<f64>().ok()? / USER_HZ,
        })
    }

    /// Usage since `earlier`.
    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
        }
    }

    /// Kernel share of the CPU time used.
    pub fn sys_share(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where `/proc`
/// is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_with_spaces_in_the_command() {
        let line = "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194304 777 0 3 0 250 125 0 0 20 0 \
                    3 0 100 1000 10";
        let u = ProcUsage::parse(line).unwrap();
        assert_eq!(u.minflt, 777);
        assert_eq!(u.user_s, 2.5);
        assert_eq!(u.sys_s, 1.25);
        assert!((u.sys_share() - 1.0 / 3.0).abs() < 1e-12);
        let later = ProcUsage {
            user_s: 3.0,
            sys_s: 1.5,
            minflt: 800,
        };
        assert_eq!(later.since(&u).minflt, 23);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
        assert!(ProcUsage::now().minflt > 0);
    }
}
