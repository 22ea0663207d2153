//! Runtime stall detection: host-time budgets and typed stall reports.
//!
//! The parallel harness synchronizes model threads only through token
//! channels, so a severed channel, a protocol bug, or a peer that died
//! silently turns into *every* thread spinning forever — the failure
//! mode PR 2 hit in production. A [`WatchdogConfig`] gives the guarded
//! harness a host-time budget: if no model completes a quantum within
//! the budget, the run is torn down with [`SimError::Stalled`] carrying
//! a [`StallReport`] snapshot (per-thread cycle, per-channel depths and
//! last-moved token) instead of hanging.

use std::fmt;
use std::time::Duration;

/// Host-time stall budget for a guarded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Tear the run down when no model thread has completed a quantum
    /// for this long in host time.
    pub budget: Duration,
    /// How often the watchdog samples progress. Trip latency is at most
    /// `budget + poll`.
    pub poll: Duration,
}

impl Default for WatchdogConfig {
    /// 5 s budget polled every 50 ms: generous against host scheduling
    /// noise, still minutes-not-hours on a real deadlock.
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            budget: Duration::from_secs(5),
            poll: Duration::from_millis(50),
        }
    }
}

impl WatchdogConfig {
    /// A tight budget for tests and the fault campaign.
    pub fn tight() -> WatchdogConfig {
        WatchdogConfig {
            budget: Duration::from_millis(400),
            poll: Duration::from_millis(10),
        }
    }
}

/// One model thread's progress at trip time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadProgress {
    /// Model index.
    pub model: usize,
    /// Target cycle the thread had reached.
    pub cycle: u64,
}

/// One channel's state at trip time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelProgress {
    /// Wire index.
    pub wire: usize,
    /// Tokens buffered in the channel.
    pub buffered: usize,
    /// Next cycle the producer will push.
    pub producer_cycle: u64,
    /// Next cycle the consumer will pop.
    pub consumer_cycle: u64,
    /// The last token value that moved through the channel, if any did.
    pub last_token: Option<u64>,
}

/// Progress snapshot captured when the watchdog trips.
#[derive(Clone, Debug, PartialEq)]
pub struct StallReport {
    /// Target length of the run that stalled.
    pub target_cycles: u64,
    /// The budget that expired, in milliseconds.
    pub budget_ms: u64,
    /// Per-thread progress (index order = model order).
    pub threads: Vec<ThreadProgress>,
    /// Per-channel state (index order = wire order).
    pub channels: Vec<ChannelProgress>,
}

impl StallReport {
    /// The most-starved consumer: the channel whose consumer cycle is
    /// lowest — usually the first place to look.
    pub fn most_starved(&self) -> Option<&ChannelProgress> {
        self.channels
            .iter()
            .filter(|c| c.buffered == 0)
            .min_by_key(|c| c.consumer_cycle)
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no quantum progress within {} ms budget (run of {} target cycles)",
            self.budget_ms, self.target_cycles
        )?;
        for t in &self.threads {
            writeln!(f, "  model {:>3}: at cycle {}", t.model, t.cycle)?;
        }
        for c in &self.channels {
            writeln!(
                f,
                "  chan {:>4}: {} buffered, producer@{} consumer@{}{}",
                c.wire,
                c.buffered,
                c.producer_cycle,
                c.consumer_cycle,
                match c.last_token {
                    Some(t) => format!(", last token {t:#x}"),
                    None => String::from(", no token ever moved"),
                }
            )?;
        }
        if let Some(s) = self.most_starved() {
            write!(
                f,
                "  => starved: channel {} (empty at cycle {})",
                s.wire, s.consumer_cycle
            )?;
        }
        Ok(())
    }
}

/// Typed failure of a guarded run — what the harness returns instead of
/// hanging or aborting the process.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The watchdog saw no quantum progress within its budget.
    Stalled(StallReport),
    /// A model panicked inside `tick()` (or violated the token
    /// protocol); the first payload's message is captured.
    Panicked {
        /// Rendered panic message.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled(r) => write!(f, "simulation stalled: {r}"),
            SimError::Panicked { message } => write!(f, "model panicked: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_report_renders_and_finds_the_starved_channel() {
        let r = StallReport {
            target_cycles: 10_000,
            budget_ms: 400,
            threads: vec![
                ThreadProgress {
                    model: 0,
                    cycle: 320,
                },
                ThreadProgress {
                    model: 1,
                    cycle: 200,
                },
            ],
            channels: vec![
                ChannelProgress {
                    wire: 0,
                    buffered: 4,
                    producer_cycle: 321,
                    consumer_cycle: 317,
                    last_token: Some(0xBEEF),
                },
                ChannelProgress {
                    wire: 1,
                    buffered: 0,
                    producer_cycle: 200,
                    consumer_cycle: 200,
                    last_token: None,
                },
            ],
        };
        assert_eq!(r.most_starved().unwrap().wire, 1);
        let text = format!("{}", SimError::Stalled(r));
        assert!(text.contains("400 ms budget"));
        assert!(text.contains("starved: channel 1"));
        assert!(text.contains("no token ever moved"));
        let p = SimError::Panicked {
            message: "model exploded".into(),
        };
        assert!(format!("{p}").contains("model exploded"));
    }
}
