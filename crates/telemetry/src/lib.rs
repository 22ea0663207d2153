//! Out-of-band performance telemetry for the simulation stack.
//!
//! FireSim attributes simulation-vs-silicon gaps with two out-of-band
//! mechanisms: **AutoCounter** (performance counters sampled every N
//! target cycles without perturbing the target) and **TracerV** (a
//! committed-instruction trace streamed off the FPGA). This crate is the
//! software-simulation analogue:
//!
//! * [`CounterBlock`] — hierarchically named `u64` counters owned
//!   per-model; the hot path is one unconditional add, and a disabled
//!   block (see [`TelemetryConfig`]) is a no-op that exports nothing.
//! * [`Sampler`] — AutoCounter-style cycle-windowed snapshots of every
//!   counter into a timeline.
//! * [`TraceRing`] — TracerV-lite sampled ring buffer of committed
//!   instructions (PC, opcode class, retire cycle).
//! * [`TelemetrySnapshot`] — JSON/CSV export of all of the above.
//! * [`GapReport`] — diffs two runs counter-by-counter and ranks the
//!   largest relative deltas, mechanizing the paper's §5 attribution.
//!
//! Counters whose name starts with `host.` (wall-clock simulation rate,
//! lock spins) may differ between hosts or thread counts and are excluded
//! from deterministic exports and gap reports.

pub mod config;
pub mod gap;
pub mod registry;
pub mod sample;
pub mod snapshot;
pub mod trace;

pub use config::TelemetryConfig;
pub use gap::{GapReport, GapRow};
pub use registry::{CounterBlock, CounterId};
pub use sample::{Sample, Sampler};
pub use snapshot::{CounterEntry, TelemetrySnapshot};
pub use trace::{TraceEntry, TraceRing};

/// Bundle of one run's telemetry state: counters + timeline + trace.
///
/// Owning models call [`Telemetry::counters_mut`] on their hot paths and
/// [`Telemetry::tick`] once per retired-cycle boundary; the harness calls
/// [`Telemetry::snapshot`] at the end of the run.
#[derive(Clone, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    counters: CounterBlock,
    sampler: Sampler,
    trace: TraceRing,
}

impl Telemetry {
    /// Builds telemetry state for one run.
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            counters: CounterBlock::new(cfg.enabled),
            sampler: Sampler::new(if cfg.enabled {
                cfg.sample_interval_cycles
            } else {
                0
            }),
            trace: if cfg.enabled {
                TraceRing::new(cfg.trace_capacity, cfg.trace_sample_period)
            } else {
                TraceRing::off()
            },
            cfg,
        }
    }

    /// The configuration this state was built from.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Whether anything is recorded.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The counter registry.
    pub fn counters(&self) -> &CounterBlock {
        &self.counters
    }

    /// The counter registry, for registration and updates.
    pub fn counters_mut(&mut self) -> &mut CounterBlock {
        &mut self.counters
    }

    /// The trace ring, for the retire stage.
    pub fn trace_mut(&mut self) -> &mut TraceRing {
        &mut self.trace
    }

    /// Whether a sample window boundary has been crossed at `cycle`, so
    /// the owner should refresh published counters before [`Telemetry::tick`].
    #[inline]
    pub fn sample_due(&self, cycle: u64) -> bool {
        self.sampler.due(cycle)
    }

    /// Advances the sampling clock to `cycle`, snapshotting the counters
    /// if a window boundary was crossed.
    #[inline]
    pub fn tick(&mut self, cycle: u64) {
        self.sampler.maybe_sample(cycle, &self.counters);
    }

    /// Exports everything recorded so far; `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.cfg.enabled {
            return None;
        }
        Some(TelemetrySnapshot::capture(
            &self.counters,
            &self.sampler,
            &self.trace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_snapshots_to_none() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        let id = t.counters_mut().register("x");
        t.counters_mut().add(id, 5);
        t.trace_mut().record(0x1000, 0, 1);
        t.tick(1_000_000);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn full_config_records_counters_timeline_and_trace() {
        let mut t = Telemetry::new(TelemetryConfig {
            enabled: true,
            sample_interval_cycles: 100,
            trace_capacity: 8,
            trace_sample_period: 1,
        });
        let id = t.counters_mut().register("tile0.retired");
        for cycle in 0..250u64 {
            t.counters_mut().add(id, 1);
            t.trace_mut().record(0x8000_0000 + cycle * 4, 1, cycle);
            t.tick(cycle);
        }
        let s = t.snapshot().expect("enabled");
        assert_eq!(s.counter("tile0.retired"), Some(250));
        assert_eq!(s.timeline.len(), 2);
        assert_eq!(s.trace.len(), 8);
    }
}
