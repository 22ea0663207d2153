//! Communication cost model (LogGP-flavoured).

use bsim_check::{Diagnostic, Report};
use serde::{Deserialize, Serialize};

/// Network/transport parameters, in core cycles of the host SoC.
///
/// The defaults model shared-memory MPI between cores of one cluster:
/// sub-microsecond latency dominated by the MPI software stack, with
/// bandwidth bounded by cache-to-cache copies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// One-way message latency (software stack + interconnect), cycles.
    pub latency: u64,
    /// Streaming bandwidth for message payloads, bytes per cycle.
    pub bytes_per_cycle: f64,
    /// Sender-side overhead per message, cycles.
    pub o_send: u64,
    /// Receiver-side overhead per message, cycles.
    pub o_recv: u64,
}

impl NetConfig {
    /// Shared-memory MPI within one cluster (the paper's configuration).
    pub fn shared_memory() -> NetConfig {
        NetConfig {
            latency: 700,
            bytes_per_cycle: 8.0,
            o_send: 250,
            o_recv: 250,
        }
    }

    /// A multi-node interconnect (for the future-work §7 scaling study):
    /// ~1.5 µs latency at 2 GHz and ~10 GB/s effective bandwidth.
    pub fn ethernet_10g() -> NetConfig {
        NetConfig {
            latency: 3000,
            bytes_per_cycle: 5.0,
            o_send: 800,
            o_recv: 800,
        }
    }

    /// Static lint over the link parameters (`NC0xx` codes).
    ///
    /// `NC001` fires when `bytes_per_cycle` is not finite and positive:
    /// `transfer_cycles` then saturates every non-empty
    /// payload to `u64::MAX` — a link that never delivers — which keeps
    /// timestamps sound but makes any communicating workload hang in
    /// virtual time. The saturation fallback stays (it is what makes
    /// the failure *safe*); the lint is what makes it *visible* before
    /// a cycle is simulated.
    ///
    /// `NC002` fires when `latency` is zero while bandwidth stays
    /// finite: a zero-latency link is physically free communication, so
    /// every comm/compute overlap conclusion drawn from the model is
    /// vacuous. The run stays sound (timestamps merely collapse), which
    /// is why this is a warning — and why the fault campaign injects it
    /// as a survivable misconfiguration rather than a crash.
    pub fn lint(&self, span: &str) -> Report {
        let mut report = Report::new();
        if !self.bytes_per_cycle.is_finite() || self.bytes_per_cycle <= 0.0 {
            report.push(
                Diagnostic::warning(
                    "NC001",
                    span,
                    format!(
                        "bytes_per_cycle = {} is not finite and positive; \
                         every non-empty transfer saturates to 'never delivers' (u64::MAX cycles)",
                        self.bytes_per_cycle
                    ),
                )
                .with_help("set a finite positive streaming bandwidth, e.g. 8.0 bytes/cycle"),
            );
        }
        if self.latency == 0 && self.bytes_per_cycle.is_finite() && self.bytes_per_cycle > 0.0 {
            report.push(
                Diagnostic::warning(
                    "NC002",
                    span,
                    "link latency is zero while bandwidth is finite: messages arrive the cycle \
                     they finish streaming, so latency-hiding results are vacuous",
                )
                .with_help(
                    "model at least the software-stack latency (hundreds of cycles for \
                     shared-memory MPI)",
                ),
            );
        }
        report
    }

    /// The link the fault campaign's `link-degrade` row runs on: latency
    /// multiplied and bandwidth divided by `factor`. `factor` is clamped to ≥ 1; degradation saturates
    /// rather than overflowing.
    pub fn degrade(&self, factor: u32) -> NetConfig {
        let factor = factor.max(1);
        NetConfig {
            latency: self.latency.saturating_mul(factor as u64),
            bytes_per_cycle: self.bytes_per_cycle / factor as f64,
            o_send: self.o_send.saturating_mul(factor as u64),
            o_recv: self.o_recv.saturating_mul(factor as u64),
        }
    }

    /// The link the fault campaign's `link-zero-lat` row runs on: the
    /// misconfiguration `NC002` exists to catch.
    pub fn zero_latency(&self) -> NetConfig {
        NetConfig {
            latency: 0,
            ..*self
        }
    }

    /// Cycles to stream `bytes` of payload.
    ///
    /// Degenerate bandwidths saturate instead of corrupting timestamps:
    /// a zero, negative, or non-finite `bytes_per_cycle` makes the
    /// division produce `inf`/`NaN`, and `inf as u64` would silently
    /// become `u64::MAX` anyway while `NaN as u64` becomes 0 — a link
    /// that misconfigures to *infinitely fast*. Both now pin to
    /// `u64::MAX` (a link that never delivers), which downstream
    /// arithmetic saturates on rather than wrapping.
    pub(crate) fn transfer_cycles(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        if self.bytes_per_cycle <= 0.0 || !self.bytes_per_cycle.is_finite() {
            return u64::MAX;
        }
        let cycles = (bytes as f64 / self.bytes_per_cycle).ceil();
        if cycles >= u64::MAX as f64 {
            u64::MAX
        } else {
            cycles as u64
        }
    }

    /// Arrival time of a message sent at `send_time`. Saturating, so a
    /// degenerate config yields "never" (`u64::MAX`) instead of a small
    /// wrapped timestamp that would reorder the event queue in release
    /// builds.
    pub(crate) fn arrival(&self, send_time: u64, bytes: usize) -> u64 {
        send_time
            .saturating_add(self.o_send)
            .saturating_add(self.transfer_cycles(bytes))
            .saturating_add(self.latency)
    }

    /// Completion time of a collective entered by all ranks by `max_entry`,
    /// with `ranks` participants moving `bytes` each (binary-tree cost).
    /// Saturating, like [`NetConfig::arrival`].
    pub(crate) fn collective_cost(&self, max_entry: u64, ranks: usize, bytes: usize) -> u64 {
        if ranks <= 1 {
            return max_entry;
        }
        let stages = (ranks as f64).log2().ceil() as u64;
        max_entry
            .saturating_add(stages.saturating_mul(self.latency + self.o_send + self.o_recv))
            .saturating_add(stages.saturating_mul(self.transfer_cycles(bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_messages_take_longer() {
        let n = NetConfig::shared_memory();
        assert!(n.arrival(0, 1 << 20) > n.arrival(0, 64));
    }

    #[test]
    fn collective_scales_logarithmically() {
        let n = NetConfig::shared_memory();
        let c2 = n.collective_cost(0, 2, 8);
        let c4 = n.collective_cost(0, 4, 8);
        let c8 = n.collective_cost(0, 8, 8);
        assert_eq!(c4 - c2, c8 - c4, "each doubling adds one stage");
        assert_eq!(n.collective_cost(123, 1, 8), 123, "one rank is free");
    }

    #[test]
    fn transfer_rounds_up() {
        let n = NetConfig {
            latency: 0,
            bytes_per_cycle: 8.0,
            o_send: 0,
            o_recv: 0,
        };
        assert_eq!(n.transfer_cycles(1), 1);
        assert_eq!(n.transfer_cycles(16), 2);
        assert_eq!(n.transfer_cycles(17), 3);
        assert_eq!(n.transfer_cycles(0), 0, "empty payloads are free");
    }

    #[test]
    fn degenerate_bandwidth_saturates_instead_of_wrapping() {
        for bpc in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let n = NetConfig {
                bytes_per_cycle: bpc,
                ..NetConfig::shared_memory()
            };
            assert_eq!(
                n.transfer_cycles(64),
                u64::MAX,
                "bytes_per_cycle = {bpc} must mean 'never delivers'"
            );
            // The former `send_time + ... + latency` would wrap here in
            // release builds and reorder the event queue.
            assert_eq!(n.arrival(1_000_000, 64), u64::MAX);
            assert_eq!(n.collective_cost(1_000_000, 8, 64), u64::MAX);
            // Zero-byte messages never touch the bandwidth term.
            assert_eq!(
                n.arrival(0, 0),
                n.o_send + n.latency,
                "zero-byte control messages still flow"
            );
        }
    }

    #[test]
    fn lint_passes_the_stock_links_and_flags_degenerate_bandwidth() {
        assert!(NetConfig::shared_memory().lint("shm").is_clean());
        assert!(NetConfig::ethernet_10g().lint("10g").is_clean());
        for bpc in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let n = NetConfig {
                bytes_per_cycle: bpc,
                ..NetConfig::shared_memory()
            };
            let report = n.lint("net");
            assert!(
                report.has_code("NC001"),
                "bytes_per_cycle = {bpc} must warn NC001"
            );
            assert!(
                !report.has_errors(),
                "NC001 is a warning: the saturation fallback keeps the run sound"
            );
        }
    }

    #[test]
    fn zero_latency_with_finite_bandwidth_warns_nc002() {
        let n = NetConfig::shared_memory().zero_latency();
        let report = n.lint("net");
        assert!(report.has_code("NC002"));
        assert!(!report.has_errors(), "NC002 is a warning, the run is sound");
        // Zero latency with *degenerate* bandwidth is NC001's territory,
        // not a spurious double report.
        let dead = NetConfig {
            latency: 0,
            bytes_per_cycle: 0.0,
            ..NetConfig::shared_memory()
        };
        let report = dead.lint("net");
        assert!(report.has_code("NC001") && !report.has_code("NC002"));
    }

    #[test]
    fn degrade_stretches_the_link_and_keeps_it_sound() {
        let base = NetConfig::shared_memory();
        let slow = base.degrade(4);
        assert_eq!(slow.latency, base.latency * 4);
        assert_eq!(slow.bytes_per_cycle, base.bytes_per_cycle / 4.0);
        assert!(slow.lint("net").is_clean(), "a degraded link is still sane");
        assert!(slow.arrival(0, 1 << 16) > base.arrival(0, 1 << 16));
        assert_eq!(base.degrade(0), base.degrade(1), "factor clamps to 1");
        // Degradation can never resurrect a dead link.
        let dead = NetConfig {
            bytes_per_cycle: 0.0,
            ..base
        };
        assert_eq!(dead.degrade(3).transfer_cycles(64), u64::MAX);
    }

    #[test]
    fn huge_transfers_pin_to_max_instead_of_rounding_wild() {
        let n = NetConfig {
            latency: 0,
            bytes_per_cycle: f64::MIN_POSITIVE,
            o_send: 0,
            o_recv: 0,
        };
        assert_eq!(n.transfer_cycles(usize::MAX), u64::MAX);
        assert_eq!(n.arrival(u64::MAX - 1, 8), u64::MAX, "arrival saturates");
    }
}
