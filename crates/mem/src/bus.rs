//! System-bus timing model.
//!
//! Table 4 of the paper distinguishes its Rocket configurations by system
//! bus width (64-bit for Rocket 1 vs. 128-bit for Rocket 2 and all BOOM
//! models). The bus carries refill and write-back traffic between the
//! tile (L1/L2) and the outer memory system; a wider bus moves a 64-byte
//! line in fewer beats and therefore frees up sooner under load.
//!
//! Like TileLink (the interconnect of the actual Rocket/BOOM SoCs), the
//! model has independent request (A) and response (D) channels, each
//! with its own occupancy. Each channel must be driven in approximately
//! non-decreasing time order, which the hierarchy's call order satisfies.

use serde::{Deserialize, Serialize};

/// Bus parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Data width in bits (64 or 128 in the paper's configs).
    pub width_bits: u32,
    /// Fixed arbitration + traversal latency in core cycles.
    pub latency: u32,
}

impl BusConfig {
    /// Beats needed to move `bytes` across the bus.
    pub(crate) fn beats(&self, bytes: u32) -> u64 {
        let per_beat = self.width_bits / 8;
        bytes.div_ceil(per_beat) as u64
    }
}

/// A shared bus with independent request/response channels and
/// occupancy-based contention per channel.
pub struct Bus {
    cfg: BusConfig,
    req_free_at: u64,
    resp_free_at: u64,
    busy_cycles: u64,
}

impl Bus {
    /// Builds an idle bus.
    pub fn new(cfg: BusConfig) -> Bus {
        Bus {
            cfg,
            req_free_at: 0,
            resp_free_at: 0,
            busy_cycles: 0,
        }
    }

    /// The configuration of this bus.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    fn channel(cfg: &BusConfig, free_at: &mut u64, bytes: u32, now: u64) -> (u64, u64) {
        let grant = now.max(*free_at);
        let beats = cfg.beats(bytes);
        let done = grant + cfg.latency as u64 + beats;
        *free_at = grant + beats; // pipelined: latency overlaps the next grant
        (grant, done)
    }

    /// A request-channel transfer (miss requests, write-back data) of
    /// `bytes` at cycle `now`; returns `(grant, done)`.
    pub fn request(&mut self, bytes: u32, now: u64) -> (u64, u64) {
        let (g, d) = Self::channel(&self.cfg, &mut self.req_free_at, bytes, now);
        self.busy_cycles += self.cfg.beats(bytes);
        (g, d)
    }

    /// A response-channel transfer (refill data) of `bytes` at cycle `now`.
    pub fn respond(&mut self, bytes: u32, now: u64) -> (u64, u64) {
        let (g, d) = Self::channel(&self.cfg, &mut self.resp_free_at, bytes, now);
        self.busy_cycles += self.cfg.beats(bytes);
        (g, d)
    }

    /// Cumulative busy beats across both channels.
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_bus_needs_fewer_beats() {
        let narrow = BusConfig {
            width_bits: 64,
            latency: 4,
        };
        let wide = BusConfig {
            width_bits: 128,
            latency: 4,
        };
        assert_eq!(narrow.beats(64), 8);
        assert_eq!(wide.beats(64), 4);
    }

    #[test]
    fn transfers_serialize_within_a_channel() {
        let mut bus = Bus::new(BusConfig {
            width_bits: 64,
            latency: 2,
        });
        let (g1, d1) = bus.respond(64, 0);
        assert_eq!((g1, d1), (0, 10)); // 2 latency + 8 beats
        let (g2, d2) = bus.respond(64, 0);
        assert_eq!(g2, 8, "second transfer waits for the 8 busy beats");
        assert_eq!(d2, 18);
    }

    #[test]
    fn request_and_response_channels_are_independent() {
        let mut bus = Bus::new(BusConfig {
            width_bits: 64,
            latency: 2,
        });
        // A response far in the future must not delay an earlier request.
        let (_, _) = bus.respond(64, 1000);
        let (g, _) = bus.request(8, 5);
        assert_eq!(g, 5, "request channel must be independent of responses");
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut bus = Bus::new(BusConfig {
            width_bits: 128,
            latency: 1,
        });
        let (g, d) = bus.respond(64, 100);
        assert_eq!(g, 100);
        assert_eq!(d, 105); // 1 + 4 beats
    }

    #[test]
    fn partial_line_rounds_up() {
        let cfg = BusConfig {
            width_bits: 128,
            latency: 0,
        };
        assert_eq!(cfg.beats(1), 1);
        assert_eq!(cfg.beats(17), 2);
    }
}
