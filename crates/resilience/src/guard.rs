//! bsim-guard primitives: data-integrity checksums, seeded jittered
//! backoff, and a call-count circuit breaker.
//!
//! Everything here is deterministic in its inputs — the backoff jitter
//! comes from `splitmix64` over `(seed, attempt)`, never from host
//! entropy, and the breaker advances on recorded calls, never on host
//! clocks — so a guarded run replays exactly under the same seed, the
//! same way a [`crate::FaultPlan`] campaign does.
//!
//! * [`crc32`] — the IEEE CRC32 the dist frame header and the svc
//!   result store both stamp over their payloads.
//! * [`Backoff`] — the workspace's one retry schedule: capped
//!   exponential backoff whose per-attempt delay carries deterministic
//!   jitter in `[50%, 100%]` of nominal, so respawning ranks never
//!   retry-storm in lockstep. The dist launcher sleeps on it between
//!   respawns, [`crate::RetryPolicy`] between attempts of a cell.
//! * [`Breaker`] — a closed → open → half-open circuit breaker driven
//!   by consecutive failure counts; the dist launcher keeps one per
//!   rank so a flapping rank degrades to backoff-gated
//!   respawn-from-checkpoint instead of hot-looping.

use crate::fault::splitmix64;

/// The reflected IEEE CRC32 polynomial (zlib/Ethernet/PNG).
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the zlib `crc32` everyone can cross-check).
///
/// Used as the frame-payload checksum on the dist wire and the
/// entry checksum in the svc result store: cheap enough to run on every
/// frame, and strong enough that a single flipped bit anywhere in the
/// payload is always detected.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Capped exponential backoff with seeded deterministic jitter.
///
/// `delay_ms(attempt)` grows geometrically from `base_ms` by `factor`,
/// saturates at `cap_ms`, and is then jittered into
/// `[nominal/2, nominal]` by a `splitmix64` draw keyed on
/// `(seed, attempt)` — so two ranks with different seeds desynchronize
/// while every rerun of the same seed sleeps identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// First-attempt nominal delay in milliseconds.
    pub base_ms: u64,
    /// Geometric growth factor per attempt.
    pub factor: u64,
    /// Hard ceiling on the nominal delay. GD003 reads it off a retry
    /// policy: `u64::MAX`, which no delay reaches, is no cap.
    pub cap_ms: u64,
    /// Jitter seed; vary per peer/rank to avoid lockstep retries.
    pub seed: u64,
}

impl Backoff {
    /// The default schedule: 50 ms doubling up to a 2 s ceiling.
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            base_ms: 50,
            factor: 2,
            cap_ms: 2_000,
            seed,
        }
    }

    /// The jittered delay before retry number `attempt` (0-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let mut nominal = self.base_ms.max(1);
        for _ in 0..attempt {
            nominal = nominal.saturating_mul(self.factor.max(1));
            if nominal >= self.cap_ms {
                nominal = self.cap_ms.max(1);
                break;
            }
        }
        nominal = nominal.min(self.cap_ms.max(1));
        // Jitter into [nominal/2, nominal]: keyed draw, no host entropy.
        let mut state = self.seed ^ 0x9E37_79B9_7F4A_7C15 ^ (attempt as u64);
        let jitter = splitmix64(&mut state) % (nominal / 2 + 1);
        nominal - jitter
    }
}

/// Circuit-breaker state: `Closed` passes calls, `Open` refuses them,
/// `HalfOpen` allows exactly one probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, failures are counted.
    Closed,
    /// Tripped: calls are refused until a probe is granted.
    Open,
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

/// A closed → open → half-open circuit breaker driven by call counts.
///
/// Deliberately clock-free: the owner decides *when* to probe (after a
/// [`Backoff`] sleep); the breaker only tracks *whether* a probe is due
/// and how the peer has been behaving. That keeps it deterministic and
/// testable without host time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Breaker {
    threshold: u32,
    consecutive: u32,
    state: BreakerState,
    opens: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (clamped to at least 1).
    pub fn new(threshold: u32) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            consecutive: 0,
            state: BreakerState::Closed,
            opens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open so far — feeds the
    /// backoff attempt number so repeated trips sleep longer.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }

    /// Records a failed call. A closed breaker trips open at the
    /// threshold; a half-open probe failure re-opens immediately.
    pub fn record_failure(&mut self) -> BreakerState {
        self.consecutive = self.consecutive.saturating_add(1);
        match self.state {
            BreakerState::Closed if self.consecutive >= self.threshold => {
                self.state = BreakerState::Open;
                self.opens += 1;
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opens += 1;
            }
            _ => {}
        }
        self.state
    }

    /// Records a successful call: the breaker closes and the failure
    /// streak resets.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
        self.state = BreakerState::Closed;
    }

    /// Asks to send one probe. `Closed` always grants; `Open` grants
    /// once and moves to `HalfOpen`; `HalfOpen` refuses (a probe is
    /// already out).
    pub fn try_probe(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::HalfOpen => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard zlib check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let clean = b"platform=milkv kernel=Cca cycles=123456";
        let reference = crc32(clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let b = Backoff::new(42);
        for attempt in 0..12 {
            let d = b.delay_ms(attempt);
            assert_eq!(d, b.delay_ms(attempt), "same (seed, attempt), same delay");
            assert!(d <= b.cap_ms, "attempt {attempt}: {d} over cap");
            let nominal = (b.base_ms << attempt.min(16)).min(b.cap_ms);
            assert!(
                d >= nominal / 2,
                "attempt {attempt}: {d} under half nominal"
            );
        }
        // Different seeds desynchronize (at least one attempt differs).
        let other = Backoff::new(43);
        assert!(
            (0..12).any(|a| b.delay_ms(a) != other.delay_ms(a)),
            "two seeds produced identical schedules"
        );
        // Growth: later attempts never nominally shrink below earlier floors.
        assert!(b.delay_ms(8) >= b.cap_ms / 2);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen() {
        let mut br = Breaker::new(3);
        assert_eq!(br.state(), BreakerState::Closed);
        assert!(br.try_probe(), "closed breaker passes calls");
        br.record_failure();
        br.record_failure();
        assert_eq!(br.state(), BreakerState::Closed, "under threshold");
        assert_eq!(
            br.record_failure(),
            BreakerState::Open,
            "third strike trips"
        );
        assert_eq!(br.opens(), 1);
        assert!(br.try_probe(), "open grants one probe");
        assert_eq!(br.state(), BreakerState::HalfOpen);
        assert!(!br.try_probe(), "no second probe while one is out");
        assert_eq!(
            br.record_failure(),
            BreakerState::Open,
            "failed probe re-opens"
        );
        assert_eq!(br.opens(), 2);
        assert!(br.try_probe());
        br.record_success();
        assert_eq!(br.state(), BreakerState::Closed, "good probe closes");
        assert_eq!(br.consecutive_failures(), 0);
    }

    #[test]
    fn zero_threshold_clamps_to_one() {
        let mut br = Breaker::new(0);
        assert_eq!(
            br.record_failure(),
            BreakerState::Open,
            "first failure trips"
        );
    }
}
