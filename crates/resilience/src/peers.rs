//! Host-time liveness tracking for remote peers.
//!
//! The engine watchdog ([`crate::watchdog`]) guards threads inside one
//! process; a distributed launcher needs the same verdict about *other
//! processes*, where the only observable signals are frames arriving on
//! a socket and the OS reporting the child exited. [`PeerWatchdog`]
//! folds both into one liveness view: every received frame is a
//! heartbeat, an explicit [`PeerWatchdog::lost`] records an observed
//! death (socket EOF, non-zero exit), and [`PeerWatchdog::dead`] names
//! every peer that is lost or silent past the budget — the launcher's
//! cue to migrate that partition onto a fresh process.

use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PeerState {
    Live,
    Lost,
}

/// Liveness tracker over `n` remote peers with a host-time silence
/// budget.
#[derive(Clone, Debug)]
pub struct PeerWatchdog {
    budget: Duration,
    last_seen: Vec<Instant>,
    state: Vec<PeerState>,
}

impl PeerWatchdog {
    /// Starts tracking `peers` peers, all considered live and freshly
    /// heard-from now.
    pub fn new(peers: usize, budget: Duration) -> PeerWatchdog {
        let now = Instant::now();
        PeerWatchdog {
            budget,
            last_seen: vec![now; peers],
            state: vec![PeerState::Live; peers],
        }
    }

    /// Records a heartbeat from `peer` — any received frame counts.
    pub fn beat(&mut self, peer: usize) {
        self.last_seen[peer] = Instant::now();
    }

    /// Records an observed death: socket EOF, process exit. A lost peer
    /// stays dead until [`PeerWatchdog::revive`]d by a respawn.
    pub fn lost(&mut self, peer: usize) {
        self.state[peer] = PeerState::Lost;
    }

    /// Marks a respawned peer live again with a fresh heartbeat.
    pub fn revive(&mut self, peer: usize) {
        self.state[peer] = PeerState::Live;
        self.beat(peer);
    }

    /// Every peer currently considered dead: explicitly lost, or silent
    /// longer than the budget.
    pub fn dead(&self) -> Vec<usize> {
        let now = Instant::now();
        (0..self.state.len())
            .filter(|&p| {
                self.state[p] == PeerState::Lost
                    || now.duration_since(self.last_seen[p]) > self.budget
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_peers_are_live_and_loss_is_sticky() {
        let mut dog = PeerWatchdog::new(3, Duration::from_secs(60));
        assert!(dog.dead().is_empty());
        dog.lost(1);
        assert_eq!(dog.dead(), vec![1]);
        dog.beat(1);
        assert_eq!(dog.dead(), vec![1], "a heartbeat does not resurrect");
        dog.revive(1);
        assert!(dog.dead().is_empty(), "an explicit respawn does");
    }

    #[test]
    fn silence_past_the_budget_is_death() {
        let mut dog = PeerWatchdog::new(2, Duration::from_millis(20));
        dog.beat(0);
        std::thread::sleep(Duration::from_millis(40));
        dog.beat(1);
        assert_eq!(dog.dead(), vec![0], "peer 0 silent past budget");
    }
}
