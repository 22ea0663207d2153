//! Cycle-stamped token channels.
//!
//! A channel carries exactly one token per target cycle, in order. The
//! producer may run ahead of the consumer by at most the channel
//! capacity (FireSim's "channel depth"); attempts to run further ahead
//! are refused, which is precisely the mechanism that decouples host
//! scheduling from target time.

use std::collections::VecDeque;
use std::fmt;

/// Error from token-channel operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelError {
    /// Producer tried to push a token for the wrong cycle.
    WrongCycle {
        /// Cycle the channel expected next.
        expected: u64,
        /// Cycle the producer tried to push.
        got: u64,
    },
    /// Producer is more than `capacity` cycles ahead of the consumer.
    Full,
    /// Consumer asked for a token the producer has not delivered yet.
    Empty,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::WrongCycle { expected, got } => {
                write!(f, "token for cycle {got} pushed, expected {expected}")
            }
            ChannelError::Full => write!(f, "channel full: producer too far ahead"),
            ChannelError::Empty => write!(f, "channel empty: consumer too far ahead"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// The batched token-exchange surface a harness drives a link through:
/// the cycle-stamped batch push/pop pair plus the run-length
/// fast-forward primitive, with both endpoint cursors observable.
///
/// [`TokenChannel`] is the in-process implementation; `bsim-dist`
/// implements the same surface over `TcpStream`/Unix-socket pairs, so a
/// model driver neither knows nor cares whether its peer lives in the
/// same address space or another OS process. The semantic contract is
/// the channel one: tokens flow in consecutive-cycle order, a batch may
/// move fewer tokens than offered (backpressure / not-yet-delivered),
/// the cycle protocol is enforced with [`ChannelError::WrongCycle`],
/// and `fast_forward` advances both cursors `n` cycles while leaving
/// the buffered depth invariant.
pub trait TokenLink<T: Copy> {
    /// Pushes tokens for consecutive cycles starting at `start_cycle`;
    /// returns how many were accepted (possibly 0).
    fn push_batch(&mut self, start_cycle: u64, tokens: &[T]) -> Result<usize, ChannelError>;
    /// Pops tokens for consecutive cycles starting at `start_cycle`
    /// into `out`; returns how many were written (possibly 0).
    fn pop_batch(&mut self, start_cycle: u64, out: &mut [T]) -> Result<usize, ChannelError>;
    /// Bulk-advances both endpoints `n` cycles, the producer filling
    /// with `fill` — the quiescence fast-forward primitive.
    fn fast_forward(&mut self, n: u64, fill: T);
    /// The next cycle the consumer will pop.
    fn consumer_cycle(&self) -> u64;
    /// The next cycle the producer will push.
    fn producer_cycle(&self) -> u64;
    /// Tokens currently buffered on this side of the link.
    fn buffered(&self) -> usize;
}

/// A bounded token queue carrying one `T` per target cycle.
#[derive(Debug)]
pub struct TokenChannel<T> {
    queue: VecDeque<T>,
    capacity: usize,
    next_push_cycle: u64,
    next_pop_cycle: u64,
}

impl<T> TokenChannel<T> {
    /// Builds an empty channel with `capacity` tokens of slack.
    pub fn new(capacity: usize) -> TokenChannel<T> {
        assert!(capacity >= 1);
        TokenChannel {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            next_push_cycle: 0,
            next_pop_cycle: 0,
        }
    }

    /// Pushes the token for `cycle`. Tokens must be pushed for
    /// consecutive cycles starting at 0.
    pub fn push(&mut self, cycle: u64, token: T) -> Result<(), ChannelError> {
        if cycle != self.next_push_cycle {
            return Err(ChannelError::WrongCycle {
                expected: self.next_push_cycle,
                got: cycle,
            });
        }
        if self.queue.len() >= self.capacity {
            return Err(ChannelError::Full);
        }
        self.queue.push_back(token);
        self.next_push_cycle += 1;
        Ok(())
    }

    /// Pops the token for `cycle`, which must be the next unconsumed one.
    pub fn pop(&mut self, cycle: u64) -> Result<T, ChannelError> {
        if cycle != self.next_pop_cycle {
            return Err(ChannelError::WrongCycle {
                expected: self.next_pop_cycle,
                got: cycle,
            });
        }
        match self.queue.pop_front() {
            Some(t) => {
                self.next_pop_cycle += 1;
                Ok(t)
            }
            None => Err(ChannelError::Empty),
        }
    }

    /// Pushes tokens for consecutive cycles starting at `start_cycle`,
    /// stopping early when the channel fills. Returns how many were
    /// pushed (possibly 0 when already full). One lock acquisition's
    /// worth of work replaces up to `tokens.len()` single-token pushes —
    /// this is what lets the parallel harness amortize synchronization
    /// over a whole channel quantum.
    pub fn push_batch(&mut self, start_cycle: u64, tokens: &[T]) -> Result<usize, ChannelError>
    where
        T: Copy,
    {
        if start_cycle != self.next_push_cycle {
            return Err(ChannelError::WrongCycle {
                expected: self.next_push_cycle,
                got: start_cycle,
            });
        }
        let n = tokens.len().min(self.capacity - self.queue.len());
        self.queue.extend(tokens[..n].iter().copied());
        self.next_push_cycle += n as u64;
        Ok(n)
    }

    /// Pops tokens for consecutive cycles starting at `start_cycle` into
    /// `out`, stopping early when the channel drains. Returns how many
    /// were written (possibly 0 when empty).
    pub fn pop_batch(&mut self, start_cycle: u64, out: &mut [T]) -> Result<usize, ChannelError> {
        if start_cycle != self.next_pop_cycle {
            return Err(ChannelError::WrongCycle {
                expected: self.next_pop_cycle,
                got: start_cycle,
            });
        }
        let n = out.len().min(self.queue.len());
        for slot in out[..n].iter_mut() {
            *slot = self.queue.pop_front().expect("length checked"); // bsim: allow(AU002) invariant stated in the message
        }
        self.next_pop_cycle += n as u64;
        Ok(n)
    }

    /// Bulk-advances both endpoints by `n` cycles in one run-length
    /// operation: the consumer pops `n` tokens and the producer pushes
    /// `n` copies of `fill`, without touching each token individually.
    /// The buffered depth is unchanged, so the channel invariants
    /// (`push - pop == buffered`, `buffered <= capacity`) are preserved.
    ///
    /// This is the quiescence fast-forward primitive: when a whole
    /// schedule is idle until cycle `T`, every channel carries `n = T -
    /// now` idle tokens that nobody needs to materialize one by one.
    /// The caller promises that `fill` is the token the producer would
    /// have emitted on every skipped cycle (for idle models, the
    /// all-zeros reset token) and that the consumer ignores the tokens
    /// it would have popped.
    pub fn fast_forward(&mut self, n: u64, fill: T)
    where
        T: Clone,
    {
        if n == 0 {
            return;
        }
        // The consumer pops min(n, buffered) real tokens before reaching
        // synthesized territory; the producer replaces exactly as many.
        let turned_over = (self.queue.len() as u64).min(n) as usize;
        self.queue.drain(..turned_over);
        self.queue
            .extend(std::iter::repeat_with(|| fill.clone()).take(turned_over));
        self.next_push_cycle += n;
        self.next_pop_cycle += n;
    }

    /// The buffered tokens in pop order (oldest first).
    pub fn buffered_tokens(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }

    /// How many cycles the producer may still run ahead.
    pub fn slack(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Tokens currently buffered.
    pub fn buffered(&self) -> usize {
        self.queue.len()
    }

    /// The next cycle the consumer will pop.
    pub fn consumer_cycle(&self) -> u64 {
        self.next_pop_cycle
    }

    /// The next cycle the producer will push.
    pub fn producer_cycle(&self) -> u64 {
        self.next_push_cycle
    }
}

impl<T: Copy> TokenLink<T> for TokenChannel<T> {
    fn push_batch(&mut self, start_cycle: u64, tokens: &[T]) -> Result<usize, ChannelError> {
        TokenChannel::push_batch(self, start_cycle, tokens)
    }
    fn pop_batch(&mut self, start_cycle: u64, out: &mut [T]) -> Result<usize, ChannelError> {
        TokenChannel::pop_batch(self, start_cycle, out)
    }
    fn fast_forward(&mut self, n: u64, fill: T) {
        TokenChannel::fast_forward(self, n, fill)
    }
    fn consumer_cycle(&self) -> u64 {
        TokenChannel::consumer_cycle(self)
    }
    fn producer_cycle(&self) -> u64 {
        TokenChannel::producer_cycle(self)
    }
    fn buffered(&self) -> usize {
        TokenChannel::buffered(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_flow_in_cycle_order() {
        let mut ch = TokenChannel::new(4);
        ch.push(0, 10).unwrap();
        ch.push(1, 11).unwrap();
        assert_eq!(ch.pop(0), Ok(10));
        assert_eq!(ch.pop(1), Ok(11));
    }

    #[test]
    fn wrong_cycle_rejected() {
        let mut ch = TokenChannel::new(4);
        assert_eq!(
            ch.push(1, 0u64),
            Err(ChannelError::WrongCycle {
                expected: 0,
                got: 1
            })
        );
        ch.push(0, 1).unwrap();
        assert_eq!(
            ch.pop(1),
            Err(ChannelError::WrongCycle {
                expected: 0,
                got: 1
            })
        );
    }

    #[test]
    fn producer_cannot_exceed_capacity() {
        let mut ch = TokenChannel::new(2);
        ch.push(0, 0u64).unwrap();
        ch.push(1, 1).unwrap();
        assert_eq!(ch.push(2, 2), Err(ChannelError::Full));
        // Consuming frees a slot.
        ch.pop(0).unwrap();
        ch.push(2, 2).unwrap();
    }

    #[test]
    fn consumer_stalls_on_empty() {
        let mut ch = TokenChannel::<u64>::new(2);
        assert_eq!(ch.pop(0), Err(ChannelError::Empty));
    }

    #[test]
    fn batch_ops_move_up_to_the_available_slack() {
        let mut ch = TokenChannel::new(4);
        // Push 6 tokens into 4 slots: only 4 fit.
        assert_eq!(ch.push_batch(0, &[0u64, 1, 2, 3, 4, 5]), Ok(4));
        assert_eq!(ch.producer_cycle(), 4);
        assert_eq!(ch.push_batch(4, &[4u64, 5]), Ok(0), "full channel takes 0");
        let mut out = [0u64; 8];
        assert_eq!(ch.pop_batch(0, &mut out), Ok(4));
        assert_eq!(&out[..4], &[0, 1, 2, 3]);
        assert_eq!(ch.pop_batch(4, &mut out), Ok(0), "empty channel yields 0");
        // The freed slots accept the remainder.
        assert_eq!(ch.push_batch(4, &[4u64, 5]), Ok(2));
        assert_eq!(ch.pop_batch(4, &mut out[..2]), Ok(2));
        assert_eq!(&out[..2], &[4, 5]);
    }

    #[test]
    fn batch_ops_enforce_the_cycle_protocol() {
        let mut ch = TokenChannel::new(4);
        assert_eq!(
            ch.push_batch(3, &[9u64]),
            Err(ChannelError::WrongCycle {
                expected: 0,
                got: 3
            })
        );
        ch.push_batch(0, &[1u64, 2]).unwrap();
        let mut out = [0u64; 2];
        assert_eq!(
            ch.pop_batch(1, &mut out),
            Err(ChannelError::WrongCycle {
                expected: 0,
                got: 1
            })
        );
    }

    #[test]
    fn batch_and_single_ops_interleave() {
        let mut ch = TokenChannel::new(8);
        ch.push(0, 10u64).unwrap();
        ch.push_batch(1, &[11, 12, 13]).unwrap();
        ch.push(4, 14).unwrap();
        assert_eq!(ch.pop(0), Ok(10));
        let mut out = [0u64; 3];
        assert_eq!(ch.pop_batch(1, &mut out), Ok(3));
        assert_eq!(out, [11, 12, 13]);
        assert_eq!(ch.pop(4), Ok(14));
    }

    #[test]
    fn empty_batch_slices_are_free_nops() {
        let mut ch = TokenChannel::<u64>::new(2);
        // An empty push/pop at the right cycle moves nothing and does
        // not advance either cursor.
        assert_eq!(ch.push_batch(0, &[]), Ok(0));
        assert_eq!(ch.producer_cycle(), 0);
        assert_eq!(ch.pop_batch(0, &mut []), Ok(0));
        assert_eq!(ch.consumer_cycle(), 0);
        // But the cycle protocol still applies to empty batches.
        assert_eq!(
            ch.push_batch(5, &[]),
            Err(ChannelError::WrongCycle {
                expected: 0,
                got: 5
            })
        );
    }

    #[test]
    fn exact_capacity_fill_then_exact_drain() {
        let mut ch = TokenChannel::new(4);
        assert_eq!(ch.push_batch(0, &[0u64, 1, 2, 3]), Ok(4), "exactly fills");
        assert_eq!(ch.slack(), 0);
        assert_eq!(ch.push_batch(4, &[4u64]), Ok(0), "full: zero accepted");
        let mut out = [0u64; 4];
        assert_eq!(ch.pop_batch(0, &mut out), Ok(4), "exactly drains");
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(ch.buffered(), 0);
        assert_eq!(ch.pop_batch(4, &mut out), Ok(0), "empty: zero written");
        // The exact-fill cycle repeats cleanly from the new cursors.
        assert_eq!(ch.push_batch(4, &[4u64, 5, 6, 7]), Ok(4));
        assert_eq!(ch.pop_batch(4, &mut out), Ok(4));
        assert_eq!(out, [4, 5, 6, 7]);
    }

    #[test]
    fn interleaved_partial_drains_preserve_order_and_cycles() {
        let mut ch = TokenChannel::new(4);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        let mut popped: Vec<u64> = Vec::new();
        // Producer pushes in bursts of 3, consumer drains in sips of 2:
        // the windows slide past each other and never desynchronize.
        for burst in 0..5u64 {
            let base = burst * 3;
            let tokens = [base, base + 1, base + 2];
            let mut offset = 0;
            while offset < tokens.len() {
                let pushed = ch.push_batch(next_push, &tokens[offset..]).unwrap();
                next_push += pushed as u64;
                offset += pushed;
                let mut sip = [0u64; 2];
                let got = ch.pop_batch(next_pop, &mut sip).unwrap();
                popped.extend(&sip[..got]);
                next_pop += got as u64;
            }
        }
        let mut tail = [0u64; 4];
        let got = ch.pop_batch(next_pop, &mut tail).unwrap();
        popped.extend(&tail[..got]);
        assert_eq!(popped, (0..15).collect::<Vec<u64>>());
        assert_eq!(ch.producer_cycle(), ch.consumer_cycle());
    }

    #[test]
    fn token_link_trait_surface_matches_the_inherent_one() {
        // The dist harness drives links as `dyn TokenLink`; the trait
        // impl must be a pure delegation with identical semantics.
        let mut ch = TokenChannel::new(4);
        let link: &mut dyn TokenLink<u64> = &mut ch;
        assert_eq!(link.push_batch(0, &[1, 2, 3]), Ok(3));
        assert_eq!(link.producer_cycle(), 3);
        let mut out = [0u64; 2];
        assert_eq!(link.pop_batch(0, &mut out), Ok(2));
        assert_eq!(out, [1, 2]);
        link.fast_forward(4, 0);
        assert_eq!(link.consumer_cycle(), 6);
        assert_eq!(link.producer_cycle(), 7);
        assert_eq!(link.buffered(), 1, "depth invariant under fast-forward");
    }

    #[test]
    fn fast_forward_advances_both_cursors_and_preserves_depth() {
        let mut ch = TokenChannel::new(4);
        ch.push_batch(0, &[10u64, 11]).unwrap(); // 2 in flight
        ch.fast_forward(5, 0);
        assert_eq!(ch.consumer_cycle(), 5);
        assert_eq!(ch.producer_cycle(), 7);
        assert_eq!(ch.buffered(), 2, "depth is invariant under fast-forward");
        // All real tokens were overtaken; only fills remain.
        assert_eq!(ch.pop(5), Ok(0));
        assert_eq!(ch.pop(6), Ok(0));
    }

    #[test]
    fn short_fast_forward_keeps_undertaken_tokens() {
        let mut ch = TokenChannel::new(8);
        ch.push_batch(0, &[10u64, 11, 12]).unwrap();
        ch.fast_forward(1, 99);
        // One real token consumed, one fill appended; 11 and 12 survive.
        assert_eq!(ch.pop(1), Ok(11));
        assert_eq!(ch.pop(2), Ok(12));
        assert_eq!(ch.pop(3), Ok(99));
        assert_eq!(ch.producer_cycle(), 4);
    }

    /// `(next push cycle, next pop cycle, buffered tokens in pop order)`.
    fn state(ch: &TokenChannel<u64>) -> (u64, u64, Vec<u64>) {
        (
            ch.producer_cycle(),
            ch.consumer_cycle(),
            ch.buffered_tokens().copied().collect(),
        )
    }

    #[test]
    fn fast_forward_matches_per_cycle_exchange() {
        // Reference: push/pop zeros one cycle at a time.
        let mut slow = TokenChannel::new(3);
        let mut fast = TokenChannel::new(3);
        for ch in [&mut slow, &mut fast] {
            ch.push(0, 0u64).unwrap();
            ch.push(1, 0).unwrap();
        }
        for c in 0..10u64 {
            slow.pop(c).unwrap();
            slow.push(c + 2, 0).unwrap();
        }
        fast.fast_forward(10, 0);
        assert_eq!(state(&slow), state(&fast));
    }

    #[test]
    fn fast_forward_zero_is_a_nop() {
        let mut ch = TokenChannel::new(2);
        ch.push(0, 7u64).unwrap();
        ch.fast_forward(0, 0);
        assert_eq!(state(&ch), (1, 0, vec![7]));
    }

    #[test]
    fn buffered_tokens_iterates_in_pop_order() {
        let mut ch = TokenChannel::new(4);
        ch.push_batch(0, &[1u64, 2, 3]).unwrap();
        ch.pop(0).unwrap();
        assert_eq!(ch.buffered_tokens().copied().collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn slack_accounting() {
        let mut ch = TokenChannel::new(3);
        assert_eq!(ch.slack(), 3);
        ch.push(0, 0u64).unwrap();
        assert_eq!(ch.slack(), 2);
        assert_eq!(ch.buffered(), 1);
        assert_eq!(ch.producer_cycle(), 1);
        assert_eq!(ch.consumer_cycle(), 0);
    }
}
