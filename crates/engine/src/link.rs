//! The two halves of a cut token link.
//!
//! When a wire of the model graph is cut at a socket, the
//! producer side keeps a [`RemoteSender`] and the consumer side a
//! [`RemoteReceiver`]; together they behave like the
//! [`crate::TokenChannel`] they replace, and each half implements
//! the engine's [`TokenLink`] trait so drivers are written against one
//! surface for both the in-process and the socket case.
//!
//! Three properties carry the whole design:
//!
//! * **No IO inside the trait.** `push_batch` buffers, `pop_batch`
//!   drains what already arrived; the socket is touched only by the
//!   explicit [`RemoteSender::flush`] / [`RemoteReceiver::ensure`]
//!   calls, which return `io::Result` and let the driver apply the
//!   *flush-before-block* rule (flush every outgoing link before
//!   blocking on any incoming one) that makes cross-rank deadlock
//!   impossible.
//! * **Run-length on the wire.** [`TokenLink::fast_forward`] spans and
//!   all-equal batches travel as constant-size [`Frame::Run`] frames, so
//!   the quiescence skip keeps its asymptotics across the socket.
//! * **Channel-absolute cycles.** Every frame names the cycle its first
//!   token belongs to and the receiver verifies it against its own
//!   cursor — host-timing races cannot silently reorder target time.

use crate::{ChannelError, TokenLink};
use bsim_core::frame::{read_frame, write_frame, Frame};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Outgoing traffic not yet handed to the OS, in cycle order.
#[derive(Clone, Debug)]
enum Seg {
    Lit(Vec<u64>),
    Run { n: u64, fill: u64 },
}

/// The producer half of a cut token link.
pub struct RemoteSender<W: Write> {
    w: W,
    /// Next cycle `push_batch` will accept (channel-absolute: starts at
    /// the link's reset latency, like a `TokenChannel` pre-filled with
    /// reset tokens).
    next_cycle: u64,
    /// Channel cycle of the first unflushed token.
    outbox_start: u64,
    outbox: VecDeque<Seg>,
    /// Cycles currently buffered in `outbox`.
    unflushed: u64,
}

impl<W: Write> RemoteSender<W> {
    /// A fresh link with `reset` cycles of latency already in flight as
    /// zero tokens (the receiver synthesizes them; nothing crosses the
    /// wire). The first accepted push cycle is `reset`.
    pub fn new(w: W, reset: u64) -> RemoteSender<W> {
        RemoteSender {
            w,
            next_cycle: reset,
            outbox_start: reset,
            outbox: VecDeque::new(),
            unflushed: 0,
        }
    }

    /// Writes everything buffered to the stream. All-equal literal
    /// batches and fast-forward spans go out as constant-size
    /// [`Frame::Run`] frames.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut at = self.outbox_start;
        while let Some(seg) = self.outbox.pop_front() {
            match seg {
                Seg::Lit(tokens) => {
                    let n = tokens.len() as u64;
                    let frame = match tokens.split_first() {
                        Some((first, rest)) if rest.iter().all(|t| t == first) => Frame::Run {
                            start: at,
                            n,
                            fill: *first,
                        },
                        _ => Frame::Data { start: at, tokens },
                    };
                    write_frame(&mut self.w, &frame)?;
                    at += n;
                }
                Seg::Run { n, fill } => {
                    write_frame(&mut self.w, &Frame::Run { start: at, n, fill })?;
                    at += n;
                }
            }
        }
        self.outbox_start = at;
        self.unflushed = 0;
        debug_assert_eq!(at, self.next_cycle);
        self.w.flush()
    }
}

impl<W: Write> TokenLink<u64> for RemoteSender<W> {
    fn push_batch(&mut self, start_cycle: u64, tokens: &[u64]) -> Result<usize, ChannelError> {
        if start_cycle != self.next_cycle {
            return Err(ChannelError::WrongCycle {
                expected: self.next_cycle,
                got: start_cycle,
            });
        }
        if !tokens.is_empty() {
            match self.outbox.back_mut() {
                Some(Seg::Lit(lit)) => lit.extend_from_slice(tokens),
                _ => self.outbox.push_back(Seg::Lit(tokens.to_vec())),
            }
            self.next_cycle += tokens.len() as u64;
            self.unflushed += tokens.len() as u64;
        }
        Ok(tokens.len())
    }

    /// A producer half has nothing to pop.
    fn pop_batch(&mut self, _start_cycle: u64, _out: &mut [u64]) -> Result<usize, ChannelError> {
        Err(ChannelError::Empty)
    }

    fn fast_forward(&mut self, n: u64, fill: u64) {
        if n == 0 {
            return;
        }
        match self.outbox.back_mut() {
            Some(Seg::Run { n: run, fill: f }) if *f == fill => *run += n,
            _ => self.outbox.push_back(Seg::Run { n, fill }),
        }
        self.next_cycle += n;
        self.unflushed += n;
    }

    /// On the producer half the "consumer" is the stream: the next
    /// cycle not yet handed to the OS.
    fn consumer_cycle(&self) -> u64 {
        self.outbox_start
    }

    fn producer_cycle(&self) -> u64 {
        self.next_cycle
    }

    fn buffered(&self) -> usize {
        self.unflushed.min(usize::MAX as u64) as usize
    }
}

/// The consumer half of a cut token link. Arrived-but-unpopped traffic
/// is stored run-length — a fast-forward span never materializes.
pub struct RemoteReceiver<R: Read> {
    r: R,
    /// `(token, count)` runs in pop order.
    runs: VecDeque<(u64, u64)>,
    buffered: u64,
    /// Next cycle `pop_batch` will accept.
    next_pop: u64,
    /// Next cycle the wire will deliver (frames are verified against it).
    produced: u64,
}

impl<R: Read> RemoteReceiver<R> {
    /// A fresh link with `reset` zero tokens pre-buffered — the
    /// receiver-side synthesis of the latency window, mirroring how the
    /// harness pre-fills its `TokenChannel`s.
    pub fn new(r: R, reset: u64) -> RemoteReceiver<R> {
        let mut runs = VecDeque::new();
        if reset > 0 {
            runs.push_back((0, reset));
        }
        RemoteReceiver {
            r,
            runs,
            buffered: reset,
            next_pop: 0,
            produced: reset,
        }
    }

    fn accept(&mut self, token: u64, count: u64) {
        if count == 0 {
            return;
        }
        match self.runs.back_mut() {
            Some((t, c)) if *t == token => *c += count,
            _ => self.runs.push_back((token, count)),
        }
        self.buffered += count;
        self.produced += count;
    }

    /// Blocks for one token frame and buffers it. Cycle mismatches and
    /// `Err` frames are protocol errors.
    pub fn recv(&mut self) -> io::Result<()> {
        match read_frame(&mut self.r)? {
            Frame::Data { start, tokens } => {
                if start != self.produced {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("Data frame at cycle {start}, expected {}", self.produced),
                    ));
                }
                for t in tokens {
                    self.accept(t, 1);
                }
                Ok(())
            }
            Frame::Run { start, n, fill } => {
                if start != self.produced {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("Run frame at cycle {start}, expected {}", self.produced),
                    ));
                }
                self.accept(fill, n);
                Ok(())
            }
            Frame::Err { msg } => Err(io::Error::other(format!("peer reported: {msg}"))),
        }
    }

    /// Blocks until at least `n` cycles are buffered. The driver calls
    /// this (after flushing its own senders) before any trait call that
    /// must not come up short.
    pub fn ensure(&mut self, n: u64) -> io::Result<()> {
        while self.buffered < n {
            self.recv()?;
        }
        Ok(())
    }

    /// Length of the leading all-zero run — how far a quiescence skip
    /// may advance through *already verified* idle traffic without
    /// blocking or guessing.
    pub fn leading_zero_run(&self) -> u64 {
        let mut n = 0;
        for &(token, count) in &self.runs {
            if token != 0 {
                break;
            }
            n += count;
        }
        n
    }

    /// Pops exactly one token for `cycle`.
    pub fn pop(&mut self, cycle: u64) -> Result<u64, ChannelError> {
        let mut one = [0u64];
        match self.pop_batch(cycle, &mut one)? {
            1 => Ok(one[0]),
            _ => Err(ChannelError::Empty),
        }
    }
}

impl<R: Read> TokenLink<u64> for RemoteReceiver<R> {
    /// A consumer half accepts nothing.
    fn push_batch(&mut self, _start_cycle: u64, _tokens: &[u64]) -> Result<usize, ChannelError> {
        Err(ChannelError::Full)
    }

    fn pop_batch(&mut self, start_cycle: u64, out: &mut [u64]) -> Result<usize, ChannelError> {
        if start_cycle != self.next_pop {
            return Err(ChannelError::WrongCycle {
                expected: self.next_pop,
                got: start_cycle,
            });
        }
        let want = (out.len() as u64).min(self.buffered);
        let mut wrote = 0usize;
        while (wrote as u64) < want {
            let (token, count) = self.runs.front_mut().expect("buffered count says more"); // bsim: allow(AU002) invariant stated in the message
            let take = (*count).min(want - wrote as u64);
            for slot in out[wrote..wrote + take as usize].iter_mut() {
                *slot = *token;
            }
            wrote += take as usize;
            *count -= take;
            if *count == 0 {
                self.runs.pop_front();
            }
        }
        self.buffered -= want;
        self.next_pop += want;
        Ok(wrote)
    }

    /// Consumes `n` already-buffered cycles in one run-length step (the
    /// consumer ignores the skipped tokens, per the channel contract).
    /// The producer-side synthesis happened remotely — the peer's
    /// fast-forward emitted the matching `Run` frame. Callers must
    /// [`RemoteReceiver::ensure`] the horizon first; skipping past what
    /// arrived would mean guessing at tokens.
    fn fast_forward(&mut self, n: u64, _fill: u64) {
        assert!(
            n <= self.buffered,
            "fast_forward({n}) past the {} buffered cycles; call ensure(n) first",
            self.buffered
        );
        let mut left = n;
        while left > 0 {
            let (_, count) = self.runs.front_mut().expect("buffered count says more"); // bsim: allow(AU002) invariant stated in the message
            let take = (*count).min(left);
            *count -= take;
            left -= take;
            if *count == 0 {
                self.runs.pop_front();
            }
        }
        self.buffered -= n;
        self.next_pop += n;
    }

    fn consumer_cycle(&self) -> u64 {
        self.next_pop
    }

    fn producer_cycle(&self) -> u64 {
        self.produced
    }

    fn buffered(&self) -> usize {
        self.buffered.min(usize::MAX as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// The satellite test: `TokenChannel`'s fast-forward contract
    /// (`fast_forward_advances_both_cursors_and_preserves_depth` in
    /// `channel.rs`), replayed over a real socket pair. Two real tokens
    /// in flight, a 5-cycle skip: the consumer cursor lands at 5, the
    /// producer at 7, and the depth of 2 survives as synthesized fill.
    #[test]
    fn fast_forward_over_a_socketpair_mirrors_the_in_process_contract() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut tx = RemoteSender::new(a, 0);
        let mut rx = RemoteReceiver::new(b, 0);

        assert_eq!(tx.push_batch(0, &[10, 11]), Ok(2));
        tx.fast_forward(5, 0);
        assert_eq!(tx.producer_cycle(), 7);
        tx.flush().expect("socket write");

        rx.ensure(7).expect("both frames arrive");
        rx.fast_forward(5, 0);
        assert_eq!(rx.consumer_cycle(), 5);
        assert_eq!(rx.producer_cycle(), 7);
        assert_eq!(TokenLink::buffered(&rx), 2, "depth is preserved");
        // What remains is synthesized fill, exactly like the in-process
        // channel after the same skip.
        let mut rest = [99u64; 2];
        assert_eq!(rx.pop_batch(5, &mut rest), Ok(2));
        assert_eq!(rest, [0, 0]);
    }

    #[test]
    fn ordered_token_traffic_survives_odd_batching() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let reference: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 7)
            .collect();
        let expect = reference.clone();
        let producer = std::thread::spawn(move || {
            let mut tx = RemoteSender::new(a, 0);
            let mut at = 0u64;
            // Flush every ten batches (70 cycles), so frames and the
            // receiver's 13-token pops never line up.
            for (i, chunk) in reference.chunks(7).enumerate() {
                tx.push_batch(at, chunk).expect("cycle cursor tracks");
                at += chunk.len() as u64;
                if i % 10 == 9 {
                    tx.flush().expect("socket write");
                }
            }
            tx.flush().expect("final flush");
        });
        let mut rx = RemoteReceiver::new(b, 0);
        let mut got = Vec::new();
        let mut cycle = 0u64;
        while got.len() < expect.len() {
            rx.ensure(1).expect("producer keeps sending");
            let mut buf = [0u64; 13];
            let n = rx.pop_batch(cycle, &mut buf).expect("cycle cursor tracks");
            got.extend_from_slice(&buf[..n]);
            cycle += n as u64;
        }
        producer.join().expect("producer thread");
        assert_eq!(got, expect);
    }

    #[test]
    fn reset_window_and_cycle_checks_match_the_channel() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut tx = RemoteSender::new(a, 3);
        let mut rx = RemoteReceiver::new(b, 3);
        // Pushes start after the reset window, pops at zero — exactly a
        // latency-3 TokenChannel.
        assert_eq!(
            tx.push_batch(0, &[1]),
            Err(ChannelError::WrongCycle {
                expected: 3,
                got: 0
            })
        );
        assert_eq!(
            rx.pop_batch(1, &mut [0u64]),
            Err(ChannelError::WrongCycle {
                expected: 0,
                got: 1
            })
        );
        let mut first = [9u64; 3];
        assert_eq!(rx.pop_batch(0, &mut first), Ok(3));
        assert_eq!(first, [0, 0, 0], "the latency window is reset tokens");
        // An empty receiver reports zero moved, like the channel.
        assert_eq!(rx.pop_batch(3, &mut [0u64]), Ok(0));
        drop(tx);
    }

    #[test]
    fn misaligned_frames_are_protocol_errors() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        write_frame(
            &mut a,
            &Frame::Data {
                start: 5,
                tokens: vec![1],
            },
        )
        .expect("socket write");
        let mut rx = RemoteReceiver::new(b, 0);
        let err = rx.recv().expect_err("cycle 5 ≠ expected 0");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
