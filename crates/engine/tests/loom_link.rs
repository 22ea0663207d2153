//! Loom interleaving test for the cut-link halves: a [`RemoteSender`]
//! flushing run-length traffic races a [`RemoteReceiver`] verifying and
//! fast-forwarding through it over a shared in-memory byte pipe.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bsim-engine --release --test loom_link
//! ```
//!
//! The property: under *every* schedule the receiver observes exactly
//! the cycle-ordered token stream the sender pushed — the quiescence
//! fast-forward may only skip zeros the wire has already verified, so no
//! interleaving of `flush` against `ensure`/`leading_zero_run` can make
//! the skip overrun into live traffic or double-count the reset window.
//! This holds because each frame leaves the sender as one `write_all`
//! (frames are never torn) and the receiver re-checks every frame's
//! start cycle against its own `produced` cursor.

#![cfg(loom)]

use bsim_engine::link::{RemoteReceiver, RemoteSender};
use bsim_engine::TokenLink;
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// One direction of an in-memory socket: every `write` appends under the
/// loom mutex (a schedule point), every `read` takes what is available
/// or yields until the producer catches up. Mirrors a loopback TCP
/// stream closely enough for the link protocol: bytes arrive in order,
/// possibly split at arbitrary boundaries.
#[derive(Clone)]
struct Pipe {
    buf: Arc<Mutex<VecDeque<u8>>>,
}

impl Pipe {
    fn new() -> Pipe {
        Pipe {
            buf: Arc::new(Mutex::new(VecDeque::new())),
        }
    }
}

impl Write for Pipe {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.lock().unwrap().extend(data.iter().copied());
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            {
                let mut q = self.buf.lock().unwrap();
                if !q.is_empty() {
                    let n = out.len().min(q.len());
                    for slot in out[..n].iter_mut() {
                        *slot = q.pop_front().unwrap();
                    }
                    return Ok(n);
                }
            }
            // Nothing buffered yet: let the producer run. The loom shim
            // deprioritizes a yielded thread, so this spin is bounded.
            thread::yield_now();
        }
    }
}

#[test]
fn flush_racing_fast_forward_verification_is_order_safe() {
    loom::model(|| {
        const RESET: u64 = 2;
        let pipe = Pipe::new();
        let rx_end = pipe.clone();

        let producer = thread::spawn(move || {
            let mut tx = RemoteSender::new(pipe, RESET);
            // Two pushed idle cycles, a four-cycle quiescence span, then
            // the first live token: cycles 2..8 are zeros, cycle 8 is 7.
            tx.push_batch(RESET, &[0, 0]).unwrap();
            tx.fast_forward(4, 0);
            tx.push_batch(RESET + 6, &[7]).unwrap();
            tx.flush().unwrap();
        });

        let mut rx = RemoteReceiver::new(rx_end, RESET);
        // Verify the whole window (2 reset + 2 pushed + 4 fast-forward +
        // 1 live), however the producer's flush interleaves with it.
        rx.ensure(RESET + 7).unwrap();
        assert_eq!(rx.leading_zero_run(), RESET + 6);
        for cycle in 0..RESET + 6 {
            assert_eq!(rx.pop(cycle).unwrap(), 0, "cycle {cycle} must be idle");
        }
        assert_eq!(rx.pop(RESET + 6).unwrap(), 7, "live token after the skip");

        producer.join().unwrap();
    });
}
