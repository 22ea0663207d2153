//! Loom interleaving tests for the engine's token-channel protocol and
//! the harness's poison-flag teardown.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bsim-engine --release --test loom_channel
//! ```
//!
//! Each `loom::model` closure is executed once per distinct thread
//! interleaving (exhaustively, up to the scheduler's bound), so an
//! assertion here holds for *every* schedule, not just the one the host
//! OS happened to pick — the same strengthening FireSim gets from its
//! token protocol being host-schedule invariant by construction.

#![cfg(loom)]

use bsim_engine::{ChannelError, TokenChannel};
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

/// Batched producer/consumer over a shared channel: under every
/// interleaving the consumer observes the tokens in cycle order, exactly
/// once each, and both cursors agree at the end.
#[test]
fn batched_producer_consumer_is_order_safe_under_all_schedules() {
    loom::model(|| {
        const TOKENS: u64 = 4;
        let ch = Arc::new(Mutex::new(TokenChannel::new(2)));

        let producer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || {
                let mut next = 0u64;
                while next < TOKENS {
                    let batch: Vec<u64> = (next..TOKENS).collect();
                    let pushed = ch
                        .lock()
                        .unwrap()
                        .push_batch(next, &batch)
                        .expect("producer cycles are consecutive by construction");
                    next += pushed as u64;
                    if pushed == 0 {
                        // Channel full: the consumer owes us slack.
                        thread::yield_now();
                    }
                }
            })
        };

        let mut popped: Vec<u64> = Vec::new();
        let mut next = 0u64;
        while (popped.len() as u64) < TOKENS {
            let mut out = [0u64; TOKENS as usize];
            let got = ch
                .lock()
                .unwrap()
                .pop_batch(next, &mut out)
                .expect("consumer cycles are consecutive by construction");
            popped.extend(&out[..got]);
            next += got as u64;
            if got == 0 {
                thread::yield_now();
            }
        }
        producer.join().unwrap();

        assert_eq!(popped, (0..TOKENS).collect::<Vec<u64>>());
        let ch = ch.lock().unwrap();
        assert_eq!(ch.producer_cycle(), TOKENS);
        assert_eq!(ch.consumer_cycle(), TOKENS);
        assert_eq!(ch.buffered(), 0);
    });
}

/// The channel's cycle protocol refuses stale batches under every
/// schedule: a second push for an already-pushed cycle is `WrongCycle`
/// no matter where the consumer is.
#[test]
fn stale_push_is_rejected_under_all_schedules() {
    loom::model(|| {
        let ch = Arc::new(Mutex::new(TokenChannel::new(4)));
        let racer = {
            let ch = Arc::clone(&ch);
            thread::spawn(move || {
                let mut guard = ch.lock().unwrap();
                let _ = guard.pop_batch(0, &mut [0u64; 2]);
            })
        };
        {
            let mut guard = ch.lock().unwrap();
            guard.push_batch(0, &[7u64, 8]).unwrap();
            // Replaying cycle 0 must fail regardless of consumer progress.
            assert_eq!(
                guard.push_batch(0, &[9u64]),
                Err(ChannelError::WrongCycle {
                    expected: 2,
                    got: 0
                })
            );
        }
        racer.join().unwrap();
    });
}

/// The harness teardown protocol: a panicking model stores its payload
/// *before* the Release store of the poison flag, and every peer that
/// Acquire-loads the flag as set must observe the payload. This is the
/// happens-before edge `AbortFlag` relies on.
#[test]
fn poison_payload_is_visible_after_acquire_load() {
    loom::model(|| {
        let payload = Arc::new(Mutex::new(None::<String>));
        let poisoned = Arc::new(AtomicBool::new(false));

        let dying = {
            let payload = Arc::clone(&payload);
            let poisoned = Arc::clone(&poisoned);
            thread::spawn(move || {
                *payload.lock().unwrap() = Some("model 3 died".into());
                poisoned.store(true, Ordering::Release);
            })
        };

        if poisoned.load(Ordering::Acquire) {
            let slot = payload.lock().unwrap();
            assert!(
                slot.is_some(),
                "flag observed set but the payload write was not visible"
            );
        }
        dying.join().unwrap();
        assert!(poisoned.load(Ordering::Acquire));
        assert_eq!(payload.lock().unwrap().as_deref(), Some("model 3 died"));
    });
}

/// A consumer stalled on an empty channel must exit its spin loop when a
/// peer raises the poison flag — under every schedule, including the one
/// where the flag is raised before the consumer's first check. This is
/// the hang the PR-2 teardown fix closed; loom proves it stays closed.
#[test]
fn poisoned_consumer_stall_loop_terminates() {
    loom::model(|| {
        let ch = Arc::new(Mutex::new(TokenChannel::<u64>::new(2)));
        let poisoned = Arc::new(AtomicBool::new(false));

        let dying_producer = {
            let poisoned = Arc::clone(&poisoned);
            thread::spawn(move || {
                // Panics before producing anything; the harness's
                // catch_unwind would run this exact store.
                poisoned.store(true, Ordering::Release);
            })
        };

        // The harness's stall loop: retry Empty until token or poison.
        let mut bailed = false;
        loop {
            match ch.lock().unwrap().pop_batch(0, &mut [0u64; 1]) {
                Ok(n) if n > 0 => break,
                Ok(_) | Err(ChannelError::Empty) => {
                    if poisoned.load(Ordering::Acquire) {
                        bailed = true;
                        break;
                    }
                    thread::yield_now();
                }
                Err(e) => panic!("unexpected channel error: {e}"),
            }
        }
        assert!(
            bailed,
            "no producer exists: only the poison flag can free us"
        );
        dying_producer.join().unwrap();
    });
}
