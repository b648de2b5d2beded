//! Leak audit for the queue/channel drop paths — written to run under
//! `cargo +nightly miri test -p hetero-mq --test miri_leak` (Miri's leak
//! checker validates every allocation) but also meaningful under plain
//! `cargo test` via explicit drop counting.
//!
//! Audit summary (PR-3): `MpscQueue::drop` takes `&mut self`, so no
//! producer can be mid-publish; it drains via `pop_spin` (freeing each node
//! and dropping its payload) and then frees the final stub/last-consumed
//! node that `head` points at. The channels own their queue through an
//! `Arc<Shared>`, so whichever half drops last runs that drain. These tests
//! pin each of those paths.
#![cfg(not(feature = "loom"))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hetero_mq::{channel, MpscQueue};

/// Payload that counts its drops.
#[derive(Debug)]
struct DropCounter(Arc<AtomicUsize>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter() -> (Arc<AtomicUsize>, impl Fn() -> DropCounter) {
    let n = Arc::new(AtomicUsize::new(0));
    let n2 = Arc::clone(&n);
    (n, move || DropCounter(Arc::clone(&n2)))
}

#[test]
fn queue_drop_frees_all_pending_values() {
    let (drops, make) = counter();
    {
        let q = MpscQueue::new();
        for _ in 0..10 {
            q.push(make());
        }
    }
    assert_eq!(drops.load(Ordering::SeqCst), 10);
}

#[test]
fn queue_partial_drain_then_drop_frees_the_rest() {
    let (drops, make) = counter();
    {
        let q = MpscQueue::new();
        for _ in 0..10 {
            q.push(make());
        }
        for _ in 0..4 {
            drop(q.pop_spin().expect("value pending"));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 10);
}

#[test]
fn queue_drop_after_concurrent_pushes_frees_everything() {
    let (drops, _make) = counter();
    let per = if cfg!(miri) { 20 } else { 500 };
    {
        let q = Arc::new(MpscQueue::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let n = Arc::clone(&drops);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        q.push(DropCounter(Arc::clone(&n)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Drop the queue with everything still enqueued.
    }
    assert_eq!(drops.load(Ordering::SeqCst), 2 * per);
}

#[test]
fn channel_undelivered_messages_freed_when_both_halves_drop() {
    let (drops, make) = counter();
    {
        let (tx, rx) = channel();
        for _ in 0..7 {
            tx.send(make()).unwrap();
        }
        drop(tx);
        drop(rx);
    }
    assert_eq!(drops.load(Ordering::SeqCst), 7);
}

#[test]
fn channel_message_rejected_by_dead_receiver_is_returned_not_leaked() {
    let (drops, make) = counter();
    let (tx, rx) = channel();
    drop(rx);
    let err = tx.send(make()).unwrap_err();
    assert_eq!(drops.load(Ordering::SeqCst), 0, "value must be recoverable");
    let value = err.into_inner();
    drop(value);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}
