//! Stress tests for channel disconnect races with real OS threads — the
//! torture-test complement to the exhaustive-but-small loom suites.
//!
//! Covers: senders dropping while the receiver is parked, and the
//! coordinator's idle-disconnect sweep pattern (poll
//! `Sender::is_disconnected` to detect a worker that died without a fault
//! message, then recover the in-flight message from `SendError`).
#![cfg(not(feature = "loom"))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hetero_mq::channel;

/// Repeatedly race N sender-drops against a parked receiver: every message
/// sent before a drop must arrive, and the receiver must always observe
/// the disconnect (a lost wakeup here means this test hangs).
#[test]
fn senders_drop_while_receiver_blocked() {
    let rounds = if cfg!(miri) { 5 } else { 200 };
    for round in 0..rounds {
        let (tx, rx) = channel();
        let sent = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|s| {
                let tx = tx.clone();
                let sent = Arc::clone(&sent);
                thread::spawn(move || {
                    // Odd senders contribute a message; even ones just drop,
                    // so the disconnect races both empty and non-empty
                    // queues.
                    if s % 2 == 1 {
                        tx.send(round).unwrap();
                        sent.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = 0;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, round);
            got += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got, sent.load(Ordering::SeqCst));
    }
}

/// The coordinator's idle-disconnect sweep (engine_threads.rs): a worker
/// that dies without sending a fault is detected by polling
/// `is_disconnected()` on its exec sender, and the batch that was in flight
/// is recovered from the failed send for re-dispatch.
#[test]
fn idle_disconnect_sweep_detects_silently_dead_worker() {
    let (exec_tx, exec_rx) = channel::<u64>();
    let worker = thread::spawn(move || {
        // Worker processes one message, then dies without any fault report.
        let batch = exec_rx.recv().unwrap();
        assert_eq!(batch, 1);
        // exec_rx dropped here == silent death.
    });
    exec_tx.send(1).unwrap();
    worker.join().unwrap();

    // Sweep: poll like the coordinator's recv_timeout arm does.
    let mut swept = false;
    for _ in 0..2000 {
        if exec_tx.is_disconnected() {
            swept = true;
            break;
        }
        thread::sleep(Duration::from_micros(50));
    }
    assert!(swept, "sweep never observed the dead worker");

    // The in-flight batch bounces back for re-dispatch, not into the void.
    let err = exec_tx.send(42).unwrap_err();
    assert_eq!(err.into_inner(), 42);
}

/// High-frequency clone/drop churn on the sender count racing a receiver
/// draining to disconnect — the sender-count protocol must neither report
/// disconnect early (while a sender lives) nor miss it at the end.
#[test]
fn sender_count_churn_never_false_disconnects() {
    let rounds = if cfg!(miri) { 3 } else { 50 };
    let per = if cfg!(miri) { 10 } else { 200 };
    for _ in 0..rounds {
        let (tx, rx) = channel();
        let h = thread::spawn(move || {
            for i in 0..per {
                let t = tx.clone();
                t.send(i).unwrap();
                // Both clones drop continuously; the count must only hit
                // zero after this loop ends.
            }
        });
        let mut got = 0;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, got);
            got += 1;
        }
        assert_eq!(got, per, "disconnect observed before all sends");
        h.join().unwrap();
    }
}
