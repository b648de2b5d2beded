//! Model-checking of the blocking channel under `--features loom`: the
//! eventcount-lite sleep/wake handshake (no lost wakeups) and the
//! close/disconnect protocol.
#![cfg(feature = "loom")]

use hetero_mq::{channel, RecvError, TryRecvError};
use loom::thread;

/// The lost-wakeup race: the receiver's empty-check and sleep must not
/// straddle a send. Every interleaving of send vs. park must deliver.
#[test]
fn recv_never_misses_a_send() {
    loom::model(|| {
        let (tx, rx) = channel();
        let h = thread::spawn(move || tx.send(5u32).unwrap());
        assert_eq!(rx.recv(), Ok(5));
        h.join().unwrap();
    });
}

/// Sender dropped while the receiver may already be parked: the last-sender
/// notify must wake it to observe the disconnect (never hang).
#[test]
fn sender_drop_wakes_blocked_receiver() {
    loom::model(|| {
        let (tx, rx) = channel::<u8>();
        let h = thread::spawn(move || drop(tx));
        assert_eq!(rx.recv(), Err(RecvError));
        h.join().unwrap();
    });
}

/// Two senders racing sends against their own drops: both messages arrive,
/// and disconnect is reported only after the drain.
#[test]
fn two_senders_disconnect_after_drain() {
    loom::model(|| {
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        let h1 = thread::spawn(move || tx.send(1u32).unwrap());
        let h2 = thread::spawn(move || tx2.send(2u32).unwrap());
        let a = rx.recv().unwrap();
        let b = rx.recv().unwrap();
        assert_eq!(a + b, 3);
        assert_eq!(rx.recv(), Err(RecvError));
        h1.join().unwrap();
        h2.join().unwrap();
    });
}

/// `try_recv` must never report `Disconnected` while a message is still
/// queued — including the window where the sender pushed and dropped
/// between the receiver's empty-check and its sender-count check (the
/// re-check branch).
#[test]
fn try_recv_reports_disconnect_only_after_drain() {
    loom::model(|| {
        let (tx, rx) = channel();
        let h = thread::spawn(move || tx.send(9u8).unwrap());
        loop {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, 9);
                    break;
                }
                Err(TryRecvError::Empty) => thread::yield_now(),
                Err(TryRecvError::Disconnected) => {
                    panic!("disconnect reported before the queued message drained")
                }
            }
        }
        h.join().unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    });
}
