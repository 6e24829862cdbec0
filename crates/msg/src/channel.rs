//! A small MPMC channel (Mutex + Condvar over a `VecDeque` ring
//! buffer), replacing the crossbeam dependency under the hermetic build
//! policy (DESIGN.md).
//!
//! Only the surface the message-passing substrate needs: unbounded
//! `send`, blocking `recv_timeout`, cloneable senders *and* receivers,
//! and disconnect detection on both sides. Each simulated rank owns one
//! receiver and a clone of every rank's sender, so contention is one
//! uncontended lock per message in the common case.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The channel failed because every [`Receiver`] was dropped; the
/// unsent value is returned.
#[derive(Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a channel with no receivers")
    }
}

/// Why a blocking receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with the queue empty.
    Timeout,
    /// Every [`Sender`] was dropped and the queue is drained.
    Disconnected,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
            RecvTimeoutError::Disconnected => write!(f, "channel senders disconnected"),
        }
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

/// The sending half; clone freely across threads.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half; clone for MPMC consumption.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// An unbounded MPMC channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        inner: Mutex::new(Inner { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        ready: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks. Fails only when every receiver is
    /// gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.chan.inner.lock().unwrap();
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.chan.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.inner.lock().unwrap().senders += 1;
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.chan.inner.lock().unwrap();
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            // Wake receivers so they observe the disconnect.
            self.chan.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.chan.inner.lock().unwrap();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self.chan.ready.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.inner.lock().unwrap().receivers += 1;
        Receiver { chan: self.chan.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.inner.lock().unwrap().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        let t = Duration::from_secs(1);
        assert_eq!(rx.recv_timeout(t).unwrap(), 1);
        assert_eq!(rx.recv_timeout(t).unwrap(), 2);
        assert_eq!(rx.recv_timeout(t).unwrap(), 3);
    }

    #[test]
    fn recv_times_out_when_empty() {
        let (_tx, rx) = channel::<u32>();
        let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
    }

    #[test]
    fn recv_reports_disconnect_after_drain() {
        let (tx, rx) = channel();
        tx.send(7).unwrap();
        drop(tx);
        let t = Duration::from_secs(1);
        assert_eq!(rx.recv_timeout(t).unwrap(), 7);
        assert_eq!(rx.recv_timeout(t).unwrap_err(), RecvTimeoutError::Disconnected);
    }

    #[test]
    fn send_fails_with_no_receivers() {
        let (tx, rx) = channel();
        drop(rx);
        assert_eq!(tx.send(9).unwrap_err(), SendError(9));
    }

    #[test]
    fn cloned_senders_feed_one_receiver() {
        let (tx, rx) = channel();
        let n = 8;
        let per = 500;
        std::thread::scope(|s| {
            for t in 0..n {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        tx.send(t * per + i).unwrap();
                    }
                });
            }
            drop(tx);
            let mut got = Vec::with_capacity(n * per);
            loop {
                match rx.recv_timeout(Duration::from_secs(5)) {
                    Ok(v) => got.push(v),
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => panic!("starved"),
                }
            }
            got.sort_unstable();
            assert_eq!(got, (0..n * per).collect::<Vec<_>>());
        });
    }

    #[test]
    fn cloned_receivers_partition_the_stream() {
        let (tx, rx) = channel();
        let rx2 = rx.clone();
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let drain = |r: Receiver<i32>| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = r.recv_timeout(Duration::from_millis(200)) {
                    got.push(v);
                }
                got
            })
        };
        let (a, b) = (drain(rx), drain(rx2));
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_receiver_wakes_on_send() {
        let (tx, rx) = channel();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(99u32).unwrap();
        assert_eq!(h.join().unwrap(), 99);
    }
}
