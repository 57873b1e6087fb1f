//! A bounded multi-producer single-consumer channel bridging arrival
//! feeders (any thread) to the service driver's thread.
//!
//! Both halves are plain blocking code over one mutex and two condition
//! variables. On the send side [`Sender::try_send`] reports a full queue
//! instead of blocking and [`Sender::send`] blocks with backpressure. On
//! the receive side [`Receiver::try_recv`] reports an empty queue and
//! [`Receiver::recv`] blocks until a value or the close — the driver's
//! one wait ("the next arrival"). Nothing is ever dropped silently: a
//! rejected send hands the value back to the caller, who decides (and
//! accounts for) its fate.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct Inner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when space frees up (blocking sends) or the receiver
    /// drops.
    space: Condvar,
    /// Signalled when a value is queued (blocking receives) or the last
    /// sender drops.
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect("channel poisoned")
    }
}

/// Why a send did not enqueue; the value comes back either way.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The queue is at capacity (only from [`Sender::try_send`]).
    Full(T),
    /// The receiver is gone; the channel will never drain.
    Closed(T),
}

/// The producing half; clonable across feeder threads.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half, owned by the service driver.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel holding at most `capacity` in-flight values.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receiver_alive: true,
        }),
        space: Condvar::new(),
        ready: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueues without blocking; a full queue returns the value so the
    /// caller can apply its own overflow policy.
    pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        if !inner.receiver_alive {
            return Err(SendError::Closed(value));
        }
        if inner.queue.len() >= inner.capacity {
            return Err(SendError::Full(value));
        }
        inner.queue.push_back(value);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Enqueues, blocking (backpressure) while the queue is full. Fails
    /// only when the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        loop {
            if !inner.receiver_alive {
                return Err(SendError::Closed(value));
            }
            if inner.queue.len() < inner.capacity {
                inner.queue.push_back(value);
                self.shared.ready.notify_one();
                return Ok(());
            }
            inner = self.shared.space.wait(inner).expect("channel poisoned");
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.senders -= 1;
        if inner.senders == 0 {
            // The receiver must observe the close and finish draining.
            self.shared.ready.notify_one();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues without waiting. `None` means "empty right now", not
    /// necessarily closed — pair with [`Receiver::is_closed`].
    pub fn try_recv(&mut self) -> Option<T> {
        let v = self.shared.lock().queue.pop_front();
        if v.is_some() {
            self.shared.space.notify_one();
        }
        v
    }

    /// True when every sender is gone *and* the queue is drained.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        let inner = self.shared.lock();
        inner.senders == 0 && inner.queue.is_empty()
    }

    /// Values currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks for the next value; `None` once the channel is closed and
    /// drained.
    pub fn recv(&mut self) -> Option<T> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                self.shared.space.notify_one();
                return Some(v);
            }
            if inner.senders == 0 {
                return None;
            }
            inner = self.shared.ready.wait(inner).expect("channel poisoned");
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
        // Release every sender blocked on backpressure.
        self.shared.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn try_send_reports_full_and_returns_the_value() {
        let (tx, mut rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(SendError::Full(3)));
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn recv_resolves_none_after_close() {
        let (tx, mut rx) = bounded::<u32>(4);
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn blocking_send_applies_backpressure_across_threads() {
        let (tx, mut rx) = bounded::<u32>(1);
        std::thread::scope(|s| {
            let feeder = s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                got.push(v);
            }
            feeder.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn send_to_dropped_receiver_fails_instead_of_hanging() {
        let (tx, rx) = bounded::<u32>(1);
        tx.try_send(0).unwrap(); // fill it so a blocking send would wait
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError::Closed(1)));
        assert_eq!(tx.try_send(2), Err(SendError::Closed(2)));
    }

    #[test]
    fn send_from_another_thread_wakes_a_blocked_recv() {
        // `tx` outlives the wait, so the close cannot be what wakes it.
        let (tx, mut rx) = bounded::<u32>(1);
        let feeder = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20)); // let the receiver park
                feeder.send(9).unwrap();
            });
            assert_eq!(rx.recv(), Some(9));
        });
    }

    #[test]
    fn last_sender_dropping_wakes_a_blocked_recv_with_none() {
        let (tx, mut rx) = bounded::<u32>(1);
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20)); // let the receiver park
                drop(tx);
                drop(tx2);
            });
            assert_eq!(rx.recv(), None);
        });
    }
}
