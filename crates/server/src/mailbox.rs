//! Bounded MPSC mailboxes with explicit backpressure.
//!
//! Each shard owns one [`Mailbox`]. Senders (connection readers) never
//! block: past the capacity high-water mark [`Mailbox::send`] returns
//! [`SendError::Busy`] and the connection answers the client with a BUSY
//! frame instead of queueing unboundedly — overload is pushed back to the
//! client, where an open-loop load generator can observe it, rather than
//! hidden in growing queues and timeouts.
//!
//! The acceptance contract the `dcs-check` scenario verifies: once `send`
//! returns `Ok`, the item **will** be drained — [`Mailbox::close`] stops new
//! arrivals but [`Mailbox::recv_batch`] keeps returning queued items until
//! the mailbox is empty, and only then reports termination.

use crate::sync::Mutex;
use std::collections::VecDeque;

/// Why a send was refused. The item is handed back in both cases.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The queue is at capacity; the receiver is not keeping up. Explicit
    /// backpressure — the caller should answer BUSY, not wait.
    Busy(T),
    /// The mailbox was closed (server shutting down).
    Closed(T),
}

impl<T> SendError<T> {
    /// The rejected item.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Busy(t) | SendError::Closed(t) => t,
        }
    }
}

/// Counters for one mailbox's lifetime. The queue-depth distribution is
/// the shared [`dcs_telemetry`] histogram (one sample per accepted item,
/// recording the depth it landed at) — this struct used to track only a
/// hand-rolled high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Items accepted by `send`.
    pub accepted: u64,
    /// Items handed to the receiver.
    pub drained: u64,
    /// Sends refused with `Busy`.
    pub rejected_busy: u64,
    /// Sends refused with `Closed`.
    pub rejected_closed: u64,
    /// Queue-depth distribution, sampled at each accept.
    pub depth: dcs_telemetry::HistogramSnapshot,
}

impl MailboxStats {
    /// Deepest queue observed at any accept.
    pub fn depth_high_water(&self) -> usize {
        self.depth.max as usize
    }
}

#[derive(Default)]
struct Counters {
    accepted: u64,
    drained: u64,
    rejected_busy: u64,
    rejected_closed: u64,
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    stats: Counters,
}

/// A bounded multi-producer queue drained in batches by one shard worker.
pub struct Mailbox<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    /// Depth-at-accept samples. Atomic (outside the queue mutex's state)
    /// but recorded under the lock so each sample matches one accept.
    depth: dcs_telemetry::Histogram,
    #[cfg(not(feature = "check"))]
    notempty: std::sync::Condvar,
}

impl<T> Mailbox<T> {
    /// A mailbox refusing sends past `capacity` queued items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        Mailbox {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
                stats: Counters::default(),
            }),
            capacity,
            depth: dcs_telemetry::Histogram::new(),
            #[cfg(not(feature = "check"))]
            notempty: std::sync::Condvar::new(),
        }
    }

    /// Enqueue without blocking. `Ok` is an acceptance guarantee: the item
    /// will be drained even if the mailbox closes immediately after.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            inner.stats.rejected_closed += 1;
            return Err(SendError::Closed(item));
        }
        if inner.queue.len() >= self.capacity {
            inner.stats.rejected_busy += 1;
            return Err(SendError::Busy(item));
        }
        inner.queue.push_back(item);
        inner.stats.accepted += 1;
        self.depth.record(inner.queue.len() as u64);
        drop(inner);
        #[cfg(not(feature = "check"))]
        self.notempty.notify_one();
        Ok(())
    }

    /// Drain up to `max` items into `out`, blocking while the mailbox is
    /// open and empty. Returns `false` only when the mailbox is closed
    /// **and** fully drained — the receiver's signal to flush and exit.
    pub fn recv_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        debug_assert!(max > 0);
        // Normal build: park on the condvar. Check build: the scheduler
        // serializes threads, so park would deadlock — spin cooperatively,
        // each iteration a schedule point.
        #[cfg(not(feature = "check"))]
        {
            // A poisoned mailbox means a sibling shard thread already
            // aborted; crash loudly rather than serve from a torn queue.
            let mut inner = self.inner.lock().unwrap();
            loop {
                if !inner.queue.is_empty() {
                    Self::take(&mut inner, max, out);
                    return true;
                }
                if inner.closed {
                    return false;
                }
                // The idle park: `Shard::run` calls this only with no miss
                // parked, and outside its non-blocking scope.
                inner = dcs_syncshim::block::wait(&self.notempty, inner).unwrap();
            }
        }
        #[cfg(feature = "check")]
        loop {
            {
                let mut inner = self.inner.lock().unwrap();
                if !inner.queue.is_empty() {
                    Self::take(&mut inner, max, out);
                    return true;
                }
                if inner.closed {
                    return false;
                }
            }
            crate::sync::yield_thread();
        }
    }

    /// Drain up to `max` items without blocking. Returns `true` if the
    /// mailbox can still produce items later (open, or closed but
    /// non-empty).
    pub fn try_recv_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if !inner.queue.is_empty() {
            Self::take(&mut inner, max, out);
        }
        !(inner.closed && inner.queue.is_empty())
    }

    fn take(inner: &mut Inner<T>, max: usize, out: &mut Vec<T>) {
        let n = inner.queue.len().min(max);
        out.extend(inner.queue.drain(..n));
        inner.stats.drained += n as u64;
    }

    /// Stop accepting new items. Already-accepted items remain and will be
    /// drained; receivers observe termination only once the queue is empty.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        #[cfg(not(feature = "check"))]
        self.notempty.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity (backpressure high-water mark).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MailboxStats {
        let inner = self.inner.lock().unwrap();
        MailboxStats {
            accepted: inner.stats.accepted,
            drained: inner.stats.drained,
            rejected_busy: inner.stats.rejected_busy,
            rejected_closed: inner.stats.rejected_closed,
            depth: self.depth.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let mb = Mailbox::new(8);
        for i in 0..5 {
            mb.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(mb.recv_batch(16, &mut out));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn busy_past_high_water() {
        let mb = Mailbox::new(2);
        mb.send(1).unwrap();
        mb.send(2).unwrap();
        assert_eq!(mb.send(3), Err(SendError::Busy(3)));
        assert_eq!(mb.stats().rejected_busy, 1);
        // Draining frees capacity again.
        let mut out = Vec::new();
        mb.try_recv_batch(1, &mut out);
        mb.send(3).unwrap();
    }

    #[test]
    fn close_refuses_new_but_drains_accepted() {
        let mb = Mailbox::new(4);
        mb.send("a").unwrap();
        mb.send("b").unwrap();
        mb.close();
        assert_eq!(mb.send("c"), Err(SendError::Closed("c")));
        let mut out = Vec::new();
        assert!(mb.recv_batch(1, &mut out), "accepted items still drain");
        assert!(mb.recv_batch(1, &mut out));
        assert!(!mb.recv_batch(1, &mut out), "then terminal");
        assert_eq!(out, vec!["a", "b"]);
        let s = mb.stats();
        assert_eq!(s.accepted, s.drained);
    }

    #[test]
    fn batch_size_respected() {
        let mb = Mailbox::new(64);
        for i in 0..10 {
            mb.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(mb.recv_batch(4, &mut out));
        assert_eq!(out.len(), 4);
        assert_eq!(mb.len(), 6);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let mb = Arc::new(Mailbox::new(4));
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            assert!(mb2.recv_batch(8, &mut out));
            out
        });
        // Give the receiver a chance to park first.
        dcs_syncshim::block::sleep(std::time::Duration::from_millis(10));
        mb.send(7u32).unwrap();
        assert_eq!(t.join().unwrap(), vec![7]);
    }

    #[test]
    fn blocking_recv_wakes_on_close() {
        let mb = Arc::new(Mailbox::<u32>::new(4));
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            mb2.recv_batch(8, &mut out)
        });
        dcs_syncshim::block::sleep(std::time::Duration::from_millis(10));
        mb.close();
        assert!(!t.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = Mailbox::<u8>::new(0);
    }
}
