//! A shared virtual clock.

use crate::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically non-decreasing virtual clock, shared by a device and its
/// clients.
///
/// The clock is advanced *explicitly* by workload drivers: simulated
/// experiments step it by the inter-arrival time of operations (e.g. to model
/// a page accessed every `Ti` seconds) and the device moves it forward when a
/// blocking I/O completes. Using virtual time keeps the paper's breakeven
/// analysis — intervals of 45 seconds and more — runnable in milliseconds of
/// wall-clock time, deterministically.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A new clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now.load(Ordering::SeqCst)
    }

    /// Advance the clock by `delta` nanoseconds, returning the new time.
    pub fn advance(&self, delta: Nanos) -> Nanos {
        self.now.fetch_add(delta, Ordering::SeqCst) + delta
    }

    /// Move the clock forward to at least `target`. Never moves backward.
    /// Returns the (possibly larger) resulting time.
    pub fn advance_to(&self, target: Nanos) -> Nanos {
        let mut cur = self.now.load(Ordering::SeqCst);
        while cur < target {
            match self
                .now
                .compare_exchange_weak(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return target,
                Err(actual) => cur = actual,
            }
        }
        cur
    }

    /// Current virtual time in (fractional) seconds.
    pub fn now_secs(&self) -> f64 {
        self.now() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(10), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::new();
        c.advance_to(100);
        assert_eq!(c.now(), 100);
        // Backward target is a no-op.
        assert_eq!(c.advance_to(50), 100);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    fn concurrent_advance_to_is_max() {
        let c = VirtualClock::new();
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..1000u64 {
                    c.advance_to(i * 1000 + j);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 7 * 1000 + 999);
    }

    #[test]
    fn now_secs_scales() {
        let c = VirtualClock::new();
        c.advance(1_500_000_000);
        assert!((c.now_secs() - 1.5).abs() < 1e-12);
    }
}
