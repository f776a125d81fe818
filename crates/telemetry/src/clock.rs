//! The time source spans, mailbox stamps and flight frames are stamped
//! with: nanoseconds of monotonic real time since the first call in the
//! process.
//!
//! There is one clock and nothing can replace it, so no two tests (or
//! two servers in one process) share mutable clock state, and a read is
//! one `Instant::elapsed` with no lock in front of it. Simulated device
//! time lives on the flashsim `VirtualClock` each device owns; it prices
//! I/O service and rent and is not what a trace is stamped with.

// The shared clock is the one wall-clock read simulated code may make;
// everything else stamps time through `now_nanos`.
#![allow(clippy::disallowed_types)]

use std::sync::OnceLock;
use std::time::Instant;

/// Current time in nanoseconds: monotonic real time since the first call.
pub fn now_nanos() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
