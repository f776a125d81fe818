//! A simulated flash SSD for data-caching-system experiments.
//!
//! The paper's analysis ("Cost/Performance in Modern Data Stores", DaMoN'18)
//! was run against a Samsung flash SSD and Intel SPDK user-level I/O. Neither
//! is available here, so this crate provides the closest synthetic
//! equivalent that exercises the same code paths:
//!
//! * **An append-only flash device** ([`FlashDevice`]) with segmented
//!   storage, trim/erase of whole segments (as real flash requires), bounded
//!   capacity, and per-I/O accounting.
//! * **A virtual clock** ([`VirtualClock`]) so IOPS ceilings and access
//!   intervals (the paper's `Ti`) can be modeled deterministically without
//!   real sleeps. The device computes each I/O's *service completion time*
//!   under a single-server queue with rate `max_iops`.
//! * **An I/O execution-path model** ([`IoPathModel`]) that performs real,
//!   calibrated CPU work per I/O. This is what makes the paper's `R` (the
//!   CPU-cost ratio of a secondary-storage operation to a main-memory
//!   operation) *measurable* on this substrate rather than asserted.
//!   [`IoPathKind::OsKernel`] models the conventional syscall path;
//!   [`IoPathKind::UserLevel`] models the SPDK path the paper reports is
//!   about 1/3 shorter (§7.1.1, R dropping from ≈9 to ≈5.8).
//! * **Failure injection** ([`FailureInjector`]) for recovery tests: read
//!   errors and crash-induced torn tails.
//!
//! # Example
//!
//! ```
//! use dcs_flashsim::{DeviceConfig, FlashDevice, IoPathKind};
//!
//! let device = FlashDevice::new(DeviceConfig {
//!     io_path: IoPathKind::UserLevel.model(),
//!     ..DeviceConfig::small_test()
//! });
//! let addr = device.append(b"hello page").unwrap();
//! let back = device.read(addr, 10).unwrap();
//! assert_eq!(&back, b"hello page");
//! assert_eq!(device.stats().reads, 1);
//! ```

mod checksum;
mod clock;
mod config;
mod device;
mod engine;
mod inject;
mod path;
mod stats;
mod sync;

pub use checksum::fnv64;
pub use clock::VirtualClock;
pub use config::DeviceConfig;
pub use device::{DeviceError, FlashAddress, FlashDevice, SegmentId};
pub use engine::{IoCompletion, IoQueuePair, IoRequest, IoTicket, SubmitError};
pub use inject::FailureInjector;
pub use path::{calibrate_work_rate, do_cpu_work, IoPathKind, IoPathModel};
pub use stats::DeviceStats;
// The io-depth histogram is the workspace-shared implementation; the old
// linear-bucket `IoDepthStats` local copy is gone.
pub use dcs_telemetry::HistogramSnapshot as IoDepthSnapshot;

/// Nanoseconds, the unit of the virtual clock.
pub type Nanos = u64;

/// Convenience: seconds → virtual nanoseconds.
pub fn secs(s: f64) -> Nanos {
    (s * 1e9) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_conversion() {
        assert_eq!(secs(1.0), 1_000_000_000);
        assert_eq!(secs(0.5), 500_000_000);
        assert_eq!(secs(0.0), 0);
    }
}
