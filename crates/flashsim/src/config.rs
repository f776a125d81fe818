//! Device configuration.

use crate::path::IoPathModel;
use crate::Nanos;

/// Configuration of a simulated flash device.
///
/// Defaults model the paper's drive: a 0.5 TB Samsung flash SSD rated at
/// 2·10⁵ IOPS with ~80 µs read latency (§4.1). Capacity is expressed in
/// erase segments because flash is trimmed in segment units; the
/// log-structured store above allocates and garbage-collects whole segments.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Size of one erase segment in bytes.
    pub segment_bytes: usize,
    /// Number of segments the device can hold (capacity = product).
    pub segment_count: usize,
    /// Device-side latency of a read I/O (virtual time).
    pub read_latency: Nanos,
    /// Device-side latency of a write I/O (virtual time).
    pub write_latency: Nanos,
    /// Maximum I/O operations per second the device can service. Models the
    /// single-server queue the paper's IOPS term comes from.
    pub max_iops: f64,
    /// CPU cost of the host I/O execution path, charged per I/O.
    pub io_path: IoPathModel,
    /// Whether blocking reads advance the shared virtual clock to the I/O
    /// completion time. Disable for pure CPU-cost measurements where the
    /// clock is driven externally.
    pub advance_clock_on_io: bool,
    /// Device submission-queue depth: the most read I/Os one
    /// [`crate::IoQueuePair`] may have in flight. Submissions past this
    /// bound are refused with [`crate::SubmitError::QueueFull`]; callers
    /// fall back to blocking (the bounded-SQ degradation mode).
    pub queue_depth: usize,
    /// *Wall-clock* latency of a read I/O, in nanoseconds (0 = none).
    ///
    /// The virtual clock models cost accounting; this knob additionally
    /// delays completion visibility in real time, so experiments about
    /// *overlap* (does a slow miss block unrelated work?) observe genuine
    /// concurrency. Blocking reads sleep it; async completions only become
    /// pollable once it has elapsed.
    pub wall_read_latency: Nanos,
}

impl DeviceConfig {
    /// The paper's §4.1 drive: 0.5 TB, 200 K IOPS. Segment size 4 MiB.
    pub fn paper_ssd() -> Self {
        DeviceConfig {
            segment_bytes: 4 << 20,
            segment_count: 128 * 1024, // 512 GiB
            read_latency: 80_000,      // 80 µs
            write_latency: 100_000,
            max_iops: 2.0e5,
            io_path: IoPathModel::default(),
            advance_clock_on_io: true,
            queue_depth: 32,
            wall_read_latency: 0,
        }
    }

    /// A small device for unit tests: 64 segments of 64 KiB.
    pub fn small_test() -> Self {
        DeviceConfig {
            segment_bytes: 64 << 10,
            segment_count: 64,
            read_latency: 1_000,
            write_latency: 1_000,
            max_iops: 1.0e6,
            io_path: crate::path::IoPathKind::Free.model(),
            advance_clock_on_io: true,
            queue_depth: 8,
            wall_read_latency: 0,
        }
    }

    /// Total device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.segment_bytes as u64 * self.segment_count as u64
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::paper_ssd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ssd_capacity_is_half_tb() {
        let c = DeviceConfig::paper_ssd();
        assert_eq!(c.capacity_bytes(), 512 << 30);
    }

    #[test]
    fn small_test_is_small() {
        let c = DeviceConfig::small_test();
        assert_eq!(c.capacity_bytes(), 4 << 20);
    }
}
