//! Per-shard serving metrics: op counts, batch sizes, queue depth, and
//! latency histograms with percentile extraction.
//!
//! The latency histogram is the workspace-shared
//! [`dcs_telemetry::Histogram`] — this module used to carry its own
//! power-of-two copy, one of the two duplicates `dcs-telemetry`
//! replaced. Recording is one atomic increment; percentile queries
//! interpolate within the winning bucket and clamp to the observed max
//! (the bias fix lives in the shared crate, pinned there against an
//! exact-sorted reference).

use dcs_telemetry::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The shared histogram, recording nanoseconds here.
pub use dcs_telemetry::Histogram as LatencyHistogram;

/// Live counters for one shard. All fields are updated by the shard worker
/// and its feeding connections; `snapshot` is safe any time.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Reads (GET) served.
    pub gets: AtomicU64,
    /// Of `gets`, those a connection reader answered from memory without
    /// the mailbox.
    pub inline_gets: AtomicU64,
    /// Upserts (PUT) applied.
    pub puts: AtomicU64,
    /// Deletes applied.
    pub deletes: AtomicU64,
    /// Scans served.
    pub scans: AtomicU64,
    /// Read-modify-writes applied.
    pub rmws: AtomicU64,
    /// Requests refused with BUSY at this shard's mailbox.
    pub busy_rejections: AtomicU64,
    /// Requests answered `MOVED` because the current partition map says
    /// another shard owns (or is receiving) the key.
    pub moved_redirects: AtomicU64,
    /// Batches drained from the mailbox.
    pub batches: AtomicU64,
    /// Operations across all drained batches.
    pub batched_ops: AtomicU64,
    /// Largest single batch.
    pub max_batch: AtomicUsize,
    /// Group commits issued (one WAL flush each).
    pub group_commits: AtomicU64,
    /// Write records carried by those group commits.
    pub group_committed_records: AtomicU64,
    /// GETs that missed the cache and went to the device (async submit
    /// returned a pending token).
    pub misses_submitted: AtomicU64,
    /// Most misses parked concurrently (0 for a store with no async
    /// handle, which never parks).
    pub parked_peak: AtomicUsize,
    /// Read-class latency (GET/SCAN), mailbox entry (decode, for a GET a
    /// connection reader answered) to reply.
    pub read_latency: LatencyHistogram,
    /// Write-class latency (PUT/DELETE/RMW), mailbox-entry to reply — this
    /// includes the group-commit flush wait.
    pub write_latency: LatencyHistogram,
    /// Miss-service latency: mailbox-entry to reply for GETs that needed a
    /// device fetch. `read_latency` keeps only the memory-served requests,
    /// so the two histograms are the paper's hit vs. miss split.
    pub miss_latency: LatencyHistogram,
}

/// Point-in-time copy of a shard's counters and latency histograms
/// (mergeable across shards before summarizing).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSnapshot {
    /// GETs served.
    pub gets: u64,
    /// PUTs applied.
    pub puts: u64,
    /// Deletes applied.
    pub deletes: u64,
    /// Scans served.
    pub scans: u64,
    /// RMWs applied.
    pub rmws: u64,
    /// BUSY rejections at the mailbox.
    pub busy_rejections: u64,
    /// Requests answered `MOVED` (stale-routed under the current map).
    pub moved_redirects: u64,
    /// Batches drained.
    pub batches: u64,
    /// Ops across drained batches.
    pub batched_ops: u64,
    /// Largest batch.
    pub max_batch: usize,
    /// Mailbox depth high-water mark.
    pub depth_high_water: usize,
    /// Group commits (WAL flushes).
    pub group_commits: u64,
    /// Records across group commits.
    pub group_committed_records: u64,
    /// GETs that went to the device.
    pub misses: u64,
    /// Most misses parked concurrently.
    pub parked_peak: usize,
    /// Read-class latency (memory-served requests only).
    pub read_latency: HistogramSnapshot,
    /// Write-class latency.
    pub write_latency: HistogramSnapshot,
    /// Miss-service latency (device-served GETs).
    pub miss_latency: HistogramSnapshot,
}

impl ShardMetrics {
    /// Mean ops per drained batch.
    pub fn mean_batch(&self) -> f64 {
        let b = self.batches.load(Ordering::Relaxed);
        if b == 0 {
            0.0
        } else {
            self.batched_ops.load(Ordering::Relaxed) as f64 / b as f64
        }
    }

    /// Copy the counters out (depth high-water supplied by the mailbox).
    pub fn snapshot(&self, depth_high_water: usize) -> ShardSnapshot {
        ShardSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            rmws: self.rmws.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            moved_redirects: self.moved_redirects.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_ops: self.batched_ops.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            depth_high_water,
            group_commits: self.group_commits.load(Ordering::Relaxed),
            group_committed_records: self.group_committed_records.load(Ordering::Relaxed),
            misses: self.misses_submitted.load(Ordering::Relaxed),
            parked_peak: self.parked_peak.load(Ordering::Relaxed),
            read_latency: self.read_latency.snapshot(),
            write_latency: self.write_latency.snapshot(),
            miss_latency: self.miss_latency.snapshot(),
        }
    }
}

impl ShardSnapshot {
    /// All operations executed by this shard.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.puts + self.deletes + self.scans + self.rmws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_order_and_bound() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000); // 1 µs .. 1 ms
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p50_nanos <= s.p95_nanos && s.p95_nanos <= s.p99_nanos);
        assert!(s.p99_nanos <= s.max_nanos as f64);
        assert_eq!(s.max_nanos, 1_000_000);
        // p50 of a uniform 1µs..1ms spread lands around 500µs; power-of-two
        // buckets bound the error to the bucket width.
        assert!(
            (260_000.0..=1_000_000.0).contains(&s.p50_nanos),
            "p50 {}",
            s.p50_nanos
        );
    }

    #[test]
    fn shard_snapshot_totals() {
        let m = ShardMetrics::default();
        m.gets.store(5, Ordering::Relaxed);
        m.puts.store(3, Ordering::Relaxed);
        m.rmws.store(2, Ordering::Relaxed);
        let s = m.snapshot(7);
        assert_eq!(s.total_ops(), 10);
        assert_eq!(s.depth_high_water, 7);
    }
}
