//! §7-style what-if grounded in measurement: blocking vs polled miss
//! service.
//!
//! The serving layer's load generator emits `BENCH_server.json` with a
//! `miss_service` block (wire-level latency of device-served GETs) and an
//! `io_depth` block (achieved device queue depth). This module *consumes*
//! those measured numbers in the cost model: the ratio of measured miss
//! service time to raw device latency is the queueing expansion a miss
//! suffers on its way through the shard, and it inflates the paper's `R`
//! factor (§2.1) the same way a slow I/O path does in Figure 7. Rendering
//! Figure-1-style relative-performance curves at the sync-measured and
//! async-measured effective `R` shows what the polled engine buys in the
//! model's own currency, not just in latency histograms.
//!
//! Reading the report is `dcs-bench`'s job (`dcs_bench::report`); this
//! module takes the measurement as a value.

use crate::figures::{linspace, Series};
use crate::mixed;

/// The slice of a `BENCH_server.json` document this figure consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct MissServiceMeasurement {
    /// `"sync"` (blocking miss path) or `"async"` (parked-miss path).
    pub miss_mode: String,
    /// Injected device read latency, nanoseconds (`--device-latency`).
    pub device_latency_nanos: u64,
    /// Completed wire operations per second.
    pub throughput_ops_per_sec: f64,
    /// Device-served GETs observed across all shards.
    pub misses: u64,
    /// High-water mark of concurrently parked misses on any shard.
    pub parked_peak: u64,
    /// Mean wire-level latency of a device-served GET, microseconds.
    pub miss_mean_us: f64,
    /// p95 wire-level latency of a device-served GET, microseconds.
    pub miss_p95_us: f64,
    /// Worst per-shard p95 of memory-served GETs, microseconds — the
    /// latency hits pay while misses are in flight on the same shard.
    pub hit_p95_us: f64,
    /// Mean achieved device queue depth while any I/O was outstanding.
    pub io_depth_mean: f64,
    /// Peak achieved device queue depth.
    pub io_depth_max: u64,
}

impl MissServiceMeasurement {
    /// Queueing expansion of a miss: measured mean service time over the
    /// raw device read latency. 1.0 means misses ran at device speed;
    /// a blocking path serving a burst of `k` misses approaches
    /// `(k + 1) / 2`. Falls back to 1.0 when the report carries no
    /// injected latency or no misses.
    pub fn expansion(&self) -> f64 {
        let device_us = self.device_latency_nanos as f64 / 1000.0;
        if device_us <= 0.0 || self.misses == 0 || self.miss_mean_us <= 0.0 {
            return 1.0;
        }
        (self.miss_mean_us / device_us).max(1.0)
    }

    /// The paper's `R` adjusted by the measured queueing expansion:
    /// what an SS operation *actually* cost in this run, relative to an
    /// MM operation, given `r_device` for an unqueued device read.
    pub fn effective_r(&self, r_device: f64) -> f64 {
        r_device * self.expansion()
    }
}

/// Measured sync-over-async improvement on the p95 of miss service.
pub fn p95_speedup(sync: &MissServiceMeasurement, asynch: &MissServiceMeasurement) -> f64 {
    if asynch.miss_p95_us <= 0.0 {
        return 1.0;
    }
    sync.miss_p95_us / asynch.miss_p95_us
}

/// The figure: relative performance vs SS-fraction `F` (Equation 2) at
/// the ideal `R` and at the effective `R` measured under each miss mode.
/// The polled engine's curve sits between the ideal and the blocking
/// curve; the gap at the run's actual `F` is the modelled cost of
/// serving misses one at a time.
pub fn miss_service_curves(
    r_device: f64,
    sync: &MissServiceMeasurement,
    asynch: &MissServiceMeasurement,
    samples: usize,
) -> Vec<Series> {
    let xs = linspace(0.0, 1.0, samples);
    let ideal = r_device;
    let r_sync = sync.effective_r(r_device);
    let r_async = asynch.effective_r(r_device);
    vec![
        Series::sample(format!("ideal device (R = {ideal:.1})"), &xs, move |f| {
            mixed::relative_performance(f, ideal)
        }),
        Series::sample(
            format!("polled miss service (R = {r_async:.1})"),
            &xs,
            move |f| mixed::relative_performance(f, r_async),
        ),
        Series::sample(
            format!("blocking miss service (R = {r_sync:.1})"),
            &xs,
            move |f| mixed::relative_performance(f, r_sync),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement as the report reader would hand it over: a 400 us
    /// device read, 500 misses, the given miss-service latencies.
    fn measured(mode: &str, miss_mean_us: f64, miss_p95_us: f64) -> MissServiceMeasurement {
        MissServiceMeasurement {
            miss_mode: mode.into(),
            device_latency_nanos: 400_000,
            throughput_ops_per_sec: 2900.123,
            misses: 500,
            parked_peak: 8,
            miss_mean_us,
            miss_p95_us,
            hit_p95_us: 129.0,
            io_depth_mean: 1.276,
            io_depth_max: 9,
        }
    }

    #[test]
    fn expansion_inflates_r_for_the_blocking_mode() {
        // Device read is 400 µs; blocking misses averaged 1600 µs
        // (4× queueing expansion), polled misses 480 µs (1.2×).
        let sync = measured("sync", 1600.0, 4503.0);
        let asynch = measured("async", 480.0, 2218.0);
        assert!((sync.expansion() - 4.0).abs() < 1e-9);
        assert!((asynch.expansion() - 1.2).abs() < 1e-9);
        assert!(sync.effective_r(10.0) > asynch.effective_r(10.0));
        assert!(p95_speedup(&sync, &asynch) > 2.0);
    }

    #[test]
    fn curves_order_ideal_above_polled_above_blocking() {
        let sync = measured("sync", 1600.0, 4503.0);
        let asynch = measured("async", 480.0, 2218.0);
        let curves = miss_service_curves(10.0, &sync, &asynch, 21);
        assert_eq!(curves.len(), 3);
        // Skip F = 0 where all three coincide at 1.0.
        for i in 1..21 {
            let (ideal, polled, blocking) = (
                curves[0].points[i].1,
                curves[1].points[i].1,
                curves[2].points[i].1,
            );
            assert!(
                ideal >= polled && polled > blocking,
                "at F = {}: ideal {ideal}, polled {polled}, blocking {blocking}",
                curves[0].points[i].0
            );
        }
    }

    #[test]
    fn zero_injected_latency_degrades_to_the_ideal_curve() {
        let mut m = measured("async", 480.0, 2218.0);
        m.device_latency_nanos = 0;
        assert!((m.expansion() - 1.0).abs() < 1e-9);
        assert!((m.effective_r(9.0) - 9.0).abs() < 1e-9);
    }
}
