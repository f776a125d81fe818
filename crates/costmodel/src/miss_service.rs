//! §7-style what-if grounded in measurement: polled miss service.
//!
//! The serving layer's load generator emits `BENCH_server.json` with a
//! `miss_service` block (wire-level latency of device-served GETs) and an
//! `io_depth` block (achieved device queue depth). This module *consumes*
//! those measured numbers in the cost model: the ratio of measured miss
//! service time to raw device latency is the queueing expansion a miss
//! suffers on its way through the shard, and it inflates the paper's `R`
//! factor (§2.1) the same way a slow I/O path does in Figure 7. Rendering
//! Figure-1-style relative-performance curves at the ideal and the
//! measured effective `R` shows what the served miss path costs in the
//! model's own currency, not just in latency histograms.
//!
//! Reading the report is `dcs-bench`'s job (`dcs_bench::report`); this
//! module takes the measurement as a value.

use crate::figures::{linspace, Series};
use crate::mixed;

/// The slice of a `BENCH_server.json` document this figure consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct MissServiceMeasurement {
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
    /// serving a burst of `k` misses one at a time would approach
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

/// The figure: relative performance vs SS-fraction `F` (Equation 2) at
/// the ideal `R` and at the effective `R` the measurement implies. The
/// gap at the run's actual `F` is the modelled cost of the queueing a
/// miss met on its way through the shard.
pub fn miss_service_curves(
    r_device: f64,
    m: &MissServiceMeasurement,
    samples: usize,
) -> Vec<Series> {
    let xs = linspace(0.0, 1.0, samples);
    let ideal = r_device;
    let polled = m.effective_r(r_device);
    vec![
        Series::sample(format!("ideal device (R = {ideal:.1})"), &xs, move |f| {
            mixed::relative_performance(f, ideal)
        }),
        Series::sample(
            format!("polled miss service (R = {polled:.1})"),
            &xs,
            move |f| mixed::relative_performance(f, polled),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement as the report reader would hand it over: a 400 us
    /// device read, 500 misses, the given mean miss-service latency.
    fn measured(miss_mean_us: f64) -> MissServiceMeasurement {
        MissServiceMeasurement {
            device_latency_nanos: 400_000,
            throughput_ops_per_sec: 2900.123,
            misses: 500,
            parked_peak: 8,
            miss_mean_us,
            miss_p95_us: 2218.0,
            hit_p95_us: 129.0,
            io_depth_mean: 1.276,
            io_depth_max: 9,
        }
    }

    #[test]
    fn expansion_inflates_r_by_the_measured_queueing() {
        // Device read is 400 µs; misses averaged 480 µs end to end.
        let m = measured(480.0);
        assert!((m.expansion() - 1.2).abs() < 1e-9);
        assert!((m.effective_r(10.0) - 12.0).abs() < 1e-9);
        // A miss cannot be served faster than the device reads.
        assert!((measured(300.0).expansion() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_curve_bounds_the_polled_curve() {
        for mean in [400.0, 480.0, 1600.0] {
            let curves = miss_service_curves(10.0, &measured(mean), 21);
            assert_eq!(curves.len(), 2);
            // Skip F = 0 where both coincide at 1.0.
            for i in 1..21 {
                let (ideal, polled) = (curves[0].points[i].1, curves[1].points[i].1);
                assert!(
                    ideal >= polled,
                    "mean {mean} us at F = {}: ideal {ideal}, polled {polled}",
                    curves[0].points[i].0
                );
            }
        }
    }

    #[test]
    fn zero_injected_latency_degrades_to_the_ideal_curve() {
        let mut m = measured(480.0);
        m.device_latency_nanos = 0;
        assert!((m.expansion() - 1.0).abs() < 1e-9);
        assert!((m.effective_r(9.0) - 9.0).abs() < 1e-9);
    }
}
