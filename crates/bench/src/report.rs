//! Reading `BENCH_server.json` back: the slices of the load generator's
//! report (`dcs_server::BenchReport::to_json`) the figure bins consume,
//! navigated by key path through [`Json::parse`].

use dcs_costmodel::miss_service::MissServiceMeasurement;
use dcs_costmodel::mrc_cost::{MrcCurvePoint, MrcMeasured};
use dcs_telemetry::Json;

/// The miss-service measurement of one report.
///
/// `None` when the text is not JSON or a required field is missing or
/// mistyped — e.g. a report from a build predating the async engine.
pub fn parse_bench_server(json: &str) -> Option<MissServiceMeasurement> {
    let doc = Json::parse(json).ok()?;
    let num = |path: &[&str]| doc.at(path)?.as_f64();
    let count = |path: &[&str]| doc.at(path)?.as_u64();
    // Memory-served GET latency lives per shard; take the worst p95.
    let mut hit_p95_us: f64 = 0.0;
    for shard in doc.get("shards_detail").map_or(&[][..], Json::items) {
        hit_p95_us = hit_p95_us.max(shard.at(&["read_latency", "p95_us"])?.as_f64()?);
    }
    Some(MissServiceMeasurement {
        device_latency_nanos: count(&["device_latency_nanos"])?,
        throughput_ops_per_sec: num(&["throughput_ops_per_sec"])?,
        misses: count(&["miss_service", "misses"])?,
        parked_peak: count(&["miss_service", "parked_peak"])?,
        miss_mean_us: num(&["miss_service", "latency", "mean_us"])?,
        miss_p95_us: num(&["miss_service", "latency", "p95_us"])?,
        hit_p95_us,
        io_depth_mean: num(&["io_depth", "mean"])?,
        io_depth_max: count(&["io_depth", "max"])?,
    })
}

/// The per-consumer curves of a report's `mrc` block. `None` when the
/// report has no `mrc` block, it was written with `--mrc off`
/// (`"enabled": false`), or a consumer entry is malformed.
pub fn parse_bench_mrc(json: &str) -> Option<Vec<MrcMeasured>> {
    let doc = Json::parse(json).ok()?;
    let block = doc.get("mrc")?;
    if !block.get("enabled")?.as_bool()? {
        return None;
    }
    let consumer = |c: &Json| {
        let point = |p: &Json| match p.items() {
            [bytes, miss_ratio] => Some(MrcCurvePoint {
                bytes: bytes.as_f64()?,
                miss_ratio: miss_ratio.as_f64()?,
            }),
            _ => None,
        };
        Some(MrcMeasured {
            consumer: c.get("consumer")?.as_str()?.to_string(),
            accesses: c.get("accesses")?.as_u64()?,
            sample_rate: c.get("sample_rate")?.as_f64()?,
            mean_entity_bytes: c.get("mean_entity_bytes")?.as_f64()?,
            points: c
                .get("points")?
                .items()
                .iter()
                .map(point)
                .collect::<Option<_>>()?,
            recommended_bytes: c.get("recommended_bytes")?.as_f64()?,
        })
    };
    block
        .get("consumers")?
        .items()
        .iter()
        .map(consumer)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed-down report with the key names and nesting
    /// `BenchReport::to_json` emits. `ops` comes *before* the top-level
    /// blocks and carries its own `latency`/`mean_us` keys: the reader
    /// navigates by path, so key order and repeated key names are
    /// irrelevant.
    fn doc(miss_mean: f64, miss_p95: f64, depth_mean: f64) -> String {
        format!(
            r#"{{
  "bench": "server",
  "ops": [
    {{"kind": "get", "count": 4000, "busy": 0, "errors": 0, "latency": {{"count": 4000, "mean_us": 90.0, "p50_us": 80.0, "p95_us": 700.0, "p99_us": 900.0, "max_us": 1000.0}}}}
  ],
  "backend": "caching",
  "mode": "open",
  "device_latency_nanos": 400000,
  "throughput_ops_per_sec": 2900.123,
  "shards_detail": [
    {{"shard": 0, "misses": 250, "parked_peak": 8, "read_latency": {{"count": 1700, "mean_us": 50.0, "p50_us": 40.0, "p95_us": 120.0, "p99_us": 150.0, "max_us": 200.0}}, "write_latency": {{"count": 0, "mean_us": 0.0, "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0, "max_us": 0.0}}, "miss_service": {{"count": 250, "mean_us": 1.0, "p50_us": 400.0, "p95_us": 2.0, "p99_us": 5000.0, "max_us": 6000.0}}}},
    {{"shard": 1, "misses": 250, "parked_peak": 5, "read_latency": {{"count": 1700, "mean_us": 55.0, "p50_us": 45.0, "p95_us": 129.0, "p99_us": 160.0, "max_us": 210.0}}, "write_latency": {{"count": 0, "mean_us": 0.0, "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0, "max_us": 0.0}}, "miss_service": {{"count": 250, "mean_us": 1.0, "p50_us": 400.0, "p95_us": 2.0, "p99_us": 5000.0, "max_us": 6000.0}}}}
  ],
  "miss_service": {{"misses": 500, "parked_peak": 8, "latency": {{"count": 500, "mean_us": {miss_mean}, "p50_us": 400.0, "p95_us": {miss_p95}, "p99_us": 5000.0, "max_us": 6000.0}}}},
  "io_depth": {{"samples": 120, "mean": {depth_mean}, "max": 9, "buckets": [[1, 100], [2, 20]]}}
}}
"#
        )
    }

    #[test]
    fn parses_the_report_shape() {
        let m = parse_bench_server(&doc(900.0, 2218.0, 1.276)).unwrap();
        assert_eq!(m.device_latency_nanos, 400_000);
        assert_eq!(m.misses, 500);
        assert_eq!(m.parked_peak, 8);
        // The aggregate block's latency, not the first `mean_us` in the
        // text (the `ops` entry's) nor a shard's.
        assert_eq!(m.miss_mean_us, 900.0);
        assert_eq!(m.miss_p95_us, 2218.0);
        assert_eq!(m.io_depth_mean, 1.276);
        assert_eq!(m.io_depth_max, 9);
        // Worst shard p95, not the first one.
        assert_eq!(m.hit_p95_us, 129.0);
        assert_eq!(m.throughput_ops_per_sec, 2900.123);
    }

    #[test]
    fn rejects_reports_without_the_new_fields() {
        assert!(parse_bench_server("{\"bench\": \"server\"}").is_none());
        assert!(parse_bench_server("not json").is_none());
        // A mistyped field is a rejection, not a silent zero.
        let bad = doc(900.0, 2218.0, 1.276).replace("\"max\": 9", "\"max\": \"9\"");
        assert!(parse_bench_server(&bad).is_none());
    }

    #[test]
    fn parses_the_mrc_block_shape() {
        let doc = r#"{
  "telemetry": {"reconciled": true},
  "mrc": {"enabled": true, "budget_bytes": 262144.0, "flight_out": "F.json", "triggers": ["busy spike"], "consumers": [
    {"consumer": "mrc.record_cache", "accesses": 17929, "sampled": 170, "sample_rate": 0.01, "mean_entity_bytes": 108.0, "points": [[25811.765, 0.808746], [1651952.941, 0.312343]], "marginal": {"value_per_byte": 5.273683e-6, "dram_price_per_byte": 5e-9, "net_per_byte": 5.268683e-6}, "recommended_bytes": 825976.471},
    {"consumer": "mrc.page_cache", "accesses": 17929, "sampled": 60, "sample_rate": 0.01, "mean_entity_bytes": 51200.0, "points": [[51200.0, 0.128284]], "marginal": {"value_per_byte": 0.0, "dram_price_per_byte": 5e-9, "net_per_byte": -5e-9}, "recommended_bytes": 102400.0}
  ]},
  "ops": []
}"#;
        let consumers = parse_bench_mrc(doc).unwrap();
        assert_eq!(consumers.len(), 2);
        assert_eq!(consumers[0].consumer, "mrc.record_cache");
        assert_eq!(consumers[0].accesses, 17_929);
        assert_eq!(consumers[0].points.len(), 2);
        assert_eq!(consumers[0].points[1].bytes, 1_651_952.941);
        assert_eq!(consumers[0].points[1].miss_ratio, 0.312343);
        assert_eq!(consumers[0].recommended_bytes, 825_976.471);
        assert_eq!(consumers[1].consumer, "mrc.page_cache");
        assert_eq!(consumers[1].points.len(), 1);
    }

    #[test]
    fn mrc_block_disabled_or_absent_is_none() {
        assert!(parse_bench_mrc(r#"{"ops": []}"#).is_none());
        let off = r#"{"mrc": {"enabled": false, "budget_bytes": 0.0, "flight_out": "", "triggers": [], "consumers": []}}"#;
        assert!(parse_bench_mrc(off).is_none());
    }
}
