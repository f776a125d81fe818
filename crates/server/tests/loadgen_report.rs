//! The `loadgen` binary's report, read the way its consumers read it: one
//! small open-loop run with a cold cache, MRC curves and span tracing on,
//! then every key path CI's gates and `dcs_bench::report` navigate.

use dcs_telemetry::Json;
use std::process::Command;

#[test]
fn report_carries_every_key_path_its_readers_navigate() {
    let dir = std::env::temp_dir().join(format!("dcs-loadgen-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .current_dir(&dir)
        .args(
            "--backend caching --mode open --rate 5000 --ops 3000 --records 4000 \
             --shards 2 --workload c --memory-budget 65536 --mrc on \
             --trace-sample 10 --trace-out T --flight-out F --out R"
                .split_whitespace(),
        )
        .output()
        .expect("run loadgen");
    assert!(
        out.status.success(),
        "loadgen exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        Json::parse(&text).unwrap_or_else(|e| panic!("{name} is not JSON: {e:?}"))
    };
    let (doc, trace, flight) = (read("R"), read("T"), read("F"));
    std::fs::remove_dir_all(&dir).ok();

    let num = |path: &[&str]| {
        doc.at(path)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no number at {path:?}"))
    };
    for path in [
        &["throughput_ops_per_sec"][..],
        &["ops_completed"],
        &["device_latency_nanos"],
        &["io_depth", "mean"],
        &["io_depth", "max"],
        &["miss_service", "parked_peak"],
        &["miss_service", "latency", "count"],
        &["miss_service", "latency", "mean_us"],
        &["miss_service", "latency", "p95_us"],
        &["placement", "map_epoch"],
        &["placement", "moves"],
        &["placement", "splits"],
        &["placement", "migrated_records"],
        &["placement", "moved_redirects"],
        &["placement", "shard_op_spread"],
        &["telemetry", "sampling_permille"],
        &["telemetry", "trace_dropped_spans"],
        &["telemetry", "spans", "roots_seen"],
        &["telemetry", "spans", "roots_sampled"],
        &["telemetry", "cost_counts", "mm_ops"],
        &["telemetry", "cost_counts", "wal_barriers"],
    ] {
        num(path);
    }
    assert_eq!(num(&["verification", "missing_keys"]), 0.0);
    assert!(num(&["miss_service", "misses"]) > 0.0);
    assert_eq!(
        doc.at(&["placement", "rebalance_enabled"]),
        Some(&Json::Bool(false))
    );
    assert_eq!(
        doc.at(&["telemetry", "cost_attribution", "reconciled_within_10pct"]),
        Some(&Json::Bool(true))
    );
    assert!(matches!(
        doc.at(&["io_depth", "buckets"]),
        Some(Json::Arr(_))
    ));

    let items = |key: &str| doc.get(key).map_or(&[][..], Json::items);
    assert_eq!(items("shards_detail").len(), 2);
    for shard in items("shards_detail") {
        assert!(shard.at(&["read_latency", "p95_us"]).is_some());
    }
    let kinds: Vec<_> = items("ops")
        .iter()
        .map(|o| o.get("kind").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(kinds, ["get", "put", "rmw", "scan"]);
    for op in items("ops") {
        for key in ["count", "busy", "errors"] {
            assert!(op.get(key).and_then(Json::as_u64).is_some(), "{op}");
        }
        assert!(op.at(&["latency", "p95_us"]).is_some(), "{op}");
    }

    assert_eq!(doc.at(&["mrc", "enabled"]), Some(&Json::Bool(true)));
    let consumers = doc.at(&["mrc", "consumers"]).map_or(&[][..], Json::items);
    for c in consumers {
        for key in [
            "accesses",
            "sample_rate",
            "mean_entity_bytes",
            "recommended_bytes",
        ] {
            assert!(c.get(key).and_then(Json::as_f64).is_some(), "{c}");
        }
        assert!(matches!(c.get("points"), Some(Json::Arr(_))), "{c}");
    }
    let names: Vec<_> = consumers
        .iter()
        .filter_map(|c| c.get("consumer").and_then(Json::as_str))
        .collect();
    for want in ["mrc.record_cache", "mrc.page_cache"] {
        assert!(names.contains(&want), "{want} missing from {names:?}");
    }

    assert!(matches!(trace.get("traceEvents"), Some(Json::Arr(_))));
    assert!(matches!(flight.get("frames"), Some(Json::Arr(_))));
}
