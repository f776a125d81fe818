//! Sync-vs-async miss service, in the cost model's own terms.
//!
//! Consumes the two `BENCH_server.json` documents the serving layer's
//! load generator writes when run with `--miss-mode sync` and
//! `--miss-mode async` under injected device latency, and renders:
//!
//! 1. the measured comparison (miss-service latency, hit p95 on shards
//!    with concurrent misses, achieved device queue depth), and
//! 2. the §2 relative-performance curves at each mode's *effective*
//!    `R` — the catalog `R` inflated by the measured queueing expansion
//!    (mean miss service over raw device latency).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dcs-server --bin loadgen -- --backend caching \
//!   --miss-mode sync  --device-latency 400000 --memory-budget 65536 \
//!   --out BENCH_server_sync.json [...]
//! cargo run --release -p dcs-server --bin loadgen -- --backend caching \
//!   --miss-mode async --device-latency 400000 --memory-budget 65536 \
//!   --out BENCH_server_async.json [...]
//! cargo run --release -p dcs-bench --bin fig_miss_service -- \
//!   BENCH_server_sync.json BENCH_server_async.json
//! ```

use dcs_bench::report::parse_bench_server;
use dcs_costmodel::miss_service::{miss_service_curves, p95_speedup, MissServiceMeasurement};
use dcs_costmodel::{render, HardwareCatalog};

fn load(path: &str) -> MissServiceMeasurement {
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            eprintln!("generate it with the loadgen invocations in this bin's header");
            std::process::exit(2);
        }
    };
    match parse_bench_server(&json) {
        Some(m) => m,
        None => {
            eprintln!("{path}: not a BENCH_server.json with io_depth/miss_service blocks");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sync_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_server_sync.json");
    let async_path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_server_async.json");

    let sync = load(sync_path);
    let asynch = load(async_path);
    for (path, m, want) in [(sync_path, &sync, "sync"), (async_path, &asynch, "async")] {
        if m.miss_mode != want {
            eprintln!(
                "{path}: miss_mode is \"{}\", expected \"{want}\"",
                m.miss_mode
            );
            std::process::exit(2);
        }
    }

    println!("== measured miss service: blocking vs polled engine ==");
    let row = |m: &MissServiceMeasurement| {
        vec![
            m.miss_mode.clone(),
            m.misses.to_string(),
            render::format_sig(m.miss_mean_us),
            render::format_sig(m.miss_p95_us),
            render::format_sig(m.hit_p95_us),
            render::format_sig(m.io_depth_mean),
            m.io_depth_max.to_string(),
            m.parked_peak.to_string(),
            render::format_sig(m.throughput_ops_per_sec),
        ]
    };
    println!(
        "{}",
        render::table(
            &[
                "miss mode",
                "misses",
                "miss mean us",
                "miss p95 us",
                "hit p95 us",
                "io depth mean",
                "io depth max",
                "parked peak",
                "ops/s",
            ],
            &[row(&sync), row(&asynch)],
        )
    );
    println!(
        "device read latency: {} us injected",
        render::format_sig(sync.device_latency_nanos as f64 / 1000.0)
    );
    println!(
        "queueing expansion (mean miss / device read): sync {}x, async {}x",
        render::format_sig(sync.expansion()),
        render::format_sig(asynch.expansion())
    );
    println!(
        "miss-service p95 speedup from polling: {}x",
        render::format_sig(p95_speedup(&sync, &asynch))
    );

    let hw = HardwareCatalog::paper();
    println!("\n== relative performance vs SS-fraction F at effective R (Eq. 2) ==");
    println!(
        "{}",
        render::series_table("F", &miss_service_curves(hw.r, &sync, &asynch, 11))
    );
    println!(
        "catalog R = {}; effective R: sync {}, async {}",
        render::format_sig(hw.r),
        render::format_sig(sync.effective_r(hw.r)),
        render::format_sig(asynch.effective_r(hw.r))
    );
}
