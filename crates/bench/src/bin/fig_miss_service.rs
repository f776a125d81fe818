//! Polled miss service, in the cost model's own terms.
//!
//! Consumes one `BENCH_server.json` document the serving layer's load
//! generator writes under injected device latency, and renders:
//!
//! 1. the measured row (miss-service latency, hit p95 on shards with
//!    concurrent misses, achieved device queue depth, parked misses), and
//! 2. the §2 relative-performance curves at the ideal `R` and at the
//!    run's *effective* `R` — the catalog `R` inflated by the measured
//!    queueing expansion (mean miss service over raw device latency).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dcs-server --bin loadgen -- --backend caching \
//!   --device-latency 400000 --memory-budget 65536 \
//!   --out BENCH_server_miss_async.json [...]
//! cargo run --release -p dcs-bench --bin fig_miss_service -- \
//!   BENCH_server_miss_async.json
//! ```

use dcs_bench::report::parse_bench_server;
use dcs_costmodel::miss_service::miss_service_curves;
use dcs_costmodel::{render, HardwareCatalog};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_server_miss_async.json".into());
    let json = match std::fs::read_to_string(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            eprintln!("generate it with the loadgen invocation in this bin's header");
            std::process::exit(2);
        }
    };
    let Some(m) = parse_bench_server(&json) else {
        eprintln!("{path}: not a BENCH_server.json with io_depth/miss_service blocks");
        std::process::exit(2);
    };

    println!("== measured miss service ==");
    println!(
        "{}",
        render::table(
            &[
                "misses",
                "miss mean us",
                "miss p95 us",
                "hit p95 us",
                "io depth mean",
                "io depth max",
                "parked peak",
                "ops/s",
            ],
            &[vec![
                m.misses.to_string(),
                render::format_sig(m.miss_mean_us),
                render::format_sig(m.miss_p95_us),
                render::format_sig(m.hit_p95_us),
                render::format_sig(m.io_depth_mean),
                m.io_depth_max.to_string(),
                m.parked_peak.to_string(),
                render::format_sig(m.throughput_ops_per_sec),
            ]],
        )
    );
    println!(
        "device read latency: {} us injected",
        render::format_sig(m.device_latency_nanos as f64 / 1000.0)
    );
    println!(
        "queueing expansion (mean miss / device read): {}x",
        render::format_sig(m.expansion())
    );

    let hw = HardwareCatalog::paper();
    println!("\n== relative performance vs SS-fraction F at effective R (Eq. 2) ==");
    println!(
        "{}",
        render::series_table("F", &miss_service_curves(hw.r, &m, 11))
    );
    println!(
        "catalog R = {}; effective R = {}",
        render::format_sig(hw.r),
        render::format_sig(m.effective_r(hw.r))
    );
}
