//! Measured miss-ratio curves vs the paper's analytic prediction.
//!
//! Consumes the `mrc` block the serving layer's load generator writes
//! with `--mrc on` (live SHARDS-sampled curves per memory consumer) and
//! renders, per consumer:
//!
//! 1. the measured curve against the frequency-optimal Zipf(θ) placement
//!    the paper's record-cache argument assumes — the gap is what the
//!    real replacement policy leaves on the table, and
//! 2. the marginal cost-per-byte fuse: where the §3 cost algebra says
//!    this consumer's cache should stop growing, at the run's own
//!    access rate.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dcs-server --bin loadgen -- --backend caching \
//!   --key-dist zipfian --theta 0.99 --memory-budget 262144 --mrc on \
//!   --out BENCH_server.json [...]
//! cargo run --release -p dcs-bench --bin fig_mrc -- BENCH_server.json \
//!   [--theta 0.99]
//! ```

use dcs_bench::report::{parse_bench_mrc, parse_bench_server};
use dcs_costmodel::mrc_cost::{marginal_curve, recommended_bytes, zipf_miss_ratio, MrcMeasured};
use dcs_costmodel::{render, HardwareCatalog};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = "BENCH_server.json".to_string();
    let mut theta = 0.99f64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--theta" => {
                theta = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--theta needs a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("fig_mrc [BENCH_server.json] [--theta T]");
                std::process::exit(0);
            }
            p => {
                path = p.to_string();
                i += 1;
            }
        }
    }

    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        eprintln!("generate it with the loadgen invocation in this bin's header");
        std::process::exit(2);
    });
    let consumers = parse_bench_mrc(&json).unwrap_or_else(|| {
        eprintln!("{path}: no mrc block — rerun loadgen with --mrc on");
        std::process::exit(2);
    });
    // The run's completed wire throughput, for quoting the access rate
    // the marginal prices are computed at.
    let wire_rate = parse_bench_server(&json)
        .map(|m| m.throughput_ops_per_sec)
        .unwrap_or(0.0);

    let hw = HardwareCatalog::paper();
    for c in &consumers {
        render_consumer(&hw, c, theta, wire_rate);
    }
    if consumers.is_empty() {
        eprintln!("{path}: mrc block holds no consumers (no instrumented accesses?)");
        std::process::exit(2);
    }
}

fn render_consumer(hw: &HardwareCatalog, c: &MrcMeasured, theta: f64, wire_rate: f64) {
    println!(
        "== {} : measured SHARDS curve vs frequency-optimal Zipf(θ = {theta}) ==",
        c.consumer
    );
    println!(
        "accesses {} (sampled {} at R = {}), mean entity {} bytes",
        c.accesses,
        (c.accesses as f64 * c.sample_rate).round() as u64,
        render::format_sig(c.sample_rate),
        render::format_sig(c.mean_entity_bytes)
    );
    // The analytic curve needs a universe size in entities; the largest
    // measured point *is* the observed working set (SHARDS scales
    // sampled distinct keys by 1/R), so predict against that.
    let universe = c
        .points
        .last()
        .map_or(0.0, |p| p.bytes / c.mean_entity_bytes.max(1.0));
    let rows: Vec<Vec<String>> = c
        .points
        .iter()
        .map(|p| {
            let cached = p.bytes / c.mean_entity_bytes.max(1.0);
            vec![
                render::format_sig(p.bytes / 1024.0),
                render::format_sig(p.miss_ratio),
                render::format_sig(zipf_miss_ratio(theta, universe, cached)),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(&["cache KiB", "measured miss", "zipf-opt miss"], &rows)
    );

    // The fuse: price every interval at the consumer's observed access
    // rate (its share of the wire rate — the profiler counts accesses,
    // the report counts completed wire ops; quoting both keeps the
    // scaling honest).
    let rate = if wire_rate > 0.0 { wire_rate } else { 1.0 };
    let priced = marginal_curve(hw, rate, &c.points);
    let rows: Vec<Vec<String>> = priced
        .iter()
        .map(|p| {
            vec![
                render::format_sig(p.bytes / 1024.0),
                format!("{:.3e}", p.marginal_value_per_byte),
                format!("{:.3e}", p.net_per_byte()),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(&["up to KiB", "value $/byte", "net $/byte"], &rows)
    );
    println!(
        "break-even budget at {} ops/s: {} KiB (loadgen's own fuse said {} KiB)\n",
        render::format_sig(rate),
        render::format_sig(recommended_bytes(hw, rate, &c.points) / 1024.0),
        render::format_sig(c.recommended_bytes / 1024.0)
    );
}
