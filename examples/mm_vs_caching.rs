//! Bw-tree vs MassTree, measured on this workspace's own implementations —
//! the §5 comparison that yields Px (performance gain) and Mx (memory
//! expansion), then the Figure 3 cost crossover computed from *your*
//! measured values instead of the paper's.
//!
//! Run with: `cargo run --example mm_vs_caching --release`

// The example times real operations on purpose.
#![allow(clippy::disallowed_types)]

use bytes::Bytes;
use dcs_core::bwtree::{BwTree, BwTreeConfig};
use dcs_core::costmodel::{mm_vs_caching, render, HardwareCatalog};
use dcs_core::masstree::MassTree;
use dcs_core::workload::keys;
use std::sync::Arc;
use std::time::Instant;

const RECORDS: u64 = 100_000;
const READS: u64 = 400_000;
const VALUE_LEN: usize = 16;
const THREADS: u64 = 4;

fn measure_reads(read: impl Fn(u64) -> usize + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let read = &read;
            scope.spawn(move || {
                let mut x = 0x9E37_79B9u64 ^ t;
                let mut sink = 0usize;
                for _ in 0..READS / THREADS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    sink += read(x % RECORDS);
                }
                std::hint::black_box(sink);
            });
        }
    });
    READS as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    println!("loading {RECORDS} records into both stores ...");
    let bw = Arc::new(BwTree::in_memory(BwTreeConfig::default()));
    let mt = Arc::new(MassTree::new());
    for id in 0..RECORDS {
        let k = Bytes::copy_from_slice(&keys::encode(id));
        let v = Bytes::from(keys::value_for(id, 0, VALUE_LEN));
        bw.put(k.clone(), v.clone());
        mt.insert(k, v);
    }

    println!("measuring {READS} random reads on {THREADS} threads ...\n");
    let bw_ops = measure_reads(|id| bw.get(&keys::encode(id)).map(|v| v.len()).unwrap_or(0));
    let mt_ops = measure_reads(|id| mt.get(&keys::encode(id)).map(|v| v.len()).unwrap_or(0));

    let bw_bytes = bw.footprint_bytes();
    let mt_bytes = mt.footprint_bytes();
    let px = mt_ops / bw_ops;
    let mx = mt_bytes as f64 / bw_bytes as f64;

    println!("== measured (this machine, this implementation) ==");
    println!(
        "Bw-tree:  {:>12.0} reads/sec   footprint {:>8} KiB",
        bw_ops,
        bw_bytes / 1024
    );
    println!(
        "MassTree: {:>12.0} reads/sec   footprint {:>8} KiB",
        mt_ops,
        mt_bytes / 1024
    );
    println!("Px (perf gain)    = {px:.2}   (paper measured ≈ 2.6)");
    println!("Mx (memory cost)  = {mx:.2}   (paper measured ≈ 2.1)");

    if px <= 1.0 || mx <= 1.0 {
        println!("\n(measured Px/Mx outside the paper's regime on this machine;");
        println!(" falling back to the paper's values for the cost analysis)");
    }
    let cmp = if px > 1.0 && mx > 1.0 {
        mm_vs_caching::Comparison { px, mx }
    } else {
        mm_vs_caching::Comparison::paper()
    };

    println!("\n== Figure 3: cost breakeven (Equation 7) ==");
    let hw = HardwareCatalog::paper();
    let c = mm_vs_caching::ti_size_product(&hw, &cmp);
    println!("Ti · Size = {}  (paper: 8.3e3)", render::format_sig(c));
    for gb in [6.1, 20.0, 100.0] {
        let rate = mm_vs_caching::breakeven_rate(&hw, gb * 1e9, &cmp);
        println!(
            "  {gb:>6.1} GB database: MassTree cheaper only above {:>10} ops/sec",
            render::format_sig(rate)
        );
    }
    println!("\nBelow those rates — i.e. for all but the very hottest data — the");
    println!("caching store costs less, and it can ALSO evict cold pages to flash");
    println!("(at Ti ≈ 45 s), an option the main-memory store does not have.");
}
