//! Figure 3 + §5: the Bw-tree (fully cached) vs MassTree cost comparison.
//!
//! Measures Px (MassTree's performance gain) and Mx (its memory expansion)
//! on this workspace's own implementations with a 4-thread read-only
//! workload — the paper's §5.1 experiment — then computes the Equation 7
//! breakeven with both the measured and the paper's point values.
//!
//! Run with: `cargo run --release -p dcs-bench --bin fig3_bwtree_vs_masstree`

// A figure binary times real hardware on purpose.
#![allow(clippy::disallowed_types)]

use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig};
use dcs_costmodel::{figures, mm_vs_caching, render, HardwareCatalog};
use dcs_masstree::MassTree;
use dcs_workload::keys;
use std::sync::Arc;
use std::time::Instant;

const RECORDS: u64 = 200_000;
const READS: u64 = 800_000;
const VALUE_LEN: usize = 16;
const THREADS: u64 = 4;

fn measure(read: impl Fn(u64) -> usize + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let read = &read;
            scope.spawn(move || {
                let mut x = 0x2545_F491u64.wrapping_add(t);
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
    println!("loading {RECORDS} records into both trees ...");
    let bw = Arc::new(BwTree::in_memory(BwTreeConfig::default()));
    let mt = Arc::new(MassTree::new());
    for id in 0..RECORDS {
        let k = Bytes::copy_from_slice(&keys::encode(id));
        let v = Bytes::from(keys::value_for(id, 0, VALUE_LEN));
        bw.put(k.clone(), v.clone());
        mt.insert(k, v);
    }

    println!("read-only, {THREADS} threads, {READS} uniform reads each system ...\n");
    // Warm both.
    measure(|id| bw.get(&keys::encode(id)).map(|v| v.len()).unwrap_or(0));
    measure(|id| mt.get(&keys::encode(id)).map(|v| v.len()).unwrap_or(0));
    let bw_rate = measure(|id| bw.get(&keys::encode(id)).map(|v| v.len()).unwrap_or(0));
    let mt_rate = measure(|id| mt.get(&keys::encode(id)).map(|v| v.len()).unwrap_or(0));
    let bw_mem = bw.footprint_bytes() as f64;
    let mt_mem = mt.footprint_bytes() as f64;
    let px = mt_rate / bw_rate;
    let mx = mt_mem / bw_mem;

    print!(
        "{}",
        render::table(
            &["system", "reads/sec (4 threads)", "footprint MiB"],
            &[
                vec![
                    "Bw-tree".into(),
                    format!("{bw_rate:.0}"),
                    format!("{:.1}", bw_mem / 1048576.0)
                ],
                vec![
                    "MassTree".into(),
                    format!("{mt_rate:.0}"),
                    format!("{:.1}", mt_mem / 1048576.0)
                ],
            ]
        )
    );
    println!("\nPx = {px:.2} (paper ≈ 2.6)    Mx = {mx:.2} (paper ≈ 2.1)");

    let hw = HardwareCatalog::paper();
    for (label, cmp) in [
        (
            "paper's point experiment",
            mm_vs_caching::Comparison::paper(),
        ),
        (
            "this substrate's measurement",
            if px > 1.0 && mx > 1.0 {
                mm_vs_caching::Comparison { px, mx }
            } else {
                println!("\n(measured Px/Mx outside the Px,Mx>1 regime; reusing paper values)");
                mm_vs_caching::Comparison::paper()
            },
        ),
    ] {
        println!(
            "\n== Equation 7/8 with {label} (Px={:.2}, Mx={:.2}) ==",
            cmp.px, cmp.mx
        );
        println!(
            "Ti · Size = {}  (paper: 8.3e3)",
            render::format_sig(mm_vs_caching::ti_size_product(&hw, &cmp))
        );
        for (gb, paper_says) in [(6.1, "0.73e6"), (100.0, "12e6")] {
            let rate = mm_vs_caching::breakeven_rate(&hw, gb * 1e9, &cmp);
            println!(
                "  {gb:>6.1} GB: MassTree cheaper above {:>10} ops/sec (paper: {paper_says})",
                render::format_sig(rate)
            );
        }
        println!(
            "  2.7 KB page: Ti must drop below {:.1} s (paper: 3.1 s)",
            mm_vs_caching::ti_seconds(&hw, hw.page_bytes, &cmp)
        );
    }

    println!("\n== Figure 3 curves (6.1 GB database, paper comparison) ==");
    let series = figures::fig3_curves(
        &hw,
        &mm_vs_caching::Comparison::paper(),
        6.1e9,
        1e4,
        1e7,
        13,
    );
    print!("{}", render::series_table("ops/sec", &series));
    println!("\nShape: Bw-tree cheaper at every rate below the crossover; the");
    println!("crossover scales linearly with database size (§5.2). And unlike");
    println!("MassTree, the Bw-tree can evict cold pages at Ti ≈ 45 s for further");
    println!("savings — it is also a data caching system.");
}
