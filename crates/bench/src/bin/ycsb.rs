//! YCSB A–F across every store in the workspace — the workload vocabulary
//! the systems community uses, for positioning the stores against each
//! other (single-threaded, warm; see fig1/fig3 for the paper's specific
//! measurements).
//!
//! Run with: `cargo run --release -p dcs-bench --bin ycsb`

// A figure binary times real hardware on purpose.
#![allow(clippy::disallowed_types)]

use dcs_core::bwtree::{BwTree, BwTreeConfig};
use dcs_core::costmodel::render;
use dcs_core::flashsim::{DeviceConfig, FlashDevice, IoPathKind, VirtualClock};
use dcs_core::lsm::{LsmConfig, LsmTree};
use dcs_core::masstree::MassTree;
use dcs_core::workload::{KvStore, Runner, WorkloadSpec};
use dcs_core::{BwTreeBackend, LsmBackend, MassTreeBackend, StoreBuilder};
use std::sync::Arc;
use std::time::Instant;

const RECORDS: u64 = 50_000;
const OPS: u64 = 100_000;
const VALUE_LEN: usize = 100;

fn measure<S: KvStore>(store: &S, workload: char) -> (f64, f64) {
    let spec = WorkloadSpec::ycsb(workload, RECORDS, VALUE_LEN, 42);
    let runner = Runner::new(spec);
    runner.load(store).expect("load");
    // Scan-heavy E is much slower per op; shorten it.
    let ops = if workload == 'e' { OPS / 20 } else { OPS };
    let start = Instant::now();
    let counts = runner.run(store, ops).expect("run");
    let rate = counts.total() as f64 / start.elapsed().as_secs_f64();
    let hit = if counts.reads > 0 {
        counts.read_hits as f64 / counts.reads as f64
    } else {
        1.0
    };
    (rate, hit)
}

fn main() {
    println!(
        "{RECORDS} records, {OPS} ops per workload (E: {}), 1 thread, warm\n",
        OPS / 20
    );
    let mut rows = Vec::new();
    for w in ['a', 'b', 'c', 'd', 'f', 'e'] {
        // Paper-sized pages (4 KB) and a budget holding the working set.
        let mut b = StoreBuilder::small_test();
        b.tree = BwTreeConfig::default();
        b.memory_budget = 64 << 20;
        let caching = b.build();
        let (c_rate, _) = measure(&caching, w);

        let bw = BwTreeBackend(BwTree::in_memory(BwTreeConfig::default()));
        let (b_rate, _) = measure(&bw, w);

        let mt = MassTreeBackend(MassTree::new());
        let (m_rate, _) = measure(&mt, w);

        let lsm = LsmBackend(LsmTree::new(
            Arc::new(FlashDevice::with_clock(
                DeviceConfig {
                    segment_bytes: 1 << 20,
                    segment_count: 4096,
                    advance_clock_on_io: false,
                    io_path: IoPathKind::Free.model(),
                    ..DeviceConfig::paper_ssd()
                },
                VirtualClock::new(),
            )),
            LsmConfig::default(),
        ));
        let (l_rate, _) = measure(&lsm, w);

        rows.push(vec![
            format!("YCSB-{}", w.to_ascii_uppercase()),
            format!("{c_rate:.0}"),
            format!("{b_rate:.0}"),
            format!("{m_rate:.0}"),
            format!("{l_rate:.0}"),
        ]);
    }
    print!(
        "{}",
        render::table(
            &[
                "workload",
                "CachingStore ops/s",
                "Bw-tree (mem) ops/s",
                "MassTree ops/s",
                "LSM ops/s"
            ],
            &rows
        )
    );
    println!("\nExpected shape: MassTree leads point workloads (the paper's Px > 1);");
    println!("the caching store tracks the in-memory Bw-tree while also being able");
    println!("to shed cold pages to flash; the LSM pays read amplification on");
    println!("lookups but accepts writes blind.");
}
