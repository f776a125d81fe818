//! Heap allocations on the serving path, counted by a global allocator:
//! the per-op recorders (`Counter::add`, `CostLedger::{mm_op, ss_read,
//! ss_write}`) allocate nothing, and a GET hit served over TCP stays
//! within a fixed allocation budget.
//!
//! The budget is the count measured when the test was written (11.02
//! per GET, the same in debug and release), rounded up to the next 0.5.
//! It counts every thread in the process — client, connection and shard
//! threads — and the one `Vec` the client builds for each request's key.
//! Lower it as the serving path sheds allocations; the goal is 0.
//!
//! A counting global allocator sees every allocation in the process, so
//! this binary holds exactly one test.

use dcs_core::{BackendKind, BackendOpts};
use dcs_server::{Client, ClientConfig, Partitioner, Server, ServerConfig, ShardBackend};
use dcs_workload::keys;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made anywhere in the process while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations per served GET hit allowed (see the module docs).
const GET_BUDGET: f64 = 11.5;

#[test]
fn served_get_stays_within_allocation_budget() {
    const CALLS: u64 = 10_000;
    let counter = dcs_telemetry::global().counter("test.served_get_allocs");
    let ledger = dcs_telemetry::ledger();
    let recorders: [(&str, &dyn Fn()); 4] = [
        ("Counter::add", &|| counter.add(1)),
        ("CostLedger::mm_op", &|| ledger.mm_op()),
        ("CostLedger::ss_read", &|| ledger.ss_read()),
        ("CostLedger::ss_write", &|| ledger.ss_write()),
    ];
    for (name, record) in recorders {
        record(); // warm-up: the first call picks this thread's stripe
        let n = allocs_during(|| (0..CALLS).for_each(|_| record()));
        assert_eq!(n, 0, "{name}: {n} allocations in {CALLS} calls");
    }

    const RECORDS: u64 = 1_000;
    const GETS: u64 = 5_000;
    for shards in [1, 2] {
        let partitioner = if shards == 1 {
            Partitioner::single()
        } else {
            Partitioner::from_splits(keys::range_splits(RECORDS, shards))
        };
        let server = Server::start_with(
            BackendKind::Caching
                .build_shards_with(shards, BackendOpts::default())
                .into_iter()
                .map(ShardBackend::from)
                .collect(),
            partitioner,
            ServerConfig::default(),
        )
        .expect("start server");
        let client = Client::connect(
            server.addr(),
            ClientConfig {
                connections: 1,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let keys: Vec<_> = (0..RECORDS).map(keys::encode).collect();
        for (id, key) in (0..RECORDS).zip(&keys) {
            client.put(key, &keys::value_for(id, 1, 64)).expect("put");
        }
        // Depth 1: one GET in flight at a time, every one a hit.
        let get = |i: u64| {
            let v = client.get(&keys[(i % RECORDS) as usize]).expect("get");
            assert!(v.is_some(), "GET {i} missed");
        };
        (0..GETS).for_each(get);
        let n = allocs_during(|| (0..GETS).for_each(get));
        let per_get = n as f64 / GETS as f64;
        client.close();
        server.shutdown();
        assert!(
            per_get <= GET_BUDGET,
            "{shards} shard(s): {per_get:.2} allocations per served GET, budget {GET_BUDGET}"
        );
        println!("{shards} shard(s): {per_get:.2} allocations per served GET");
    }
}
