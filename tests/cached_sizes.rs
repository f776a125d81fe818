//! Cached page sizes cannot drift. A Bw-tree base is sized once, when it is
//! built, and the cache manager's footprint is the sum of those sizes. A
//! seeded run of the assembled store (gets, puts, deletes and scans under a
//! 64 KiB budget, a sweep every 97 ops, checkpoints, clock advances past
//! T_i, then a crash and recovery) audits the tree every 1 000 ops: every
//! base's cached size must equal its entries' size, and the footprint must
//! equal the audit's own sum over the reachable chains.

use bytes::Bytes;
use dcs_core::{CachingStore, Policy, StoreBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const KEYS: u32 = 2_000;
const OPS: u32 = 20_000;

fn key(k: u32) -> Bytes {
    Bytes::from(format!("key{k:06}"))
}

fn builder(policy: Policy) -> StoreBuilder {
    let mut b = StoreBuilder::small_test();
    b.memory_budget = 64 << 10;
    b.sweep_every_ops = 97;
    b.policy = policy;
    b
}

/// The audit is clean, and the footprint is its chain sum plus the mapping
/// table's 16 B per slot.
fn assert_sizes(store: &CachingStore, at: &str) {
    let tree = store.tree();
    let guard = dcs_ebr::pin();
    let report = tree.audit(&guard).unwrap_or_else(|e| panic!("{at}: {e}"));
    let slots = tree.mapping().high_water() as usize * 16;
    assert_eq!(tree.footprint_bytes(), report.chain_bytes + slots, "{at}");
}

fn run(policy: Policy, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let store = builder(policy).build();
    let mut model: BTreeMap<u32, Bytes> = BTreeMap::new();
    for op in 1..=OPS {
        let k = rng.gen_range(0..KEYS);
        match rng.gen_range(0..100u32) {
            0..=39 => {
                let pad = "x".repeat(rng.gen_range(0..48usize));
                let v = Bytes::from(format!("v{op}-{pad}"));
                store.put(key(k), v.clone());
                model.insert(k, v);
            }
            40..=49 => {
                store.delete(key(k));
                model.remove(&k);
            }
            50..=89 => assert_eq!(store.get(&key(k)), model.get(&k).cloned(), "get {k}"),
            90..=97 => {
                let got = store.scan(&key(k), Some(&key(k + 16)));
                let want: Vec<_> = model
                    .range(k..k + 16)
                    .map(|(k, v)| (key(*k), v.clone()))
                    .collect();
                assert_eq!(got, want, "scan from {k}");
            }
            98 => store.checkpoint().unwrap(),
            _ => store.advance_time(rng.gen_range(1..=60u64) * 1_000_000_000),
        }
        if op % 1_000 == 0 {
            assert_sizes(&store, &format!("{policy:?}, op {op}"));
        }
    }
    assert!(
        store.stats().cache.pages_evicted > 0,
        "the budget never bit"
    );
    store.checkpoint().unwrap();
    let store = store.crash_and_recover(builder(policy)).unwrap();
    assert_sizes(&store, &format!("{policy:?}, recovered"));
    for k in 0..KEYS {
        assert_eq!(
            store.get(&key(k)),
            model.get(&k).cloned(),
            "key {k} after recovery"
        );
    }
    assert_sizes(&store, &format!("{policy:?}, re-read"));
}

#[test]
fn cached_sizes_hold_under_lru() {
    run(Policy::Lru, 7);
}

#[test]
fn cached_sizes_hold_under_cost_model() {
    run(Policy::CostModel, 11);
}
