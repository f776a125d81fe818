//! Property test: the Bw-tree over a page store, under random interleaving
//! of record operations and every cache-management transition — flush,
//! evict-all, evict-base-keep-deltas — must stay equivalent to a
//! `BTreeMap` — and must count the same operations whether a miss is served
//! by the blocking read or by a caller driving probe / fetch / install /
//! resume by hand.

use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig, FlushKind, MemStore, PageStore, TryGetAsync};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    BlindUpdate(u16, u8),
    Del(u16),
    Get(u16),
    FlushAll(FlushKindChoice),
    FlushOne(u16, FlushKindChoice),
    Scan(u16, u16),
}

#[derive(Debug, Clone, Copy)]
enum FlushKindChoice {
    Only,
    KeepDeltas,
    All,
}

impl FlushKindChoice {
    fn kind(self) -> FlushKind {
        match self {
            FlushKindChoice::Only => FlushKind::FlushOnly,
            FlushKindChoice::KeepDeltas => FlushKind::EvictBaseKeepDeltas,
            FlushKindChoice::All => FlushKind::EvictAll,
        }
    }
}

fn kind_strategy() -> impl Strategy<Value = FlushKindChoice> {
    prop_oneof![
        Just(FlushKindChoice::Only),
        Just(FlushKindChoice::KeepDeltas),
        Just(FlushKindChoice::All),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 256, v)),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::BlindUpdate(k % 256, v)),
        2 => any::<u16>().prop_map(|k| Op::Del(k % 256)),
        5 => any::<u16>().prop_map(|k| Op::Get(k % 256)),
        1 => kind_strategy().prop_map(Op::FlushAll),
        2 => (any::<u16>(), kind_strategy()).prop_map(|(k, c)| Op::FlushOne(k % 256, c)),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Scan(a % 256, b % 256)),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("key{k:04}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn tree_matches_model_under_cache_transitions(
        ops in proptest::collection::vec(op_strategy(), 1..250)
    ) {
        let store = Arc::new(MemStore::new());
        let tree = BwTree::with_store(BwTreeConfig::small_pages(), store);
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    tree.put(key(*k), Bytes::from(vec![*v]));
                    model.insert(*k, *v);
                }
                Op::BlindUpdate(k, v) => {
                    tree.blind_update(key(*k), Bytes::from(vec![*v]));
                    model.insert(*k, *v);
                }
                Op::Del(k) => {
                    tree.delete(key(*k));
                    model.remove(k);
                }
                Op::Get(k) => {
                    let expect = model.get(k).map(|v| Bytes::from(vec![*v]));
                    prop_assert_eq!(tree.get(&key(*k)), expect, "get {}", k);
                }
                Op::FlushAll(c) => {
                    for p in tree.pages() {
                        if p.is_leaf {
                            let _ = tree.flush_page(p.pid, c.kind());
                        }
                    }
                }
                Op::FlushOne(k, c) => {
                    let pid = tree.locate_leaf(&key(*k));
                    let _ = tree.flush_page(pid, c.kind());
                }
                Op::Scan(a, b) => {
                    let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
                    let got: Vec<u16> = tree
                        .range(&key(lo), Some(&key(hi)))
                        .map(|r| {
                            let (k, _) = r.expect("scan");
                            String::from_utf8(k[3..].to_vec())
                                .unwrap()
                                .parse()
                                .unwrap()
                        })
                        .collect();
                    let expect: Vec<u16> = model.range(lo..hi).map(|(k, _)| *k).collect();
                    prop_assert_eq!(got, expect, "scan [{}, {})", lo, hi);
                }
            }
        }
        // Final full agreement.
        for (k, v) in &model {
            prop_assert_eq!(
                tree.get(&key(*k)),
                Some(Bytes::from(vec![*v])),
                "final {}",
                k
            );
        }
        prop_assert_eq!(tree.count_entries(), model.len());
        // Residency invariant: every page readable after a final mass evict.
        for p in tree.pages() {
            if p.is_leaf {
                let _ = tree.flush_page(p.pid, FlushKind::EvictAll);
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(
                tree.get(&key(*k)),
                Some(Bytes::from(vec![*v])),
                "post-evict {}",
                k
            );
        }
    }

    /// Twin trees take the same operations; one reads with `try_get`, the
    /// other as `CachingStore::get_submit`/`poll_gets` do. Every counter —
    /// `gets`, `mm_ops`, `ss_ops`, `fetches`, `record_cache_hits` and the
    /// rest — must agree after every step.
    #[test]
    fn blocking_and_hand_driven_reads_count_alike(
        ops in proptest::collection::vec(op_strategy(), 1..250)
    ) {
        let twin = || {
            let store = Arc::new(MemStore::new());
            (BwTree::with_store(BwTreeConfig::small_pages(), store.clone()), store)
        };
        let (blocking, _) = twin();
        let (driven, driven_store) = twin();
        for op in &ops {
            if let Op::Get(k) = op {
                let mut probe = driven.try_get_async(&key(*k));
                let found = loop {
                    match probe {
                        TryGetAsync::Hit(found) => break found,
                        TryGetAsync::NeedFetch { pid, token } => {
                            let img = driven_store.fetch(pid, token).expect("fetch");
                            driven.install_fetched(pid, token, img);
                            probe = driven.resume_get(&key(*k));
                        }
                    }
                };
                prop_assert_eq!(blocking.try_get(&key(*k)).expect("get"), found, "get {}", k);
            } else {
                for tree in [&blocking, &driven] {
                    match op {
                        Op::Put(k, v) => tree.put(key(*k), Bytes::from(vec![*v])),
                        Op::BlindUpdate(k, v) => tree.blind_update(key(*k), Bytes::from(vec![*v])),
                        Op::Del(k) => tree.delete(key(*k)),
                        Op::FlushAll(c) => {
                            for p in tree.pages() {
                                if p.is_leaf {
                                    let _ = tree.flush_page(p.pid, c.kind());
                                }
                            }
                        }
                        Op::FlushOne(k, c) => {
                            let _ = tree.flush_page(tree.locate_leaf(&key(*k)), c.kind());
                        }
                        Op::Scan(a, b) => {
                            let (lo, hi) = (key(*a.min(b)), key(*a.max(b)));
                            tree.range(&lo, Some(&hi)).for_each(|r| drop(r.expect("scan")));
                        }
                        Op::Get(_) => unreachable!(),
                    }
                }
            }
            prop_assert_eq!(blocking.stats(), driven.stats(), "after {:?}", op);
        }
    }
}
