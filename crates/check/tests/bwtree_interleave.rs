//! Deterministic interleaving scenarios for `dcs-bwtree`.
//!
//! The instrumented build (feature `check`) routes every mapping-table
//! load/CAS and every EBR operation through the scheduler, so these seeds
//! explore orderings of the Bw-tree's multi-CAS structure modifications —
//! a split's child/parent installation racing a consolidation, a merge's
//! freeze/absorb/index-delete racing a scan — that are nearly impossible
//! to pin down with wall-clock threads.
//!
//! The tree pins the process-global EBR collector, so `leak_check` stays
//! off: chains retired when the tree drops may be reclaimed during a later
//! execution, which the per-execution shadow heap tolerates (events on
//! unknown addresses are recorded, not flagged).

use dcs_bwtree::{BwTree, BwTreeConfig};
use dcs_check::{explore_with, Config, Policy};
use std::sync::{Arc, Once};

fn key(i: usize) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

/// A value fat enough that a handful of records overflows the 256-byte
/// leaves of [`BwTreeConfig::small_pages`], forcing splits mid-scenario.
fn fat_value(i: usize) -> Vec<u8> {
    format!("value{i:04}-{}", "x".repeat(32)).into_bytes()
}

/// Two writers race interleaved puts on a tree sized so the burst crosses
/// the split threshold while both threads are also prepending deltas past
/// the consolidation threshold: child-split CAS, parent index-entry CAS,
/// and consolidation CAS all interleave. The structural audit then walks
/// the final tree: key order inside fences, chain shapes, no unreachable
/// or leaked pages.
#[test]
fn split_consolidate_race() {
    explore_with(
        "bwtree-split-consolidate",
        Config {
            seeds: 0..200,
            ..Config::default()
        },
        || {
            let tree = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
            // Seed enough volume that the racing burst lands right at the
            // split boundary instead of spending steps warming up.
            for i in 0..8 {
                tree.put(key(i * 3), fat_value(i * 3));
            }

            let mut workers = Vec::new();
            for t in 0..2 {
                let tree = tree.clone();
                workers.push(dcs_check::thread::spawn(move || {
                    // Writer 0 takes keys ≡ 1 (mod 3), writer 1 keys ≡ 2:
                    // disjoint keys, same leaves, maximal CAS contention.
                    for i in 0..5 {
                        let k = i * 3 + t + 1;
                        tree.put(key(k), fat_value(k));
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }

            let guard = dcs_ebr::pin();
            let report = tree.audit(&guard).expect("structural audit");
            assert!(
                report.leaf_pages >= 2,
                "scenario must actually split: {report:?}"
            );
            drop(guard);

            // Every write must be readable afterwards.
            let written: Vec<usize> = (0..8)
                .map(|i| i * 3)
                .chain((0..5).flat_map(|i| [i * 3 + 1, i * 3 + 2]))
                .collect();
            for i in written {
                assert_eq!(
                    tree.get(&key(i)).as_deref(),
                    Some(fat_value(i).as_slice()),
                    "lost write for key {i}"
                );
            }
        },
    );
}

/// A page-table walk races splits that lose their CAS. A split publishes
/// its right half at a fresh PID before it CASes the split delta in, so a
/// walk over the mapping table (the cache sweep's `pages()`) can load that
/// half before a concurrent write makes the CAS lose. The abandoned half
/// must then be retired through the epoch, not freed: the shadow heap
/// reports a use-after-free otherwise.
#[test]
fn page_walk_split_abort_race() {
    explore_with(
        "bwtree-page-walk-split-abort",
        Config {
            seeds: 0..200,
            ..Config::default()
        },
        || {
            let tree = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
            for i in 0..8 {
                tree.put(key(i * 3), fat_value(i * 3));
            }
            let mut workers = Vec::new();
            for t in 0..2 {
                let tree = tree.clone();
                workers.push(dcs_check::thread::spawn(move || {
                    for i in 0..5 {
                        let k = i * 3 + t + 1;
                        tree.put(key(k), fat_value(k));
                    }
                }));
            }
            let walker = {
                let tree = tree.clone();
                dcs_check::thread::spawn(move || {
                    for _ in 0..4 {
                        std::hint::black_box(tree.pages());
                    }
                })
            };
            for w in workers {
                w.join().unwrap();
            }
            walker.join().unwrap();
            let guard = dcs_ebr::pin();
            tree.audit(&guard).expect("structural audit");
        },
    );
}

/// A range scan races leaf merges: one thread deletes the middle of the key
/// space (consolidation shrinks those leaves under `min_leaf_bytes`, which
/// triggers freeze/absorb/index-delete merges), while a scanner repeatedly
/// walks the whole tree. The scan must stay sorted, never invent keys, and
/// never lose a key that was not deleted; the audit then checks the merged
/// structure.
#[test]
fn scan_merge_race() {
    explore_with(
        "bwtree-scan-merge",
        Config {
            seeds: 0..200,
            policy: Policy::Pct { depth: 3 },
            ..Config::default()
        },
        || {
            let tree = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
            for i in 0..18 {
                tree.put(key(i), fat_value(i));
            }

            let deleter = {
                let tree = tree.clone();
                dcs_check::thread::spawn(move || {
                    for i in 5..13 {
                        tree.delete(key(i));
                    }
                })
            };
            let scanner = {
                let tree = tree.clone();
                dcs_check::thread::spawn(move || {
                    for _ in 0..2 {
                        let mut seen = Vec::new();
                        for item in tree.range(b"", None) {
                            let (k, _v) = item.expect("scan failed");
                            seen.push(k);
                        }
                        for w in seen.windows(2) {
                            assert!(w[0] < w[1], "scan out of order: {w:?}");
                        }
                        for s in &seen {
                            let ok = (0..18).any(|i| s.as_ref() == key(i).as_slice());
                            assert!(ok, "scan invented key {s:?}");
                        }
                        // Keys outside the deleted range survive every
                        // interleaving of the scan with the merges.
                        for i in (0..5).chain(13..18) {
                            assert!(
                                seen.iter().any(|s| s.as_ref() == key(i).as_slice()),
                                "scan lost live key {i}"
                            );
                        }
                    }
                })
            };
            deleter.join().unwrap();
            scanner.join().unwrap();

            let guard = dcs_ebr::pin();
            tree.audit(&guard).expect("structural audit after merges");
            drop(guard);

            for i in 0..18 {
                let got = tree.get(&key(i));
                if (5..13).contains(&i) {
                    assert_eq!(got, None, "deleted key {i} resurrected");
                } else {
                    assert_eq!(
                        got.as_deref(),
                        Some(fat_value(i).as_slice()),
                        "live key {i} lost after merges"
                    );
                }
            }
        },
    );
}

/// Point reads race merges whose freeze rolls back. Forty-eight keys
/// settle into leaves of four under small pages, and the leaf holding
/// keys 24..28 is the first child of its inner page. Emptying the leaf to
/// its left makes that leaf try to absorb it; a merge may not cross a
/// parent boundary, so every attempt freezes the sibling and then rolls
/// the freeze back. A reader that loaded the frozen head before the
/// rollback may still be walking the `RemoveNode`, so the rollback must
/// retire it through the epoch, not free it: the shadow heap reports a
/// use-after-free otherwise.
#[test]
fn read_merge_rollback_race() {
    const EMPTIED: std::ops::Range<usize> = 20..24;
    const READ: std::ops::Range<usize> = 24..28;
    fn loaded() -> BwTree {
        let tree = BwTree::in_memory(BwTreeConfig::small_pages());
        for i in 0..48 {
            tree.put(key(i), fat_value(i));
        }
        tree
    }
    fn empty(tree: &BwTree) {
        // A leaf consolidates, and so tries to merge, once four deltas sit
        // on it: three rounds, three rollbacks.
        for _ in 0..3 {
            for i in EMPTIED {
                tree.delete(key(i));
            }
        }
    }
    explore_with(
        "bwtree-read-merge-rollback",
        // Random, not PCT: a detection needs the reader preempted twice,
        // once to load the frozen head and once right after.
        Config {
            seeds: 0..200,
            ..Config::default()
        },
        || {
            // The premise rests on the tree's shape: on a single-threaded
            // twin, every merge attempt must roll back. The shape is the
            // same on every seed, so the first execution checks it.
            static PREMISE: Once = Once::new();
            PREMISE.call_once(|| {
                let twin = loaded();
                empty(&twin);
                assert_eq!(
                    twin.stats().leaf_merges,
                    0,
                    "emptying keys {EMPTIED:?} merged on a single thread: the tree's \
                     shape changed, so pick a leaf whose right sibling is a first child"
                );
            });

            let tree = Arc::new(loaded());
            let deleter = {
                let tree = tree.clone();
                dcs_check::thread::spawn(move || empty(&tree))
            };
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let tree = tree.clone();
                    dcs_check::thread::spawn(move || {
                        for i in READ.chain(READ) {
                            assert_eq!(
                                tree.get(&key(i)).as_deref(),
                                Some(fat_value(i).as_slice()),
                                "live key {i} lost while a merge rolled back"
                            );
                        }
                    })
                })
                .collect();
            deleter.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }

            assert_eq!(tree.stats().leaf_merges, 0, "a merge crossed a parent");
            for i in EMPTIED {
                assert_eq!(tree.get(&key(i)), None, "deleted key {i} resurrected");
            }
            let guard = dcs_ebr::pin();
            tree.audit(&guard)
                .expect("structural audit after rolled-back merges");
        },
    );
}
