//! Every node the tree allocates is freed. Writers that lose a CAS race
//! drop what they built, splits and merges that roll back retire what
//! they published, and replaced chains are retired through the epoch
//! collector. So once the tree is dropped and the collector has run every
//! deferred free, the live heap is back where it was before the tree.
//!
//! A counting global allocator sees every allocation in the process, so
//! this binary holds exactly one test.

use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

struct Counting;

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's contract to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarding the caller's contract to `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const THREADS: u64 = 4;
const OPS: u64 = 20_000;
const KEYS: u64 = 256;

/// Four threads of puts and deletes over one small key range of a
/// small-page tree: writers collide on the same leaves, so CASes lose,
/// and the range fills and empties, so leaves split and merge.
fn churn() -> BwTree {
    let tree = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let tree = tree.clone();
            std::thread::spawn(move || {
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t;
                for i in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = Bytes::from(format!("key{:04}", x % KEYS));
                    // Phases of mostly-puts and mostly-deletes, so pages
                    // grow past the split size and shrink below the merge
                    // size in turn.
                    let deleting = (i / 2_000) & 1 == 1;
                    // One op in four goes against the phase.
                    let against = x & 3 == 0;
                    if deleting != against {
                        tree.delete(key);
                    } else {
                        tree.put(key, Bytes::from(format!("value-{t}-{i}")));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    Arc::into_inner(tree).expect("workers joined")
}

/// Run deferred frees until the collector has run every one queued.
fn drain_epochs() {
    for _ in 0..10_000 {
        let stats = dcs_ebr::default_stats();
        if stats.freed_total == stats.deferred_total {
            return;
        }
        dcs_ebr::pin().flush();
    }
    panic!(
        "deferred frees never drained: {:?}",
        dcs_ebr::default_stats()
    );
}

#[test]
fn dropped_tree_frees_every_node() {
    // A first run sets up what lives for the whole process — the MRC
    // profiler registry, this thread's epoch participant, telemetry — so
    // that the baseline below already holds it.
    drop(churn());
    drain_epochs();
    let baseline = LIVE.load(Ordering::Relaxed);

    let tree = churn();
    let stats = tree.stats();
    assert!(
        stats.leaf_splits > 0 && stats.leaf_merges > 0,
        "the workload must split and merge leaves: {stats:?}"
    );
    drop(tree);
    drain_epochs();
    let leaked = LIVE.load(Ordering::Relaxed) - baseline;
    // Slack for process-wide buffers (the collector's bags and participant
    // list) whose capacity may still grow on the second run: up to ~6 KiB
    // over dozens of runs, with no allocation left live. Leaking each
    // delta that lost its CAS (`mem::forget`) leaves 40–70 KiB here.
    assert!(
        leaked < 16 << 10,
        "{leaked} bytes still live after the tree"
    );
}
