//! A point get on a resident tree does not touch the heap: the descent
//! routes through bare index bases without collecting their chains, and
//! the leaf search hands back a shared `Bytes`.
//!
//! A counting global allocator sees every allocation in the process, so
//! this binary holds exactly one test.

use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig};
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

#[test]
fn point_get_does_not_allocate() {
    const KEYS: u64 = 50_000;
    const GETS: u64 = 10_000;
    let tree = BwTree::in_memory(BwTreeConfig::default());
    let keys: Vec<Bytes> = (0..KEYS)
        .map(|i| Bytes::from(format!("key{i:08}")))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        tree.put(k.clone(), Bytes::from(format!("value-{i}")));
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next_key = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        &keys[(x % KEYS) as usize]
    };
    for _ in 0..GETS {
        assert!(tree.get(next_key()).is_some());
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..GETS {
        std::hint::black_box(tree.get(next_key()));
    }
    let per_get = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / GETS as f64;
    assert!(per_get < 0.05, "{per_get:.4} heap allocations per get");
}
