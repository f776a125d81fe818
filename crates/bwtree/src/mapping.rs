//! The mapping table: logical page ids → physical chain heads.
//!
//! This is the Bw-tree's central trick (Figure 4 of the cost/performance
//! paper): all pointers between pages are *logical* PIDs, so a page's
//! physical representation can be replaced — delta prepended, consolidated,
//! relocated to flash and back — with one CAS on its slot, without touching
//! any other page.

use crate::delta::Node;
use crate::sync::{AtomicPtr, AtomicU64, Mutex, Ordering};

/// Logical page identifier: an index into the mapping table.
pub type PageId = u64;

struct Slot {
    /// Head of the page's delta chain. Null = unallocated.
    head: AtomicPtr<Node>,
    /// Virtual-time stamp of the last access (for cache-management policy).
    last_access: AtomicU64,
}

/// Fixed-capacity table of atomic page slots.
///
/// Capacity is set at construction; `dcs-llama`'s cache manager and the
/// tree's structure modifications allocate and free PIDs through it.
pub struct MappingTable {
    slots: Box<[Slot]>,
    next_unused: AtomicU64,
    free_list: Mutex<Vec<PageId>>,
}

impl MappingTable {
    /// Create a table with room for `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 2,
            "mapping table needs at least root + one leaf"
        );
        let slots = (0..capacity)
            .map(|_| Slot {
                head: AtomicPtr::new(std::ptr::null_mut()),
                last_access: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MappingTable {
            slots,
            next_unused: AtomicU64::new(0),
            free_list: Mutex::new(Vec::new()),
        }
    }

    /// Allocate a fresh PID. Panics if the table is exhausted.
    pub fn allocate(&self) -> PageId {
        if let Some(pid) = self.free_list.lock().unwrap().pop() {
            return pid;
        }
        // ORDERING: the counter only hands out unique ids; slot
        // contents are published by the slot's own atomic pointer.
        let pid = self.next_unused.fetch_add(1, Ordering::Relaxed);
        assert!(
            (pid as usize) < self.slots.len(),
            "mapping table exhausted at {} pages",
            self.slots.len()
        );
        pid
    }

    /// Return a PID to the free pool. The caller must have detached and
    /// retired its chain (or never published one).
    pub fn free(&self, pid: PageId) {
        self.slots[pid as usize]
            .head
            .store(std::ptr::null_mut(), Ordering::SeqCst);
        self.free_list.lock().unwrap().push(pid);
    }

    pub(crate) fn load(&self, pid: PageId) -> *mut Node {
        let head = self.slots[pid as usize].head.load(Ordering::SeqCst);
        // A reader may be preempted between loading a head and walking the
        // chain it names: the window the epoch guard exists for. Yield there
        // so the checker explores it, then check the head was not reclaimed
        // meanwhile. A node unlinked and freed without a grace period
        // surfaces here, close to the bad unlink.
        #[cfg(feature = "check")]
        if !head.is_null() {
            dcs_check::scheduler::schedule_point();
            dcs_check::shadow::on_access(head);
        }
        head
    }

    /// Install `new` if the slot still holds `expected`.
    pub(crate) fn cas(&self, pid: PageId, expected: *mut Node, new: *mut Node) -> bool {
        self.slots[pid as usize]
            .head
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Unconditionally publish a chain at an unpublished PID (fresh
    /// allocations only: no concurrent reader can hold the PID yet),
    /// stamped as accessed at `vtime`. A new page is as young as the write
    /// that made it, not as old as its slot's previous occupant.
    pub(crate) fn store_new(&self, pid: PageId, head: *mut Node, vtime: u64) {
        self.touch(pid, vtime);
        self.slots[pid as usize].head.store(head, Ordering::SeqCst);
    }

    /// Stamp an access time (virtual nanoseconds) onto a page.
    pub fn touch(&self, pid: PageId, vtime: u64) {
        // ORDERING: advisory LRU stamp; eviction tolerates stale or
        // racing values, no other memory is published through it.
        self.slots[pid as usize]
            .last_access
            .store(vtime, Ordering::Relaxed);
    }

    /// Last access stamp for a page.
    pub fn last_access(&self, pid: PageId) -> u64 {
        // ORDERING: advisory LRU stamp, see touch().
        self.slots[pid as usize].last_access.load(Ordering::Relaxed)
    }

    /// Highest PID ever allocated (exclusive). Iterating `0..high_water()`
    /// visits every slot that may hold a page.
    pub fn high_water(&self) -> PageId {
        // ORDERING: monotone watermark; a stale read only makes the
        // caller scan fewer freshly-allocated (still empty) slots.
        self.next_unused.load(Ordering::Relaxed)
    }

    /// Ensure future allocations hand out PIDs strictly above `pid`.
    /// Used by recovery, which re-installs pages at their pre-crash PIDs.
    pub fn reserve_through(&self, pid: PageId) {
        let mut cur = self.next_unused.load(Ordering::SeqCst);
        while cur <= pid {
            match self.next_unused.compare_exchange_weak(
                cur,
                pid + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whether `pid` currently has a published chain.
    pub fn is_allocated(&self, pid: PageId) -> bool {
        (pid as usize) < self.slots.len() && !self.load(pid).is_null()
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Snapshot of the free list, for structural audits.
    pub(crate) fn free_pids(&self) -> Vec<PageId> {
        self.free_list.lock().unwrap().clone()
    }
}

impl Drop for MappingTable {
    fn drop(&mut self) {
        // Exclusive access: free every remaining chain immediately.
        for slot in self.slots.iter() {
            let head = slot.head.load(Ordering::SeqCst);
            if !head.is_null() {
                // SAFETY: `&mut self` proves no concurrent readers.
                unsafe { crate::delta::free_chain_now(head) };
            }
        }
    }
}

impl std::fmt::Debug for MappingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingTable")
            .field("capacity", &self.slots.len())
            .field("high_water", &self.high_water())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{LeafBase, Node};

    fn empty_leaf() -> *mut Node {
        Node::LeafBase(LeafBase::new(vec![], None, None, None)).into_raw()
    }

    #[test]
    fn allocate_is_dense_then_recycled() {
        let t = MappingTable::new(16);
        assert_eq!(t.allocate(), 0);
        assert_eq!(t.allocate(), 1);
        assert_eq!(t.allocate(), 2);
        t.free(1);
        assert_eq!(t.allocate(), 1);
        assert_eq!(t.allocate(), 3);
    }

    #[test]
    fn cas_succeeds_only_on_expected() {
        let t = MappingTable::new(4);
        let pid = t.allocate();
        let a = empty_leaf();
        let b = empty_leaf();
        t.store_new(pid, a, 0);
        assert!(!t.cas(pid, b, a));
        assert!(t.cas(pid, a, b));
        assert_eq!(t.load(pid), b);
        // SAFETY: `a` lost the CAS race above, so it was never published
        // in the table; this test thread is its only owner.
        unsafe {
            crate::delta::free_chain_now(a);
        }
        // b freed by table drop
    }

    #[test]
    fn touch_and_last_access() {
        let t = MappingTable::new(4);
        let pid = t.allocate();
        assert_eq!(t.last_access(pid), 0);
        t.touch(pid, 42);
        assert_eq!(t.last_access(pid), 42);
    }

    #[test]
    fn store_new_restamps_a_recycled_slot() {
        let t = MappingTable::new(4);
        let pid = t.allocate();
        t.touch(pid, 42);
        t.free(pid);
        assert_eq!(t.allocate(), pid);
        t.store_new(pid, empty_leaf(), 7);
        assert_eq!(t.last_access(pid), 7);
    }

    #[test]
    fn allocation_state_tracking() {
        let t = MappingTable::new(4);
        let pid = t.allocate();
        assert!(!t.is_allocated(pid));
        t.store_new(pid, empty_leaf(), 0);
        assert!(t.is_allocated(pid));
        assert_eq!(t.high_water(), 1);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let t = MappingTable::new(2);
        t.allocate();
        t.allocate();
        t.allocate();
    }

    #[test]
    fn drop_frees_chains() {
        // Doesn't assert, but runs under the test allocator / miri-style
        // leak checks in CI; mainly ensures drop doesn't crash on chains.
        let t = MappingTable::new(4);
        let pid = t.allocate();
        t.store_new(pid, empty_leaf(), 0);
        drop(t);
    }

    #[test]
    fn concurrent_allocate_unique() {
        let t = std::sync::Arc::new(MappingTable::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| t.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut seen = std::collections::HashSet::new();
        for h in handles {
            for pid in h.join().unwrap() {
                assert!(seen.insert(pid), "pid {pid} allocated twice");
            }
        }
    }
}
