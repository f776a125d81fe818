//! Page representation: delta records and base pages.
//!
//! A logical page is a *chain* of immutable heap nodes. The mapping table
//! points at the chain head; each node links to the next via a raw pointer.
//! Updates prepend; consolidation and eviction replace the whole chain with
//! a single CAS and retire the detached nodes through EBR.

use crate::mapping::PageId;
use bytes::Bytes;
use dcs_ebr::Guard;

/// A node in a page's delta chain.
///
/// Leaf chains terminate in [`Node::LeafBase`] (base in memory) or
/// [`Node::FlashBase`] (base on secondary storage). Inner chains terminate
/// in [`Node::InnerBase`] and are always memory-resident (the paper assumes
/// index pages stay cached).
#[allow(clippy::enum_variant_names)] // RemoveNode is the Bw-tree paper's own term
pub(crate) enum Node {
    /// Leaf upsert delta.
    Put {
        /// Record key.
        key: Bytes,
        /// New record value.
        value: Bytes,
        /// Older chain.
        next: *const Node,
    },
    /// Leaf delete delta.
    Del {
        /// Deleted key.
        key: Bytes,
        /// Older chain.
        next: *const Node,
    },
    /// Leaf split delta: keys ≥ `sep` now live at `right`.
    LeafSplit {
        /// Separator key.
        sep: Bytes,
        /// New right sibling.
        right: PageId,
        /// Older chain.
        next: *const Node,
    },
    /// Consolidated leaf contents.
    LeafBase(LeafBase),
    /// The base page (and any earlier flushed deltas) live on flash at
    /// `token`; everything above this node is the in-memory record cache.
    ///
    /// The page's fence and sibling link are kept in memory so writers can
    /// route (and blind-update) without fetching the base.
    FlashBase {
        /// Opaque page-store token (for `dcs-llama`, a flash address).
        token: u64,
        /// Exclusive upper bound of the page's key space; `None` = +∞.
        high_key: Option<Bytes>,
        /// Right sibling.
        right: Option<PageId>,
    },
    /// Everything below this node is durable at `token`; a flush collects
    /// only deltas *above* the topmost marker (LLAMA's flush delta).
    FlushMarker {
        /// Token of the durable state covering the chain below.
        token: u64,
        /// Older chain.
        next: *const Node,
    },
    /// Merge freeze: this page is being merged into its left sibling
    /// `left`; it accepts no further updates and accessors redirect left.
    RemoveNode {
        /// The absorbing left sibling.
        left: PageId,
        /// The frozen chain.
        next: *const Node,
    },
    /// Merge absorb: this page now also owns `[sep, high_key)` with the
    /// materialized `entries` (the folded contents of the removed right
    /// sibling at merge time).
    Absorb {
        /// Inclusive lower bound of the absorbed range (the old fence).
        sep: Bytes,
        /// Sorted records of the absorbed range.
        entries: Vec<(Bytes, Bytes)>,
        /// New exclusive upper fence.
        high_key: Option<Bytes>,
        /// New right sibling.
        right: Option<PageId>,
        /// Older chain.
        next: *const Node,
    },
    /// Inner index-entry delta: keys in `[sep, …)` route to `child` until a
    /// larger separator intervenes.
    IndexInsert {
        /// New separator.
        sep: Bytes,
        /// Child page for keys ≥ `sep`.
        child: PageId,
        /// Older chain.
        next: *const Node,
    },
    /// Inner index-entry delete: the routing entry at exactly `sep` is
    /// removed (merge SMO step 3); keys fall through to the previous entry.
    IndexDelete {
        /// Separator whose entry is deleted.
        sep: Bytes,
        /// Older chain.
        next: *const Node,
    },
    /// Inner split delta: separators ≥ `sep` now live at `right`.
    InnerSplit {
        /// Separator key.
        sep: Bytes,
        /// New right sibling.
        right: PageId,
        /// Older chain.
        next: *const Node,
    },
    /// Consolidated inner contents.
    InnerBase(InnerBase),
}

/// Consolidated, sorted leaf page. Built only through [`LeafBase::new`],
/// which sizes it once: a published base is immutable, so the size never
/// has to be summed again.
pub(crate) struct LeafBase {
    /// Sorted `(key, value)` records.
    pub entries: Vec<(Bytes, Bytes)>,
    /// Exclusive upper bound of this page's key space; `None` = +∞.
    pub high_key: Option<Bytes>,
    /// Right sibling (set by splits), for scans and lagging-parent routing.
    pub right: Option<PageId>,
    /// Token of an identical flash copy, if one exists (page is "clean").
    pub stored: Option<u64>,
    /// `payload_of(&entries)`, computed at construction.
    payload: usize,
}

impl LeafBase {
    /// A base over sorted `entries`.
    pub fn new(
        entries: Vec<(Bytes, Bytes)>,
        high_key: Option<Bytes>,
        right: Option<PageId>,
        stored: Option<u64>,
    ) -> Self {
        LeafBase {
            payload: Self::payload_of(&entries),
            entries,
            high_key,
            right,
            stored,
        }
    }

    /// Payload bytes (keys + values), as summed at construction.
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// Payload bytes (keys + values) of `entries`, summed now.
    pub fn payload_of(entries: &[(Bytes, Bytes)]) -> usize {
        entries.iter().map(|(k, v)| k.len() + v.len()).sum()
    }
}

/// Consolidated inner page: `first_child` routes keys below the first
/// separator; `entries[i]` routes keys in `[sep_i, sep_{i+1})`. Built only
/// through [`InnerBase::new`], which sizes it once.
pub(crate) struct InnerBase {
    /// Child for keys below `entries[0].0`.
    pub first_child: PageId,
    /// Sorted `(separator, child)` routing entries.
    pub entries: Vec<(Bytes, PageId)>,
    /// Exclusive upper bound; `None` = +∞.
    pub high_key: Option<Bytes>,
    /// Right sibling inner page.
    pub right: Option<PageId>,
    /// `separator_bytes_of(&entries)`, computed at construction.
    separator_bytes: usize,
}

impl InnerBase {
    /// A base over sorted routing `entries`.
    pub fn new(
        first_child: PageId,
        entries: Vec<(Bytes, PageId)>,
        high_key: Option<Bytes>,
        right: Option<PageId>,
    ) -> Self {
        InnerBase {
            separator_bytes: Self::separator_bytes_of(&entries),
            first_child,
            entries,
            high_key,
            right,
        }
    }

    /// Number of children routed.
    pub fn child_count(&self) -> usize {
        1 + self.entries.len()
    }

    /// Separator bytes, as summed at construction.
    pub fn separator_bytes(&self) -> usize {
        self.separator_bytes
    }

    /// Separator bytes of `entries`, summed now.
    pub fn separator_bytes_of(entries: &[(Bytes, PageId)]) -> usize {
        entries.iter().map(|(s, _)| s.len()).sum()
    }
}

impl Node {
    /// The next-older node in the chain, if this is a delta.
    pub fn next(&self) -> Option<*const Node> {
        match self {
            Node::Put { next, .. }
            | Node::Del { next, .. }
            | Node::LeafSplit { next, .. }
            | Node::FlushMarker { next, .. }
            | Node::RemoveNode { next, .. }
            | Node::Absorb { next, .. }
            | Node::IndexInsert { next, .. }
            | Node::IndexDelete { next, .. }
            | Node::InnerSplit { next, .. } => Some(*next),
            Node::LeafBase(_) | Node::FlashBase { .. } | Node::InnerBase(_) => None,
        }
    }

    /// True for nodes that can appear in inner-page chains.
    pub fn is_inner(&self) -> bool {
        matches!(
            self,
            Node::IndexInsert { .. }
                | Node::IndexDelete { .. }
                | Node::InnerSplit { .. }
                | Node::InnerBase(_)
        )
    }

    /// Approximate heap bytes attributable to this node. O(1) for every
    /// kind but the (rare) absorb delta: bases carry their sizes.
    pub fn approx_bytes(&self) -> usize {
        let body = match self {
            Node::Put { key, value, .. } => key.len() + value.len(),
            Node::Del { key, .. } => key.len(),
            Node::LeafSplit { sep, .. } | Node::InnerSplit { sep, .. } => sep.len(),
            // Consolidated bases are accounted as the packed page a real
            // Bw-tree materializes (payload + a small per-record slot), not
            // this port's Vec-of-Bytes representation: the paper's page-size
            // and footprint arithmetic (Ps ≈ 2.7 KB, Mx) assumes packed
            // pages at ~100 % utilization.
            Node::LeafBase(b) => b.payload_bytes() + b.entries.len() * 8,
            Node::FlashBase { high_key, .. } => high_key.as_ref().map(|k| k.len()).unwrap_or(0),
            Node::FlushMarker { .. } => 0,
            Node::RemoveNode { .. } => 0,
            Node::Absorb { entries, .. } => LeafBase::payload_of(entries) + entries.len() * 8,
            Node::IndexDelete { sep, .. } => sep.len(),
            Node::IndexInsert { sep, .. } => sep.len() + 8,
            Node::InnerBase(b) => b.separator_bytes() + b.entries.len() * 8 + 8,
        };
        body + std::mem::size_of::<Node>()
    }

    /// Allocate on the heap, returning a raw chain pointer.
    pub fn into_raw(self) -> *mut Node {
        let ptr = Box::into_raw(Box::new(self));
        // Shadow-heap bookkeeping: a fresh allocation may reuse an address
        // the checker saw freed earlier; registering it resets that slot.
        #[cfg(feature = "check")]
        dcs_check::shadow::on_alloc(ptr);
        ptr
    }
}

/// Iterate a chain from `head` down to (and including) its base.
///
/// # Safety
/// `head` must point to a live chain and the caller must hold an EBR guard
/// pinned since before loading `head` from the mapping table.
pub(crate) unsafe fn chain_iter<'g>(head: *const Node) -> ChainIter<'g> {
    ChainIter {
        cur: head,
        _marker: std::marker::PhantomData,
    }
}

pub(crate) struct ChainIter<'g> {
    cur: *const Node,
    _marker: std::marker::PhantomData<&'g Node>,
}

impl<'g> Iterator for ChainIter<'g> {
    type Item = &'g Node;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur.is_null() {
            return None;
        }
        // Under the checker, every chain dereference is validated against the
        // shadow heap: walking into a node whose destructor already ran is a
        // use-after-free and aborts the execution with the seed.
        #[cfg(feature = "check")]
        dcs_check::shadow::on_access(self.cur);
        // SAFETY: guaranteed live by the guard held per `chain_iter` contract.
        let node = unsafe { &*self.cur };
        self.cur = node.next().unwrap_or(std::ptr::null());
        Some(node)
    }
}

/// Everything one walk of a chain tells: its size and length, and for a
/// leaf, what of it the page store does not hold yet.
pub(crate) struct ChainShape<'g> {
    /// Number of delta nodes above the base.
    pub deltas: usize,
    /// Total approximate bytes of all nodes.
    pub bytes: usize,
    /// The node that terminates the chain.
    pub base: &'g Node,
    /// Record deltas (puts and deletes) anywhere in the chain.
    pub records: usize,
    /// Record deltas above the topmost flush marker: not yet durable.
    pub unflushed: usize,
    /// Deltas that change the leaf's state: records, splits and absorbs.
    pub leaf_deltas: usize,
    /// Whether a split or absorb delta is in the chain (structural: a flush
    /// must write a full image).
    pub has_split: bool,
    /// Token of the topmost flush marker.
    pub marker: Option<u64>,
    /// Whether a merge froze the page (a remove-node delta).
    pub frozen: bool,
}

impl ChainShape<'_> {
    /// Whether the chain bottom is a flash-resident base.
    pub fn flash_base(&self) -> bool {
        matches!(self.base, Node::FlashBase { .. })
    }
}

/// Measure and classify a chain in one walk.
///
/// # Safety
/// Same contract as [`chain_iter`].
pub(crate) unsafe fn chain_shape<'g>(head: *const Node) -> ChainShape<'g> {
    let mut bytes = 0;
    let mut records = 0;
    let mut unflushed = 0;
    let mut leaf_deltas = 0;
    let mut has_split = false;
    let mut marker = None;
    let mut frozen = false;
    // SAFETY: forwarding this function's own contract — same as
    // [`chain_iter`]'s.
    for (deltas, node) in unsafe { chain_iter(head) }.enumerate() {
        bytes += node.approx_bytes();
        match node {
            Node::Put { .. } | Node::Del { .. } => {
                records += 1;
                leaf_deltas += 1;
                if marker.is_none() {
                    unflushed += 1;
                }
            }
            Node::LeafSplit { .. } | Node::Absorb { .. } => {
                leaf_deltas += 1;
                has_split = true;
            }
            Node::FlushMarker { token, .. } => marker = marker.or(Some(*token)),
            Node::RemoveNode { .. } => frozen = true,
            Node::IndexInsert { .. } | Node::IndexDelete { .. } | Node::InnerSplit { .. } => {}
            Node::LeafBase(_) | Node::FlashBase { .. } | Node::InnerBase(_) => {
                return ChainShape {
                    deltas,
                    bytes,
                    base: node,
                    records,
                    unflushed,
                    leaf_deltas,
                    has_split,
                    marker,
                    frozen,
                };
            }
        }
    }
    unreachable!("chain without a base");
}

/// Retire every node of a detached chain through the guard's collector.
///
/// # Safety
/// The chain rooted at `head` must have been atomically unlinked from the
/// mapping table (no new references can form) and must not be retired twice.
pub(crate) unsafe fn retire_chain(guard: &Guard, head: *mut Node) {
    if head.is_null() {
        return;
    }
    // Report every node of the chain as retired. Overlapping retirements
    // (the same node reachable from two retired chains) surface as a
    // double-retire failure in the checker instead of a latent double-free.
    #[cfg(feature = "check")]
    {
        let mut cur = head as *const Node;
        while !cur.is_null() {
            dcs_check::shadow::on_retire(cur);
            // SAFETY: the guard is pinned and the chain was just unlinked,
            // so every node is still live for this walk.
            cur = unsafe { (*cur).next().unwrap_or(std::ptr::null()) };
        }
    }
    let addr = head as usize;
    guard.defer(move || {
        let mut cur = addr as *mut Node;
        while !cur.is_null() {
            #[cfg(feature = "check")]
            dcs_check::shadow::on_free(cur as *const Node);
            // SAFETY: chain is unlinked and the grace period has elapsed.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed
                .next()
                .map(|p| p as *mut Node)
                .unwrap_or(std::ptr::null_mut());
            // `boxed` drops here, freeing the node.
        }
    });
}

/// Retire one published node — not the chain below it — through the
/// guard's collector: a delta that was CASed back out of its slot, leaving
/// the node under it live again (a rolled-back merge freeze). A reader
/// pinned before the unlink may still be walking it, so it cannot be freed
/// at once, and its `next` must not be freed with it.
///
/// # Safety
/// `node` must have been atomically unlinked from the mapping table (no
/// new references can form) and must not be retired twice.
pub(crate) unsafe fn retire_node(guard: &Guard, node: *mut Node) {
    #[cfg(feature = "check")]
    dcs_check::shadow::on_retire(node as *const Node);
    let addr = node as usize;
    guard.defer(move || {
        #[cfg(feature = "check")]
        dcs_check::shadow::on_free(addr as *const Node);
        // SAFETY: unlinked and the grace period has elapsed. Dropping the
        // box frees this node only: `next` is a raw pointer.
        drop(unsafe { Box::from_raw(addr as *mut Node) });
    });
}

/// Free a chain immediately. Only for never-published chains (e.g. a failed
/// split's orphan page) and for teardown in `Drop` when no readers exist.
pub(crate) unsafe fn free_chain_now(head: *mut Node) {
    let mut cur = head;
    while !cur.is_null() {
        #[cfg(feature = "check")]
        dcs_check::shadow::on_free(cur as *const Node);
        // SAFETY: caller guarantees exclusivity.
        let boxed = unsafe { Box::from_raw(cur) };
        cur = boxed
            .next()
            .map(|p| p as *mut Node)
            .unwrap_or(std::ptr::null_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_base(entries: Vec<(&str, &str)>) -> *mut Node {
        Node::LeafBase(LeafBase::new(
            entries
                .into_iter()
                .map(|(k, v)| (Bytes::from(k.to_owned()), Bytes::from(v.to_owned())))
                .collect(),
            None,
            None,
            None,
        ))
        .into_raw()
    }

    /// Every node is charged `size_of::<Node>()`; a variant that outgrew
    /// the absorb delta would move every footprint and eviction counter.
    #[test]
    fn node_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Node>(), 112);
    }

    #[test]
    fn chain_iteration_reaches_base() {
        let base = leaf_base(vec![("a", "1")]);
        let d1 = Node::Put {
            key: Bytes::from("b"),
            value: Bytes::from("2"),
            next: base,
        }
        .into_raw();
        let d2 = Node::Del {
            key: Bytes::from("a"),
            next: d1,
        }
        .into_raw();

        // SAFETY: `d2` heads a chain this test just built and owns.
        let nodes: Vec<_> = unsafe { chain_iter(d2) }.collect();
        assert_eq!(nodes.len(), 3);
        assert!(matches!(nodes[0], Node::Del { .. }));
        assert!(matches!(nodes[1], Node::Put { .. }));
        assert!(matches!(nodes[2], Node::LeafBase(_)));

        // SAFETY: never published; this test is the only owner.
        unsafe { free_chain_now(d2) };
    }

    #[test]
    fn chain_shape_counts_deltas() {
        let base = leaf_base(vec![("a", "1"), ("b", "2")]);
        let d1 = Node::Put {
            key: Bytes::from("c"),
            value: Bytes::from("3"),
            next: base,
        }
        .into_raw();
        // SAFETY: `d1` heads a chain this test just built and owns.
        let shape = unsafe { chain_shape(d1) };
        assert_eq!(shape.deltas, 1);
        assert!(!shape.flash_base());
        let n = std::mem::size_of::<Node>();
        assert_eq!(shape.bytes, (n + 2) + (n + 4 + 2 * 8));
        // SAFETY: never published; this test is the only owner.
        unsafe { free_chain_now(d1) };
    }

    #[test]
    fn flash_base_detected() {
        let fb = Node::FlashBase {
            token: 9,
            high_key: None,
            right: None,
        }
        .into_raw();
        // SAFETY: `fb` is a single-node chain this test just built and owns.
        let shape = unsafe { chain_shape(fb) };
        assert!(shape.flash_base());
        assert_eq!(shape.deltas, 0);
        // SAFETY: never published; this test is the only owner.
        unsafe { free_chain_now(fb) };
    }

    #[test]
    fn retire_chain_frees_through_ebr() {
        let collector = dcs_ebr::Collector::new();
        let handle = collector.register();
        let base = leaf_base(vec![("x", "y")]);
        let d = Node::Put {
            key: Bytes::from("k"),
            value: Bytes::from("v"),
            next: base,
        }
        .into_raw();
        {
            let guard = handle.pin();
            // SAFETY: `d` was never published; retiring under the guard is
            // trivially exclusive.
            unsafe { retire_chain(&guard, d) };
        }
        for _ in 0..64 {
            handle.pin().flush();
        }
        let stats = collector.stats();
        assert_eq!(stats.freed_total, 1, "chain retirement is one deferred fn");
    }

    #[test]
    fn inner_base_child_count() {
        let b = InnerBase::new(
            1,
            vec![(Bytes::from("m"), 2), (Bytes::from("t"), 3)],
            None,
            None,
        );
        assert_eq!(b.child_count(), 3);
    }

    #[test]
    fn node_kind_predicates() {
        let ib = Node::InnerBase(InnerBase::new(0, vec![], None, None));
        assert!(ib.next().is_none());
        assert!(ib.is_inner());
        let lb = Node::FlashBase {
            token: 0,
            high_key: None,
            right: None,
        };
        assert!(lb.next().is_none());
        assert!(!lb.is_inner());
        drop(ib);
        drop(lb);
    }
}
