//! Page representation: delta records and base pages.
//!
//! A logical page is a *chain* of immutable heap nodes. The mapping table
//! points at the chain head; each node links to the next. Updates prepend;
//! consolidation and eviction replace the whole chain with a single CAS and
//! retire the detached nodes through EBR.
//!
//! Who may free a node is decided by its type, not by each caller:
//!
//! * [`Chain`] — a published chain, read under an epoch guard. It frees
//!   nothing.
//! * [`Delta`] and [`Fresh`] — nodes this thread built and has not
//!   published, owned values. Losing a race is a plain drop.
//! * [`Unlinked`] — the mapping table's proof that an unlink removed
//!   published nodes. [`retire`] takes it and frees them after an epoch.

use crate::mapping::PageId;
use bytes::Bytes;
use dcs_ebr::Guard;
use std::marker::PhantomData;
use std::ptr::NonNull;

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
        next: Link,
    },
    /// Leaf delete delta.
    Del {
        /// Deleted key.
        key: Bytes,
        /// Older chain.
        next: Link,
    },
    /// Leaf split delta: keys ≥ `sep` now live at `right`.
    LeafSplit {
        /// Separator key.
        sep: Bytes,
        /// New right sibling.
        right: PageId,
        /// Older chain.
        next: Link,
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
        next: Link,
    },
    /// Merge freeze: this page is being merged into its left sibling
    /// `left`; it accepts no further updates and accessors redirect left.
    RemoveNode {
        /// The absorbing left sibling.
        left: PageId,
        /// The frozen chain.
        next: Link,
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
        next: Link,
    },
    /// Inner index-entry delta: keys in `[sep, …)` route to `child` until a
    /// larger separator intervenes.
    IndexInsert {
        /// New separator.
        sep: Bytes,
        /// Child page for keys ≥ `sep`.
        child: PageId,
        /// Older chain.
        next: Link,
    },
    /// Inner index-entry delete: the routing entry at exactly `sep` is
    /// removed (merge SMO step 3); keys fall through to the previous entry.
    IndexDelete {
        /// Separator whose entry is deleted.
        sep: Bytes,
        /// Older chain.
        next: Link,
    },
    /// Inner split delta: separators ≥ `sep` now live at `right`.
    InnerSplit {
        /// Separator key.
        sep: Bytes,
        /// New right sibling.
        right: PageId,
        /// Older chain.
        next: Link,
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
    /// The next-older node, if this is a delta.
    fn next(&self) -> Option<*const Node> {
        match self {
            Node::Put { next, .. }
            | Node::Del { next, .. }
            | Node::LeafSplit { next, .. }
            | Node::FlushMarker { next, .. }
            | Node::RemoveNode { next, .. }
            | Node::Absorb { next, .. }
            | Node::IndexInsert { next, .. }
            | Node::IndexDelete { next, .. }
            | Node::InnerSplit { next, .. } => Some(next.0),
            Node::LeafBase(_) | Node::FlashBase { .. } | Node::InnerBase(_) => None,
        }
    }

    /// Hang this delta on `below`. Panics on a base, which links nowhere.
    fn link_to(mut self, below: *const Node) -> Node {
        match &mut self {
            Node::Put { next, .. }
            | Node::Del { next, .. }
            | Node::LeafSplit { next, .. }
            | Node::FlushMarker { next, .. }
            | Node::RemoveNode { next, .. }
            | Node::Absorb { next, .. }
            | Node::IndexInsert { next, .. }
            | Node::IndexDelete { next, .. }
            | Node::InnerSplit { next, .. } => *next = Link(below),
            Node::LeafBase(_) | Node::FlashBase { .. } | Node::InnerBase(_) => {
                panic!("a base cannot sit on a chain")
            }
        }
        self
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

    /// Move onto the heap: the one allocation of a chain node.
    fn alloc(self) -> NonNull<Node> {
        let ptr = NonNull::from(Box::leak(Box::new(self)));
        // Shadow-heap bookkeeping: a fresh allocation may reuse an address
        // the checker saw freed earlier; registering it resets that slot.
        #[cfg(feature = "check")]
        dcs_check::shadow::on_alloc(ptr.as_ptr());
        ptr
    }
}

/// A delta's link to the next-older node of its chain. Only this module
/// sets one, when [`Delta::new`] or [`Fresh::push`] hangs a delta on a
/// chain; a node built elsewhere carries [`Link::UNSET`] until then. It
/// cannot be copied out of a node either, so a link always names a node
/// that outlives the node holding it.
pub(crate) struct Link(*const Node);

impl Link {
    /// The link of a delta not yet hung on a chain.
    pub(crate) const UNSET: Link = Link(std::ptr::null());
}

/// A published chain, readable for as long as the epoch guard it was
/// loaded under (`'g`) stays pinned: the mapping table hands one out from
/// a load or a won CAS, and frees a chain only through [`retire`], after
/// every guard pinned before the unlink is gone.
#[derive(Clone, Copy)]
pub(crate) struct Chain<'g> {
    head: NonNull<Node>,
    _guard: PhantomData<&'g Node>,
}

impl<'g> Chain<'g> {
    /// The chain whose head `head` is.
    ///
    /// # Safety
    /// `head` must stay live for `'g`: loaded from the mapping table under
    /// a guard pinned for `'g`, so that no retire can free it meanwhile.
    pub(crate) unsafe fn from_raw(head: NonNull<Node>) -> Chain<'g> {
        Chain {
            head,
            _guard: PhantomData,
        }
    }

    /// The newest node.
    pub(crate) fn head(self) -> &'g Node {
        // SAFETY: a `Chain` names a node live for `'g` (see `from_raw` and
        // the other constructors in this module).
        unsafe { self.head.as_ref() }
    }

    /// Whether this is an inner-page chain (every node kind identifies its
    /// level, except markers, which only appear on leaves).
    pub(crate) fn is_inner(self) -> bool {
        self.head().is_inner()
    }

    /// The chain under the head delta; `None` at a base.
    pub(crate) fn below(self) -> Option<Chain<'g>> {
        let next = self.head().next()?;
        // A link outlives the node holding it, so `next` is live for `'g`.
        Some(Chain {
            head: NonNull::new(next.cast_mut()).expect("a delta is hung on a chain"),
            _guard: PhantomData,
        })
    }

    /// The head's address, for the mapping table's CAS.
    pub(crate) fn as_ptr(self) -> *mut Node {
        self.head.as_ptr()
    }
}

/// Iterate a chain from its head down to (and including) its base.
pub(crate) fn chain_iter(chain: Chain<'_>) -> ChainIter<'_> {
    ChainIter {
        cur: chain.head.as_ptr(),
        _marker: PhantomData,
    }
}

pub(crate) struct ChainIter<'g> {
    cur: *const Node,
    _marker: PhantomData<&'g Node>,
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
        // SAFETY: `cur` is the head of a `Chain<'g>` or the link of a node
        // yielded before it; either is live for `'g`.
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
pub(crate) fn chain_shape(chain: Chain<'_>) -> ChainShape<'_> {
    let mut bytes = 0;
    let mut records = 0;
    let mut unflushed = 0;
    let mut leaf_deltas = 0;
    let mut has_split = false;
    let mut marker = None;
    let mut frozen = false;
    for (deltas, node) in chain_iter(chain).enumerate() {
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

/// Nodes owned outright: `head` and the nodes under it, down to but not
/// including `keep` (null: to the base). Dropping it frees them — the one
/// place a node is freed, whether it was never published or retired.
struct Owned {
    head: *mut Node,
    keep: *const Node,
}

impl Drop for Owned {
    fn drop(&mut self) {
        let mut cur = self.head;
        while !cur.is_null() && cur.cast_const() != self.keep {
            #[cfg(feature = "check")]
            dcs_check::shadow::on_free(cur.cast_const());
            // SAFETY: every `Owned` this module builds names nodes from
            // `Node::alloc` that nothing else frees and nobody reads any
            // more: unpublished ones, or retired ones past their grace
            // period.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next().unwrap_or(std::ptr::null()).cast_mut();
        }
    }
}

impl Owned {
    /// Stop owning the nodes: the mapping table now holds the only link
    /// to `head`. The caller ties `'g` to a guard pinned now; nothing can
    /// free the nodes before an unlink, and the retire after it outwaits
    /// that guard.
    fn publish<'g>(self) -> Chain<'g> {
        let head = NonNull::new(self.head).expect("an owned chain has a head");
        std::mem::forget(self);
        Chain {
            head,
            _guard: PhantomData,
        }
    }
}

/// One unpublished delta, hung on the published chain it was built over.
/// The mapping table's `prepend` consumes it and hands it back on a lost
/// CAS; dropping it frees the delta alone, since the chain under it stays
/// published.
pub(crate) struct Delta<'g> {
    nodes: Owned,
    onto: Chain<'g>,
}

impl<'g> Delta<'g> {
    /// `node` (a delta) hung on `onto`.
    pub(crate) fn new(node: Node, onto: Chain<'g>) -> Delta<'g> {
        let keep = onto.as_ptr().cast_const();
        let head = node.link_to(keep).alloc().as_ptr();
        Delta {
            nodes: Owned { head, keep },
            onto,
        }
    }

    /// The chain this delta was built over: the CAS's expected head.
    pub(crate) fn onto(&self) -> Chain<'g> {
        self.onto
    }

    /// The delta's address, for the mapping table's CAS.
    pub(crate) fn as_ptr(&self) -> *mut Node {
        self.nodes.head
    }

    /// Give the delta up to the mapping table after a won CAS: it is now
    /// published, over `onto`, under the same guard.
    pub(crate) fn publish(self) -> Chain<'g> {
        self.nodes.publish()
    }
}

/// An unpublished chain this thread built — a base and the deltas above
/// it, none shared with any other chain. The mapping table's `cas` and
/// `store_new` consume it, and a lost CAS hands it back; dropping it frees
/// every node.
pub(crate) struct Fresh {
    nodes: Owned,
}

impl Fresh {
    /// A one-node chain of `base`.
    pub(crate) fn new(base: Node) -> Fresh {
        debug_assert!(base.next().is_none(), "a chain ends in a base");
        Fresh {
            nodes: Owned {
                head: base.alloc().as_ptr(),
                keep: std::ptr::null(),
            },
        }
    }

    /// This chain with the delta `node` on top.
    pub(crate) fn push(mut self, node: Node) -> Fresh {
        let below = self.nodes.head;
        self.nodes.head = node.link_to(below).alloc().as_ptr();
        self
    }

    /// Read the chain while this thread still owns it.
    #[cfg(test)]
    pub(crate) fn chain(&self) -> Chain<'_> {
        Chain {
            head: NonNull::new(self.nodes.head).expect("an owned chain has a head"),
            _guard: PhantomData,
        }
    }

    /// The head's address, for the mapping table's CAS.
    pub(crate) fn as_ptr(&self) -> *mut Node {
        self.nodes.head
    }

    /// Give the chain up to the mapping table after a won CAS or a store
    /// into a fresh PID.
    pub(crate) fn publish<'g>(self) -> Chain<'g> {
        self.nodes.publish()
    }
}

/// Free the chain at `head` now. Table teardown only.
///
/// # Safety
/// The caller must own every node of the chain: no reader can reach it
/// and nothing else frees it (a mapping table being dropped).
pub(crate) unsafe fn free_chain_now(head: *mut Node) {
    drop(Owned {
        head,
        keep: std::ptr::null(),
    });
}

/// Proof that an unlink took `head` out of the mapping table: no reader
/// that pins after it can reach the nodes from `head` down to `keep`, the
/// part of the chain still published (null: none). Only the mapping
/// table makes one, from a won CAS or from freeing a PID; [`retire`] is
/// what takes it.
#[must_use = "unlinked nodes leak unless retired"]
pub(crate) struct Unlinked {
    head: *mut Node,
    keep: *const Node,
}

impl Unlinked {
    /// # Safety
    /// An atomic unlink this thread won must just have taken the chain at
    /// `head` out of its mapping slot, leaving published at most `keep`
    /// (a node of that chain, or null); no other proof may name these
    /// nodes.
    pub(crate) unsafe fn new(head: *mut Node, keep: *const Node) -> Unlinked {
        Unlinked { head, keep }
    }
}

/// Retire what an unlink removed through the guard's collector: the nodes
/// above whatever the unlink left published — the whole old chain after a
/// replacement, only the delta a rollback popped. Readers pinned before
/// the unlink may still be walking them, so they are freed after the
/// grace period, not now.
pub(crate) fn retire(guard: &Guard, unlinked: Unlinked) {
    // Report every retired node. Overlapping retirements (the same node
    // reachable from two retired chains) surface as a double-retire
    // failure in the checker instead of a latent double-free.
    #[cfg(feature = "check")]
    {
        let mut cur = unlinked.head.cast_const();
        while !cur.is_null() && cur != unlinked.keep {
            dcs_check::shadow::on_retire(cur);
            // SAFETY: the guard is pinned and the chain was just unlinked,
            // so every node is still live for this walk.
            cur = unsafe { (*cur).next() }.unwrap_or(std::ptr::null());
        }
    }
    let (head, keep) = (unlinked.head as usize, unlinked.keep as usize);
    guard.defer(move || {
        drop(Owned {
            head: head as *mut Node,
            keep: keep as *const Node,
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_base(entries: Vec<(&str, &str)>) -> Fresh {
        Fresh::new(Node::LeafBase(LeafBase::new(
            entries
                .into_iter()
                .map(|(k, v)| (Bytes::from(k.to_owned()), Bytes::from(v.to_owned())))
                .collect(),
            None,
            None,
            None,
        )))
    }

    fn put(key: &'static str, value: &'static str) -> Node {
        Node::Put {
            key: Bytes::from(key),
            value: Bytes::from(value),
            next: Link::UNSET,
        }
    }

    /// Every node is charged `size_of::<Node>()`; a variant that outgrew
    /// the absorb delta would move every footprint and eviction counter.
    #[test]
    fn node_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Node>(), 112);
    }

    #[test]
    fn chain_iteration_reaches_base() {
        let chain = leaf_base(vec![("a", "1")])
            .push(put("b", "2"))
            .push(Node::Del {
                key: Bytes::from("a"),
                next: Link::UNSET,
            });
        let nodes: Vec<_> = chain_iter(chain.chain()).collect();
        assert_eq!(nodes.len(), 3);
        assert!(matches!(nodes[0], Node::Del { .. }));
        assert!(matches!(nodes[1], Node::Put { .. }));
        assert!(matches!(nodes[2], Node::LeafBase(_)));
    }

    #[test]
    fn chain_shape_counts_deltas() {
        let chain = leaf_base(vec![("a", "1"), ("b", "2")]).push(put("c", "3"));
        let shape = chain_shape(chain.chain());
        assert_eq!(shape.deltas, 1);
        assert!(!shape.flash_base());
        let n = std::mem::size_of::<Node>();
        assert_eq!(shape.bytes, (n + 2) + (n + 4 + 2 * 8));
    }

    #[test]
    fn flash_base_detected() {
        let fb = Fresh::new(Node::FlashBase {
            token: 9,
            high_key: None,
            right: None,
        });
        let shape = chain_shape(fb.chain());
        assert!(shape.flash_base());
        assert_eq!(shape.deltas, 0);
    }

    #[test]
    fn retire_chain_frees_through_ebr() {
        let collector = dcs_ebr::Collector::new();
        let handle = collector.register();
        let table = crate::mapping::MappingTable::new(2);
        let pid = table.allocate();
        table.store_new(pid, leaf_base(vec![("x", "y")]).push(put("k", "v")), 0);
        {
            let guard = handle.pin();
            let old = table.load(pid, &guard).unwrap();
            let Ok((_, unlinked)) = table.cas(pid, old, leaf_base(vec![])) else {
                panic!("no other thread races this CAS");
            };
            retire(&guard, unlinked);
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
