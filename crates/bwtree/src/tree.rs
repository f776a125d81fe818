//! The Bw-tree proper: descent, reads, delta updates, consolidation,
//! structure modifications, and page flush/eviction.

use crate::config::BwTreeConfig;
use crate::delta::{
    chain_iter, chain_shape, retire, Chain, ChainShape, Delta, Fresh, InnerBase, LeafBase, Link,
    Node,
};
use crate::mapping::{MappingTable, PageId};
use crate::page::{DeltaOp, PageImage};
use crate::stats::{bump, StatsInner, TreeStats};
use crate::store::{NullStore, PageStore, StoreError};
use crate::sync::{AtomicU64, Ordering};
use bytes::Bytes;
use dcs_ebr::Guard;
use std::sync::Arc;

/// Errors surfaced by tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The page store failed.
    Store(StoreError),
    /// The PID does not name a live page.
    PageNotFound(PageId),
    /// Flush/evict was asked of an inner page (index pages stay cached).
    InnerPageNotEvictable(PageId),
    /// The recovered page set is not a consistent leaf partition.
    RecoveryInvalid(String),
}

impl From<StoreError> for TreeError {
    fn from(e: StoreError) -> Self {
        TreeError::Store(e)
    }
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Store(e) => write!(f, "page store: {e}"),
            TreeError::PageNotFound(p) => write!(f, "page {p} not found"),
            TreeError::InnerPageNotEvictable(p) => write!(f, "page {p} is an index page"),
            TreeError::RecoveryInvalid(m) => write!(f, "recovery: {m}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Where a page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyState {
    /// Base page in memory (possibly plus deltas).
    Resident,
    /// Base on flash, one or more record deltas in memory (record cache).
    Partial,
    /// Everything on flash; only a stub in memory.
    Evicted,
}

/// What to do with the in-memory page state after making it durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// Make durable, keep the page fully resident (clean).
    FlushOnly,
    /// Make durable, drop the base page but keep record deltas in memory as
    /// a record cache (§6.3).
    EvictBaseKeepDeltas,
    /// Make durable and drop everything except a flash stub.
    EvictAll,
}

/// Outcome of a non-blocking point lookup ([`BwTree::try_get_async`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TryGetAsync {
    /// Answered entirely from memory.
    Hit(Option<Bytes>),
    /// The owning leaf's base is flash-resident: fetch durable state
    /// `token` of page `pid` from the page store, install it with
    /// [`BwTree::install_fetched`], and re-probe with
    /// [`BwTree::resume_get`].
    NeedFetch {
        /// The flash-resident leaf.
        pid: PageId,
        /// Its newest durable token.
        token: u64,
    },
}

impl TryGetAsync {
    /// Whether the read is still waiting on durable state `token`. This is
    /// the rule for a failed fetch of `token`, on the blocking and the
    /// submit/poll paths alike: re-probe, and fail the read only if this
    /// holds — otherwise a concurrent flush or install moved the leaf on
    /// and the read carries on from the fresh probe.
    pub fn needs_token(&self, token: u64) -> bool {
        matches!(self, TryGetAsync::NeedFetch { token: t, .. } if *t == token)
    }
}

/// Point-in-time description of one page, for cache managers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageInfo {
    /// The page's id.
    pub pid: PageId,
    /// Leaf or index page.
    pub is_leaf: bool,
    /// Residency state.
    pub residency: ResidencyState,
    /// Delta-chain length above the base.
    pub chain_len: usize,
    /// Approximate in-memory bytes.
    pub mem_bytes: usize,
    /// Last access stamp (virtual nanoseconds, host-supplied).
    pub last_access: u64,
    /// Whether the page has state not yet durable in the page store.
    pub dirty: bool,
}

/// A durable page found during recovery: the inputs to
/// [`BwTree::from_recovered`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredPage {
    /// The page's pre-crash PID.
    pub pid: PageId,
    /// Token of its newest durable state.
    pub token: u64,
    /// Exclusive upper fence (`None` = +∞, the rightmost leaf).
    pub high_key: Option<Bytes>,
    /// Right sibling PID.
    pub right: Option<PageId>,
}

/// A latch-free Bw-tree. See the crate docs for the design overview.
pub struct BwTree {
    config: BwTreeConfig,
    mapping: MappingTable,
    root: AtomicU64,
    store: Arc<dyn PageStore>,
    stats: StatsInner,
    /// Host-driven virtual time used to stamp page accesses.
    vtime: AtomicU64,
    /// Miss-ratio-curve profiler over the leaf-page access stream
    /// (entity = PID, sized at the configured leaf capacity).
    mrc: Arc<dcs_telemetry::MrcProfiler>,
}

/// Result of searching one leaf chain.
enum LeafSearch {
    Found {
        value: Bytes,
        from_delta_over_flash: bool,
    },
    Deleted,
    Missing,
    GoRight(PageId),
    NeedFetch {
        token: u64,
    },
}

/// A merged leaf snapshot and the key to resume a scan from.
pub(crate) type LeafSnapshot = (Vec<(Bytes, Bytes)>, Option<Bytes>);

/// Routing decision inside an inner chain.
enum Route {
    Child(PageId),
    Sibling(PageId),
}

impl BwTree {
    /// A tree with no secondary storage: eviction is unavailable and every
    /// operation is a main-memory operation.
    pub fn in_memory(config: BwTreeConfig) -> Self {
        Self::with_store(config, Arc::new(NullStore))
    }

    /// A tree backed by a page store (see `dcs-llama`).
    pub fn with_store(config: BwTreeConfig, store: Arc<dyn PageStore>) -> Self {
        let mapping = MappingTable::new(config.mapping_capacity);
        let root = mapping.allocate();
        mapping.store_new(
            root,
            Fresh::new(Node::LeafBase(LeafBase::new(Vec::new(), None, None, None))),
            0,
        );
        BwTree {
            config,
            mapping,
            root: AtomicU64::new(root),
            store,
            stats: StatsInner::default(),
            vtime: AtomicU64::new(0),
            mrc: dcs_telemetry::mrc().profiler("mrc.page_cache"),
        }
    }

    /// Rebuild a tree from recovered flash-resident leaves.
    ///
    /// Every leaf is re-installed at its **original PID** as a flash stub
    /// (`FlashBase`), so future flushes keep superseding the same logical
    /// pages across restarts — exactly like LLAMA recovering its mapping
    /// table. The index levels are rebuilt from the leaves' fence keys; no
    /// record data is read (pages fault in lazily on first access).
    pub fn from_recovered(
        config: BwTreeConfig,
        store: Arc<dyn PageStore>,
        pages: Vec<RecoveredPage>,
    ) -> Result<Self, TreeError> {
        if pages.is_empty() {
            return Ok(Self::with_store(config, store));
        }
        // Order the leaves by their right-link chain.
        let mut by_pid = std::collections::HashMap::new();
        let mut referenced = std::collections::HashSet::new();
        for (i, p) in pages.iter().enumerate() {
            if by_pid.insert(p.pid, i).is_some() {
                return Err(TreeError::RecoveryInvalid(format!(
                    "duplicate pid {}",
                    p.pid
                )));
            }
            if let Some(r) = p.right {
                referenced.insert(r);
            }
        }
        let head = pages
            .iter()
            .find(|p| !referenced.contains(&p.pid))
            .ok_or_else(|| TreeError::RecoveryInvalid("leaf chain has a cycle".into()))?;
        let mut chain: Vec<&RecoveredPage> = Vec::with_capacity(pages.len());
        let mut cur = Some(head.pid);
        while let Some(pid) = cur {
            let idx = *by_pid.get(&pid).ok_or_else(|| {
                TreeError::RecoveryInvalid(format!("right link to unknown pid {pid}"))
            })?;
            let page = &pages[idx];
            chain.push(page);
            if chain.len() > pages.len() {
                return Err(TreeError::RecoveryInvalid("leaf chain has a cycle".into()));
            }
            cur = page.right;
        }
        if chain.len() != pages.len() {
            return Err(TreeError::RecoveryInvalid(format!(
                "leaf chain covers {} of {} pages",
                chain.len(),
                pages.len()
            )));
        }
        // Fences must ascend, ending in the open (None) fence.
        for w in chain.windows(2) {
            match (&w[0].high_key, &w[1].high_key) {
                (Some(a), Some(b)) if a < b => {}
                (Some(_), None) => {}
                _ => {
                    return Err(TreeError::RecoveryInvalid(
                        "leaf fences are not ascending".into(),
                    ))
                }
            }
        }
        if chain.last().expect("non-empty").high_key.is_some() {
            return Err(TreeError::RecoveryInvalid(
                "rightmost leaf must have an open fence".into(),
            ));
        }

        let mapping = MappingTable::new(config.mapping_capacity);
        let mut max_pid = 0;
        for page in &chain {
            mapping.store_new(
                page.pid,
                Fresh::new(Node::FlashBase {
                    token: page.token,
                    high_key: page.high_key.clone(),
                    right: page.right,
                }),
                0,
            );
            max_pid = max_pid.max(page.pid);
        }
        mapping.reserve_through(max_pid);

        // Build the index bottom-up from the fence keys (fresh PIDs).
        let fan = config.max_inner_children.max(2);
        let mut level: Vec<(Option<Bytes>, PageId)> =
            chain.iter().map(|p| (p.high_key.clone(), p.pid)).collect();
        while level.len() > 1 {
            let chunks: Vec<&[(Option<Bytes>, PageId)]> = level.chunks(fan).collect();
            let pids: Vec<PageId> = chunks.iter().map(|_| mapping.allocate()).collect();
            let mut next: Vec<(Option<Bytes>, PageId)> = Vec::with_capacity(chunks.len());
            for (ci, chunk) in chunks.iter().enumerate() {
                let first_child = chunk[0].1;
                let entries: Vec<(Bytes, PageId)> = chunk
                    .windows(2)
                    .map(|w| (w[0].0.clone().expect("inner fences are closed"), w[1].1))
                    .collect();
                let high_key = chunk.last().expect("non-empty chunk").0.clone();
                let right = pids.get(ci + 1).copied();
                mapping.store_new(
                    pids[ci],
                    Fresh::new(Node::InnerBase(InnerBase::new(
                        first_child,
                        entries,
                        high_key.clone(),
                        right,
                    ))),
                    0,
                );
                next.push((high_key, pids[ci]));
            }
            level = next;
        }
        let root = level[0].1;
        Ok(BwTree {
            config,
            mapping,
            root: AtomicU64::new(root),
            store,
            stats: StatsInner::default(),
            vtime: AtomicU64::new(0),
            mrc: dcs_telemetry::mrc().profiler("mrc.page_cache"),
        })
    }

    /// The tree's configuration.
    pub fn config(&self) -> &BwTreeConfig {
        &self.config
    }

    /// Set the virtual time used to stamp page accesses (cache managers
    /// drive this from their clock).
    pub fn set_vtime(&self, nanos: u64) {
        // ORDERING: advisory access-time source for LRU stamps; no
        // other memory is published through it.
        self.vtime.store(nanos, Ordering::Relaxed);
    }

    /// Current virtual time.
    pub fn vtime(&self) -> u64 {
        // ORDERING: advisory access-time source, see set_vtime().
        self.vtime.load(Ordering::Relaxed)
    }

    /// Snapshot of operation counters.
    pub fn stats(&self) -> TreeStats {
        self.stats.snapshot()
    }

    /// The mapping table (for cache managers and diagnostics).
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
    }

    pub(crate) fn root_pid(&self) -> PageId {
        self.root.load(Ordering::SeqCst)
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Route within an inner chain. Index pages fold every SMO delta as it
    /// is posted, so the head is nearly always a bare base: one fence check
    /// and one binary search, with no allocation. A chain caught between a
    /// post and its fold applies its deltas over the base. The chain is
    /// walked twice — split fences first, then index decisions — so split
    /// fences apply to deltas regardless of their position.
    fn route_inner(&self, head: Chain<'_>, key: &[u8]) -> Route {
        // Tightest split fence seen anywhere in the chain; the walk ends on
        // the base.
        let mut bound: Option<&Bytes> = None;
        let mut base = None;
        for node in chain_iter(head) {
            if let Node::InnerSplit { sep, right, .. } = node {
                if key >= sep.as_ref() {
                    return Route::Sibling(*right);
                }
                if bound.map(|b| sep < b).unwrap_or(true) {
                    bound = Some(sep);
                }
            }
            base = Some(node);
        }
        let Some(Node::InnerBase(ib)) = base else {
            unreachable!("inner chain must end in InnerBase");
        };
        // Per-separator decisions, newest-first: an insert or delete for a
        // separator shadows everything older for that separator.
        let mut decisions: Vec<(&Bytes, Option<PageId>)> = Vec::new();
        for node in chain_iter(head) {
            let (sep, decision) = match node {
                Node::IndexInsert { sep, child, .. } => (sep, Some(*child)),
                Node::IndexDelete { sep, .. } => (sep, None),
                _ => continue,
            };
            if !decisions.iter().any(|(s, _)| *s == sep) {
                decisions.push((sep, decision));
            }
        }
        // Best routing entry from deltas: greatest live sep ≤ key, below
        // the fence.
        let mut best: Option<(&Bytes, PageId)> = None;
        let mut deleted: Vec<&Bytes> = Vec::new();
        for (sep, decision) in &decisions {
            match decision {
                None => deleted.push(sep),
                Some(child) => {
                    if key < sep.as_ref() {
                        continue;
                    }
                    if bound.map(|b| sep.as_ref() >= b.as_ref()).unwrap_or(false) {
                        continue;
                    }
                    if best.map(|(bs, _)| *sep > bs).unwrap_or(true) {
                        best = Some((sep, *child));
                    }
                }
            }
        }
        if let Some(hk) = &ib.high_key {
            // Keys beyond the (fenced) high key chase the right link.
            let effective_fence_hit = bound.is_none() && key >= hk.as_ref();
            if effective_fence_hit {
                if let Some(r) = ib.right {
                    return Route::Sibling(r);
                }
            }
        }
        // Rightmost base separator ≤ key, below the fence.
        let limit = match bound {
            Some(b) => ib.entries.partition_point(|(s, _)| s.as_ref() < b.as_ref()),
            None => ib.entries.len(),
        };
        let idx = ib.entries[..limit].partition_point(|(s, _)| s.as_ref() <= key);
        // Walk leftward past separators deleted by merge SMOs.
        let base_candidate = ib.entries[..idx]
            .iter()
            .rev()
            .find(|(s, _)| !deleted.contains(&s))
            .map(|(s, c)| (s, *c));
        let chosen = match (best, base_candidate) {
            (Some((ds, dc)), Some((bs, bc))) => {
                if ds >= bs {
                    dc
                } else {
                    bc
                }
            }
            (Some((_, dc)), None) => dc,
            (None, Some((_, bc))) => bc,
            (None, None) => ib.first_child,
        };
        Route::Child(chosen)
    }

    /// Descend to the leaf owning `key`.
    fn find_leaf(&self, key: &[u8], guard: &Guard) -> PageId {
        let mut pid = self.root_pid();
        let mut hops = 0usize;
        loop {
            hops += 1;
            assert!(hops < 1_000_000, "descent livelock: tree invariant broken");
            let Some(head) = self.mapping.load(pid, guard) else {
                pid = self.root_pid();
                continue;
            };
            if head.is_inner() {
                match self.route_inner(head, key) {
                    Route::Child(c) => pid = c,
                    Route::Sibling(s) => pid = s,
                }
            } else {
                match leaf_route(head, key) {
                    Some(r) => pid = r,
                    None => return pid,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup: the non-blocking probe ([`BwTree::try_get_async`])
    /// driven to completion. A flash-resident leaf is fetched from the page
    /// store with no epoch pinned, installed with
    /// [`BwTree::install_fetched`] and re-probed, so the blocking and the
    /// submit/poll miss paths count the same operations by construction.
    ///
    /// A failed fetch fails the read only if the leaf still needs the token
    /// that failed ([`TryGetAsync::needs_token`]): a concurrent flush may
    /// have superseded it and the store reclaimed the old state.
    pub fn try_get(&self, key: &[u8]) -> Result<Option<Bytes>, TreeError> {
        bump!(self.stats, gets);
        let mut probe = self.probe_get(key, true, None);
        loop {
            let (pid, token) = match probe {
                TryGetAsync::Hit(found) => return Ok(found),
                TryGetAsync::NeedFetch { pid, token } => (pid, token),
            };
            // No guard is pinned here: a device read must not hold an epoch.
            let fetch = self.store.fetch(pid, token);
            let fetch = fetch.map(|img| self.install_fetched(pid, token, img));
            probe = self.probe_get(key, false, Some(pid));
            if let Err(e) = fetch {
                if probe.needs_token(token) {
                    return Err(e.into());
                }
            }
        }
    }

    /// Point lookup; panics on a page-store failure (which cannot occur for
    /// in-memory trees). Use [`BwTree::try_get`] when the store can fail.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.try_get(key).expect("page store failure")
    }

    /// Non-blocking point lookup: answered from memory, or halted at the
    /// first flash-resident leaf. On [`TryGetAsync::NeedFetch`] the caller
    /// fetches the page image itself (possibly asynchronously, overlapping
    /// other work), installs it with [`BwTree::install_fetched`], and
    /// re-probes with [`BwTree::resume_get`].
    ///
    /// Counts one logical get; a hit additionally counts one main-memory
    /// operation, matching [`BwTree::try_get`].
    pub fn try_get_async(&self, key: &[u8]) -> TryGetAsync {
        bump!(self.stats, gets);
        self.probe_get(key, true, None)
    }

    /// Re-probe after [`BwTree::install_fetched`]. Does **not** count a new
    /// logical get (the original [`BwTree::try_get_async`] did); a hit here
    /// counts no main-memory op either — the install already charged the
    /// secondary-storage op, as the blocking miss path does.
    pub fn resume_get(&self, key: &[u8]) -> TryGetAsync {
        self.probe_get(key, false, None)
    }

    /// The tree's one leaf probe. `count_hit` marks a read's first probe;
    /// `start` names the leaf a resumed read halted at, sparing it the
    /// descent (sibling links and a null slot correct a stale one, as on
    /// the write path).
    fn probe_get(&self, key: &[u8], count_hit: bool, start: Option<PageId>) -> TryGetAsync {
        let guard = dcs_ebr::pin();
        let vt = self.vtime();
        let mut pid = start.unwrap_or_else(|| self.find_leaf(key, &guard));
        if count_hit {
            // One logical get, one MRC access; the resume probe after an
            // install must not count the page twice.
            self.mrc.record(pid, self.config.max_leaf_bytes as u64);
        }
        self.mapping.touch(pid, vt);
        loop {
            let Some(head) = self.mapping.load(pid, &guard) else {
                pid = self.find_leaf(key, &guard);
                continue;
            };
            match search_leaf(head, key) {
                LeafSearch::Found {
                    value,
                    from_delta_over_flash,
                } => {
                    if from_delta_over_flash {
                        bump!(self.stats, record_cache_hits);
                    }
                    if count_hit {
                        self.stats.mm_op();
                    }
                    return TryGetAsync::Hit(Some(value));
                }
                LeafSearch::Deleted | LeafSearch::Missing => {
                    if count_hit {
                        self.stats.mm_op();
                    }
                    return TryGetAsync::Hit(None);
                }
                LeafSearch::GoRight(r) => {
                    pid = r;
                    self.mapping.touch(pid, vt);
                }
                LeafSearch::NeedFetch { token } => return TryGetAsync::NeedFetch { pid, token },
            }
        }
    }

    /// Install a fetched page image as `pid`'s new in-memory base,
    /// preserving unflushed deltas above it — the tree's one swap-in step,
    /// taken by blocking reads, scans and submit/poll callers alike.
    ///
    /// Returns `false` without installing when the chain moved on (fetched
    /// token superseded by a newer flush, page became resident, or the CAS
    /// raced): the caller simply re-probes with [`BwTree::resume_get`],
    /// which re-fetches if still needed. Counts one fetch and one
    /// secondary-storage op either way — an I/O happened.
    pub fn install_fetched(&self, pid: PageId, token: u64, img: PageImage) -> bool {
        bump!(self.stats, ss_ops);
        self.install_image(pid, token, img)
    }

    /// [`BwTree::install_fetched`] without the secondary-storage op: the
    /// healing fetch under a blind write rides on that write's count.
    fn install_image(&self, pid: PageId, token: u64, img: PageImage) -> bool {
        bump!(self.stats, fetches);
        let guard = dcs_ebr::pin();
        let Some(head) = self.mapping.load(pid, &guard) else {
            return false;
        };
        // The image is only installable while the chain's durable state is
        // still exactly `token`.
        let info = analyze_leaf_chain(head);
        if !matches!(info, LeafChainInfo::FlashBase { durable_token, .. } if durable_token == token)
        {
            return false;
        }
        let mut new_head = Fresh::new(Node::LeafBase(LeafBase::new(
            img.entries,
            img.high_key,
            img.right,
            Some(token),
        )));
        // Re-hang the unflushed deltas (those above the topmost marker);
        // everything at or below the marker is contained in the image.
        for node in collect_nodes_above_marker(head).into_iter().rev() {
            new_head = new_head.push(clone_delta(node));
        }
        self.replace_chain(pid, head, new_head, &guard).is_some()
    }

    /// Swing `pid` from the chain `old` to the chain `new` by CAS: on a win
    /// `old` is retired through `guard` and the published `new` returned;
    /// on a loss `new` is dropped.
    fn replace_chain<'g>(
        &self,
        pid: PageId,
        old: Chain<'g>,
        new: Fresh,
        guard: &'g Guard,
    ) -> Option<Chain<'g>> {
        let (new, unlinked) = self.mapping.cas(pid, old, new).ok()?;
        retire(guard, unlinked);
        Some(new)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Upsert. At the Bw-tree every update is a blind delta prepend: the
    /// base page is *not* read, even if it is on flash (§6.2).
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        bump!(self.stats, puts);
        self.write_delta(key.into(), Some(value.into()));
    }

    /// An update the caller asserts is blind; identical mechanics to
    /// [`BwTree::put`] but counted separately.
    pub fn blind_update(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        bump!(self.stats, blind_updates);
        self.write_delta(key.into(), Some(value.into()));
    }

    /// Delete (blind): prepends a delete delta whether or not the key exists.
    pub fn delete(&self, key: impl Into<Bytes>) {
        bump!(self.stats, deletes);
        self.write_delta(key.into(), None);
    }

    fn write_delta(&self, key: Bytes, value: Option<Bytes>) {
        let guard = dcs_ebr::pin();
        let vt = self.vtime();
        let mut pid = self.find_leaf(&key, &guard);
        loop {
            self.mapping.touch(pid, vt);
            let Some(head) = self.mapping.load(pid, &guard) else {
                pid = self.find_leaf(&key, &guard);
                continue;
            };
            // Re-check fencing at this leaf (it may have split since descent).
            if let Some(r) = leaf_route(head, &key) {
                pid = r;
                continue;
            }
            let node = match &value {
                Some(v) => Node::Put {
                    key: key.clone(),
                    value: v.clone(),
                    next: Link::UNSET,
                },
                None => Node::Del {
                    key: key.clone(),
                    next: Link::UNSET,
                },
            };
            if self.mapping.prepend(pid, Delta::new(node, head)).is_ok() {
                self.stats.mm_op();
                self.maybe_consolidate_leaf(pid, &guard);
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Consolidation
    // ------------------------------------------------------------------

    fn maybe_consolidate_leaf(&self, pid: PageId, guard: &Guard) {
        let Some(head) = self.mapping.load(pid, guard) else {
            return;
        };
        let shape = chain_shape(head);
        if shape.flash_base() {
            // Blind updates have been accumulating above an evicted base.
            // Past the healing threshold, fault the base in so the chain
            // can consolidate (and split): unbounded partial chains would
            // otherwise grow write and read costs without limit.
            if shape.deltas >= self.config.max_partial_deltas {
                self.heal_partial_page(pid, guard);
            }
            return;
        }
        if shape.deltas < self.config.consolidate_threshold {
            return;
        }
        self.consolidate_leaf(pid, guard);
    }

    /// Fault in the base of a flash-resident page and consolidate it.
    /// Best-effort: store failures leave the chain as-is (still correct,
    /// just long).
    fn heal_partial_page(&self, pid: PageId, guard: &Guard) {
        let Some(head) = self.mapping.load(pid, guard) else {
            return;
        };
        let token = match analyze_leaf_chain(head) {
            LeafChainInfo::FlashBase { durable_token, .. } => durable_token,
            LeafChainInfo::MemBase { .. } => {
                self.consolidate_leaf(pid, guard);
                return;
            }
            LeafChainInfo::Frozen => return,
        };
        if let Ok(img) = self.store.fetch(pid, token) {
            self.install_image(pid, token, img);
            self.consolidate_leaf(pid, guard);
        }
    }

    fn consolidate_leaf(&self, pid: PageId, guard: &Guard) {
        let Some(head) = self.mapping.load(pid, guard) else {
            return;
        };
        let Some(merged) = merge_leaf_chain(head) else {
            return;
        };
        if merged.deltas == 0 {
            return;
        }
        let _span = dcs_telemetry::span(
            "bwtree.consolidate_leaf",
            dcs_telemetry::CostClass::Maintenance,
        );
        let new_base = Fresh::new(Node::LeafBase(LeafBase::new(
            merged.entries,
            merged.high_key,
            merged.right,
            None,
        )));
        if let Some(new_base) = self.replace_chain(pid, head, new_base, guard) {
            bump!(self.stats, consolidations);
            self.stats.maintenance();
            self.maybe_split_leaf(pid, new_base, guard);
            self.maybe_merge_leaf(pid, new_base, guard);
        }
    }

    // ------------------------------------------------------------------
    // Structure modifications
    // ------------------------------------------------------------------

    fn maybe_split_leaf(&self, pid: PageId, chain: Chain<'_>, guard: &Guard) {
        let Node::LeafBase(base) = chain.head() else {
            return;
        };
        if base.payload_bytes() <= self.config.max_leaf_bytes || base.entries.len() < 2 {
            return;
        }
        // Split at the half-payload point.
        let total = base.payload_bytes();
        let mut acc = 0usize;
        let mut idx = 0usize;
        for (i, (k, v)) in base.entries.iter().enumerate() {
            acc += k.len() + v.len();
            if acc >= total / 2 {
                idx = i + 1;
                break;
            }
        }
        idx = idx.clamp(1, base.entries.len() - 1);
        let sep = base.entries[idx].0.clone();
        let qid = self.mapping.allocate();
        let right_base = Fresh::new(Node::LeafBase(LeafBase::new(
            base.entries[idx..].to_vec(),
            base.high_key.clone(),
            base.right,
            None,
        )));
        self.mapping.store_new(qid, right_base, self.vtime());
        let split = Node::LeafSplit {
            sep: sep.clone(),
            right: qid,
            next: Link::UNSET,
        };
        if self.mapping.prepend(pid, Delta::new(split, chain)).is_err() {
            // Lost a race; take the right page back.
            self.unpublish_new(qid, guard);
            return;
        }
        bump!(self.stats, leaf_splits);
        self.stats.maintenance();
        let _span = dcs_telemetry::span("bwtree.leaf_split", dcs_telemetry::CostClass::Maintenance);
        self.post_index_entry(pid, sep, qid, guard);
    }

    /// Merge SMO: absorb the right sibling into `pid` when `pid`'s
    /// consolidated payload is below the configured minimum (Bw-tree
    /// ICDE'13 §IV.B, adapted: the absorb delta carries the folded
    /// contents of the removed page, so no chain is shared between the two
    /// mapping entries).
    ///
    /// Three atomic steps, all single CAS: (1) freeze the right sibling
    /// with a remove-node delta; (2) post an absorb delta on `pid` carrying
    /// the sibling's folded records and fences; (3) post an index-term
    /// delete at the parent. Any failure before step 2 rolls the freeze
    /// back; accessors reaching the frozen page redirect left.
    fn maybe_merge_leaf(&self, pid: PageId, chain: Chain<'_>, guard: &Guard) {
        if self.config.min_leaf_bytes == 0 {
            return;
        }
        let Node::LeafBase(base) = chain.head() else {
            return;
        };
        if base.payload_bytes() >= self.config.min_leaf_bytes {
            return;
        }
        let Some(right_pid) = base.right else {
            return; // rightmost leaf: nothing to absorb
        };
        let Some(sep) = base.high_key.clone() else {
            return; // inconsistent (right without fence); be safe
        };

        // Step 1: freeze the right sibling.
        let Some(r_head) = self.mapping.load(right_pid, guard) else {
            return;
        };
        // A page frozen by a concurrent merge of the same pair stays that
        // merge's to absorb or roll back: stacking a second freeze on it
        // would make the first merge's unlink CAS fail.
        if r_head.is_inner() || matches!(r_head.head(), Node::RemoveNode { .. }) {
            return;
        }
        let remove = Node::RemoveNode {
            left: pid,
            next: Link::UNSET,
        };
        let Ok(frozen) = self.mapping.prepend(right_pid, Delta::new(remove, r_head)) else {
            return;
        };

        // Merges must not cross parent boundaries: the dead page needs an
        // explicit routing entry `(sep → right_pid)` to delete in step 3.
        // A page reachable only as its parent's first child (sep is that
        // parent's low fence) cannot be merged from the left.
        if !self.parent_has_exact_entry(right_pid, pid, &sep, guard) {
            self.unfreeze(right_pid, frozen, guard);
            return;
        }

        // Step 2: fold the frozen sibling and absorb it. The fold fails on
        // flash-resident or already-merging chains: roll the freeze back.
        // The chain below the freeze is immutable now.
        let Some(folded) = merge_leaf_chain(r_head) else {
            self.unfreeze(right_pid, frozen, guard);
            return;
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            // Abort if our page vanished or is being frozen itself, or if
            // our base was concurrently evicted: an absorb delta may only
            // sit on a memory-resident chain (flush and swap-in paths fold
            // it via consolidation, which needs the base).
            let l_head = self.mapping.load(pid, guard).filter(|l| {
                let unmergeable = chain_iter(*l)
                    .any(|n| matches!(n, Node::RemoveNode { .. } | Node::FlashBase { .. }));
                !unmergeable && attempts <= 8
            });
            let Some(l_head) = l_head else {
                self.unfreeze(right_pid, frozen, guard);
                return;
            };
            let absorb = Node::Absorb {
                sep: sep.clone(),
                entries: folded.entries.clone(),
                high_key: folded.high_key.clone(),
                right: folded.right,
                next: Link::UNSET,
            };
            if self
                .mapping
                .prepend(pid, Delta::new(absorb, l_head))
                .is_ok()
            {
                break;
            }
        }
        bump!(self.stats, leaf_merges);
        self.stats.maintenance();
        let _span = dcs_telemetry::span("bwtree.leaf_merge", dcs_telemetry::CostClass::Maintenance);

        // Step 3: remove the parent's routing entry for the dead page.
        self.post_index_delete(right_pid, pid, &sep, guard);

        // Step 4: unpublish the dead page and retire its frozen chain. The
        // PID itself is not recycled (stale readers may still hold routes
        // to it within their grace period; a null slot restarts them).
        // A durable tombstone keeps recovery from resurrecting the page;
        // it becomes crash-atomic with the absorbing page's next flush at
        // the following checkpoint barrier.
        let _ = self.store.retire_page(right_pid);
        let unlinked = self.mapping.clear(right_pid, frozen);
        debug_assert!(unlinked.is_some(), "nobody else may replace a frozen chain");
        if let Some(unlinked) = unlinked {
            retire(guard, unlinked);
        }
    }

    /// Roll a merge freeze back: pop the published freeze delta `frozen`
    /// off `pid`, leaving the chain under it live again, and retire the
    /// delta alone. A reader that loaded the frozen head may still be
    /// walking it, so it is not freed before the grace period.
    fn unfreeze(&self, pid: PageId, frozen: Chain<'_>, guard: &Guard) {
        let unlinked = self.mapping.pop(pid, frozen);
        debug_assert!(unlinked.is_some(), "freeze rollback must succeed");
        if let Some(unlinked) = unlinked {
            retire(guard, unlinked);
        }
    }

    /// Take back a page published at the fresh `pid` that no link in the
    /// tree ever named: its split or root swap lost a race. A walk over
    /// the mapping table (`pages()`) may have loaded it meanwhile, so it is
    /// retired through `guard`, not freed.
    fn unpublish_new(&self, pid: PageId, guard: &Guard) {
        if let Some(unlinked) = self.mapping.unpublish(pid) {
            retire(guard, unlinked);
        }
    }

    /// Whether some inner page holds an explicit routing entry
    /// `(sep → child)` for `child` (as opposed to reaching it through a
    /// first-child slot or sibling links).
    fn parent_has_exact_entry(
        &self,
        child: PageId,
        left_pid: PageId,
        sep: &Bytes,
        guard: &Guard,
    ) -> bool {
        let mut cur = self.root_pid();
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > 100_000 {
                return false; // give up conservatively
            }
            let Some(head) = self.mapping.load(cur, guard) else {
                return false;
            };
            if !head.is_inner() {
                return false;
            }
            match self.route_inner(head, sep.as_ref()) {
                Route::Sibling(s) => cur = s,
                Route::Child(c) if c == child => {
                    // Fold this inner page and look for the exact entry.
                    let Some(m) = merge_inner_chain(head) else {
                        return false;
                    };
                    return m
                        .entries
                        .binary_search_by(|(k, _)| k.cmp(sep))
                        .map(|i| m.entries[i].1 == child)
                        .unwrap_or(false);
                }
                Route::Child(c) if c == left_pid => return false,
                Route::Child(c) => cur = c,
            }
        }
    }

    /// Remove the routing entry `(sep → dead_pid)` from whichever inner
    /// page currently holds it.
    fn post_index_delete(&self, dead_pid: PageId, left_pid: PageId, sep: &Bytes, guard: &Guard) {
        let mut spins = 0usize;
        'outer: loop {
            spins += 1;
            assert!(spins < 1_000_000, "index-delete post livelock");
            let mut cur = self.root_pid();
            let mut hops = 0usize;
            loop {
                hops += 1;
                if hops > 100_000 {
                    continue 'outer;
                }
                let Some(head) = self.mapping.load(cur, guard) else {
                    continue 'outer;
                };
                if !head.is_inner() {
                    // Entry already gone (or never reachable): done.
                    return;
                }
                match self.route_inner(head, sep.as_ref()) {
                    Route::Sibling(s) => cur = s,
                    Route::Child(c) if c == dead_pid => {
                        let delta = Node::IndexDelete {
                            sep: sep.clone(),
                            next: Link::UNSET,
                        };
                        if self.mapping.prepend(cur, Delta::new(delta, head)).is_ok() {
                            self.maybe_consolidate_inner(cur, guard);
                            return;
                        }
                        continue 'outer;
                    }
                    Route::Child(c) if c == left_pid => return, // already deleted
                    Route::Child(c) => cur = c,
                }
            }
        }
    }

    /// Install the routing entry `(sep → qid)` in the parent of `split_pid`,
    /// retrying across races, splitting the root if `split_pid` is the root.
    fn post_index_entry(&self, split_pid: PageId, sep: Bytes, qid: PageId, guard: &Guard) {
        let mut spins = 0usize;
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "index-entry post livelock");
            match self.find_parent(split_pid, qid, &sep, guard) {
                ParentSearch::AlreadyPosted => return,
                ParentSearch::SplitPageIsRoot => {
                    let rid = self.mapping.allocate();
                    let new_root = Fresh::new(Node::InnerBase(InnerBase::new(
                        split_pid,
                        vec![(sep.clone(), qid)],
                        None,
                        None,
                    )));
                    self.mapping.store_new(rid, new_root, self.vtime());
                    if self
                        .root
                        .compare_exchange(split_pid, rid, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                    // Someone else grew the tree first; retry via descent.
                    self.unpublish_new(rid, guard);
                }
                ParentSearch::Parent(ppid) => {
                    let Some(head) = self.mapping.load(ppid, guard) else {
                        continue;
                    };
                    let delta = Node::IndexInsert {
                        sep: sep.clone(),
                        child: qid,
                        next: Link::UNSET,
                    };
                    if self.mapping.prepend(ppid, Delta::new(delta, head)).is_ok() {
                        self.maybe_consolidate_inner(ppid, guard);
                        return;
                    }
                }
            }
        }
    }

    /// Find the inner page that should hold the routing entry
    /// `(sep → qid)` for the split of `split_pid`.
    ///
    /// The descent may legitimately not pass *through* `split_pid`:
    /// concurrent, not-yet-posted sibling splits can route `sep` through a
    /// left sibling (reaching `split_pid` by a same-level sibling walk) or,
    /// for re-split leaves, directly into a newer sibling leaf. In both
    /// cases the node we last took a child step from is at the parent level
    /// and its key range covers `sep`, so it is a valid home for the entry
    /// (readers reach `qid` via the split delta / sibling links either
    /// way, as in a B-link tree).
    fn find_parent(
        &self,
        split_pid: PageId,
        qid: PageId,
        sep: &Bytes,
        guard: &Guard,
    ) -> ParentSearch {
        let mut cur = self.root_pid();
        if cur == split_pid {
            return ParentSearch::SplitPageIsRoot;
        }
        let Some(split_head) = self.mapping.load(split_pid, guard) else {
            // The split page was merged away concurrently; its absorb delta
            // carries the (sep, qid) fence, so readers reach qid through
            // sibling links. Nothing to post.
            return ParentSearch::AlreadyPosted;
        };
        let split_is_leaf = !split_head.is_inner();
        // The node we most recently descended from (a parent-level
        // candidate); sibling steps stay on the same level and keep it.
        let mut last_from: Option<PageId> = None;
        let mut hops = 0usize;
        loop {
            hops += 1;
            assert!(hops < 1_000_000, "find_parent livelock");
            let Some(head) = self.mapping.load(cur, guard) else {
                cur = self.root_pid();
                last_from = None;
                continue;
            };
            if cur == split_pid || cur == qid {
                // A sibling walk arrived at the split level itself.
                if let Some(p) = last_from {
                    return ParentSearch::Parent(p);
                }
                cur = self.root_pid();
                if cur == split_pid {
                    return ParentSearch::SplitPageIsRoot;
                }
                continue;
            }
            if !head.is_inner() {
                // Landed on a foreign leaf. If the split page is a leaf too,
                // the node we came from covers `sep` one level up.
                if split_is_leaf {
                    if let Some(p) = last_from {
                        return ParentSearch::Parent(p);
                    }
                }
                cur = self.root_pid();
                last_from = None;
                if cur == split_pid {
                    return ParentSearch::SplitPageIsRoot;
                }
                continue;
            }
            match self.route_inner(head, sep.as_ref()) {
                Route::Sibling(s) => cur = s,
                Route::Child(c) if c == qid => return ParentSearch::AlreadyPosted,
                Route::Child(c) if c == split_pid => return ParentSearch::Parent(cur),
                Route::Child(c) => {
                    last_from = Some(cur);
                    cur = c;
                }
            }
        }
    }

    /// Fold an index page's deltas into a fresh base. Index pages get
    /// deltas only from SMOs, so this runs right after each post rather
    /// than at `consolidate_threshold`: under a threshold the chain would
    /// never fold, and every descent would route through it. A fold that
    /// loses its CAS leaves the chain for the page's next SMO.
    fn maybe_consolidate_inner(&self, pid: PageId, guard: &Guard) {
        let Some(head) = self.mapping.load(pid, guard) else {
            return;
        };
        if chain_shape(head).deltas == 0 {
            return;
        }
        let Some(merged) = merge_inner_chain(head) else {
            return;
        };
        let new_base = Fresh::new(Node::InnerBase(InnerBase::new(
            merged.first_child,
            merged.entries,
            merged.high_key,
            merged.right,
        )));
        if let Some(new_base) = self.replace_chain(pid, head, new_base, guard) {
            bump!(self.stats, consolidations);
            self.stats.maintenance();
            self.maybe_split_inner(pid, new_base, guard);
        }
    }

    fn maybe_split_inner(&self, pid: PageId, chain: Chain<'_>, guard: &Guard) {
        let Node::InnerBase(base) = chain.head() else {
            return;
        };
        if base.child_count() <= self.config.max_inner_children || base.entries.len() < 3 {
            return;
        }
        let m = base.entries.len() / 2;
        let sep = base.entries[m].0.clone();
        let qid = self.mapping.allocate();
        let right_base = Fresh::new(Node::InnerBase(InnerBase::new(
            base.entries[m].1,
            base.entries[m + 1..].to_vec(),
            base.high_key.clone(),
            base.right,
        )));
        self.mapping.store_new(qid, right_base, self.vtime());
        let split = Node::InnerSplit {
            sep: sep.clone(),
            right: qid,
            next: Link::UNSET,
        };
        if self.mapping.prepend(pid, Delta::new(split, chain)).is_err() {
            self.unpublish_new(qid, guard);
            return;
        }
        bump!(self.stats, inner_splits);
        self.stats.maintenance();
        let _span =
            dcs_telemetry::span("bwtree.inner_split", dcs_telemetry::CostClass::Maintenance);
        self.post_index_entry(pid, sep, qid, guard);
        // Fold the split delta into a base whose fence and right link
        // carry it.
        self.maybe_consolidate_inner(pid, guard);
    }

    // ------------------------------------------------------------------
    // Flush / eviction (the cache-management surface used by dcs-llama)
    // ------------------------------------------------------------------

    /// Make `pid` durable and transition its in-memory state per `kind`.
    /// Returns the token of the page's durable state.
    pub fn flush_page(&self, pid: PageId, kind: FlushKind) -> Result<u64, TreeError> {
        let guard = dcs_ebr::pin();
        let mut spins = 0usize;
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "flush livelock");
            let Some(head) = self.mapping.load(pid, &guard) else {
                return Err(TreeError::PageNotFound(pid));
            };
            if head.is_inner() {
                return Err(TreeError::InnerPageNotEvictable(pid));
            }
            match self.flush_attempt(pid, head, kind, &guard)? {
                Some(token) => return Ok(token),
                None => continue, // lost a CAS; retry
            }
        }
    }

    /// One flush attempt against an observed chain head. `Ok(None)` = raced.
    fn flush_attempt<'g>(
        &self,
        pid: PageId,
        head: Chain<'g>,
        kind: FlushKind,
        guard: &'g Guard,
    ) -> Result<Option<u64>, TreeError> {
        let analysis = analyze_leaf_chain(head);
        let (token, new_head) = match analysis {
            LeafChainInfo::Frozen => {
                // Mid-merge: the page is about to disappear into its left
                // sibling; cache managers treat this like a vanished page.
                return Err(TreeError::PageNotFound(pid));
            }
            LeafChainInfo::MemBase {
                deltas: 0,
                stored: Some(token),
                base,
                ..
            } if kind != FlushKind::FlushOnly => {
                // Clean: the store holds exactly this base, so an eviction
                // writes nothing and folds nothing; only its fences stay.
                let (high_key, right) = (base.high_key.clone(), base.right);
                let new_head = match kind {
                    FlushKind::EvictAll => Fresh::new(Node::FlashBase {
                        token,
                        high_key,
                        right,
                    }),
                    _ => record_cache_over_flash(token, high_key, right, &[]),
                };
                (token, new_head)
            }
            LeafChainInfo::MemBase {
                deltas,
                has_split,
                stored,
                ..
            } => {
                let merged = merge_leaf_chain(head).expect("mem base merges");
                let token = match stored {
                    Some(t) if deltas == 0 => t, // clean page, no write needed
                    Some(t) if !has_split => {
                        // Incremental flush: only the deltas travel.
                        let ops = collect_unflushed_ops(head);
                        let img = PageImage::delta(ops, merged.high_key.clone(), merged.right);
                        bump!(self.stats, incremental_flushes);
                        self.store.write(pid, &img, Some(t))?
                    }
                    _ => {
                        let img = PageImage::base(
                            merged.entries.clone(),
                            merged.high_key.clone(),
                            merged.right,
                        );
                        bump!(self.stats, full_flushes);
                        self.store.write(pid, &img, None)?
                    }
                };
                let new_head = match kind {
                    FlushKind::FlushOnly => Fresh::new(Node::LeafBase(LeafBase::new(
                        merged.entries,
                        merged.high_key,
                        merged.right,
                        Some(token),
                    ))),
                    FlushKind::EvictAll => Fresh::new(Node::FlashBase {
                        token,
                        high_key: merged.high_key,
                        right: merged.right,
                    }),
                    FlushKind::EvictBaseKeepDeltas => {
                        let nodes: Vec<&Node> = chain_iter(head).collect();
                        record_cache_over_flash(token, merged.high_key, merged.right, &nodes)
                    }
                };
                (token, new_head)
            }
            LeafChainInfo::FlashBase {
                durable_token,
                unflushed,
                high_key,
                right,
            } => {
                let token = if unflushed == 0 {
                    if kind != FlushKind::EvictAll {
                        return Ok(Some(durable_token));
                    }
                    durable_token
                } else {
                    // Incremental flush of the unflushed deltas.
                    let ops = collect_unflushed_ops(head);
                    let img = PageImage::delta(ops, high_key.clone(), right);
                    bump!(self.stats, incremental_flushes);
                    self.store.write(pid, &img, Some(durable_token))?
                };
                let new_head = match kind {
                    FlushKind::EvictAll => Fresh::new(Node::FlashBase {
                        token,
                        high_key: high_key.clone(),
                        right,
                    }),
                    FlushKind::FlushOnly | FlushKind::EvictBaseKeepDeltas => {
                        // Only the just-flushed deltas stay cached.
                        let nodes = collect_nodes_above_marker(head);
                        record_cache_over_flash(token, high_key.clone(), right, &nodes)
                    }
                };
                (token, new_head)
            }
        };
        if self.replace_chain(pid, head, new_head, guard).is_none() {
            return Ok(None);
        }
        match kind {
            FlushKind::EvictAll => {
                bump!(self.stats, evictions);
            }
            FlushKind::EvictBaseKeepDeltas => {
                bump!(self.stats, base_evictions);
            }
            FlushKind::FlushOnly => {}
        }
        Ok(Some(token))
    }

    /// Flush and fully evict a page: afterwards only a flash stub remains.
    pub fn evict_page(&self, pid: PageId) -> Result<u64, TreeError> {
        self.flush_page(pid, FlushKind::EvictAll)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The PID of the leaf currently owning `key` (for cache-management
    /// harnesses; the answer can be stale the moment it returns).
    pub fn locate_leaf(&self, key: &[u8]) -> PageId {
        let guard = dcs_ebr::pin();
        self.find_leaf(key, &guard)
    }

    /// Describe one page, or `None` if the PID is unallocated.
    pub fn page_info(&self, pid: PageId) -> Option<PageInfo> {
        if pid >= self.mapping.high_water() {
            return None;
        }
        self.describe(pid, &dcs_ebr::pin())
    }

    /// Describe every allocated page, under one guard for the whole walk.
    pub fn pages(&self) -> Vec<PageInfo> {
        let guard = dcs_ebr::pin();
        (0..self.mapping.high_water())
            .filter_map(|pid| self.describe(pid, &guard))
            .collect()
    }

    /// Describe `pid` from one walk of its chain.
    fn describe(&self, pid: PageId, guard: &Guard) -> Option<PageInfo> {
        let head = self.mapping.load(pid, guard)?;
        let (is_leaf, shape) = (!head.is_inner(), chain_shape(head));
        let residency = match shape.base {
            Node::FlashBase { .. } if shape.records > 0 => ResidencyState::Partial,
            Node::FlashBase { .. } => ResidencyState::Evicted,
            _ => ResidencyState::Resident,
        };
        Some(PageInfo {
            pid,
            is_leaf,
            residency,
            chain_len: shape.deltas,
            mem_bytes: shape.bytes,
            last_access: self.mapping.last_access(pid),
            // Index pages are rebuilt, not flushed.
            dirty: is_leaf && LeafChainInfo::of(&shape).dirty(),
        })
    }

    /// Approximate total in-memory footprint: page chains plus the mapping
    /// table's fixed per-slot overhead.
    pub fn footprint_bytes(&self) -> usize {
        self.footprint_of(&self.pages())
    }

    /// [`BwTree::footprint_bytes`] of a [`BwTree::pages`] snapshot the
    /// caller already holds.
    pub fn footprint_of(&self, pages: &[PageInfo]) -> usize {
        let chains: usize = pages.iter().map(|p| p.mem_bytes).sum();
        chains + self.mapping.high_water() as usize * 16
    }

    /// Merged snapshot of the leaf owning `key` plus its high key (the
    /// resume point for scans). Faults the leaf in if flash-resident.
    pub(crate) fn snapshot_leaf_for_scan(&self, key: &[u8]) -> Result<LeafSnapshot, TreeError> {
        let guard = dcs_ebr::pin();
        let mut pid = self.find_leaf(key, &guard);
        let mut spins = 0usize;
        loop {
            spins += 1;
            assert!(spins < 1_000_000, "scan snapshot livelock");
            let Some(head) = self.mapping.load(pid, &guard) else {
                pid = self.find_leaf(key, &guard);
                continue;
            };
            if let Some(r) = leaf_route(head, key) {
                pid = r;
                continue;
            }
            match merge_leaf_chain(head) {
                Some(m) => {
                    self.mapping.touch(pid, self.vtime());
                    return Ok((m.entries, m.high_key));
                }
                None => {
                    // Flash-resident: fault the base in and retry.
                    if let LeafChainInfo::FlashBase { durable_token, .. } = analyze_leaf_chain(head)
                    {
                        let img = self.store.fetch(pid, durable_token)?;
                        self.install_fetched(pid, durable_token, img);
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for BwTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BwTree")
            .field("root", &self.root_pid())
            .field("pages", &self.mapping.high_water())
            .field("stats", &self.stats())
            .finish()
    }
}

enum ParentSearch {
    Parent(PageId),
    AlreadyPosted,
    SplitPageIsRoot,
}

// ----------------------------------------------------------------------
// Chain analysis helpers (free functions; all require a held guard)
// ----------------------------------------------------------------------

/// If `key` is fenced out of this leaf, the sibling to chase.
fn leaf_route(head: Chain<'_>, key: &[u8]) -> Option<PageId> {
    for node in chain_iter(head) {
        match node {
            Node::RemoveNode { left, .. } => return Some(*left),
            Node::Absorb {
                high_key, right, ..
            } => {
                if let (Some(hk), Some(r)) = (high_key, right) {
                    if key >= hk.as_ref() {
                        return Some(*r);
                    }
                }
                // Absorb supersedes the fences below it.
                return None;
            }
            Node::LeafSplit { sep, right, .. } if key >= sep.as_ref() => {
                return Some(*right);
            }
            Node::LeafBase(b) => {
                if let (Some(hk), Some(r)) = (&b.high_key, b.right) {
                    if key >= hk.as_ref() {
                        return Some(r);
                    }
                }
                return None;
            }
            Node::FlashBase {
                high_key, right, ..
            } => {
                if let (Some(hk), Some(r)) = (high_key, right) {
                    if key >= hk.as_ref() {
                        return Some(*r);
                    }
                }
                return None;
            }
            _ => {}
        }
    }
    None
}

/// Search a leaf chain for `key`.
fn search_leaf(head: Chain<'_>, key: &[u8]) -> LeafSearch {
    let mut passed_marker = false;
    let mut first_answer: Option<(bool, Option<Bytes>)> = None;
    let mut first_marker_token: Option<u64> = None;
    for node in chain_iter(head) {
        match node {
            Node::Put { key: k, value, .. } => {
                if first_answer.is_none() && k.as_ref() == key {
                    first_answer = Some((passed_marker, Some(value.clone())));
                }
            }
            Node::Del { key: k, .. } => {
                if first_answer.is_none() && k.as_ref() == key {
                    first_answer = Some((passed_marker, None));
                }
            }
            Node::LeafSplit { sep, right, .. } => {
                if key >= sep.as_ref() {
                    return LeafSearch::GoRight(*right);
                }
            }
            Node::FlushMarker { token, .. } => {
                passed_marker = true;
                if first_marker_token.is_none() {
                    first_marker_token = Some(*token);
                }
            }
            Node::RemoveNode { left, .. } => {
                // Page is being merged away; its contents now (or shortly)
                // live at the left sibling.
                return LeafSearch::GoRight(*left);
            }
            Node::Absorb {
                sep,
                entries,
                high_key,
                right,
                ..
            } => {
                if let Some((_, answer)) = first_answer {
                    return match answer {
                        Some(v) => LeafSearch::Found {
                            value: v,
                            from_delta_over_flash: false,
                        },
                        None => LeafSearch::Deleted,
                    };
                }
                if let (Some(hk), Some(r)) = (high_key, right) {
                    if key >= hk.as_ref() {
                        return LeafSearch::GoRight(*r);
                    }
                }
                if key >= sep.as_ref() {
                    // The absorbed range is fully materialized here.
                    return match entries.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
                        Ok(i) => LeafSearch::Found {
                            value: entries[i].1.clone(),
                            from_delta_over_flash: false,
                        },
                        Err(_) => LeafSearch::Missing,
                    };
                }
                // Below the absorbed range: keep walking, but the fence of
                // nodes further down is stale (superseded by this absorb).
            }
            Node::LeafBase(b) => {
                if let Some((_, answer)) = first_answer {
                    return match answer {
                        Some(v) => LeafSearch::Found {
                            value: v,
                            from_delta_over_flash: false,
                        },
                        None => LeafSearch::Deleted,
                    };
                }
                if let (Some(hk), Some(r)) = (&b.high_key, b.right) {
                    if key >= hk.as_ref() {
                        return LeafSearch::GoRight(r);
                    }
                }
                return match b.entries.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
                    Ok(i) => LeafSearch::Found {
                        value: b.entries[i].1.clone(),
                        from_delta_over_flash: false,
                    },
                    Err(_) => LeafSearch::Missing,
                };
            }
            Node::FlashBase {
                token,
                high_key,
                right,
            } => {
                if let Some((_, answer)) = first_answer {
                    // Answered from the in-memory record cache (§6.3).
                    return match answer {
                        Some(v) => LeafSearch::Found {
                            value: v,
                            from_delta_over_flash: true,
                        },
                        None => LeafSearch::Deleted,
                    };
                }
                if let (Some(hk), Some(r)) = (high_key, right) {
                    if key >= hk.as_ref() {
                        return LeafSearch::GoRight(*r);
                    }
                }
                return LeafSearch::NeedFetch {
                    token: first_marker_token.unwrap_or(*token),
                };
            }
            Node::IndexInsert { .. }
            | Node::IndexDelete { .. }
            | Node::InnerSplit { .. }
            | Node::InnerBase(_) => {
                unreachable!("inner node in leaf chain")
            }
        }
    }
    LeafSearch::Missing
}

struct MergedLeaf {
    entries: Vec<(Bytes, Bytes)>,
    high_key: Option<Bytes>,
    right: Option<PageId>,
    deltas: usize,
}

/// Fold a leaf chain into its logical record set. `None` if the base is on
/// flash (cannot merge without it).
fn merge_leaf_chain(head: Chain<'_>) -> Option<MergedLeaf> {
    let nodes: Vec<&Node> = chain_iter(head).collect();
    if nodes.iter().any(|n| matches!(n, Node::RemoveNode { .. })) {
        return None; // frozen for merging; do not consolidate
    }
    let base = match nodes.last()? {
        Node::LeafBase(b) => b,
        _ => return None,
    };
    let mut entries = base.entries.clone();
    let mut high_key = base.high_key.clone();
    let mut right = base.right;
    let mut deltas = 0usize;
    // Apply deltas oldest → newest.
    for node in nodes[..nodes.len() - 1].iter().rev() {
        deltas += 1;
        match node {
            Node::Put { key, value, .. } => match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => entries[i].1 = value.clone(),
                Err(i) => entries.insert(i, (key.clone(), value.clone())),
            },
            Node::Del { key, .. } => {
                if let Ok(i) = entries.binary_search_by(|(k, _)| k.cmp(key)) {
                    entries.remove(i);
                }
            }
            Node::LeafSplit { sep, right: r, .. } => {
                let cut = entries.partition_point(|(k, _)| k < sep);
                entries.truncate(cut);
                high_key = Some(sep.clone());
                right = Some(*r);
            }
            Node::FlushMarker { .. } => {
                deltas -= 1; // markers are bookkeeping, not state
            }
            Node::Absorb {
                entries: absorbed,
                high_key: hk,
                right: r,
                ..
            } => {
                // All absorbed keys lie at/above the old fence, hence above
                // every existing entry.
                debug_assert!(entries
                    .last()
                    .zip(absorbed.first())
                    .map(|((a, _), (b, _))| a < b)
                    .unwrap_or(true));
                entries.extend(absorbed.iter().cloned());
                high_key = hk.clone();
                right = *r;
            }
            _ => unreachable!("inner node in leaf chain"),
        }
    }
    Some(MergedLeaf {
        entries,
        high_key,
        right,
        deltas,
    })
}

struct MergedInner {
    first_child: PageId,
    entries: Vec<(Bytes, PageId)>,
    high_key: Option<Bytes>,
    right: Option<PageId>,
}

/// Fold an inner chain into its routing table.
fn merge_inner_chain(head: Chain<'_>) -> Option<MergedInner> {
    let nodes: Vec<&Node> = chain_iter(head).collect();
    let base = match nodes.last()? {
        Node::InnerBase(b) => b,
        _ => return None,
    };
    let mut entries = base.entries.clone();
    let mut high_key = base.high_key.clone();
    let mut right = base.right;
    // Oldest → newest so later decisions win.
    for node in nodes[..nodes.len() - 1].iter().rev() {
        match node {
            Node::IndexInsert { sep, child, .. } => {
                match entries.binary_search_by(|(k, _)| k.cmp(sep)) {
                    Ok(i) => entries[i].1 = *child,
                    Err(i) => entries.insert(i, (sep.clone(), *child)),
                }
            }
            Node::IndexDelete { sep, .. } => {
                if let Ok(i) = entries.binary_search_by(|(k, _)| k.cmp(sep)) {
                    entries.remove(i);
                }
            }
            Node::InnerSplit { sep, right: r, .. } => {
                let cut = entries.partition_point(|(k, _)| k < sep);
                entries.truncate(cut);
                high_key = Some(sep.clone());
                right = Some(*r);
            }
            _ => unreachable!("leaf node in inner chain"),
        }
    }
    Some(MergedInner {
        first_child: base.first_child,
        entries,
        high_key,
        right,
    })
}

enum LeafChainInfo<'g> {
    /// Base page in memory.
    MemBase {
        deltas: usize,
        has_split: bool,
        stored: Option<u64>,
        base: &'g LeafBase,
    },
    /// The page is frozen by an in-flight merge (RemoveNode on top).
    Frozen,
    /// Base on flash; `unflushed` = record deltas above the topmost marker.
    FlashBase {
        durable_token: u64,
        unflushed: usize,
        high_key: &'g Option<Bytes>,
        right: Option<PageId>,
    },
}

impl<'g> LeafChainInfo<'g> {
    /// Classify a measured leaf chain for the flush paths.
    fn of(shape: &ChainShape<'g>) -> Self {
        if shape.frozen {
            return LeafChainInfo::Frozen;
        }
        match shape.base {
            Node::LeafBase(b) => LeafChainInfo::MemBase {
                deltas: shape.leaf_deltas,
                has_split: shape.has_split,
                stored: b.stored,
                base: b,
            },
            Node::FlashBase {
                token,
                high_key,
                right,
            } => LeafChainInfo::FlashBase {
                durable_token: shape.marker.unwrap_or(*token),
                unflushed: shape.unflushed,
                high_key,
                right: *right,
            },
            _ => unreachable!("inner node in leaf chain"),
        }
    }

    /// Whether the page holds state the page store does not.
    fn dirty(&self) -> bool {
        match self {
            LeafChainInfo::MemBase { deltas, stored, .. } => *deltas > 0 || stored.is_none(),
            LeafChainInfo::FlashBase { unflushed, .. } => *unflushed > 0,
            LeafChainInfo::Frozen => false, // disappearing into its sibling
        }
    }
}

/// Classify a leaf chain for the flush paths.
fn analyze_leaf_chain(head: Chain<'_>) -> LeafChainInfo<'_> {
    LeafChainInfo::of(&chain_shape(head))
}

/// Collect record ops above the topmost flush marker (or the whole delta
/// section if no marker), newest first — the payload of an incremental flush.
fn collect_unflushed_ops(head: Chain<'_>) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    for node in chain_iter(head) {
        match node {
            Node::Put { key, value, .. } => {
                ops.push(DeltaOp::Put(key.clone(), value.clone()));
            }
            Node::Del { key, .. } => ops.push(DeltaOp::Del(key.clone())),
            Node::FlushMarker { .. } | Node::LeafBase(_) | Node::FlashBase { .. } => break,
            Node::LeafSplit { .. } => {}
            _ => unreachable!("inner node in leaf chain"),
        }
    }
    ops
}

/// Collect the nodes above the topmost marker (exclusive).
fn collect_nodes_above_marker(head: Chain<'_>) -> Vec<&Node> {
    let mut out = Vec::new();
    for node in chain_iter(head) {
        match node {
            Node::FlushMarker { .. } | Node::LeafBase(_) | Node::FlashBase { .. } => break,
            n => out.push(n),
        }
    }
    out
}

/// A flash stub for durable state `token` with the record deltas among
/// `nodes` (newest first) re-hung above it purely as a read cache (§6.3).
/// They are already durable in `token`, so a top marker keeps them from
/// being flushed again.
fn record_cache_over_flash(
    token: u64,
    high_key: Option<Bytes>,
    right: Option<PageId>,
    nodes: &[&Node],
) -> Fresh {
    let mut chain = Fresh::new(Node::FlashBase {
        token,
        high_key,
        right,
    });
    for node in nodes.iter().rev() {
        if matches!(node, Node::Put { .. } | Node::Del { .. }) {
            chain = chain.push(clone_delta(node));
        }
    }
    chain.push(Node::FlushMarker {
        token,
        next: Link::UNSET,
    })
}

/// Clone a delta node, not yet hung on a chain.
fn clone_delta(node: &Node) -> Node {
    let next = Link::UNSET;
    match node {
        Node::Put { key, value, .. } => Node::Put {
            key: key.clone(),
            value: value.clone(),
            next,
        },
        Node::Del { key, .. } => Node::Del {
            key: key.clone(),
            next,
        },
        Node::LeafSplit { sep, right, .. } => Node::LeafSplit {
            sep: sep.clone(),
            right: *right,
            next,
        },
        Node::FlushMarker { token, .. } => Node::FlushMarker {
            token: *token,
            next,
        },
        _ => unreachable!("only leaf deltas are cloned"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_owned())
    }

    fn kv(i: u32) -> (Bytes, Bytes) {
        (
            Bytes::from(format!("key{i:06}")),
            Bytes::from(format!("value-{i}")),
        )
    }

    #[test]
    fn empty_tree_misses() {
        let t = BwTree::in_memory(BwTreeConfig::default());
        assert_eq!(t.get(b"nothing"), None);
    }

    #[test]
    fn put_get_roundtrip() {
        let t = BwTree::in_memory(BwTreeConfig::default());
        t.put(b("a"), b("1"));
        t.put(b("b"), b("2"));
        assert_eq!(t.get(b"a"), Some(b("1")));
        assert_eq!(t.get(b"b"), Some(b("2")));
        assert_eq!(t.get(b"c"), None);
    }

    #[test]
    fn overwrite_takes_latest() {
        let t = BwTree::in_memory(BwTreeConfig::default());
        t.put(b("k"), b("v1"));
        t.put(b("k"), b("v2"));
        assert_eq!(t.get(b"k"), Some(b("v2")));
    }

    #[test]
    fn delete_tombstones() {
        let t = BwTree::in_memory(BwTreeConfig::default());
        t.put(b("k"), b("v"));
        t.delete(b("k"));
        assert_eq!(t.get(b"k"), None);
        // Deleting a missing key is fine (blind).
        t.delete(b("never"));
        assert_eq!(t.get(b"never"), None);
    }

    #[test]
    fn consolidation_preserves_data() {
        let cfg = BwTreeConfig {
            consolidate_threshold: 4,
            ..BwTreeConfig::default()
        };
        let t = BwTree::in_memory(cfg);
        for i in 0..50u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        assert!(t.stats().consolidations > 0, "no consolidation happened");
        for i in 0..50u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v), "key {i} lost");
        }
    }

    #[test]
    fn splits_build_multilevel_tree() {
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        let n = 2000u32;
        for i in 0..n {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let stats = t.stats();
        assert!(stats.leaf_splits > 10, "leaf splits: {}", stats.leaf_splits);
        assert!(
            stats.inner_splits > 0,
            "inner splits: {}",
            stats.inner_splits
        );
        for i in 0..n {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v), "key {i} lost after splits");
        }
        // Unknown keys still miss.
        assert_eq!(t.get(b"zzz"), None);
        assert_eq!(t.get(b"key999999x"), None);
    }

    #[test]
    fn reverse_insert_order() {
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        for i in (0..1000u32).rev() {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        for i in 0..1000u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v));
        }
    }

    #[test]
    fn random_order_with_deletes() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut ids: Vec<u32> = (0..1500).collect();
        ids.shuffle(&mut rng);
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        for &i in &ids {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        // Delete every third key.
        for i in (0..1500u32).step_by(3) {
            t.delete(kv(i).0);
        }
        for i in 0..1500u32 {
            let (k, v) = kv(i);
            if i % 3 == 0 {
                assert_eq!(t.get(&k), None, "key {i} should be deleted");
            } else {
                assert_eq!(t.get(&k), Some(v), "key {i} lost");
            }
        }
    }

    /// Index pages fold every SMO delta when it is posted, so after a run
    /// of splits and merges no inner page carries a chain.
    #[test]
    fn index_pages_are_bare_at_quiescence() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(33);
        let mut ids: Vec<u32> = (0..5000).collect();
        ids.shuffle(&mut rng);
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        for &i in &ids {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        ids.shuffle(&mut rng);
        for &i in ids.iter().filter(|&&i| i % 10 != 0) {
            t.delete(kv(i).0);
        }
        let s = t.stats();
        assert!(s.inner_splits > 0 && s.leaf_merges > 0, "{s:?}");
        let guard = dcs_ebr::pin();
        let report = t.audit(&guard).unwrap();
        assert_eq!(report.inner_deltas, 0, "{report:?}");
        drop(guard);
        for i in 0..5000u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), (i % 10 == 0).then_some(v), "key {i}");
        }
    }

    #[test]
    fn flush_only_keeps_page_readable_without_io() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store.clone());
        for i in 0..20u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        // Find the (single) leaf and flush it in place.
        let leaf = t
            .pages()
            .into_iter()
            .find(|p| p.is_leaf)
            .expect("a leaf exists");
        let token = t.flush_page(leaf.pid, FlushKind::FlushOnly).unwrap();
        assert_eq!(store.parts_written(), 1);
        let before = t.stats().fetches;
        for i in 0..20u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v));
        }
        assert_eq!(t.stats().fetches, before, "flush-only must not cause I/O");
        // A second flush of a clean page is free.
        let token2 = t.flush_page(leaf.pid, FlushKind::FlushOnly).unwrap();
        assert_eq!(token, token2);
        assert_eq!(store.parts_written(), 1);
    }

    #[test]
    fn evict_and_fetch_roundtrip() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store);
        for i in 0..20u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.evict_page(leaf.pid).unwrap();
        assert_eq!(
            t.page_info(leaf.pid).unwrap().residency,
            ResidencyState::Evicted
        );
        // Reads fault the page back in.
        for i in 0..20u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v));
        }
        assert_eq!(t.stats().fetches, 1, "one swap-in should serve all reads");
        assert_eq!(
            t.page_info(leaf.pid).unwrap().residency,
            ResidencyState::Resident
        );
        assert!(t.stats().ss_ops >= 1);
    }

    #[test]
    fn async_get_roundtrip_matches_sync_counts() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store.clone());
        for i in 0..20u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.evict_page(leaf.pid).unwrap();

        // Resident-path probe is a plain hit.
        let (k3, v3) = kv(3);
        let probe = t.try_get_async(&k3);
        let TryGetAsync::NeedFetch { pid, token } = probe else {
            panic!("evicted page must need a fetch, got {probe:?}");
        };
        assert_eq!(pid, leaf.pid);
        // Caller-side fetch + install, then resume.
        let img = store.fetch(pid, token).unwrap();
        assert!(t.install_fetched(pid, token, img));
        assert_eq!(t.resume_get(&k3), TryGetAsync::Hit(Some(v3)));

        // One logical get, one fetch, one secondary-storage op, no
        // main-memory op — exactly what the blocking miss path counts.
        let s = t.stats();
        assert_eq!(s.gets, 1);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.ss_ops, 1);
        assert_eq!(s.mm_ops - 20, 0, "only the 20 loading puts");

        // Now resident: the async probe hits directly.
        let (k4, v4) = kv(4);
        assert_eq!(t.try_get_async(&k4), TryGetAsync::Hit(Some(v4)));
        assert_eq!(t.stats().mm_ops - 20, 1);
    }

    #[test]
    fn install_fetched_rejects_stale_token() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store.clone());
        for i in 0..10u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.evict_page(leaf.pid).unwrap();
        let TryGetAsync::NeedFetch { pid, token } = t.try_get_async(&kv(2).0) else {
            panic!("expected fetch");
        };
        let img = store.fetch(pid, token).unwrap();
        // A concurrent writer dirties and re-flushes the page, superseding
        // the token before our install lands.
        t.blind_update(kv(2).0, b("newer"));
        let token2 = t.flush_page(pid, FlushKind::EvictAll).unwrap();
        assert_ne!(token, token2);
        assert!(!t.install_fetched(pid, token, img), "stale install refused");
        // Resume sees the page still flash-resident at the new token.
        let TryGetAsync::NeedFetch { token: t3, .. } = t.resume_get(&kv(2).0) else {
            panic!("still evicted");
        };
        assert_eq!(t3, token2);
        // The blocking read is the same steps driven to completion: one
        // fetch, of the live token, answers with the newer value.
        let fetches = t.stats().fetches;
        assert_eq!(t.try_get(&kv(2).0), Ok(Some(b("newer"))));
        assert_eq!(t.stats().fetches, fetches + 1);
        // Evicting the now-clean page writes nothing, so the hand-driven
        // read below still meets token2.
        assert_eq!(t.evict_page(pid), Ok(token2));
        let img2 = store.fetch(pid, token2).unwrap();
        assert!(t.install_fetched(pid, token2, img2));
        assert_eq!(t.resume_get(&kv(2).0), TryGetAsync::Hit(Some(b("newer"))));
    }

    /// A store whose next fetch fails, after running a hook in the window
    /// where the blocking read holds no guard and no lock.
    #[derive(Default)]
    struct FailNextFetch {
        inner: MemStore,
        before_failing: std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl PageStore for FailNextFetch {
        fn write(
            &self,
            pid: PageId,
            img: &PageImage,
            prev: Option<u64>,
        ) -> Result<u64, StoreError> {
            self.inner.write(pid, img, prev)
        }

        fn fetch(&self, pid: PageId, token: u64) -> Result<PageImage, StoreError> {
            let hook = self.before_failing.lock().unwrap().take();
            match hook {
                Some(hook) => {
                    hook();
                    Err(StoreError::Io("injected".into()))
                }
                None => self.inner.fetch(pid, token),
            }
        }
    }

    #[test]
    fn failed_fetch_fails_the_read_only_while_its_token_is_current() {
        let store = Arc::new(FailNextFetch::default());
        let t = Arc::new(BwTree::with_store(BwTreeConfig::default(), store.clone()));
        for i in 0..10u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let pid = t.pages().into_iter().find(|p| p.is_leaf).unwrap().pid;
        t.evict_page(pid).unwrap();

        // Nothing moves the leaf on: the failure is the read's answer.
        *store.before_failing.lock().unwrap() = Some(Box::new(|| {}));
        assert_eq!(
            t.try_get(&kv(2).0),
            Err(TreeError::Store(StoreError::Io("injected".into())))
        );

        // A writer supersedes the token while the fetch is out: the failed
        // fetch is of a dead token, and the read carries on to the new one.
        let writer = t.clone();
        *store.before_failing.lock().unwrap() = Some(Box::new(move || {
            writer.blind_update(kv(2).0, b("newer"));
            writer.flush_page(pid, FlushKind::EvictAll).unwrap();
        }));
        let fetches = t.stats().fetches;
        assert_eq!(t.try_get(&kv(2).0), Ok(Some(b("newer"))));
        assert_eq!(
            t.stats().fetches,
            fetches + 1,
            "only the live token installs"
        );
    }

    #[test]
    fn blind_update_to_evicted_page_is_io_free() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store);
        for i in 0..10u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.evict_page(leaf.pid).unwrap();
        let fetches_before = t.stats().fetches;
        t.blind_update(kv(3).0, b("fresh"));
        assert_eq!(
            t.stats().fetches,
            fetches_before,
            "blind update must not fetch"
        );
        assert_eq!(
            t.page_info(leaf.pid).unwrap().residency,
            ResidencyState::Partial
        );
        // The blind value is readable from the record cache without I/O.
        assert_eq!(t.get(&kv(3).0), Some(b("fresh")));
        assert_eq!(t.stats().fetches, fetches_before);
        assert!(t.stats().record_cache_hits >= 1);
        // Other keys on the page require the fetch.
        assert_eq!(t.get(&kv(4).0), Some(kv(4).1));
        assert_eq!(t.stats().fetches, fetches_before + 1);
    }

    #[test]
    fn evict_base_keep_deltas_serves_from_record_cache() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store);
        for i in 0..10u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        // Create some fresh deltas on a flushed page.
        t.flush_page(leaf.pid, FlushKind::FlushOnly).unwrap();
        t.put(kv(1).0, b("new1"));
        t.put(kv(2).0, b("new2"));
        t.flush_page(leaf.pid, FlushKind::EvictBaseKeepDeltas)
            .unwrap();
        assert_eq!(
            t.page_info(leaf.pid).unwrap().residency,
            ResidencyState::Partial
        );
        let fetches = t.stats().fetches;
        assert_eq!(t.get(&kv(1).0), Some(b("new1")));
        assert_eq!(t.get(&kv(2).0), Some(b("new2")));
        assert_eq!(t.stats().fetches, fetches, "record cache should hit");
        assert!(t.stats().record_cache_hits >= 2);
    }

    #[test]
    fn incremental_flush_writes_only_deltas() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store.clone());
        for i in 0..50u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.flush_page(leaf.pid, FlushKind::FlushOnly).unwrap();
        let full_flushes = t.stats().full_flushes;
        // A couple of updates, then flush again: must be incremental.
        t.put(kv(7).0, b("x7"));
        t.put(kv(9).0, b("x9"));
        t.flush_page(leaf.pid, FlushKind::FlushOnly).unwrap();
        let s = t.stats();
        assert_eq!(
            s.full_flushes, full_flushes,
            "second flush must not be full"
        );
        assert_eq!(s.incremental_flushes, 1);
        // Evict; fetch must fold base + increments.
        t.evict_page(leaf.pid).unwrap();
        assert_eq!(t.get(&kv(7).0), Some(b("x7")));
        assert_eq!(t.get(&kv(9).0), Some(b("x9")));
        assert_eq!(t.get(&kv(8).0), Some(kv(8).1));
    }

    #[test]
    fn eviction_of_inner_pages_refused() {
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        for i in 0..500u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let inner = t
            .pages()
            .into_iter()
            .find(|p| !p.is_leaf)
            .expect("tree has inner pages");
        assert!(matches!(
            t.flush_page(inner.pid, FlushKind::EvictAll),
            Err(TreeError::InnerPageNotEvictable(_))
        ));
    }

    #[test]
    fn evicted_page_split_state_survives() {
        // Fill enough to split, evict all leaves, and verify reads.
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::small_pages(), store);
        for i in 0..800u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        for p in t.pages() {
            if p.is_leaf {
                t.evict_page(p.pid).unwrap();
            }
        }
        for i in 0..800u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v), "key {i} lost after mass eviction");
        }
    }

    #[test]
    fn mm_vs_ss_accounting() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::default(), store);
        for i in 0..10u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let s0 = t.stats();
        t.get(&kv(0).0);
        let s1 = t.stats();
        assert_eq!(s1.mm_ops - s0.mm_ops, 1);
        assert_eq!(s1.ss_ops, s0.ss_ops);
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.evict_page(leaf.pid).unwrap();
        t.get(&kv(0).0);
        let s2 = t.stats();
        assert_eq!(s2.ss_ops - s1.ss_ops, 1, "post-evict read is an SS op");
    }

    #[test]
    fn vtime_stamps_page_access() {
        let t = BwTree::in_memory(BwTreeConfig::default());
        t.put(b("k"), b("v"));
        t.set_vtime(123_456);
        t.get(b"k");
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        assert_eq!(leaf.last_access, 123_456);
    }

    /// `page_info` classifies a chain in one walk. Each shape's residency,
    /// dirtiness, length and size, worked out by hand.
    #[test]
    fn page_info_classifies_every_chain_shape() {
        use ResidencyState::{Evicted, Partial, Resident};
        let t = BwTree::in_memory(BwTreeConfig::default());
        let n = std::mem::size_of::<Node>();
        let base = |stored| {
            let entries = vec![(b("a"), b("1")), (b("bb"), b("22"))];
            Fresh::new(Node::LeafBase(LeafBase::new(entries, None, None, stored)))
        };
        let base_bytes = n + 6 + 2 * 8;
        let put = |key: &str, value: &str, below: Fresh| {
            let (key, value) = (b(key), b(value));
            let next = Link::UNSET;
            below.push(Node::Put { key, value, next })
        };
        let del = |key: &str, below: Fresh| {
            let next = Link::UNSET;
            below.push(Node::Del { key: b(key), next })
        };
        let marker = |below: Fresh| {
            let next = Link::UNSET;
            below.push(Node::FlushMarker { token: 7, next })
        };
        let flash = || {
            let (high_key, right) = (Some(b("zz")), Some(4));
            Fresh::new(Node::FlashBase {
                token: 3,
                high_key,
                right,
            })
        };
        let split = base(Some(5)).push(Node::LeafSplit {
            sep: b("b"),
            right: 99,
            next: Link::UNSET,
        });
        let absorb = base(Some(5)).push(Node::Absorb {
            sep: b("m"),
            entries: vec![(b("m"), b("9")), (b("n"), b("10"))],
            high_key: None,
            right: None,
            next: Link::UNSET,
        });
        let frozen = put("x", "1", base(None)).push(Node::RemoveNode {
            left: 0,
            next: Link::UNSET,
        });
        let inner_base = InnerBase::new(1, vec![(b("g"), 2)], None, None);
        let inner = Fresh::new(Node::InnerBase(inner_base)).push(Node::IndexInsert {
            sep: b("q"),
            child: 5,
            next: Link::UNSET,
        });
        // (is_leaf, residency, dirty, chain_len, mem_bytes)
        let cases = [
            (
                "clean base",
                base(Some(5)),
                (true, Resident, false, 0, base_bytes),
            ),
            (
                "dirty base",
                base(None),
                (true, Resident, true, 0, base_bytes),
            ),
            (
                "split over a base",
                split,
                (true, Resident, true, 1, (n + 1) + base_bytes),
            ),
            (
                "absorb over a base",
                absorb,
                (true, Resident, true, 1, (n + 5 + 2 * 8) + base_bytes),
            ),
            (
                "records above and below a marker",
                put("k", "vv", marker(del("d", flash()))),
                (true, Partial, true, 3, (n + 3) + n + (n + 1) + (n + 2)),
            ),
            (
                "records below a marker only",
                marker(del("d", flash())),
                (true, Partial, false, 2, n + (n + 1) + (n + 2)),
            ),
            ("bare flash base", flash(), (true, Evicted, false, 0, n + 2)),
            (
                "frozen",
                frozen,
                (true, Resident, false, 2, n + (n + 2) + base_bytes),
            ),
            (
                "inner chain",
                inner,
                (false, Resident, false, 1, (n + 1 + 8) + (n + 1 + 8 + 8)),
            ),
        ];
        for (name, head, want) in cases {
            let pid = t.mapping.allocate();
            t.mapping.store_new(pid, head, 0);
            let p = t.page_info(pid).unwrap();
            let got = (p.is_leaf, p.residency, p.dirty, p.chain_len, p.mem_bytes);
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn footprint_grows_with_data() {
        let t = BwTree::in_memory(BwTreeConfig::default());
        let f0 = t.footprint_bytes();
        for i in 0..100u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        assert!(t.footprint_bytes() > f0);
    }

    #[test]
    fn mass_deletion_triggers_merges_and_preserves_data() {
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        let n = 2000u32;
        for i in 0..n {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaves_before = t.pages().iter().filter(|p| p.is_leaf).count();
        // Delete 90% of the keys; surviving keys every 10th.
        for i in 0..n {
            if i % 10 != 0 {
                t.delete(kv(i).0);
            }
        }
        // Touch the tree to drive consolidations over the deletion deltas.
        for i in (0..n).step_by(10) {
            let (k, v) = kv(i);
            t.put(k.clone(), v);
        }
        let stats = t.stats();
        assert!(stats.leaf_merges > 0, "no merges after mass deletion");
        let leaves_after = t.pages().iter().filter(|p| p.is_leaf).count();
        assert!(
            leaves_after < leaves_before,
            "leaf count should shrink: {leaves_before} -> {leaves_after}"
        );
        for i in 0..n {
            let (k, v) = kv(i);
            if i % 10 == 0 {
                assert_eq!(t.get(&k), Some(v), "survivor {i} lost");
            } else {
                assert_eq!(t.get(&k), None, "deleted {i} returned");
            }
        }
        // Scans agree too.
        assert_eq!(t.count_entries(), (n as usize).div_ceil(10));
    }

    #[test]
    fn merged_tree_scans_in_order() {
        let t = BwTree::in_memory(BwTreeConfig::small_pages());
        for i in 0..1000u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        for i in 0..1000u32 {
            if i % 7 != 0 {
                t.delete(kv(i).0);
            }
        }
        for i in (0..1000u32).step_by(7) {
            t.put(kv(i).0, kv(i).1); // drive consolidation + merges
        }
        let all: Vec<_> = t.range(b"", None).map(|r| r.unwrap()).collect();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "unsorted scan");
        assert_eq!(all.len(), 1000usize.div_ceil(7));
    }

    #[test]
    fn merges_with_store_and_eviction() {
        let store = Arc::new(MemStore::new());
        let t = BwTree::with_store(BwTreeConfig::small_pages(), store);
        for i in 0..1500u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        for i in 0..1500u32 {
            if i % 5 != 0 {
                t.delete(kv(i).0);
            }
        }
        for i in (0..1500u32).step_by(5) {
            t.put(kv(i).0, kv(i).1);
        }
        assert!(t.stats().leaf_merges > 0);
        // Evict everything, read everything back.
        for p in t.pages() {
            if p.is_leaf {
                let _ = t.evict_page(p.pid);
            }
        }
        for i in 0..1500u32 {
            let (k, v) = kv(i);
            if i % 5 == 0 {
                assert_eq!(t.get(&k), Some(v), "survivor {i}");
            } else {
                assert_eq!(t.get(&k), None, "deleted {i}");
            }
        }
    }

    #[test]
    fn concurrent_deletes_inserts_reads_with_merges() {
        let t = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
        for i in 0..2000u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let mut handles = Vec::new();
        // Deleters sweep ranges (shrinking pages), inserters refill others,
        // readers hammer everywhere.
        for tid in 0..3u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in (tid * 600..(tid + 1) * 600).step_by(1) {
                    t.delete(kv(i).0);
                }
            }));
        }
        {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..3u32 {
                    for i in 0..600u32 {
                        t.put(kv(i).0, Bytes::from(format!("re{round}-{i}")));
                    }
                }
            }));
        }
        for tid in 0..3u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                let mut x = 99u64 + tid as u64;
                for _ in 0..5000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    std::hint::black_box(t.get(&kv((x % 2000) as u32).0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Keys 1800..2000 were never touched after load.
        for i in 1800..2000u32 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k), Some(v), "untouched key {i} disturbed");
        }
        // Final re-inserted values are from the inserter.
        for i in 0..600u32 {
            if let Some(v) = t.get(&kv(i).0) {
                let s = String::from_utf8(v.to_vec()).unwrap();
                assert!(s.starts_with("re"), "corrupt value {s}");
            }
        }
    }

    #[test]
    fn partial_chain_heals_at_threshold() {
        let store = Arc::new(MemStore::new());
        let cfg = BwTreeConfig {
            max_partial_deltas: 8,
            ..BwTreeConfig::default()
        };
        let t = BwTree::with_store(cfg, store);
        for i in 0..10u32 {
            let (k, v) = kv(i);
            t.put(k, v);
        }
        let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
        t.evict_page(leaf.pid).unwrap();
        // Pile blind updates onto the evicted page: the chain must not grow
        // past the healing threshold.
        for round in 0..100u32 {
            t.blind_update(kv(round % 10).0, Bytes::from(format!("r{round}")));
            let info = t.page_info(leaf.pid).unwrap();
            assert!(
                info.chain_len <= 8 + 1,
                "chain grew unboundedly: {} at round {round}",
                info.chain_len
            );
        }
        assert!(t.stats().fetches >= 1, "healing should have fetched");
        // Values correct after healing.
        assert_eq!(t.get(&kv(9).0), Some(Bytes::from("r99")));
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
        const THREADS: u32 = 8;
        const PER: u32 = 500;
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    let id = tid * PER + i;
                    let (k, v) = (
                        Bytes::from(format!("ckey{id:08}")),
                        Bytes::from(format!("cval{id}")),
                    );
                    t.put(k.clone(), v.clone());
                    assert_eq!(t.get(&k), Some(v), "own write lost: {id}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for id in 0..THREADS * PER {
            let k = format!("ckey{id:08}");
            assert_eq!(
                t.get(k.as_bytes()),
                Some(Bytes::from(format!("cval{id}"))),
                "key {id} lost"
            );
        }
    }

    #[test]
    fn concurrent_mixed_same_keys() {
        // Hammer a small key set from many threads; verify final values are
        // ones some thread wrote (no corruption / phantom values).
        let t = Arc::new(BwTree::in_memory(BwTreeConfig::small_pages()));
        const KEYS: u32 = 50;
        let mut handles = Vec::new();
        for tid in 0..8u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200u32 {
                    let k = Bytes::from(format!("hot{:03}", (tid * 7 + round) % KEYS));
                    if round % 5 == 0 {
                        t.delete(k);
                    } else {
                        t.put(k, Bytes::from(format!("t{tid}r{round}")));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..KEYS {
            let k = format!("hot{i:03}");
            if let Some(v) = t.get(k.as_bytes()) {
                let s = String::from_utf8(v.to_vec()).unwrap();
                assert!(s.starts_with('t'), "corrupt value {s}");
            }
        }
    }
}
