//! The cache manager: which pages stay in DRAM.
//!
//! This is where the paper's economics become policy. A data caching system
//! can move data between DRAM and flash (§3), and the cost model says
//! exactly when it should: once the interval between accesses to a page
//! exceeds the breakeven `Ti` (§4.2 — ≈45 s on the paper's hardware), the
//! page is cheaper to serve from flash with SS operations than to keep
//! renting DRAM for. The [`EvictionPolicy::CostModel`] policy implements
//! that rule directly; [`EvictionPolicy::Lru`] is the classic comparator.

use dcs_bwtree::{BwTree, FlushKind, PageInfo, ResidencyState, TreeError};
use dcs_flashsim::VirtualClock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Eviction policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionPolicy {
    /// Evict least-recently-used leaves until under the memory budget.
    Lru,
    /// Evict any leaf whose access interval exceeds `ti` (the cost-model
    /// breakeven), *and* fall back to LRU if still over budget.
    CostModel {
        /// Breakeven access interval in virtual nanoseconds.
        ti_nanos: u64,
    },
}

/// Cache-manager configuration.
#[derive(Debug, Clone)]
pub struct CacheManagerConfig {
    /// Target in-memory footprint in bytes (tree pages + mapping table).
    pub memory_budget: usize,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Keep record deltas in memory when evicting (record caching, §6.3).
    pub keep_record_cache: bool,
}

impl Default for CacheManagerConfig {
    fn default() -> Self {
        CacheManagerConfig {
            memory_budget: 64 << 20,
            policy: EvictionPolicy::Lru,
            keep_record_cache: false,
        }
    }
}

/// Counters for cache management activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Eviction sweeps run.
    pub sweeps: u64,
    /// Pages evicted.
    pub pages_evicted: u64,
    /// Approximate bytes released.
    pub bytes_released: u64,
    /// Pages flushed (made durable) without eviction, by checkpoints.
    pub pages_checkpointed: u64,
    /// Sweeps that returned an error (a full log, say) and so stopped
    /// evicting part-way.
    pub sweep_errors: u64,
}

/// Drives [`BwTree::flush_page`] according to a policy. See module docs.
pub struct CacheManager {
    config: CacheManagerConfig,
    clock: VirtualClock,
    sweeps: AtomicU64,
    pages_evicted: AtomicU64,
    bytes_released: AtomicU64,
    pages_checkpointed: AtomicU64,
    sweep_errors: AtomicU64,
}

impl CacheManager {
    /// A manager reading access times from `clock`.
    pub fn new(config: CacheManagerConfig, clock: VirtualClock) -> Self {
        CacheManager {
            config,
            clock,
            sweeps: AtomicU64::new(0),
            pages_evicted: AtomicU64::new(0),
            bytes_released: AtomicU64::new(0),
            pages_checkpointed: AtomicU64::new(0),
            sweep_errors: AtomicU64::new(0),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheManagerConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ORDERING: statistics counters; each is individually exact
            // and the snapshot tolerates a torn cross-field view.
            sweeps: self.sweeps.load(Ordering::Relaxed),
            pages_evicted: self.pages_evicted.load(Ordering::Relaxed),
            bytes_released: self.bytes_released.load(Ordering::Relaxed),
            pages_checkpointed: self.pages_checkpointed.load(Ordering::Relaxed),
            sweep_errors: self.sweep_errors.load(Ordering::Relaxed),
        }
    }

    fn flush_kind(&self) -> FlushKind {
        if self.config.keep_record_cache {
            FlushKind::EvictBaseKeepDeltas
        } else {
            FlushKind::EvictAll
        }
    }

    /// One policy sweep over the tree. Returns pages evicted and the
    /// tree's footprint after the sweep.
    ///
    /// Propagates the tree's virtual time from the clock, applies the
    /// cost-model interval rule (if configured), then enforces the memory
    /// budget by LRU — all over one [`BwTree::pages`] snapshot, the
    /// footprint following each eviction by the bytes it released.
    /// A sweep that fails is counted in [`CacheStats::sweep_errors`] and
    /// the `llama.cache.sweep_errors` registry counter.
    pub fn sweep(&self, tree: &BwTree) -> Result<(usize, usize), TreeError> {
        let result = self.sweep_once(tree);
        if result.is_err() {
            // ORDERING: statistics counter only.
            self.sweep_errors.fetch_add(1, Ordering::Relaxed);
            dcs_telemetry::global()
                .counter("llama.cache.sweep_errors")
                .incr();
        }
        result
    }

    fn sweep_once(&self, tree: &BwTree) -> Result<(usize, usize), TreeError> {
        // ORDERING: statistics counter only.
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        let _span = dcs_telemetry::span("llama.cache_sweep", dcs_telemetry::CostClass::Maintenance);
        dcs_telemetry::ledger().maintenance_op();
        let now = self.clock.now();
        tree.set_vtime(now);
        let pages = tree.pages();
        let mut footprint = tree.footprint_of(&pages);
        let mut evicted = 0usize;

        // Phase 1 — cost-model rule: any leaf colder than Ti goes to flash,
        // regardless of memory pressure (it is cheaper there).
        let ti_nanos = match self.config.policy {
            EvictionPolicy::CostModel { ti_nanos } => Some(ti_nanos),
            EvictionPolicy::Lru => None,
        };
        let mut resident = Vec::new();
        for page in pages {
            if !page.is_leaf || page.residency != ResidencyState::Resident {
                continue;
            }
            let cold = ti_nanos.is_some_and(|ti| now.saturating_sub(page.last_access) > ti);
            if cold && self.evict_one(tree, &page, &mut footprint)? {
                evicted += 1;
            } else {
                resident.push(page);
            }
        }

        // Phase 2 — budget enforcement over what is still resident,
        // coldest first.
        if footprint > self.config.memory_budget {
            resident.sort_by_key(|p| p.last_access);
            for page in &resident {
                if footprint <= self.config.memory_budget {
                    break;
                }
                if self.evict_one(tree, page, &mut footprint)? {
                    evicted += 1;
                }
            }
        }
        Ok((evicted, footprint))
    }

    /// Evict one page of a sweep's snapshot, moving `footprint` by what that
    /// changed (the page's in-memory stub remains, so less than its
    /// resident size). `Ok(false)` = the page vanished under a racing SMO.
    fn evict_one(
        &self,
        tree: &BwTree,
        page: &PageInfo,
        footprint: &mut usize,
    ) -> Result<bool, TreeError> {
        match tree.flush_page(page.pid, self.flush_kind()) {
            Ok(_) => {
                let bytes_after = tree.page_info(page.pid).map(|p| p.mem_bytes).unwrap_or(0);
                *footprint = (*footprint + bytes_after).saturating_sub(page.mem_bytes);
                let released = page.mem_bytes.saturating_sub(bytes_after) as u64;
                // ORDERING: statistics counters; eviction correctness
                // is carried by the tree's own page-state atomics.
                self.pages_evicted.fetch_add(1, Ordering::Relaxed);
                // ORDERING: as above.
                self.bytes_released.fetch_add(released, Ordering::Relaxed);
                Ok(true)
            }
            // A page can disappear or change level under a racing SMO.
            Err(TreeError::InnerPageNotEvictable(_)) | Err(TreeError::PageNotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Flush every dirty leaf (without evicting), making the whole tree
    /// durable. Pair with [`crate::LogStructuredStore::sync`] to establish a
    /// crash-consistent checkpoint.
    pub fn checkpoint(&self, tree: &BwTree) -> Result<usize, TreeError> {
        let mut flushed = 0usize;
        for page in tree.pages() {
            if page.is_leaf && page.dirty {
                match tree.flush_page(page.pid, FlushKind::FlushOnly) {
                    Ok(_) => {
                        flushed += 1;
                        // ORDERING: statistics counter only.
                        self.pages_checkpointed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TreeError::InnerPageNotEvictable(_)) | Err(TreeError::PageNotFound(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(flushed)
    }
}

impl std::fmt::Debug for CacheManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheManager")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lss::{LogStructuredStore, LssConfig};
    use bytes::Bytes;
    use dcs_bwtree::BwTreeConfig;
    use dcs_flashsim::{DeviceConfig, FlashDevice};
    use std::sync::Arc;

    fn setup() -> (Arc<BwTree>, Arc<LogStructuredStore>, VirtualClock) {
        let clock = VirtualClock::new();
        let device = Arc::new(FlashDevice::with_clock(
            DeviceConfig {
                segment_count: 512,
                advance_clock_on_io: false,
                ..DeviceConfig::small_test()
            },
            clock.clone(),
        ));
        let store = Arc::new(LogStructuredStore::new(device, LssConfig::default()));
        let tree = Arc::new(BwTree::with_store(
            BwTreeConfig::small_pages(),
            store.clone(),
        ));
        (tree, store, clock)
    }

    fn kv(i: u32) -> (Bytes, Bytes) {
        (
            Bytes::from(format!("key{i:06}")),
            Bytes::from(format!("value-{i}-padding-padding")),
        )
    }

    #[test]
    fn lru_sweep_enforces_budget() {
        let (tree, _store, clock) = setup();
        for i in 0..2000u32 {
            let (k, v) = kv(i);
            tree.put(k, v);
        }
        let before = tree.footprint_bytes();
        let budget = before / 4;
        let mgr = CacheManager::new(
            CacheManagerConfig {
                memory_budget: budget,
                policy: EvictionPolicy::Lru,
                keep_record_cache: false,
            },
            clock,
        );
        let (evicted, swept_to) = mgr.sweep(&tree).unwrap();
        assert!(evicted > 0);
        let after = tree.footprint_bytes();
        assert_eq!(swept_to, after, "the sweep's running footprint drifted");
        assert!(
            after < before,
            "footprint should shrink: {before} -> {after}"
        );
        // Either the budget is met, or every leaf the policy can evict is
        // already gone (inner pages and stubs are the irreducible floor).
        let resident_leaves = tree
            .pages()
            .iter()
            .filter(|p| p.is_leaf && p.residency == ResidencyState::Resident)
            .count();
        assert!(
            after <= budget + 4096 || resident_leaves == 0,
            "footprint {after} exceeds budget {budget} with {resident_leaves} resident leaves"
        );
        // Data still correct.
        for i in (0..2000u32).step_by(97) {
            let (k, v) = kv(i);
            assert_eq!(tree.get(&k), Some(v));
        }
    }

    #[test]
    fn cost_model_evicts_cold_pages_only() {
        let (tree, _store, clock) = setup();
        for i in 0..800u32 {
            let (k, v) = kv(i);
            tree.put(k, v);
        }
        // Stamp all pages as accessed now...
        tree.set_vtime(clock.now());
        for i in 0..800u32 {
            tree.get(&kv(i).0);
        }
        // ...then advance past Ti and re-touch only the first keys (hot set).
        let ti = dcs_flashsim::secs(45.0);
        clock.advance(ti * 2);
        tree.set_vtime(clock.now());
        for i in 0..50u32 {
            tree.get(&kv(i).0);
        }
        let mgr = CacheManager::new(
            CacheManagerConfig {
                memory_budget: usize::MAX,
                policy: EvictionPolicy::CostModel { ti_nanos: ti },
                keep_record_cache: false,
            },
            clock,
        );
        let (evicted, swept_to) = mgr.sweep(&tree).unwrap();
        assert!(evicted > 0, "cold pages should be evicted");
        assert_eq!(swept_to, tree.footprint_bytes());
        // The hot leaf (first keys) must remain resident.
        let hot_hits_before = tree.stats().fetches;
        tree.get(&kv(0).0);
        assert_eq!(tree.stats().fetches, hot_hits_before, "hot page evicted");
    }

    /// A split publishes the right half at a fresh PID; it is as young as
    /// the write that split the leaf, not T_i-cold from birth.
    #[test]
    fn split_pages_are_born_young() {
        let (tree, _store, clock) = setup();
        let ti = dcs_flashsim::secs(45.0);
        clock.advance(ti * 2);
        tree.set_vtime(clock.now());
        let mut i = 0;
        while tree.stats().leaf_splits == 0 {
            let (k, v) = kv(i);
            tree.put(k, v);
            i += 1;
        }
        assert_eq!(tree.stats().leaf_splits, 1);
        let mgr = CacheManager::new(
            CacheManagerConfig {
                memory_budget: usize::MAX,
                policy: EvictionPolicy::CostModel { ti_nanos: ti },
                keep_record_cache: false,
            },
            clock,
        );
        assert_eq!(mgr.sweep(&tree).unwrap().0, 0, "a fresh page was T_i-cold");
    }

    #[test]
    fn record_cache_mode_keeps_deltas() {
        let (tree, _store, clock) = setup();
        for i in 0..200u32 {
            let (k, v) = kv(i);
            tree.put(k, v);
        }
        // Flush everything clean first, then lay down fresh deltas.
        let mgr = CacheManager::new(
            CacheManagerConfig {
                memory_budget: 0,
                policy: EvictionPolicy::Lru,
                keep_record_cache: true,
            },
            clock,
        );
        mgr.checkpoint(&tree).unwrap();
        tree.put(kv(0).0, Bytes::from("fresh"));
        mgr.sweep(&tree).unwrap();
        // The fresh delta survives as a record cache.
        let fetches = tree.stats().fetches;
        assert_eq!(tree.get(&kv(0).0), Some(Bytes::from("fresh")));
        assert_eq!(tree.stats().fetches, fetches, "record cache should hit");
    }

    #[test]
    fn checkpoint_flushes_all_dirty() {
        let (tree, store, clock) = setup();
        for i in 0..500u32 {
            let (k, v) = kv(i);
            tree.put(k, v);
        }
        let mgr = CacheManager::new(CacheManagerConfig::default(), clock);
        let flushed = mgr.checkpoint(&tree).unwrap();
        assert!(flushed > 0);
        store.sync().unwrap();
        // No leaf remains dirty.
        assert!(
            tree.pages().iter().all(|p| !p.is_leaf || !p.dirty),
            "dirty leaves remain after checkpoint"
        );
        // Second checkpoint is a no-op.
        assert_eq!(mgr.checkpoint(&tree).unwrap(), 0);
    }

    #[test]
    fn sweep_counts_stats() {
        let (tree, _store, clock) = setup();
        for i in 0..300u32 {
            let (k, v) = kv(i);
            tree.put(k, v);
        }
        let mgr = CacheManager::new(
            CacheManagerConfig {
                memory_budget: 0,
                policy: EvictionPolicy::Lru,
                keep_record_cache: false,
            },
            clock,
        );
        mgr.sweep(&tree).unwrap();
        let s = mgr.stats();
        assert_eq!(s.sweeps, 1);
        assert!(s.pages_evicted > 0);
        assert!(s.bytes_released > 0);
    }
}
