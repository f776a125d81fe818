//! The caching-store facade.

use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig, PageId, TreeError, TreeStats, TryGetAsync};
use dcs_costmodel::{breakeven, HardwareCatalog};
use dcs_flashsim::{DeviceConfig, DeviceStats, FlashDevice, VirtualClock};
use dcs_llama::{
    CacheManager, CacheManagerConfig, CacheStats, Codec, EvictionPolicy, FetchSubmit,
    LogStructuredStore, LssConfig, LssStats,
};
use dcs_tc::{TcConfig, TransactionalStore};
use dcs_telemetry::MrcProfiler;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the store decides what stays in DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Classic LRU against the memory budget.
    Lru,
    /// The paper's rule: evict pages whose access interval exceeds the
    /// breakeven `Ti` computed from a hardware catalog (Equation 6), with
    /// LRU as the budget backstop.
    CostModel,
}

/// Builder for a [`CachingStore`].
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    /// Hardware catalog the cost-model policy derives `Ti` from.
    pub hardware: HardwareCatalog,
    /// Simulated device parameters.
    pub device: DeviceConfig,
    /// Bw-tree parameters.
    pub tree: BwTreeConfig,
    /// Log-structured store parameters (including compression codec).
    pub lss: LssConfig,
    /// In-memory footprint target in bytes.
    pub memory_budget: usize,
    /// Eviction policy.
    pub policy: Policy,
    /// Keep record deltas in memory when evicting (§6.3).
    pub keep_record_cache: bool,
    /// Run a cache-management sweep every this many operations
    /// (0 disables automatic sweeps).
    pub sweep_every_ops: u64,
}

impl StoreBuilder {
    /// Defaults modeled on the paper's setup: its hardware catalog, its
    /// SSD, cost-model eviction.
    pub fn paper() -> Self {
        StoreBuilder {
            hardware: HardwareCatalog::paper(),
            device: DeviceConfig::paper_ssd(),
            tree: BwTreeConfig::default(),
            lss: LssConfig::default(),
            memory_budget: 256 << 20,
            policy: Policy::CostModel,
            keep_record_cache: true,
            sweep_every_ops: 4096,
        }
    }

    /// A small configuration for tests and examples.
    pub fn small_test() -> Self {
        StoreBuilder {
            hardware: HardwareCatalog::paper(),
            device: DeviceConfig {
                segment_count: 1024,
                advance_clock_on_io: false,
                ..DeviceConfig::small_test()
            },
            tree: BwTreeConfig::small_pages(),
            lss: LssConfig::default(),
            memory_budget: 8 << 20,
            policy: Policy::Lru,
            keep_record_cache: false,
            sweep_every_ops: 1024,
        }
    }

    /// Use the cost-model eviction policy (breakeven `Ti` from the
    /// catalog).
    pub fn cost_model_policy(mut self) -> Self {
        self.policy = Policy::CostModel;
        self
    }

    /// Set the memory budget.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Compress page payloads on flash (§7.2).
    pub fn compressed(mut self) -> Self {
        self.lss.codec = Codec::Lzss;
        self
    }

    /// Construct the store.
    pub fn build(self) -> CachingStore {
        let clock = VirtualClock::new();
        self.build_with_clock(clock)
    }

    /// Construct sharing an external clock (workload drivers).
    pub fn build_with_clock(self, clock: VirtualClock) -> CachingStore {
        let device = Arc::new(FlashDevice::with_clock(self.device.clone(), clock.clone()));
        self.assemble(device, clock)
    }

    fn assemble(self, device: Arc<FlashDevice>, clock: VirtualClock) -> CachingStore {
        let lss = Arc::new(LogStructuredStore::new(device.clone(), self.lss.clone()));
        let tree = Arc::new(BwTree::with_store(self.tree.clone(), lss.clone()));
        self.assemble_recovered(device, clock, lss, tree)
    }

    fn assemble_recovered(
        self,
        device: Arc<FlashDevice>,
        clock: VirtualClock,
        lss: Arc<LogStructuredStore>,
        tree: Arc<BwTree>,
    ) -> CachingStore {
        let policy = match self.policy {
            Policy::Lru => EvictionPolicy::Lru,
            Policy::CostModel => EvictionPolicy::CostModel {
                ti_nanos: (breakeven::ti_seconds(&self.hardware) * 1e9) as u64,
            },
        };
        let cache = CacheManager::new(
            CacheManagerConfig {
                memory_budget: self.memory_budget,
                policy,
                keep_record_cache: self.keep_record_cache,
            },
            clock.clone(),
        );
        CachingStore {
            clock,
            device,
            lss,
            tree,
            cache,
            sweep_every_ops: self.sweep_every_ops,
            ops_since_sweep: AtomicU64::new(0),
            hardware: self.hardware,
            misses: Mutex::new(MissTable::default()),
            reported_dram: AtomicU64::new(0),
            reported_flash: AtomicU64::new(0),
            mrc: dcs_telemetry::mrc().profiler("mrc.record_cache"),
        }
    }
}

/// Outcome of a non-blocking [`CachingStore::get_submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum SubmittedGet {
    /// Served from memory — a cache hit, or a definitive miss that needed
    /// no I/O.
    Ready(Option<Bytes>),
    /// A flash fetch is in flight; the token identifies this miss in later
    /// [`CachingStore::poll_gets`] completions.
    Pending(u64),
}

/// A completed miss, reaped by [`CachingStore::poll_gets`].
#[derive(Debug)]
pub struct FinishedGet {
    /// The token [`CachingStore::get_submit`] returned.
    pub token: u64,
    /// The read's final outcome.
    pub result: Result<Option<Bytes>, TreeError>,
}

/// One in-flight miss: enough context to install the fetched image and
/// re-probe the tree when the device completes.
struct PendingMiss {
    key: Vec<u8>,
    pid: PageId,
    token: u64,
    miss_token: u64,
}

/// All in-flight misses, keyed by the LSS fetch id currently serving each.
/// A multi-part chain whose continuation resubmits keeps its `miss_token`
/// across fetch ids, so the caller's handle never changes.
#[derive(Default)]
struct MissTable {
    next_token: u64,
    by_fetch: HashMap<u64, PendingMiss>,
}

/// Aggregated counters across all layers.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Bw-tree operation counters.
    pub tree: TreeStats,
    /// Log-structured store counters.
    pub lss: LssStats,
    /// Device counters.
    pub device: DeviceStats,
    /// Cache-manager counters.
    pub cache: CacheStats,
    /// Current in-memory footprint in bytes.
    pub footprint_bytes: usize,
}

impl StoreStats {
    /// The paper's `F`: fraction of operations that touched secondary
    /// storage.
    pub fn ss_fraction(&self) -> f64 {
        self.tree.ss_fraction()
    }
}

/// The assembled data caching store. See the crate docs.
pub struct CachingStore {
    clock: VirtualClock,
    device: Arc<FlashDevice>,
    lss: Arc<LogStructuredStore>,
    tree: Arc<BwTree>,
    cache: CacheManager,
    sweep_every_ops: u64,
    ops_since_sweep: AtomicU64,
    hardware: HardwareCatalog,
    misses: Mutex<MissTable>,
    /// Occupancy this store last contributed to the telemetry gauges.
    /// Deltas are reported so several shard stores sum correctly.
    reported_dram: AtomicU64,
    reported_flash: AtomicU64,
    /// Miss-ratio-curve profiler over the record-level access stream
    /// (shared process-wide under `mrc.record_cache` so shard stores
    /// profile one merged stream).
    mrc: Arc<MrcProfiler>,
}

impl CachingStore {
    /// Point lookup (panics on store failure; see [`CachingStore::try_get`]).
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.try_get(key).expect("storage failure")
    }

    /// Point lookup.
    pub fn try_get(&self, key: &[u8]) -> Result<Option<Bytes>, TreeError> {
        let r = self.tree.try_get(key);
        if let Ok(found) = &r {
            self.mrc_record(key, found.as_ref().map_or(0, |v| v.len()));
        }
        self.tick();
        r
    }

    /// Feed one record access into the MRC profiler. `val_len` is 0 when
    /// the record's value is not in hand (miss still in flight, absent
    /// key), so the byte axis slightly understates record size in
    /// proportion to the miss ratio — acceptable for a sampled estimate.
    fn mrc_record(&self, key: &[u8], val_len: usize) {
        self.mrc.record_key(key, (key.len() + val_len) as u64);
    }

    /// Begin a non-blocking point lookup. Cache hits (and misses resolved
    /// from the LSS write buffer) return [`SubmittedGet::Ready`]
    /// immediately; a read that needs flash submits the fetch to the
    /// device queue pair and returns [`SubmittedGet::Pending`] — the
    /// caller keeps doing other work and reaps the result later with
    /// [`CachingStore::poll_gets`].
    pub fn get_submit(&self, key: &[u8]) -> Result<SubmittedGet, TreeError> {
        let r = self.drive_miss(key, self.tree.try_get_async(key), None);
        if let Ok(submitted) = &r {
            let val_len = match submitted {
                SubmittedGet::Ready(Some(v)) => v.len(),
                _ => 0,
            };
            self.mrc_record(key, val_len);
        }
        self.tick();
        r
    }

    /// Point lookup answered only from memory, with no device I/O: `None`
    /// when the read would need flash, and then nothing is counted — not
    /// the get, the MRC access or the sweep tick — so the caller can retry
    /// with [`CachingStore::get_submit`] and the read still counts once.
    pub fn get_resident(&self, key: &[u8]) -> Option<Option<Bytes>> {
        let found = self.tree.try_get_resident(key)?;
        self.mrc_record(key, found.as_ref().map_or(0, |v| v.len()));
        self.tick();
        Some(found)
    }

    /// Drive a read on from `probe` until it is answered or parked on a
    /// device fetch: images the LSS has at hand are installed and the tree
    /// re-probed. `miss_token` is the handle of a miss being resumed (a
    /// chain continuation, or a token superseded mid-install, parks again
    /// under the same handle); `None` mints one at the first park.
    fn drive_miss(
        &self,
        key: &[u8],
        mut probe: TryGetAsync,
        miss_token: Option<u64>,
    ) -> Result<SubmittedGet, TreeError> {
        loop {
            let (pid, token) = match probe {
                TryGetAsync::Hit(v) => return Ok(SubmittedGet::Ready(v)),
                TryGetAsync::NeedFetch { pid, token } => (pid, token),
            };
            match self.lss.fetch_submit(token).map_err(TreeError::Store)? {
                FetchSubmit::Ready(img) => {
                    // A raced install loses harmlessly: the winner's image
                    // is equivalent, and the re-probe below sees whatever
                    // won.
                    let _ = self.tree.install_fetched(pid, token, img);
                }
                FetchSubmit::Pending(fetch_id) => {
                    let mut t = self.misses.lock();
                    let miss_token = miss_token.unwrap_or_else(|| {
                        t.next_token += 1;
                        t.next_token - 1
                    });
                    t.by_fetch.insert(
                        fetch_id,
                        PendingMiss {
                            key: key.to_vec(),
                            pid,
                            token,
                            miss_token,
                        },
                    );
                    return Ok(SubmittedGet::Pending(miss_token));
                }
            }
            probe = self.tree.resume_get(key);
        }
    }

    /// Reap every miss whose device I/O has completed: install the fetched
    /// page image, re-probe the tree, and push a [`FinishedGet`] per
    /// resolved read. A multi-part flash chain that needs another hop stays
    /// pending under the same token. Non-blocking; returns reads resolved.
    pub fn poll_gets(&self, out: &mut Vec<FinishedGet>) -> usize {
        let mut fetched = Vec::new();
        self.lss.poll_fetches(&mut fetched);
        let mut resolved = 0;
        for c in fetched {
            let Some(miss) = self.misses.lock().by_fetch.remove(&c.fetch_id) else {
                // Not a miss of ours (e.g. a caller driving the LSS queue
                // directly); nothing to resolve.
                continue;
            };
            let installed = c
                .result
                .map(|img| self.tree.install_fetched(miss.pid, miss.token, img));
            // A failed fetch fails the read only if the leaf still needs
            // that token; otherwise a concurrent writer superseded it
            // (rollup, GC) and the read carries on from the fresh probe.
            let probe = self.tree.resume_get(&miss.key);
            let outcome = match installed {
                Err(e) if probe.needs_token(miss.token) => Err(TreeError::Store(e)),
                _ => self.drive_miss(&miss.key, probe, Some(miss.miss_token)),
            };
            // No tick() here: the operation already ticked at submit, and
            // the sweep cadence must not depend on which path served it.
            let result = match outcome {
                Ok(SubmittedGet::Pending(_)) => continue,
                Ok(SubmittedGet::Ready(v)) => Ok(v),
                Err(e) => Err(e),
            };
            out.push(FinishedGet {
                token: miss.miss_token,
                result,
            });
            resolved += 1;
        }
        resolved
    }

    /// Misses currently in flight on the device.
    pub fn gets_inflight(&self) -> usize {
        self.misses.lock().by_fetch.len()
    }

    /// Block (spinning out any wall-clock device latency) until every
    /// in-flight miss resolves into `out`.
    pub fn drain_gets(&self, out: &mut Vec<FinishedGet>) {
        while self.gets_inflight() > 0 {
            if self.poll_gets(out) == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Upsert (a blind update at the data component).
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.tree.put(key, value);
        self.tick();
    }

    /// An update the caller asserts is blind (§6.2): never fetches the
    /// target page even if evicted.
    pub fn blind_update(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.tree.blind_update(key, value);
        self.tick();
    }

    /// Delete.
    pub fn delete(&self, key: impl Into<Bytes>) {
        self.tree.delete(key);
        self.tick();
    }

    /// Range scan `[start, end)`.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>) -> Vec<(Bytes, Bytes)> {
        let out = self
            .tree
            .range(start, end)
            .map(|r| r.expect("scan failure"))
            .collect();
        self.tick();
        out
    }

    fn tick(&self) {
        if self.sweep_every_ops == 0 {
            return;
        }
        let n = self.ops_since_sweep.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.sweep_every_ops) {
            let _ = self.sweep();
        }
    }

    /// Advance the shared virtual clock (workload drivers model access
    /// intervals with this).
    pub fn advance_time(&self, nanos: u64) {
        self.clock.advance(nanos);
        self.tree.set_vtime(self.clock.now());
    }

    /// Run one cache-management sweep now. Returns pages evicted.
    pub fn sweep(&self) -> Result<usize, TreeError> {
        let (evicted, footprint) = self.cache.sweep(&self.tree)?;
        self.report_occupancy(footprint as u64);
        Ok(evicted)
    }

    /// Refresh the telemetry occupancy gauges (the rent terms of the cost
    /// attribution) with this store's current footprints — `dram` is the
    /// tree's, as the sweep just measured it — as a delta against what it
    /// last reported so shard stores sum process-wide.
    fn report_occupancy(&self, dram: u64) {
        let ledger = dcs_telemetry::ledger();
        let prev = self.reported_dram.swap(dram, Ordering::Relaxed);
        ledger.add_dram_bytes(dram as i64 - prev as i64);
        let flash = self.lss.live_bytes() as u64;
        let prev = self.reported_flash.swap(flash, Ordering::Relaxed);
        ledger.add_flash_bytes(flash as i64 - prev as i64);
    }

    /// Flush all dirty pages and issue a durability barrier: a
    /// crash-consistent checkpoint.
    pub fn checkpoint(&self) -> Result<(), TreeError> {
        self.cache.checkpoint(&self.tree)?;
        self.lss.sync().map_err(TreeError::Store)?;
        Ok(())
    }

    /// Run log-structured-store garbage collection until clean.
    pub fn gc(&self) -> Result<usize, TreeError> {
        self.lss.gc_all().map_err(TreeError::Store)
    }

    /// Simulate a crash (everything not checkpointed is lost) and recover
    /// a fresh store from the device.
    pub fn crash_and_recover(self, builder: StoreBuilder) -> Result<CachingStore, TreeError> {
        let device = self.device.clone();
        drop(self);
        device.crash();
        CachingStore::recover(device, builder)
    }

    /// Recover a store from an existing device's log. The tree's mapping
    /// table is reconstructed at its pre-crash PIDs; record data faults in
    /// lazily as it is accessed.
    pub fn recover(
        device: Arc<FlashDevice>,
        builder: StoreBuilder,
    ) -> Result<CachingStore, TreeError> {
        let recovered =
            dcs_llama::recover(device.clone(), builder.lss.clone(), builder.tree.clone())
                .map_err(TreeError::Store)?;
        let clock = VirtualClock::new();
        Ok(builder.assemble_recovered(device, clock, recovered.store, Arc::new(recovered.tree)))
    }

    /// Attach a Deuteronomy-style transaction component over this store's
    /// data component.
    pub fn transactional(&self) -> TransactionalStore {
        TransactionalStore::new(self.tree.clone(), TcConfig::default())
    }

    /// The underlying Bw-tree.
    pub fn tree(&self) -> &Arc<BwTree> {
        &self.tree
    }

    /// The log-structured store.
    pub fn lss(&self) -> &Arc<LogStructuredStore> {
        &self.lss
    }

    /// The device.
    pub fn device(&self) -> &Arc<FlashDevice> {
        &self.device
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The hardware catalog this store's policy was derived from.
    pub fn hardware(&self) -> &HardwareCatalog {
        &self.hardware
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            tree: self.tree.stats(),
            lss: self.lss.stats(),
            device: self.device.stats(),
            cache: self.cache.stats(),
            footprint_bytes: self.tree.footprint_bytes(),
        }
    }

    /// Number of records (full scan; diagnostics).
    pub fn count_entries(&self) -> usize {
        self.tree.count_entries()
    }
}

impl std::fmt::Debug for CachingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingStore")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(i: u32) -> (Bytes, Bytes) {
        (
            Bytes::from(format!("key{i:06}")),
            Bytes::from(format!("value-{i}-{}", "x".repeat(32))),
        )
    }

    #[test]
    fn basic_crud() {
        let s = StoreBuilder::small_test().build();
        s.put(Bytes::from("a"), Bytes::from("1"));
        assert_eq!(s.get(b"a"), Some(Bytes::from("1")));
        s.delete(Bytes::from("a"));
        assert_eq!(s.get(b"a"), None);
    }

    #[test]
    fn scan_in_order() {
        let s = StoreBuilder::small_test().build();
        for i in (0..100u32).rev() {
            let (k, v) = kv(i);
            s.put(k, v);
        }
        let all = s.scan(b"", None);
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn auto_sweep_enforces_budget() {
        let mut b = StoreBuilder::small_test();
        b.memory_budget = 64 << 10;
        b.sweep_every_ops = 256;
        let s = b.build();
        for i in 0..5000u32 {
            let (k, v) = kv(i);
            s.put(k, v);
        }
        let stats = s.stats();
        assert!(stats.cache.pages_evicted > 0, "no evictions happened");
        // All data still readable (faulting from flash as needed).
        for i in (0..5000u32).step_by(151) {
            let (k, v) = kv(i);
            assert_eq!(s.get(&k), Some(v), "key {i}");
        }
        assert!(s.stats().tree.ss_ops > 0, "reads should have faulted");
    }

    /// Rewrites fill a 32-segment device that nothing cleans, so flushes
    /// start failing with `page store full` while writes go on. A failed
    /// flush must keep its buffered pages: every key still reads its last
    /// value, and each failed sweep is counted.
    #[test]
    fn full_log_keeps_buffered_pages_and_counts_failed_sweeps() {
        let mut b = StoreBuilder::small_test();
        b.device.segment_count = 32;
        b.memory_budget = 64 << 10;
        b.sweep_every_ops = 256;
        let s = b.build();
        let key = |i: u32| Bytes::from(format!("key{i:06}"));
        let value = |round: u32, i: u32| Bytes::from(format!("r{round}-{i}-{}", "v".repeat(188)));
        let rounds = 46;
        let mut failed = 0;
        for round in 0..rounds {
            for i in 0..2000u32 {
                s.put(key(i), value(round, i));
            }
            failed += usize::from(s.sweep().is_err());
        }
        assert!(failed > 0, "the device never filled");
        assert!(s.stats().cache.sweep_errors >= failed as u64);
        let scraped = dcs_telemetry::global().counter("llama.cache.sweep_errors");
        assert!(scraped.value() >= failed as u64);
        for i in 0..2000u32 {
            assert_eq!(s.get(&key(i)), Some(value(rounds - 1, i)), "key {i}");
        }
    }

    #[test]
    fn async_get_roundtrip_under_eviction() {
        let mut b = StoreBuilder::small_test();
        b.memory_budget = 64 << 10;
        b.sweep_every_ops = 256;
        let s = b.build();
        for i in 0..5000u32 {
            let (k, v) = kv(i);
            s.put(k, v);
        }
        assert!(s.stats().cache.pages_evicted > 0, "no evictions happened");
        // Submit a window of reads (many will need flash), then drain.
        let mut pending = HashMap::new();
        let mut misses = 0;
        for i in (0..5000u32).step_by(97) {
            let (k, v) = kv(i);
            match s.get_submit(&k).unwrap() {
                SubmittedGet::Ready(got) => assert_eq!(got, Some(v), "key {i} (ready)"),
                SubmittedGet::Pending(token) => {
                    misses += 1;
                    pending.insert(token, (i, v));
                }
            }
        }
        assert!(misses > 0, "evicted keys should go pending");
        let mut out = Vec::new();
        s.drain_gets(&mut out);
        assert_eq!(out.len(), pending.len());
        for f in out {
            let (i, v) = &pending[&f.token];
            assert_eq!(f.result.unwrap(), Some(v.clone()), "key {i}");
        }
        assert_eq!(s.gets_inflight(), 0);
        assert!(s.stats().tree.ss_ops > 0, "misses should count as ss ops");
    }

    #[test]
    fn async_get_counts_match_sync_counts() {
        // Two identical stores, same accesses: one via the blocking path,
        // one via submit+drain. The per-layer counters must agree.
        let build = || {
            let mut b = StoreBuilder::small_test();
            b.memory_budget = 64 << 10;
            b.sweep_every_ops = 256;
            b.build()
        };
        let (sync_s, async_s) = (build(), build());
        for s in [&sync_s, &async_s] {
            for i in 0..4000u32 {
                let (k, v) = kv(i);
                s.put(k, v);
            }
        }
        let probe: Vec<u32> = (0..4000u32).step_by(113).collect();
        for &i in &probe {
            assert_eq!(sync_s.get(&kv(i).0), Some(kv(i).1));
        }
        let mut out = Vec::new();
        for &i in &probe {
            if let SubmittedGet::Pending(_) = async_s.get_submit(&kv(i).0).unwrap() {
                async_s.drain_gets(&mut out);
            }
        }
        let (a, b) = (sync_s.stats().tree, async_s.stats().tree);
        assert_eq!(a.gets, b.gets, "gets diverge");
        assert_eq!(a.ss_ops, b.ss_ops, "ss_ops diverge");
        assert_eq!(a.mm_ops, b.mm_ops, "mm_ops diverge");
        assert_eq!(a.fetches, b.fetches, "fetches diverge");
    }

    #[test]
    fn failed_fetch_of_a_current_token_fails_both_read_paths() {
        let mut b = StoreBuilder::small_test();
        b.sweep_every_ops = 0;
        let s = b.build();
        for i in 0..200u32 {
            let (k, v) = kv(i);
            s.put(k, v);
        }
        // Everything durable on the device (not the write buffer), nothing
        // resident, and no writer to supersede a token: a failed device
        // read leaves the leaf needing exactly the token that failed.
        s.checkpoint().unwrap();
        for p in s.tree().pages().into_iter().filter(|p| p.is_leaf) {
            s.tree().evict_page(p.pid).unwrap();
        }
        s.device()
            .set_injector(dcs_flashsim::FailureInjector::failing_reads(1.0, 7));
        let key = kv(3).0;
        assert!(matches!(s.try_get(&key), Err(TreeError::Store(_))));
        let SubmittedGet::Pending(token) = s.get_submit(&key).unwrap() else {
            panic!("an evicted, flushed page must park on the device");
        };
        let mut out = Vec::new();
        s.drain_gets(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, token);
        assert!(matches!(out[0].result, Err(TreeError::Store(_))));
        // The device recovers: both paths answer.
        s.device()
            .set_injector(dcs_flashsim::FailureInjector::disabled());
        assert_eq!(s.try_get(&key).unwrap(), Some(kv(3).1));
    }

    #[test]
    fn cost_model_policy_uses_catalog_ti() {
        let mut b = StoreBuilder::small_test().cost_model_policy();
        b.memory_budget = usize::MAX;
        b.sweep_every_ops = 0;
        let s = b.build();
        for i in 0..500u32 {
            let (k, v) = kv(i);
            s.put(k, v);
        }
        // Advance past the breakeven interval; everything is now cold.
        let ti = breakeven::ti_seconds(s.hardware());
        s.advance_time((ti * 2.0 * 1e9) as u64);
        let evicted = s.sweep().unwrap();
        assert!(evicted > 0, "cold pages should leave DRAM at Ti");
    }

    #[test]
    fn checkpoint_recover_roundtrip() {
        let builder = StoreBuilder::small_test();
        let s = builder.clone().build();
        for i in 0..1000u32 {
            let (k, v) = kv(i);
            s.put(k, v);
        }
        s.delete(kv(7).0);
        s.checkpoint().unwrap();
        s.put(kv(9999).0, kv(9999).1); // lost by the crash
        let recovered = s.crash_and_recover(builder).unwrap();
        for i in 0..1000u32 {
            let (k, v) = kv(i);
            if i == 7 {
                assert_eq!(recovered.get(&k), None);
            } else {
                assert_eq!(recovered.get(&k), Some(v), "key {i}");
            }
        }
        assert_eq!(recovered.get(&kv(9999).0), None, "unsynced write survived");
    }

    #[test]
    fn compressed_store_saves_flash_bytes() {
        let plain = StoreBuilder::small_test().build();
        let packed = StoreBuilder::small_test().compressed().build();
        for s in [&plain, &packed] {
            for i in 0..2000u32 {
                let (k, v) = kv(i);
                s.put(k, v);
            }
            s.checkpoint().unwrap();
        }
        let (p, c) = (plain.stats().lss, packed.stats().lss);
        assert_eq!(p.stored_bytes, p.payload_bytes, "plain stores verbatim");
        assert!(
            c.stored_bytes < c.payload_bytes / 2,
            "compression should shrink structured pages: {} vs {}",
            c.stored_bytes,
            c.payload_bytes
        );
        // And reads still work after eviction.
        for p in packed.tree().pages() {
            if p.is_leaf {
                let _ = packed.tree().evict_page(p.pid);
            }
        }
        assert_eq!(packed.get(&kv(5).0), Some(kv(5).1));
    }

    #[test]
    fn transactional_layer_works_over_store() {
        let s = StoreBuilder::small_test().build();
        let tc = s.transactional();
        let mut t = tc.begin();
        t.write(Bytes::from("txk"), Bytes::from("txv"));
        tc.commit(t).unwrap();
        // Visible both transactionally and through the plain store API.
        assert_eq!(s.get(b"txk"), Some(Bytes::from("txv")));
    }

    #[test]
    fn gc_reclaims_after_churn() {
        let mut b = StoreBuilder::small_test();
        b.memory_budget = 32 << 10;
        b.sweep_every_ops = 128;
        let s = b.build();
        for round in 0..30u32 {
            for i in 0..200u32 {
                s.put(kv(i).0, Bytes::from(format!("r{round}-{}", "y".repeat(64))));
            }
            s.checkpoint().unwrap();
        }
        let collected = s.gc().unwrap();
        assert!(collected > 0, "churn should leave collectable segments");
        for i in (0..200u32).step_by(13) {
            assert!(s.get(&kv(i).0).is_some(), "key {i} lost after GC");
        }
    }
}

#[cfg(test)]
mod rollup_tests {
    use super::*;

    /// Heavy overwrite churn must not let flash utilization decay without
    /// bound: the LSS chain-length cap rolls incremental chains into full
    /// images, making old parts dead, and GC reclaims them.
    #[test]
    fn churn_stays_collectable() {
        let mut b = StoreBuilder::small_test();
        b.memory_budget = 32 << 10;
        b.sweep_every_ops = 128;
        let s = b.build();
        for round in 0..30u32 {
            for i in 0..200u32 {
                s.put(
                    Bytes::from(format!("key{i:06}")),
                    Bytes::from(format!("r{round}-{}", "y".repeat(64))),
                );
            }
            s.checkpoint().unwrap();
        }
        assert!(s.lss().stats().rollups > 0, "chain cap never triggered");
        assert!(
            s.lss().utilization() < 0.5,
            "churned store should have dead space: {}",
            s.lss().utilization()
        );
        let collected = s.gc().unwrap();
        assert!(collected > 0);
        assert!(
            s.lss().utilization() > 0.5,
            "GC should restore utilization: {}",
            s.lss().utilization()
        );
    }
}
