//! Transactions: timestamp-ordered MVCC over a Bw-tree data component.

use crate::log::{LogRecord, RecoveryLog};
use crate::mvcc::VersionStore;
use crate::readcache::ReadCache;
use bytes::Bytes;
use dcs_bwtree::{BwTree, TreeError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// TC configuration.
#[derive(Debug, Clone)]
pub struct TcConfig {
    /// Byte budget of the log-structured read cache.
    pub read_cache_bytes: usize,
    /// Flush the recovery log every this many commits (group commit).
    pub group_commit_every: u64,
}

impl Default for TcConfig {
    fn default() -> Self {
        TcConfig {
            read_cache_bytes: 4 << 20,
            group_commit_every: 32,
        }
    }
}

/// Why a commit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// Another transaction committed a conflicting write after this
    /// transaction's snapshot (first-committer-wins).
    WriteConflict {
        /// The contested key.
        key: Bytes,
    },
    /// The data component failed.
    Dc(String),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::WriteConflict { key } => write!(f, "write conflict on {key:?}"),
            CommitError::Dc(e) => write!(f, "data component: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// TC operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Commits aborted by validation.
    pub conflicts: u64,
    /// Reads served by the MVCC version store (updated-record cache).
    pub version_hits: u64,
    /// Reads served by the recovery-log buffers.
    pub log_cache_hits: u64,
    /// Reads served by the read cache.
    pub read_cache_hits: u64,
    /// Reads that had to visit the data component.
    pub dc_reads: u64,
    /// Blind updates posted to the DC.
    pub blind_posts: u64,
}

#[derive(Default)]
struct StatsInner {
    begun: AtomicU64,
    committed: AtomicU64,
    conflicts: AtomicU64,
    version_hits: AtomicU64,
    log_cache_hits: AtomicU64,
    read_cache_hits: AtomicU64,
    dc_reads: AtomicU64,
    blind_posts: AtomicU64,
}

/// The transaction component: MVCC + recovery log + read cache over a
/// Bw-tree DC. See the crate docs.
pub struct TransactionalStore {
    dc: Arc<BwTree>,
    versions: VersionStore,
    log: RecoveryLog,
    read_cache: ReadCache,
    /// Timestamp source: begin stamps are even reads of this counter;
    /// commits increment it.
    clock: AtomicU64,
    config: TcConfig,
    stats: StatsInner,
    commit_lock: parking_lot::Mutex<()>,
}

/// An open transaction. Reads see the snapshot at `read_ts`; writes buffer
/// locally until commit.
pub struct Transaction {
    read_ts: u64,
    writes: BTreeMap<Bytes, Option<Bytes>>,
}

impl Transaction {
    /// The snapshot timestamp.
    pub fn read_ts(&self) -> u64 {
        self.read_ts
    }

    /// Buffer an upsert.
    pub fn write(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.writes.insert(key.into(), Some(value.into()));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        self.writes.insert(key.into(), None);
    }
}

impl TransactionalStore {
    /// A TC over `dc` with an in-memory recovery log.
    pub fn new(dc: Arc<BwTree>, config: TcConfig) -> Self {
        Self::with_log(dc, RecoveryLog::in_memory(), config)
    }

    /// A TC with an explicit recovery log (e.g. device-backed).
    pub fn with_log(dc: Arc<BwTree>, log: RecoveryLog, config: TcConfig) -> Self {
        TransactionalStore {
            dc,
            versions: VersionStore::new(),
            log,
            read_cache: ReadCache::new(config.read_cache_bytes),
            clock: AtomicU64::new(1),
            config,
            stats: StatsInner::default(),
            commit_lock: parking_lot::Mutex::new(()),
        }
    }

    /// The data component.
    pub fn dc(&self) -> &Arc<BwTree> {
        &self.dc
    }

    /// The recovery log.
    pub fn log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TcStats {
        TcStats {
            begun: self.stats.begun.load(Ordering::Relaxed),
            committed: self.stats.committed.load(Ordering::Relaxed),
            conflicts: self.stats.conflicts.load(Ordering::Relaxed),
            version_hits: self.stats.version_hits.load(Ordering::Relaxed),
            log_cache_hits: self.stats.log_cache_hits.load(Ordering::Relaxed),
            read_cache_hits: self.stats.read_cache_hits.load(Ordering::Relaxed),
            dc_reads: self.stats.dc_reads.load(Ordering::Relaxed),
            blind_posts: self.stats.blind_posts.load(Ordering::Relaxed),
        }
    }

    /// Begin a transaction snapshotted at the current timestamp.
    pub fn begin(&self) -> Transaction {
        self.stats.begun.fetch_add(1, Ordering::Relaxed);
        Transaction {
            read_ts: self.clock.load(Ordering::SeqCst),
            writes: BTreeMap::new(),
        }
    }

    /// Transactional read through the TC cache hierarchy:
    /// own writes → version store → retained log buffers → read cache → DC.
    ///
    /// Isolation note (bounded history): snapshot isolation holds for every
    /// key whose version history reaches back to the reader's snapshot. A
    /// reader whose snapshot predates *all* retained versions of a key
    /// falls through to the data component, which is single-version, and
    /// observes the newest committed state for that key. (In full
    /// Deuteronomy the timestamps extend into the DC's delta chains —
    /// "a reader, using the timestamps, will select the record version it
    /// needs" §6.2 — a substitution documented in DESIGN.md.)
    pub fn read(&self, txn: &Transaction, key: &[u8]) -> Result<Option<Bytes>, TreeError> {
        // Own uncommitted writes first.
        if let Some(v) = txn.writes.get(key) {
            return Ok(v.clone());
        }
        // MVCC version store: a hit avoids the DC entirely (§6.3).
        if let Some(v) = self.versions.visible(key, txn.read_ts) {
            self.stats.version_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        // Retained recovery-log buffers.
        if let Some(v) = self.log.lookup(key, txn.read_ts) {
            self.stats.log_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        // Log-structured read cache: valid only if nothing newer committed.
        if let Some((v, as_of)) = self.read_cache.lookup(key) {
            let newest = self.versions.newest_ts(key).unwrap_or(0);
            if newest <= as_of {
                self.stats.read_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        // Fall through to the DC.
        self.stats.dc_reads.fetch_add(1, Ordering::Relaxed);
        let v = self.dc.try_get(key)?;
        self.read_cache
            .insert(Bytes::copy_from_slice(key), v.clone(), txn.read_ts);
        Ok(v)
    }

    /// Commit: validate (first-committer-wins), log, install versions, and
    /// post every write to the DC as a blind update (§6.2).
    pub fn commit(&self, txn: Transaction) -> Result<u64, CommitError> {
        if txn.writes.is_empty() {
            self.stats.committed.fetch_add(1, Ordering::Relaxed);
            return Ok(txn.read_ts);
        }
        let _guard = self.commit_lock.lock();
        // Validation: abort if any written key has a committed version
        // newer than our snapshot.
        for key in txn.writes.keys() {
            if let Some(ts) = self.versions.newest_ts(key) {
                if ts > txn.read_ts {
                    self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(CommitError::WriteConflict { key: key.clone() });
                }
            }
        }
        // Choose the commit timestamp without publishing it yet: the clock
        // only advances *after* the versions are installed below, so a
        // transaction can never begin with `read_ts == commit_ts` while the
        // old state is still visible (which would slip past first-committer-
        // wins validation and lose this update). `commit_lock` serializes
        // committers, so load-then-store cannot race another commit.
        let commit_ts = self.clock.load(Ordering::SeqCst) + 1;
        // Redo-log the group.
        let records: Vec<LogRecord> = txn
            .writes
            .iter()
            .map(|(k, v)| LogRecord {
                ts: commit_ts,
                key: k.clone(),
                value: v.clone(),
            })
            .collect();
        self.log.append_group(&records);
        // Install versions and post blind updates at the DC. Ordinary
        // updates act like blind updates here: the DC never reads a page.
        for (key, value) in &txn.writes {
            self.versions.install(key.clone(), commit_ts, value.clone());
            self.read_cache.invalidate(key);
            match value {
                Some(v) => self.dc.blind_update(key.clone(), v.clone()),
                None => self.dc.delete(key.clone()),
            }
            self.stats.blind_posts.fetch_add(1, Ordering::Relaxed);
        }
        // Publication point: new transactions may now observe `commit_ts`.
        self.clock.store(commit_ts, Ordering::SeqCst);
        let committed = self.stats.committed.fetch_add(1, Ordering::Relaxed) + 1;
        if committed.is_multiple_of(self.config.group_commit_every) {
            self.log
                .flush()
                .map_err(|e| CommitError::Dc(e.to_string()))?;
        }
        Ok(commit_ts)
    }

    /// Abort: nothing was published, so this just drops the write set.
    pub fn abort(&self, txn: Transaction) {
        drop(txn);
    }

    /// Force-flush the recovery log.
    pub fn flush_log(&self) -> Result<(), CommitError> {
        self.log.flush().map_err(|e| CommitError::Dc(e.to_string()))
    }

    /// Redo recovery: replay logged records onto a (fresh) DC, using the
    /// same blind-update path as normal operation.
    pub fn replay_onto(log: &RecoveryLog, dc: &BwTree) -> usize {
        let records = log.records_from(0);
        let n = records.len();
        for r in records {
            match r.value {
                Some(v) => dc.blind_update(r.key, v),
                None => dc.delete(r.key),
            }
        }
        n
    }

    /// Trim TC caches below the oldest timestamp any active transaction
    /// could hold (MVCC garbage collection: the visible version of every
    /// key is retained).
    pub fn vacuum(&self, horizon: u64) {
        self.versions.truncate_below(horizon);
        self.log.trim_below(horizon);
    }

    /// Shrink the TC record caches: drop whole version chains (and log
    /// buffers) at or below `horizon`. Reads of the dropped keys fall
    /// through to the data component, which always holds the latest
    /// committed values. No transaction older than `horizon` may be active.
    pub fn shrink_cache(&self, horizon: u64) {
        self.versions.evict_chains_below(horizon);
        self.log.trim_below(horizon + 1);
        // The read cache is already bounded; nothing to do there.
    }

    /// Approximate bytes held by TC caches.
    pub fn cache_bytes(&self) -> usize {
        self.versions.approx_bytes() + self.log.approx_bytes() + self.read_cache.approx_bytes()
    }
}

impl std::fmt::Debug for TransactionalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionalStore")
            .field("stats", &self.stats())
            .field("cache_bytes", &self.cache_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_bwtree::BwTreeConfig;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_owned())
    }

    fn store() -> TransactionalStore {
        TransactionalStore::new(
            Arc::new(BwTree::in_memory(BwTreeConfig::default())),
            TcConfig::default(),
        )
    }

    #[test]
    fn commit_then_read() {
        let tc = store();
        let mut t1 = tc.begin();
        t1.write(b("k"), b("v"));
        let ts = tc.commit(t1).unwrap();
        assert!(ts > 0);
        let t2 = tc.begin();
        assert_eq!(tc.read(&t2, b"k").unwrap(), Some(b("v")));
    }

    #[test]
    fn snapshot_isolation() {
        let tc = store();
        let mut t1 = tc.begin();
        t1.write(b("k"), b("v1"));
        tc.commit(t1).unwrap();

        let reader = tc.begin(); // snapshot at v1
        let mut writer = tc.begin();
        writer.write(b("k"), b("v2"));
        tc.commit(writer).unwrap();

        // The old snapshot still sees v1; a fresh one sees v2.
        assert_eq!(tc.read(&reader, b"k").unwrap(), Some(b("v1")));
        let fresh = tc.begin();
        assert_eq!(tc.read(&fresh, b"k").unwrap(), Some(b("v2")));
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let tc = store();
        let mut t = tc.begin();
        t.write(b("k"), b("mine"));
        assert_eq!(tc.read(&t, b"k").unwrap(), Some(b("mine")));
        t.delete(b("k"));
        assert_eq!(tc.read(&t, b"k").unwrap(), None);
    }

    #[test]
    fn first_committer_wins() {
        let tc = store();
        let mut t0 = tc.begin();
        t0.write(b("k"), b("base"));
        tc.commit(t0).unwrap();

        let mut a = tc.begin();
        let mut b_ = tc.begin();
        a.write(b("k"), b("from-a"));
        b_.write(b("k"), b("from-b"));
        tc.commit(a).unwrap();
        let err = tc.commit(b_).unwrap_err();
        assert!(matches!(err, CommitError::WriteConflict { .. }));
        assert_eq!(tc.stats().conflicts, 1);
        let fresh = tc.begin();
        assert_eq!(tc.read(&fresh, b"k").unwrap(), Some(b("from-a")));
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let tc = store();
        let mut a = tc.begin();
        let mut b_ = tc.begin();
        a.write(b("x"), b("1"));
        b_.write(b("y"), b("2"));
        tc.commit(a).unwrap();
        tc.commit(b_).unwrap();
        let t = tc.begin();
        assert_eq!(tc.read(&t, b"x").unwrap(), Some(b("1")));
        assert_eq!(tc.read(&t, b"y").unwrap(), Some(b("2")));
    }

    #[test]
    fn tc_caches_avoid_dc_visits() {
        let tc = store();
        let mut t = tc.begin();
        t.write(b("hot"), b("v"));
        tc.commit(t).unwrap();
        let dc_reads_before = tc.stats().dc_reads;
        // Repeated reads of a recently committed record hit the version
        // store; the DC is never consulted.
        for _ in 0..100 {
            let r = tc.begin();
            assert_eq!(tc.read(&r, b"hot").unwrap(), Some(b("v")));
        }
        let s = tc.stats();
        assert_eq!(s.dc_reads, dc_reads_before, "version store should hit");
        assert!(s.version_hits >= 100);
    }

    #[test]
    fn read_cache_serves_repeated_cold_reads() {
        // Load the DC directly (bypassing the TC) so the version store is
        // cold, then read twice: first via DC, second via read cache.
        let dc = Arc::new(BwTree::in_memory(BwTreeConfig::default()));
        dc.put(b("cold"), b("v"));
        let tc = TransactionalStore::new(dc, TcConfig::default());
        let t = tc.begin();
        assert_eq!(tc.read(&t, b"cold").unwrap(), Some(b("v")));
        assert_eq!(tc.stats().dc_reads, 1);
        assert_eq!(tc.read(&t, b"cold").unwrap(), Some(b("v")));
        assert_eq!(tc.stats().dc_reads, 1, "second read must hit the cache");
        assert_eq!(tc.stats().read_cache_hits, 1);
    }

    #[test]
    fn read_cache_invalidated_by_commit() {
        let dc = Arc::new(BwTree::in_memory(BwTreeConfig::default()));
        dc.put(b("k"), b("stale"));
        let tc = TransactionalStore::new(dc, TcConfig::default());
        let t = tc.begin();
        assert_eq!(tc.read(&t, b"k").unwrap(), Some(b("stale")));
        let mut w = tc.begin();
        w.write(b("k"), b("fresh"));
        tc.commit(w).unwrap();
        let fresh = tc.begin();
        assert_eq!(tc.read(&fresh, b"k").unwrap(), Some(b("fresh")));
    }

    #[test]
    fn commits_post_blind_updates_to_dc() {
        let tc = store();
        let mut t = tc.begin();
        t.write(b("a"), b("1"));
        t.write(b("b"), b("2"));
        tc.commit(t).unwrap();
        assert_eq!(tc.stats().blind_posts, 2);
        // The DC itself holds the values (visible to non-transactional
        // access too).
        assert_eq!(tc.dc().get(b"a"), Some(b("1")));
        assert!(tc.dc().stats().blind_updates >= 1);
    }

    #[test]
    fn replay_reconstructs_dc() {
        let tc = store();
        for i in 0..100u32 {
            let mut t = tc.begin();
            t.write(
                Bytes::from(format!("k{i:03}")),
                Bytes::from(format!("v{i}")),
            );
            if i % 3 == 0 {
                t.delete(Bytes::from(format!("k{:03}", i / 2)));
            }
            tc.commit(t).unwrap();
        }
        // Rebuild a fresh DC purely from the log.
        let fresh = BwTree::in_memory(BwTreeConfig::default());
        let replayed = TransactionalStore::replay_onto(tc.log(), &fresh);
        assert!(replayed >= 100);
        // The fresh DC agrees with the live one on every key.
        for i in 0..100u32 {
            let k = format!("k{i:03}");
            assert_eq!(
                fresh.get(k.as_bytes()),
                tc.dc().get(k.as_bytes()),
                "divergence at {k}"
            );
        }
    }

    #[test]
    fn vacuum_trims_versions() {
        let tc = store();
        for i in 0..50u32 {
            let mut t = tc.begin();
            t.write(b("hot"), Bytes::from(format!("v{i}")));
            tc.commit(t).unwrap();
        }
        let before = tc.cache_bytes();
        let horizon = tc.begin().read_ts();
        tc.vacuum(horizon);
        assert!(tc.cache_bytes() < before);
        // Latest value still visible.
        let t = tc.begin();
        assert_eq!(tc.read(&t, b"hot").unwrap(), Some(b("v49")));
    }

    #[test]
    fn empty_commit_succeeds() {
        let tc = store();
        let t = tc.begin();
        tc.commit(t).unwrap();
        assert_eq!(tc.stats().committed, 1);
    }

    #[test]
    fn concurrent_transfer_invariant() {
        // Bank-transfer style: total balance is invariant under concurrent
        // transfers with first-committer-wins retries.
        let tc = Arc::new(store());
        const ACCOUNTS: u32 = 10;
        for i in 0..ACCOUNTS {
            let mut t = tc.begin();
            t.write(
                Bytes::from(format!("acct{i}")),
                Bytes::from(100u64.to_le_bytes().to_vec()),
            );
            tc.commit(t).unwrap();
        }
        let mut handles = Vec::new();
        for tid in 0..4u32 {
            let tc = tc.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = tid as u64;
                for _ in 0..200 {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (rng >> 33) as u32 % ACCOUNTS;
                    let to = ((rng >> 12) as u32) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    loop {
                        let mut t = tc.begin();
                        let fk = Bytes::from(format!("acct{from}"));
                        let tk = Bytes::from(format!("acct{to}"));
                        let fb = u64::from_le_bytes(
                            tc.read(&t, &fk).unwrap().unwrap()[..8].try_into().unwrap(),
                        );
                        let tb = u64::from_le_bytes(
                            tc.read(&t, &tk).unwrap().unwrap()[..8].try_into().unwrap(),
                        );
                        if fb == 0 {
                            break;
                        }
                        t.write(fk, Bytes::from((fb - 1).to_le_bytes().to_vec()));
                        t.write(tk, Bytes::from((tb + 1).to_le_bytes().to_vec()));
                        match tc.commit(t) {
                            Ok(_) => break,
                            Err(CommitError::WriteConflict { .. }) => continue,
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = tc.begin();
        let total: u64 = (0..ACCOUNTS)
            .map(|i| {
                u64::from_le_bytes(
                    tc.read(&t, format!("acct{i}").as_bytes()).unwrap().unwrap()[..8]
                        .try_into()
                        .unwrap(),
                )
            })
            .sum();
        assert_eq!(total, ACCOUNTS as u64 * 100, "money created or destroyed");
    }
}
