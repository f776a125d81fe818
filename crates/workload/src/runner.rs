//! Driving any key-value store through a workload.
//!
//! [`KvStore`] is the minimal surface the drivers need; every store in
//! this workspace implements it (see `dcs-core::backends`), and
//! [`MemStore`] is the in-memory reference implementation. [`Runner`]
//! loads and executes a [`WorkloadSpec`] against it, returning per-kind
//! counts so harnesses can report throughput and mix compliance.

use crate::keys;
use crate::mix::OpKind;
use crate::spec::WorkloadSpec;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Errors surfaced by a store under workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFailure(pub String);

impl std::fmt::Display for StoreFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store failure: {}", self.0)
    }
}

impl std::error::Error for StoreFailure {}

/// The operations a workload can drive, and the one interface a server
/// shard serves a store through.
///
/// Point reads also come in a non-blocking form: a GET is *submitted*,
/// a miss that needs the device comes back [`AsyncGet::Pending`], and the
/// caller (a server shard) reaps it later with [`KvStore::kv_poll`],
/// SPDK-style, serving hits meanwhile. A store that never waits on a
/// device keeps the provided defaults, which answer every submit from
/// [`KvStore::kv_get`].
pub trait KvStore {
    /// Point read.
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure>;
    /// Upsert.
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure>;
    /// Delete.
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure>;
    /// Range scan: up to `limit` records from `start`; returns how many
    /// were produced. The default counts [`KvStore::kv_range`].
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        self.kv_range(start, None, limit, &mut |_, _| {})
    }
    /// A blind update, if the store distinguishes one (default: plain put).
    fn kv_blind_update(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.kv_put(key, value)
    }
    /// Enumerate up to `limit` records of `[start, end)` in ascending key
    /// order (`end = None` means unbounded), invoking `visit` per record
    /// and returning how many were visited. Unlike [`KvStore::kv_scan`]
    /// this hands back the data, which range migration needs to copy a
    /// key range between shards. Stores that cannot enumerate (e.g. a
    /// remote client) keep the default refusal.
    fn kv_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<usize, StoreFailure> {
        let _ = (start, end, limit, visit);
        Err(StoreFailure("range enumeration not supported".to_string()))
    }
    /// Begin a point read. Hits (and I/O-free misses) resolve immediately
    /// as [`AsyncGet::Ready`]; a miss that needs the device returns
    /// [`AsyncGet::Pending`] with a token and proceeds in the background.
    /// The default answers from [`KvStore::kv_get`].
    fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
        self.kv_get(key).map(AsyncGet::Ready)
    }
    /// Reap every completed miss into `out`, returning how many were
    /// reaped. Non-blocking. The default, for a store that never answers
    /// [`AsyncGet::Pending`], reaps nothing.
    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let _ = out;
        0
    }
    /// A point read answered only if it needs no I/O: `None` means "ask
    /// [`KvStore::kv_get_submit`]", and a `None` must count nothing, so
    /// the read is counted once whichever call answers it. The default
    /// never answers.
    fn kv_get_resident(&self, key: &[u8]) -> Option<Result<Option<Vec<u8>>, StoreFailure>> {
        let _ = key;
        None
    }
}

/// Outcome of a point read submitted with [`KvStore::kv_get_submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsyncGet {
    /// Served from memory (a cache hit, or a definitive miss that needed no
    /// I/O): the result is available immediately.
    Ready(Option<Vec<u8>>),
    /// A secondary-storage fetch is in flight; the token identifies this
    /// miss in later [`KvStore::kv_poll`] completions.
    Pending(u64),
}

/// A completed miss, reaped by [`KvStore::kv_poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedGet {
    /// The token [`KvStore::kv_get_submit`] returned.
    pub token: u64,
    /// The read's final outcome.
    pub result: Result<Option<Vec<u8>>, StoreFailure>,
}

/// The reference store: a `BTreeMap` behind a mutex, every read served
/// from memory. Tests use it as the model other stores are checked
/// against and as the store under server and migration tests.
#[derive(Debug, Default)]
pub struct MemStore(Mutex<BTreeMap<Vec<u8>, Vec<u8>>>);

impl MemStore {
    fn map(&self) -> MutexGuard<'_, BTreeMap<Vec<u8>, Vec<u8>>> {
        self.0.lock().unwrap()
    }
}

impl KvStore for MemStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        Ok(self.map().get(key).cloned())
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.map().insert(key, value);
        Ok(())
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.map().remove(&key);
        Ok(())
    }
    fn kv_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<usize, StoreFailure> {
        let map = self.map();
        let mut n = 0;
        for (k, v) in map.range(start.to_vec()..) {
            if n == limit || end.is_some_and(|e| k.as_slice() >= e) {
                break;
            }
            visit(k, v);
            n += 1;
        }
        Ok(n)
    }
}

/// Per-kind operation counts from a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Reads issued.
    pub reads: u64,
    /// Reads that found a value.
    pub read_hits: u64,
    /// Updates issued.
    pub updates: u64,
    /// Inserts issued.
    pub inserts: u64,
    /// Blind updates issued.
    pub blind_updates: u64,
    /// Read-modify-writes issued.
    pub rmws: u64,
    /// Scans issued.
    pub scans: u64,
    /// Records produced by scans.
    pub scanned_records: u64,
}

impl RunCounts {
    /// Total operations.
    pub fn total(&self) -> u64 {
        self.reads + self.updates + self.inserts + self.blind_updates + self.rmws + self.scans
    }
}

/// Executes a [`WorkloadSpec`] against a [`KvStore`].
pub struct Runner {
    spec: WorkloadSpec,
}

impl Runner {
    /// A runner for `spec`.
    pub fn new(spec: WorkloadSpec) -> Self {
        Runner { spec }
    }

    /// The spec being driven.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Load the initial records. Returns records loaded.
    pub fn load<S: KvStore>(&self, store: &S) -> Result<u64, StoreFailure> {
        let mut n = 0;
        for (k, v) in self.spec.load_set() {
            store.kv_put(k, v)?;
            n += 1;
        }
        Ok(n)
    }

    /// Execute `ops` operations.
    pub fn run<S: KvStore>(&self, store: &S, ops: u64) -> Result<RunCounts, StoreFailure> {
        let mut gen = self.spec.generator();
        let mut counts = RunCounts::default();
        for _ in 0..ops {
            let op = gen.next_op();
            let key = keys::encode(op.key_id).to_vec();
            match op.kind {
                OpKind::Read => {
                    counts.reads += 1;
                    if store.kv_get(&key)?.is_some() {
                        counts.read_hits += 1;
                    }
                }
                OpKind::Update => {
                    counts.updates += 1;
                    store.kv_put(key, op.value)?;
                }
                OpKind::Insert => {
                    counts.inserts += 1;
                    store.kv_put(key, op.value)?;
                }
                OpKind::BlindUpdate => {
                    counts.blind_updates += 1;
                    store.kv_blind_update(key, op.value)?;
                }
                OpKind::ReadModifyWrite => {
                    counts.rmws += 1;
                    let mut v = store.kv_get(&key)?.unwrap_or_default();
                    v.extend_from_slice(&op.value);
                    v.truncate(self.spec.value_len.max(12));
                    store.kv_put(key, v)?;
                }
                OpKind::Scan { limit } => {
                    counts.scans += 1;
                    counts.scanned_records += store.kv_scan(&key, limit as usize)? as u64;
                }
            }
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDist;
    use crate::mix::OpMix;
    #[test]
    fn load_then_read_only_run_hits_everything() {
        let spec = WorkloadSpec::read_only_uniform(500, 40, 9);
        let runner = Runner::new(spec);
        let store = MemStore::default();
        assert_eq!(runner.load(&store).unwrap(), 500);
        let counts = runner.run(&store, 2_000).unwrap();
        assert_eq!(counts.reads, 2_000);
        assert_eq!(counts.read_hits, 2_000, "loaded keys must all hit");
    }

    #[test]
    fn mixed_run_respects_mix() {
        let spec = WorkloadSpec {
            record_count: 200,
            key_dist: KeyDist::zipfian(0.9),
            mix: OpMix::ycsb_a(),
            value_len: 32,
            seed: 4,
        };
        let runner = Runner::new(spec);
        let store = MemStore::default();
        runner.load(&store).unwrap();
        let counts = runner.run(&store, 10_000).unwrap();
        assert_eq!(counts.total(), 10_000);
        let update_frac = counts.updates as f64 / 10_000.0;
        assert!((update_frac - 0.5).abs() < 0.03, "mix drift: {update_frac}");
    }

    #[test]
    fn scans_and_rmws_execute() {
        let spec = WorkloadSpec {
            record_count: 300,
            key_dist: KeyDist::Uniform,
            mix: OpMix::new(vec![
                (OpKind::Scan { limit: 10 }, 0.5),
                (OpKind::ReadModifyWrite, 0.5),
            ]),
            value_len: 24,
            seed: 5,
        };
        let runner = Runner::new(spec);
        let store = MemStore::default();
        runner.load(&store).unwrap();
        let counts = runner.run(&store, 1_000).unwrap();
        assert!(counts.scans > 300);
        assert!(counts.scanned_records >= counts.scans * 5);
        assert!(counts.rmws > 300);
    }
}
