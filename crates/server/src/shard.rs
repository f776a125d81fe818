//! Shard-per-thread request execution with write batching and group
//! commit.
//!
//! The key space is **range-partitioned** by a [`Partitioner`]: shard `i`
//! owns `[split[i-1], split[i])` and serves it from its own backend store
//! instance (shared-nothing — no cross-shard locks on the data path).
//! A connection reader routes each request to the owning shard's bounded
//! [`Mailbox`]; the shard worker drains the mailbox in batches and:
//!
//! 1. executes reads immediately (replying as it goes),
//! 2. applies writes to the backend but **defers their replies**,
//! 3. appends all of the batch's redo records to the shard's TC WAL with
//!    one [`RecoveryLog::commit_batch`] — a single durability barrier —
//! 4. then releases the deferred write acks.
//!
//! So a write is acknowledged only once it is durable, yet `batch_max`
//! writes share one barrier: group commit. Scans that exhaust the owning
//! shard's range continue read-only into higher shards' stores (weakly
//! consistent across the boundary, exactly like a scan racing concurrent
//! writers on a single store).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::mailbox::{Mailbox, SendError};
use crate::metrics::ShardMetrics;
use crate::protocol::{Request, Response};
use bytes::Bytes;
use dcs_rebalance::{PartitionMap, Router, TailEntry, WriteAdmission};
use dcs_tc::{LogRecord, RecoveryLog};
use dcs_workload::{AsyncGet, AsyncKvStore, CompletedGet, KvStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a shard posts a finished request's response.
///
/// Implemented by the server's per-connection state; tests substitute a
/// collecting sink. Implementations must never block: the shard worker
/// calls this on its only thread.
pub trait ReplySink: Send + Sync {
    /// Deliver the response for request `id`.
    fn deliver(&self, id: u64, resp: Response);
}

/// One routed request waiting in a shard mailbox.
pub struct Mail {
    /// Client request id (echoed in the response frame).
    pub id: u64,
    /// The decoded operation.
    pub req: Request,
    /// Where the response goes.
    pub reply: Arc<dyn ReplySink>,
    /// When the request entered the mailbox, in telemetry-clock nanos
    /// (`dcs_telemetry::now_nanos`) — the latency measurement origin,
    /// on the same timeline the spans are recorded against.
    pub enqueued: u64,
}

/// Lexicographic range partitioning of the key space.
///
/// `splits` are the shard boundaries: shard 0 owns keys below `splits[0]`,
/// shard `i` owns `[splits[i-1], splits[i])`, the last shard owns the tail.
#[derive(Debug, Clone)]
pub struct Partitioner {
    splits: Vec<Vec<u8>>,
}

impl Partitioner {
    /// A single shard owning everything.
    pub fn single() -> Self {
        Partitioner { splits: Vec::new() }
    }

    /// Partition at explicit, strictly ascending split keys
    /// (`splits.len() + 1` shards).
    pub fn from_splits(splits: Vec<Vec<u8>>) -> Self {
        assert!(
            splits.iter().zip(splits.iter().skip(1)).all(|(a, b)| a < b),
            "split keys must be strictly ascending"
        );
        Partitioner { splits }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.splits.len() + 1
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.splits.partition_point(|s| s.as_slice() <= key)
    }

    /// The smallest key shard `i` owns (empty key for shard 0).
    pub fn lower_bound(&self, i: usize) -> &[u8] {
        i.checked_sub(1)
            .and_then(|j| self.splits.get(j))
            .map_or(b"".as_slice(), |s| s.as_slice())
    }

    /// The split keys (the epoch-0 partition map is built from these).
    pub fn splits(&self) -> &[Vec<u8>] {
        &self.splits
    }
}

/// Per-shard tunables.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Mailbox capacity: the backpressure high-water mark.
    pub mailbox_capacity: usize,
    /// Most operations drained (and group-committed) per batch.
    pub batch_max: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            mailbox_capacity: 1024,
            batch_max: 64,
        }
    }
}

/// One shard: a key range, its backend store, its mailbox, its WAL.
pub struct Shard {
    /// Shard index within the server.
    pub index: usize,
    mailbox: Mailbox<Mail>,
    metrics: ShardMetrics,
    backend: Arc<dyn KvStore + Send + Sync>,
    /// Non-blocking submit/poll handle over the same store, when it has
    /// one. GETs route through it: hits answer inline, misses are parked
    /// until the device completes them.
    async_backend: Option<Arc<dyn AsyncKvStore + Send + Sync>>,
    /// All shards' backends, for read-only scan continuation.
    all_backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>>,
    /// The shared placement surface: versioned map, per-shard write
    /// gates, per-range heat. Every write admission and every read's
    /// ownership check goes through it. Defaults to a private router
    /// whose epoch-0 map mirrors the static [`Partitioner`]; the server
    /// swaps in its shared one with [`Shard::with_router`].
    router: Arc<Router>,
    wal: Arc<RecoveryLog>,
    /// Per-shard redo timestamp (monotone within the shard's WAL).
    wal_ts: AtomicU64,
    batch_max: usize,
}

impl Shard {
    /// Assemble a shard. `backends[index]` is this shard's own store.
    pub fn new(
        index: usize,
        config: &ShardConfig,
        backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>>,
        partitioner: Arc<Partitioner>,
        wal: Arc<RecoveryLog>,
    ) -> Self {
        let router = Arc::new(Router::new(
            PartitionMap::contiguous(partitioner.splits().to_vec()),
            backends.len(),
        ));
        // A construction-time config invariant (index < shard count),
        // not wire input.
        #[allow(clippy::indexing_slicing)]
        let backend = backends[index].clone();
        Shard {
            index,
            mailbox: Mailbox::new(config.mailbox_capacity),
            metrics: ShardMetrics::default(),
            backend,
            async_backend: None,
            all_backends: backends,
            router,
            wal,
            wal_ts: AtomicU64::new(1),
            batch_max: config.batch_max.max(1),
        }
    }

    /// Share the server-wide router (map + gates + heat) instead of the
    /// private epoch-0 one built by [`Shard::new`]. All shards of one
    /// server must share a single router for migration to be coherent.
    pub fn with_router(mut self, router: Arc<Router>) -> Self {
        self.router = router;
        self
    }

    /// The placement surface this shard consults.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// This shard's own backend store (migration copies ranges out of it).
    pub fn kv_backend(&self) -> &Arc<dyn KvStore + Send + Sync> {
        &self.backend
    }

    /// Attach the non-blocking handle over this shard's own store. With
    /// one attached, GETs go submit/poll and a pending miss is parked
    /// (see [`Shard::run`]); without one, GETs call the blocking store.
    pub fn with_async_backend(
        mut self,
        async_backend: Option<Arc<dyn AsyncKvStore + Send + Sync>>,
    ) -> Self {
        self.async_backend = async_backend;
        self
    }

    /// The shard's mailbox (senders route requests here).
    pub fn mailbox(&self) -> &Mailbox<Mail> {
        &self.mailbox
    }

    /// The shard's live metrics.
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    /// The shard's WAL.
    pub fn wal(&self) -> &Arc<RecoveryLog> {
        &self.wal
    }

    /// Route `mail` into the mailbox, answering BUSY / shutdown errors
    /// directly on rejection.
    pub fn offer(&self, mail: Mail) {
        match self.mailbox.send(mail) {
            Ok(()) => {}
            Err(SendError::Busy(mail)) => {
                self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                mail.reply.deliver(mail.id, Response::Busy);
            }
            Err(SendError::Closed(mail)) => {
                mail.reply
                    .deliver(mail.id, Response::Err("server shutting down".into()));
            }
        }
    }

    /// The worker loop. Run on a dedicated thread.
    ///
    /// A GET that misses to the device is *parked* in a per-shard table
    /// keyed by its submit token, and the worker keeps draining its
    /// mailbox. While misses are parked the loop switches from blocking
    /// receives to non-blocking drains interleaved with completion polls,
    /// so a device-bound GET never stops the shard from serving the
    /// requests queued behind it; parked requests are answered out of
    /// order, by request id, as their fetches complete. A shard without an
    /// async handle never parks, so it only ever blocks in `recv_batch`.
    ///
    /// The loop ends once the mailbox is closed *and* empty and every
    /// parked request has been answered; then a final WAL barrier makes
    /// every acknowledged write durable before shutdown completes.
    pub fn run(&self) {
        let mut batch: Vec<Mail> = Vec::with_capacity(self.batch_max);
        let mut parked: HashMap<u64, Mail> = HashMap::new();
        let mut completions: Vec<CompletedGet> = Vec::new();
        loop {
            let more = if parked.is_empty() {
                self.mailbox.recv_batch(self.batch_max, &mut batch)
            } else {
                self.mailbox.try_recv_batch(self.batch_max, &mut batch)
            };
            let got_mail = !batch.is_empty();
            if got_mail {
                self.process_batch(&mut batch, &mut parked);
                self.metrics
                    .parked_peak
                    .fetch_max(parked.len(), Ordering::Relaxed);
            }
            let mut reaped = 0;
            // Only a shard with an async handle ever parks a miss.
            if let (Some(ab), false) = (&self.async_backend, parked.is_empty()) {
                completions.clear();
                reaped = ab.kv_poll(&mut completions);
                for c in completions.drain(..) {
                    // Tokens not in the table cannot arise (each shard owns
                    // its store instance and is its only GET submitter),
                    // but losing one here would strand a client forever, so
                    // tolerate and drop rather than panic.
                    if let Some(mail) = parked.remove(&c.token) {
                        let resp = match c.result {
                            Ok(v) => Response::Value(v),
                            Err(e) => Response::Err(e.to_string()),
                        };
                        self.reply_miss(mail, resp);
                    }
                }
            }
            if parked.is_empty() {
                if !more {
                    break;
                }
            } else if !got_mail && reaped == 0 {
                // Nothing arrived and nothing completed: back off briefly
                // instead of hot-spinning against wall-clock device latency.
                // LINT: allow(effect-block): bounded 20µs idle backoff, not
                // I/O — it caps the poll rate, it cannot stall parked misses
                // (they are already submitted to the device).
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        let _ = self.wal.commit_batch(&[]);
    }

    fn process_batch(&self, batch: &mut Vec<Mail>, parked: &mut HashMap<u64, Mail>) {
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .batched_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.metrics
            .max_batch
            .fetch_max(batch.len(), Ordering::Relaxed);
        let mut wal_records: Vec<LogRecord> = Vec::new();
        let mut deferred: Vec<(Mail, Response)> = Vec::new();
        for mail in batch.drain(..) {
            match &mail.req {
                Request::Get { key } => {
                    self.metrics.gets.fetch_add(1, Ordering::Relaxed);
                    // Stale-routed under the current map: bounce before
                    // touching the store. Reads never take the write gate
                    // (see dcs-rebalance::migrate) — a frozen range's
                    // source copy is immutable, so serving it stays
                    // linearizable right up to the epoch install.
                    if let Some((epoch, owner)) = self.router.read_misroute(self.index, key) {
                        self.reply_redirect(mail, epoch, owner);
                        continue;
                    }
                    let Some(ab) = &self.async_backend else {
                        let resp = match self.backend.kv_get(key) {
                            Ok(v) => Response::Value(v),
                            Err(e) => Response::Err(e.to_string()),
                        };
                        self.reply_read(mail, resp);
                        continue;
                    };
                    match ab.kv_get_submit(key) {
                        // Memory-served: answer inline, count as a hit.
                        Ok(AsyncGet::Ready(v)) => self.reply_read(mail, Response::Value(v)),
                        Ok(AsyncGet::Pending(token)) => {
                            self.metrics
                                .misses_submitted
                                .fetch_add(1, Ordering::Relaxed);
                            // The run loop acks it when the fetch completes.
                            parked.insert(token, mail);
                        }
                        Err(e) => self.reply_read(mail, Response::Err(e.to_string())),
                    }
                }
                Request::Scan { start, limit } => {
                    self.metrics.scans.fetch_add(1, Ordering::Relaxed);
                    let resp = match self.scan_from(start, *limit as usize) {
                        Ok(n) => Response::Count(n as u64),
                        Err(e) => Response::Err(e),
                    };
                    self.reply_read(mail, resp);
                }
                Request::Put { key, value } => {
                    self.metrics.puts.fetch_add(1, Ordering::Relaxed);
                    match self.router.admit_write(self.index, key, Some(value)) {
                        WriteAdmission::Moved { epoch, shard } => {
                            self.reply_redirect(mail, epoch, shard);
                        }
                        WriteAdmission::Clear(permit) => {
                            let resp = match self.backend.kv_put(key.clone(), value.clone()) {
                                Ok(()) => {
                                    wal_records.push(self.redo(key, Some(value)));
                                    Response::Ok
                                }
                                Err(e) => Response::Err(e.to_string()),
                            };
                            // The permit pins the migration phase across
                            // the backend apply; release it before the
                            // group-commit wait.
                            drop(permit);
                            deferred.push((mail, resp));
                        }
                    }
                }
                Request::Delete { key } => {
                    self.metrics.deletes.fetch_add(1, Ordering::Relaxed);
                    match self.router.admit_write(self.index, key, None) {
                        WriteAdmission::Moved { epoch, shard } => {
                            self.reply_redirect(mail, epoch, shard);
                        }
                        WriteAdmission::Clear(permit) => {
                            let resp = match self.backend.kv_delete(key.clone()) {
                                Ok(()) => {
                                    wal_records.push(self.redo(key, None));
                                    Response::Ok
                                }
                                Err(e) => Response::Err(e.to_string()),
                            };
                            drop(permit);
                            deferred.push((mail, resp));
                        }
                    }
                }
                // STATS never reaches a shard (the connection reader
                // answers it); a stray one is harmless to refuse.
                Request::Stats => {
                    self.reply_read(mail, Response::Err("stats not routable".into()));
                }
                Request::Rmw { key, value } => {
                    self.metrics.rmws.fetch_add(1, Ordering::Relaxed);
                    // Atomic at the shard: the worker is the only writer of
                    // this key range, so read-append-write cannot race. The
                    // merged post-image is computed before admission so a
                    // copying migration mirrors the complete value into its
                    // tail, not the delta.
                    let resp = match self.backend.kv_get(key) {
                        Ok(cur) => {
                            let mut new = cur.unwrap_or_default();
                            new.extend_from_slice(value);
                            match self.router.admit_write(self.index, key, Some(&new)) {
                                WriteAdmission::Moved { epoch, shard } => {
                                    self.reply_redirect(mail, epoch, shard);
                                    continue;
                                }
                                WriteAdmission::Clear(permit) => {
                                    let resp = match self.backend.kv_put(key.clone(), new.clone()) {
                                        Ok(()) => {
                                            wal_records.push(self.redo(key, Some(&new)));
                                            Response::Ok
                                        }
                                        Err(e) => Response::Err(e.to_string()),
                                    };
                                    drop(permit);
                                    resp
                                }
                            }
                        }
                        Err(e) => Response::Err(e.to_string()),
                    };
                    deferred.push((mail, resp));
                }
            }
        }
        // Group commit: one barrier covers every write in the batch. Only
        // then are the write acks released — an acked write is durable.
        if !wal_records.is_empty() {
            self.metrics.group_commits.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .group_committed_records
                .fetch_add(wal_records.len() as u64, Ordering::Relaxed);
            if let Err(e) = self.wal.commit_batch(&wal_records) {
                let msg = format!("group commit failed: {e}");
                for (mail, _) in deferred.drain(..) {
                    let id = mail.id;
                    mail.reply.deliver(id, Response::Err(msg.clone()));
                }
            }
        }
        for (mail, resp) in deferred {
            let waited = dcs_telemetry::now_nanos().saturating_sub(mail.enqueued);
            self.metrics.write_latency.record(waited);
            // Write spans carry the WAL class: their latency is dominated by
            // the group-commit barrier they waited on.
            let _span = Self::request_span(&mail.req, dcs_telemetry::CostClass::Wal, waited);
            mail.reply.deliver(mail.id, resp);
        }
    }

    /// Answer a stale-routed request with `MOVED(epoch, shard)`: the
    /// request was not executed; the client should refresh its map and
    /// resubmit toward `shard`.
    fn reply_redirect(&self, mail: Mail, epoch: u64, shard: usize) {
        self.metrics.moved_redirects.fetch_add(1, Ordering::Relaxed);
        mail.reply.deliver(
            mail.id,
            Response::Moved {
                epoch,
                shard: shard as u32,
            },
        );
    }

    fn reply_read(&self, mail: Mail, resp: Response) {
        let waited = dcs_telemetry::now_nanos().saturating_sub(mail.enqueued);
        self.metrics.read_latency.record(waited);
        let _span = Self::request_span(&mail.req, dcs_telemetry::CostClass::Mm, waited);
        mail.reply.deliver(mail.id, resp);
    }

    /// Answer a GET that needed a device fetch, recording its full
    /// mailbox-entry-to-reply time in the miss-service histogram.
    fn reply_miss(&self, mail: Mail, resp: Response) {
        let waited = dcs_telemetry::now_nanos().saturating_sub(mail.enqueued);
        self.metrics.miss_latency.record(waited);
        let _span = dcs_telemetry::span_at(
            "server.get_miss",
            dcs_telemetry::CostClass::SsRead,
            dcs_telemetry::now_nanos().saturating_sub(waited),
        );
        mail.reply.deliver(mail.id, resp);
    }

    /// The per-request root span, backdated to the request's mailbox entry
    /// so the exported trace shows queueing + execution end to end. Store
    /// and device spans recorded on this shard thread during execution fall
    /// inside its time range, which is how the trace viewer nests them.
    fn request_span(
        req: &Request,
        class: dcs_telemetry::CostClass,
        elapsed_nanos: u64,
    ) -> dcs_telemetry::Span {
        let name = match req {
            Request::Get { .. } => "server.get",
            Request::Scan { .. } => "server.scan",
            Request::Put { .. } => "server.put",
            Request::Delete { .. } => "server.delete",
            Request::Rmw { .. } => "server.rmw",
            Request::Stats => "server.stats",
        };
        dcs_telemetry::span_at(
            name,
            class,
            dcs_telemetry::now_nanos().saturating_sub(elapsed_nanos),
        )
    }

    fn redo(&self, key: &[u8], value: Option<&[u8]>) -> LogRecord {
        LogRecord {
            ts: self.wal_ts.fetch_add(1, Ordering::Relaxed),
            key: Bytes::copy_from_slice(key),
            value: value.map(Bytes::copy_from_slice),
        }
    }

    /// Apply migrated entries (`None` value = delete) to this shard's own
    /// store and WAL under one group commit, returning how many were
    /// applied. Called by the migrator from its own thread while this
    /// shard's worker keeps running: safe because the entries' range is
    /// not yet owned by this shard (the worker refuses writes in it with
    /// `MOVED` until the new map lands), and both the backend store and
    /// the WAL are thread-safe.
    pub fn import(&self, entries: &[TailEntry]) -> Result<u64, String> {
        let mut records: Vec<LogRecord> = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            match value {
                Some(v) => self
                    .backend
                    .kv_put(key.clone(), v.clone())
                    .map_err(|e| e.to_string())?,
                None => self
                    .backend
                    .kv_delete(key.clone())
                    .map_err(|e| e.to_string())?,
            }
            records.push(self.redo(key, value.as_deref()));
        }
        if !records.is_empty() {
            self.wal.commit_batch(&records).map_err(|e| e.to_string())?;
        }
        Ok(records.len() as u64)
    }

    /// Count up to `limit` records from `start`, walking the partition
    /// map's ranges in key order and reading each from its owner's store.
    /// Read-only and weakly consistent across range boundaries, exactly
    /// like a scan racing concurrent writers on a single store. Bounded
    /// per range by the map (not `kv_scan`'s open tail) so the stale
    /// bytes a finished migration leaves at the source are never counted.
    fn scan_from(&self, start: &[u8], limit: usize) -> Result<usize, String> {
        let map = self.router.map().load();
        let mut remaining = limit;
        let mut count = 0usize;
        for r in map.range_of(start)..map.ranges() {
            if remaining == 0 {
                break;
            }
            let Some((lo, hi)) = map.bounds(r) else { break };
            let Some(owner) = map.owner_of_range(r) else {
                break;
            };
            let Some(backend) = self.all_backends.get(owner) else {
                return Err(format!("range {r} owned by unknown shard {owner}"));
            };
            let from: &[u8] = if lo > start { lo } else { start };
            let n = backend
                .kv_range(from, hi, remaining, &mut |_k, _v| {})
                .map_err(|e| e.to_string())?;
            count += n;
            remaining = remaining.saturating_sub(n);
        }
        Ok(count)
    }
}

#[cfg(test)]
// Tests pace and bound real shard threads with wall-clock deadlines.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use dcs_workload::StoreFailure;
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Instant;

    #[derive(Default)]
    struct MapStore(Mutex<BTreeMap<Vec<u8>, Vec<u8>>>);

    impl KvStore for MapStore {
        fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
            Ok(self.0.lock().unwrap().get(key).cloned())
        }
        fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
            self.0.lock().unwrap().insert(key, value);
            Ok(())
        }
        fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
            self.0.lock().unwrap().remove(&key);
            Ok(())
        }
        fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
            Ok(self
                .0
                .lock()
                .unwrap()
                .range(start.to_vec()..)
                .take(limit)
                .count())
        }
        fn kv_range(
            &self,
            start: &[u8],
            end: Option<&[u8]>,
            limit: usize,
            visit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<usize, StoreFailure> {
            let m = self.0.lock().unwrap();
            let mut n = 0;
            for (k, v) in m.range(start.to_vec()..) {
                if n == limit || end.is_some_and(|e| k.as_slice() >= e) {
                    break;
                }
                visit(k, v);
                n += 1;
            }
            Ok(n)
        }
    }

    #[derive(Default)]
    struct CollectSink(Mutex<Vec<(u64, Response)>>);

    impl ReplySink for CollectSink {
        fn deliver(&self, id: u64, resp: Response) {
            self.0.lock().unwrap().push((id, resp));
        }
    }

    type SharedBackends = Arc<Vec<Arc<dyn KvStore + Send + Sync>>>;

    fn two_shards() -> (Arc<Shard>, Arc<Shard>, SharedBackends) {
        let backends: SharedBackends = Arc::new(vec![
            Arc::new(MapStore::default()),
            Arc::new(MapStore::default()),
        ]);
        let part = Arc::new(Partitioner::from_splits(vec![b"m".to_vec()]));
        let cfg = ShardConfig::default();
        let s0 = Arc::new(Shard::new(
            0,
            &cfg,
            backends.clone(),
            part.clone(),
            Arc::new(RecoveryLog::in_memory()),
        ));
        let s1 = Arc::new(Shard::new(
            1,
            &cfg,
            backends.clone(),
            part,
            Arc::new(RecoveryLog::in_memory()),
        ));
        (s0, s1, backends)
    }

    fn mail(id: u64, req: Request, sink: &Arc<CollectSink>) -> Mail {
        Mail {
            id,
            req,
            reply: sink.clone() as Arc<dyn ReplySink>,
            enqueued: dcs_telemetry::now_nanos(),
        }
    }

    #[test]
    fn partitioner_routes_ranges() {
        let p = Partitioner::from_splits(vec![b"g".to_vec(), b"p".to_vec()]);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.shard_of(b""), 0);
        assert_eq!(p.shard_of(b"f"), 0);
        assert_eq!(p.shard_of(b"g"), 1, "split key belongs to the right");
        assert_eq!(p.shard_of(b"o"), 1);
        assert_eq!(p.shard_of(b"p"), 2);
        assert_eq!(p.shard_of(b"zzz"), 2);
        assert_eq!(p.lower_bound(0), b"");
        assert_eq!(p.lower_bound(2), b"p");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_splits_panic() {
        let _ = Partitioner::from_splits(vec![b"z".to_vec(), b"a".to_vec()]);
    }

    #[test]
    fn batch_executes_and_group_commits() {
        let (s0, _s1, backends) = two_shards();
        let sink = Arc::new(CollectSink::default());
        s0.offer(mail(
            1,
            Request::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            },
            &sink,
        ));
        s0.offer(mail(
            2,
            Request::Put {
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            },
            &sink,
        ));
        s0.offer(mail(3, Request::Get { key: b"a".to_vec() }, &sink));
        s0.mailbox().close();
        s0.run();
        let replies = sink.0.lock().unwrap();
        // Reads reply inline, writes after the group commit; all three
        // answered.
        assert_eq!(replies.len(), 3);
        assert!(replies
            .iter()
            .any(|(id, r)| *id == 3 && *r == Response::Value(Some(b"1".to_vec()))));
        assert!(replies.iter().filter(|(_, r)| *r == Response::Ok).count() == 2);
        // One batch, one group commit carrying both writes, both in the WAL.
        assert_eq!(s0.metrics().group_commits.load(Ordering::Relaxed), 1);
        assert_eq!(
            s0.metrics().group_committed_records.load(Ordering::Relaxed),
            2
        );
        assert_eq!(s0.wal().len(), 2);
        assert_eq!(backends[0].kv_get(b"a").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn rmw_appends_atomically() {
        let (s0, _s1, backends) = two_shards();
        let sink = Arc::new(CollectSink::default());
        s0.offer(mail(
            1,
            Request::Put {
                key: b"k".to_vec(),
                value: b"ab".to_vec(),
            },
            &sink,
        ));
        s0.offer(mail(
            2,
            Request::Rmw {
                key: b"k".to_vec(),
                value: b"cd".to_vec(),
            },
            &sink,
        ));
        s0.mailbox().close();
        s0.run();
        assert_eq!(backends[0].kv_get(b"k").unwrap(), Some(b"abcd".to_vec()));
        // The RMW's WAL record carries the merged value (redo-complete).
        let records = s0.wal().records_from(0);
        assert_eq!(records.last().unwrap().value.as_deref(), Some(&b"abcd"[..]));
    }

    #[test]
    fn scan_continues_across_shards() {
        let (s0, s1, backends) = two_shards();
        // 3 keys below the "m" split, 3 above.
        for k in [b"a", b"b", b"c"] {
            backends[0].kv_put(k.to_vec(), b"v".to_vec()).unwrap();
        }
        for k in [b"p", b"q", b"r"] {
            backends[1].kv_put(k.to_vec(), b"v".to_vec()).unwrap();
        }
        let sink = Arc::new(CollectSink::default());
        s0.offer(mail(
            9,
            Request::Scan {
                start: b"b".to_vec(),
                limit: 4,
            },
            &sink,
        ));
        s0.mailbox().close();
        s0.run();
        // b, c from shard 0, then p, q from shard 1.
        assert_eq!(sink.0.lock().unwrap()[0], (9, Response::Count(4)));
        // A scan routed to the tail shard stays there.
        let sink2 = Arc::new(CollectSink::default());
        s1.offer(mail(
            10,
            Request::Scan {
                start: b"q".to_vec(),
                limit: 10,
            },
            &sink2,
        ));
        s1.mailbox().close();
        s1.run();
        assert_eq!(sink2.0.lock().unwrap()[0], (10, Response::Count(2)));
    }

    /// Async test double: keys starting with `cold` miss and complete only
    /// after a wall-clock delay; everything else answers inline.
    struct SlowAsyncStore {
        inner: MapStore,
        delay: std::time::Duration,
        next_token: AtomicU64,
        pending: Mutex<Vec<(u64, Vec<u8>, Instant)>>,
    }

    impl SlowAsyncStore {
        fn new(delay: std::time::Duration) -> Self {
            SlowAsyncStore {
                inner: MapStore::default(),
                delay,
                next_token: AtomicU64::new(1),
                pending: Mutex::new(Vec::new()),
            }
        }
    }

    impl KvStore for SlowAsyncStore {
        fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
            self.inner.kv_get(key)
        }
        fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
            self.inner.kv_put(key, value)
        }
        fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
            self.inner.kv_delete(key)
        }
        fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
            self.inner.kv_scan(start, limit)
        }
        fn kv_range(
            &self,
            start: &[u8],
            end: Option<&[u8]>,
            limit: usize,
            visit: &mut dyn FnMut(&[u8], &[u8]),
        ) -> Result<usize, StoreFailure> {
            self.inner.kv_range(start, end, limit, visit)
        }
    }

    impl AsyncKvStore for SlowAsyncStore {
        fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
            if key.starts_with(b"cold") {
                let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                self.pending.lock().unwrap().push((
                    token,
                    key.to_vec(),
                    Instant::now() + self.delay,
                ));
                Ok(AsyncGet::Pending(token))
            } else {
                Ok(AsyncGet::Ready(self.inner.kv_get(key)?))
            }
        }

        fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
            let mut pending = self.pending.lock().unwrap();
            let now = Instant::now();
            let mut reaped = 0;
            pending.retain(|(token, key, ready)| {
                if *ready <= now {
                    out.push(CompletedGet {
                        token: *token,
                        result: self.inner.kv_get(key),
                    });
                    reaped += 1;
                    false
                } else {
                    true
                }
            });
            reaped
        }

        fn kv_inflight(&self) -> usize {
            self.pending.lock().unwrap().len()
        }
    }

    fn slow_shard(delay_ms: u64) -> (Arc<Shard>, Arc<SlowAsyncStore>) {
        let store = Arc::new(SlowAsyncStore::new(std::time::Duration::from_millis(
            delay_ms,
        )));
        store.kv_put(b"cold1".to_vec(), b"c1".to_vec()).unwrap();
        store.kv_put(b"cold2".to_vec(), b"c2".to_vec()).unwrap();
        store.kv_put(b"hot".to_vec(), b"h".to_vec()).unwrap();
        let backends: SharedBackends = Arc::new(vec![store.clone()]);
        let shard = Arc::new(
            Shard::new(
                0,
                &ShardConfig::default(),
                backends,
                Arc::new(Partitioner::single()),
                Arc::new(RecoveryLog::in_memory()),
            )
            .with_async_backend(Some(store.clone())),
        );
        (shard, store)
    }

    #[test]
    fn async_miss_does_not_block_hits() {
        let (shard, _store) = slow_shard(80);
        let sink = Arc::new(CollectSink::default());
        let worker = {
            let shard = shard.clone();
            std::thread::spawn(move || shard.run())
        };
        // A cold GET goes to the (slow) device...
        shard.offer(mail(
            1,
            Request::Get {
                key: b"cold1".to_vec(),
            },
            &sink,
        ));
        // ...and hits queued behind it must be answered while it is parked.
        for id in 2..=5 {
            shard.offer(mail(
                id,
                Request::Get {
                    key: b"hot".to_vec(),
                },
                &sink,
            ));
        }
        let t0 = Instant::now();
        loop {
            {
                let replies = sink.0.lock().unwrap();
                if replies.iter().filter(|(id, _)| *id >= 2).count() == 4 {
                    // All four hits answered; the miss must still be parked.
                    assert!(
                        !replies.iter().any(|(id, _)| *id == 1),
                        "miss answered before its device delay elapsed"
                    );
                    break;
                }
            }
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(5),
                "hits stuck"
            );
            std::thread::yield_now();
        }
        shard.mailbox().close();
        worker.join().unwrap();
        let replies = sink.0.lock().unwrap();
        assert_eq!(replies.len(), 5);
        // Out-of-order ack: the first-submitted request answered last.
        assert_eq!(replies.last().unwrap().0, 1);
        assert!(replies
            .iter()
            .any(|(id, r)| *id == 1 && *r == Response::Value(Some(b"c1".to_vec()))));
        assert_eq!(shard.metrics().misses_submitted.load(Ordering::Relaxed), 1);
        assert_eq!(shard.metrics().miss_latency.count(), 1);
        assert_eq!(shard.metrics().read_latency.count(), 4);
    }

    #[test]
    fn shutdown_drains_parked_misses() {
        let (shard, store) = slow_shard(40);
        let sink = Arc::new(CollectSink::default());
        shard.offer(mail(
            1,
            Request::Get {
                key: b"cold1".to_vec(),
            },
            &sink,
        ));
        shard.offer(mail(
            2,
            Request::Get {
                key: b"cold2".to_vec(),
            },
            &sink,
        ));
        shard.mailbox().close();
        // run() must keep polling past the closed mailbox until both
        // parked misses are answered.
        shard.run();
        let replies = sink.0.lock().unwrap();
        assert_eq!(replies.len(), 2, "a parked miss was dropped at shutdown");
        assert!(replies
            .iter()
            .any(|(id, r)| *id == 1 && *r == Response::Value(Some(b"c1".to_vec()))));
        assert!(replies
            .iter()
            .any(|(id, r)| *id == 2 && *r == Response::Value(Some(b"c2".to_vec()))));
        assert_eq!(store.kv_inflight(), 0);
        assert_eq!(shard.metrics().parked_peak.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn busy_and_closed_answered_not_dropped() {
        let backends: Arc<Vec<Arc<dyn KvStore + Send + Sync>>> =
            Arc::new(vec![Arc::new(MapStore::default())]);
        let cfg = ShardConfig {
            mailbox_capacity: 1,
            batch_max: 8,
        };
        let shard = Shard::new(
            0,
            &cfg,
            backends,
            Arc::new(Partitioner::single()),
            Arc::new(RecoveryLog::in_memory()),
        );
        let sink = Arc::new(CollectSink::default());
        shard.offer(mail(1, Request::Get { key: b"k".to_vec() }, &sink));
        shard.offer(mail(2, Request::Get { key: b"k".to_vec() }, &sink));
        assert_eq!(sink.0.lock().unwrap().as_slice(), &[(2, Response::Busy)]);
        assert_eq!(shard.metrics().busy_rejections.load(Ordering::Relaxed), 1);
        shard.mailbox().close();
        shard.offer(mail(3, Request::Get { key: b"k".to_vec() }, &sink));
        assert!(matches!(sink.0.lock().unwrap()[1], (3, Response::Err(_))));
        shard.run();
        // The accepted request was still served after close.
        assert_eq!(sink.0.lock().unwrap().len(), 3);
    }
}
