//! The leveled LSM tree.

use crate::memtable::Memtable;
use crate::sstable::{SsTable, TableValue};
use crate::sync::{Mutex, RwLock};
use bytes::Bytes;
use dcs_flashsim::{DeviceError, FlashDevice, IoQueuePair, IoRequest, SegmentId, SubmitError};
use std::collections::HashMap;
// Stats and id allocation stay on plain std atomics even in instrumented
// builds: monotonic counters admit no interleaving worth exploring, and
// keeping them raw keeps the checker's schedule space focused on the state
// lock (same convention as dcs-bwtree's stats).
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// LSM tuning knobs.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Freeze and flush the memtable at this payload size.
    pub memtable_bytes: usize,
    /// Compact L0 into L1 once it holds this many runs.
    pub l0_compaction_trigger: usize,
    /// Target total bytes for L1; level `i` targets `growth^(i-1)` times this.
    pub level_base_bytes: usize,
    /// Per-level size growth factor (RocksDB default 10).
    pub level_growth: usize,
    /// Maximum number of levels (including L0).
    pub max_levels: usize,
    /// Split compaction output into runs of roughly this many bytes.
    pub table_target_bytes: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 32 << 10,
            l0_compaction_trigger: 4,
            level_base_bytes: 256 << 10,
            level_growth: 10,
            max_levels: 7,
            table_target_bytes: 32 << 10,
        }
    }
}

/// Errors from the LSM tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// The device failed.
    Device(String),
}

impl From<DeviceError> for LsmError {
    fn from(e: DeviceError) -> Self {
        LsmError::Device(e.to_string())
    }
}

impl std::fmt::Display for LsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsmError::Device(e) => write!(f, "device: {e}"),
        }
    }
}

impl std::error::Error for LsmError {}

/// Operation and amplification counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// Reads issued.
    pub gets: u64,
    /// Writes issued (puts + deletes).
    pub puts: u64,
    /// Reads answered without device I/O (memtable/record-cache effect, or
    /// bloom/range filtering).
    pub mm_ops: u64,
    /// Reads that needed at least one device read.
    pub ss_ops: u64,
    /// Reads answered by the memtable specifically.
    pub memtable_hits: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Payload bytes accepted from the application.
    pub app_bytes_in: u64,
    /// Bytes written building tables (flush + compaction rewrites). The
    /// ratio to `app_bytes_in` is write amplification.
    pub table_bytes_written: u64,
    /// Flash segments reclaimed after their tables died.
    pub segments_reclaimed: u64,
}

#[derive(Default)]
struct StatsInner {
    gets: AtomicU64,
    puts: AtomicU64,
    mm_ops: AtomicU64,
    ss_ops: AtomicU64,
    memtable_hits: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    app_bytes_in: AtomicU64,
    table_bytes_written: AtomicU64,
    segments_reclaimed: AtomicU64,
}

impl StatsInner {
    /// Count one main-memory operation, mirroring it into the process-wide
    /// cost ledger. SS ops are not mirrored here: the flash device is the
    /// single attribution point for secondary-storage I/O.
    fn mm_op(&self) {
        self.mm_ops.fetch_add(1, Ordering::Relaxed);
        // SPAN: the lsm.get/lsm.put call site holds the open span; this
        // mirror only forwards the count to the ledger.
        dcs_telemetry::ledger().mm_op();
    }
}

struct State {
    memtable: Arc<Memtable>,
    /// `levels[0]` newest-first, overlapping; deeper levels sorted and
    /// non-overlapping.
    levels: Vec<Vec<Arc<SsTable>>>,
    /// Live tables per flash segment, for reclamation.
    seg_tables: HashMap<SegmentId, usize>,
}

/// Outcome of a non-blocking [`LsmTree::get_submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmGet {
    /// Answered without device I/O (memtable hit, or every table filtered
    /// by fences and bloom filters).
    Ready(Option<Bytes>),
    /// Candidate-block reads are in flight; the token identifies this read
    /// in later [`LsmTree::poll_gets`] completions.
    Pending(u64),
}

/// A completed asynchronous read, reaped by [`LsmTree::poll_gets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmFinishedGet {
    /// The token [`LsmTree::get_submit`] returned.
    pub token: u64,
    /// The read's final outcome.
    pub result: Result<Option<Bytes>, LsmError>,
}

/// One in-flight speculative read: every candidate table's block was
/// submitted at once, and the result is decided in table priority order
/// once all blocks are back.
struct PendingGet {
    key: Vec<u8>,
    /// Candidate tables newest-first, each paired with its block once read.
    candidates: Vec<(Arc<SsTable>, Option<Vec<u8>>)>,
    /// Outstanding ticket → candidate index.
    tickets: HashMap<u64, usize>,
    failure: Option<LsmError>,
}

#[derive(Default)]
struct AsyncGets {
    next_token: u64,
    pending: HashMap<u64, PendingGet>,
}

/// A leveled LSM tree over the simulated flash device. See the crate docs.
pub struct LsmTree {
    device: Arc<FlashDevice>,
    config: LsmConfig,
    state: RwLock<State>,
    next_table_id: AtomicU64,
    stats: StatsInner,
    /// Queue pair for asynchronous point reads.
    get_qp: IoQueuePair,
    /// Separate queue pair for compaction prefetch, so a compaction drain
    /// never reaps a point read's completion.
    compact_qp: IoQueuePair,
    async_gets: Mutex<AsyncGets>,
    /// Miss-ratio-curve profiler over the record-level read stream
    /// (memtable + block path together: what a bigger memory budget
    /// would have absorbed).
    mrc: Arc<dcs_telemetry::MrcProfiler>,
}

impl LsmTree {
    /// An empty tree on `device`.
    pub fn new(device: Arc<FlashDevice>, config: LsmConfig) -> Self {
        let levels = (0..config.max_levels).map(|_| Vec::new()).collect();
        LsmTree {
            get_qp: IoQueuePair::new(device.clone()),
            compact_qp: IoQueuePair::new(device.clone()),
            device,
            config,
            state: RwLock::new(State {
                memtable: Arc::new(Memtable::new()),
                levels,
                seg_tables: HashMap::new(),
            }),
            next_table_id: AtomicU64::new(0),
            stats: StatsInner::default(),
            async_gets: Mutex::new(AsyncGets::default()),
            mrc: dcs_telemetry::mrc().profiler("mrc.lsm"),
        }
    }

    /// The device underneath.
    pub fn device(&self) -> &Arc<FlashDevice> {
        &self.device
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LsmStats {
        LsmStats {
            gets: self.stats.gets.load(Ordering::Relaxed),
            puts: self.stats.puts.load(Ordering::Relaxed),
            mm_ops: self.stats.mm_ops.load(Ordering::Relaxed),
            ss_ops: self.stats.ss_ops.load(Ordering::Relaxed),
            memtable_hits: self.stats.memtable_hits.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            app_bytes_in: self.stats.app_bytes_in.load(Ordering::Relaxed),
            table_bytes_written: self.stats.table_bytes_written.load(Ordering::Relaxed),
            segments_reclaimed: self.stats.segments_reclaimed.load(Ordering::Relaxed),
        }
    }

    /// Write amplification so far: table bytes written per application byte.
    pub fn write_amplification(&self) -> f64 {
        let s = self.stats();
        if s.app_bytes_in == 0 {
            0.0
        } else {
            s.table_bytes_written as f64 / s.app_bytes_in as f64
        }
    }

    /// Upsert. A *blind* write: never reads secondary storage (§6.2).
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<(), LsmError> {
        let (key, value) = (key.into(), value.into());
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .app_bytes_in
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        // Under the state lock: a rotation (which takes it for writing)
        // must not snapshot this memtable between the load and the insert.
        self.state.read().memtable.put(key, value);
        self.maybe_flush()
    }

    /// Delete (blind tombstone).
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<(), LsmError> {
        let key = key.into();
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .app_bytes_in
            .fetch_add(key.len() as u64, Ordering::Relaxed);
        // Under the state lock, as in `put`.
        self.state.read().memtable.delete(key);
        self.maybe_flush()
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>, LsmError> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let state = self.state.read();
        if let Some(answer) = state.memtable.get(key) {
            self.stats.memtable_hits.fetch_add(1, Ordering::Relaxed);
            self.stats.mm_op();
            self.mrc_record(key, answer.as_ref().map_or(0, |v| v.len()));
            return Ok(answer);
        }
        let mut did_io = false;
        let mut result = None;
        'levels: for (li, level) in state.levels.iter().enumerate() {
            if li == 0 {
                // Overlapping runs: newest first.
                for t in level {
                    let (got, io) = t.get(&self.device, key)?;
                    did_io |= io;
                    if got.is_some() {
                        result = got;
                        break 'levels;
                    }
                }
            } else {
                // Non-overlapping: at most one candidate.
                let idx = level.partition_point(|t| t.last_key.as_ref() < key);
                if let Some(t) = level.get(idx) {
                    if t.covers(key) {
                        let (got, io) = t.get(&self.device, key)?;
                        did_io |= io;
                        if got.is_some() {
                            result = got;
                            break 'levels;
                        }
                    }
                }
            }
        }
        drop(state);
        if did_io {
            self.stats.ss_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.mm_op();
        }
        let found = match result {
            Some(TableValue::Put(v)) => Some(v),
            Some(TableValue::Tombstone) | None => None,
        };
        self.mrc_record(key, found.as_ref().map_or(0, |v| v.len()));
        Ok(found)
    }

    /// Feed one record access into the MRC profiler: what the memtable +
    /// block path together would absorb at a different memory budget.
    /// `val_len` is 0 when the value is not in hand (absent key, read
    /// still in flight).
    fn mrc_record(&self, key: &[u8], val_len: usize) {
        self.mrc.record_key(key, (key.len() + val_len) as u64);
    }

    /// Begin a non-blocking point lookup. Memtable hits and bloom-filtered
    /// misses resolve immediately; otherwise the sparse-index blocks of
    /// *every* candidate table are submitted to the device queue pair in
    /// one batch (a speculative parallel read: extra read I/O traded for a
    /// single device round trip of latency) and the read resolves in a
    /// later [`LsmTree::poll_gets`].
    ///
    /// The read linearizes at submit: it answers from the tables and
    /// memtable as of this call.
    pub fn get_submit(&self, key: &[u8]) -> Result<LsmGet, LsmError> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let state = self.state.read();
        if let Some(answer) = state.memtable.get(key) {
            self.stats.memtable_hits.fetch_add(1, Ordering::Relaxed);
            self.stats.mm_op();
            self.mrc_record(key, answer.as_ref().map_or(0, |v| v.len()));
            return Ok(LsmGet::Ready(answer));
        }
        // Candidate tables newest-first, with the block each would read.
        let mut cands: Vec<(Arc<SsTable>, usize, usize)> = Vec::new();
        for (li, level) in state.levels.iter().enumerate() {
            if li == 0 {
                for t in level {
                    if let Some((s, e)) = t.block_interval(key) {
                        cands.push((t.clone(), s, e));
                    }
                }
            } else {
                let idx = level.partition_point(|t| t.last_key.as_ref() < key);
                if let Some(t) = level.get(idx) {
                    if let Some((s, e)) = t.block_interval(key) {
                        cands.push((t.clone(), s, e));
                    }
                }
            }
        }
        drop(state);
        self.mrc_record(key, 0);
        if cands.is_empty() {
            self.stats.mm_op();
            return Ok(LsmGet::Ready(None));
        }
        let token = {
            let mut gets = self.async_gets.lock();
            let t = gets.next_token;
            gets.next_token += 1;
            t
        };
        let reqs: Vec<IoRequest> = cands
            .iter()
            .map(|(t, s, e)| IoRequest {
                addr: t.block_addr(*s),
                len: e - s,
                tag: token,
            })
            .collect();
        match self.get_qp.submit_batch(&reqs) {
            Ok(tickets) => {
                let pending = PendingGet {
                    key: key.to_vec(),
                    candidates: cands.into_iter().map(|(t, _, _)| (t, None)).collect(),
                    tickets: tickets.iter().enumerate().map(|(i, t)| (t.0, i)).collect(),
                    failure: None,
                };
                self.async_gets.lock().pending.insert(token, pending);
                Ok(LsmGet::Pending(token))
            }
            // Device queue saturated: degrade to the blocking probe order
            // (stop at the first table that answers). Correctness never
            // depends on a free queue slot.
            Err(SubmitError::QueueFull { .. }) => {
                let mut result = None;
                for (t, s, e) in &cands {
                    let block = self.device.read(t.block_addr(*s), e - s)?;
                    if let Some(v) = SsTable::search_block(&block, key) {
                        result = Some(v);
                        break;
                    }
                }
                self.stats.ss_ops.fetch_add(1, Ordering::Relaxed);
                Ok(LsmGet::Ready(match result {
                    Some(TableValue::Put(v)) => Some(v),
                    Some(TableValue::Tombstone) | None => None,
                }))
            }
        }
    }

    /// Reap every asynchronous read whose candidate blocks have all
    /// arrived, resolving each in table priority order (newest candidate
    /// wins). Non-blocking; returns reads resolved.
    pub fn poll_gets(&self, out: &mut Vec<LsmFinishedGet>) -> usize {
        let mut comps = Vec::new();
        self.get_qp.poll_completions(&mut comps);
        if comps.is_empty() {
            return 0;
        }
        let mut resolved = 0;
        let mut gets = self.async_gets.lock();
        for c in comps {
            let Some(g) = gets.pending.get_mut(&c.tag) else {
                continue;
            };
            let Some(idx) = g.tickets.remove(&c.ticket.0) else {
                continue;
            };
            match c.result {
                Ok(buf) => g.candidates[idx].1 = Some(buf),
                Err(e) => {
                    g.failure.get_or_insert(e.into());
                }
            }
            if !g.tickets.is_empty() {
                continue;
            }
            let g = gets.pending.remove(&c.tag).expect("pending get present");
            let result = match g.failure {
                Some(e) => Err(e),
                None => {
                    self.stats.ss_ops.fetch_add(1, Ordering::Relaxed);
                    let found = g.candidates.iter().find_map(|(_, block)| {
                        SsTable::search_block(block.as_deref().expect("block read"), &g.key)
                    });
                    Ok(match found {
                        Some(TableValue::Put(v)) => Some(v),
                        Some(TableValue::Tombstone) | None => None,
                    })
                }
            };
            out.push(LsmFinishedGet {
                token: c.tag,
                result,
            });
            resolved += 1;
        }
        resolved
    }

    /// Asynchronous reads currently in flight.
    pub fn gets_inflight(&self) -> usize {
        self.async_gets.lock().pending.len()
    }

    /// Block (spinning out any wall-clock device latency) until every
    /// in-flight read resolves into `out`.
    pub fn drain_gets(&self, out: &mut Vec<LsmFinishedGet>) {
        while self.gets_inflight() > 0 {
            if self.poll_gets(out) == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Scan `[start, end)` in key order, merged across all components.
    pub fn scan(&self, start: &[u8], end: Option<&[u8]>) -> Result<Vec<(Bytes, Bytes)>, LsmError> {
        let state = self.state.read();
        // Sources ordered newest → oldest; first occurrence of a key wins.
        let mut merged: std::collections::BTreeMap<Bytes, TableValue> =
            std::collections::BTreeMap::new();
        let mut absorb = |entries: Vec<(Bytes, TableValue)>| {
            for (k, v) in entries {
                merged.entry(k).or_insert(v);
            }
        };
        absorb(
            state
                .memtable
                .range_snapshot(start, end)
                .into_iter()
                .map(|(k, v)| (k, v.into()))
                .collect(),
        );
        for (li, level) in state.levels.iter().enumerate() {
            let _ = li; // L0 and deeper levels scan identically here
            for t in level.iter() {
                let in_range = match end {
                    Some(e) => t.overlaps(start, e),
                    None => t.last_key.as_ref() >= start,
                };
                if !in_range {
                    continue;
                }
                let all = t.read_all(&self.device)?;
                absorb(
                    all.into_iter()
                        .filter(|(k, _)| {
                            k.as_ref() >= start && end.map(|e| k.as_ref() < e).unwrap_or(true)
                        })
                        .collect(),
                );
            }
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| match v {
                TableValue::Put(b) => Some((k, b)),
                TableValue::Tombstone => None,
            })
            .collect())
    }

    /// Scan up to `limit` records from `start` in key order.
    ///
    /// Unlike [`LsmTree::scan`], the merge stops once `limit` live records
    /// are produced. Each overlapping run is still read once (the store
    /// keeps no open iterators), but per-source candidate sets are capped
    /// and widened only if tombstone shadowing starves the merge — so the
    /// CPU cost is O(sources · limit), not O(range size).
    pub fn scan_limited(
        &self,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Bytes, Bytes)>, LsmError> {
        let mut cap = limit.saturating_add(256);
        loop {
            let (result, truncated) = self.scan_with_cap(start, limit, cap)?;
            if result.len() >= limit || !truncated {
                return Ok(result);
            }
            cap = cap.saturating_mul(2);
        }
    }

    fn scan_with_cap(
        &self,
        start: &[u8],
        limit: usize,
        cap: usize,
    ) -> Result<(Vec<(Bytes, Bytes)>, bool), LsmError> {
        let state = self.state.read();
        // Candidate lists, newest source first; each is (entries, truncated).
        let mut sources: Vec<(Vec<(Bytes, TableValue)>, bool)> = Vec::new();
        let (mem, mem_trunc) = state.memtable.range_snapshot_capped(start, None, cap);
        sources.push((
            mem.into_iter().map(|(k, v)| (k, v.into())).collect(),
            mem_trunc,
        ));
        for (li, level) in state.levels.iter().enumerate() {
            for t in level {
                if t.last_key.as_ref() < start {
                    continue;
                }
                // For deeper (non-overlapping) levels only runs from the
                // covering one rightward matter; reading them lazily per
                // cap-round would complicate little and save less.
                let _ = li;
                let all = t.read_all(&self.device)?;
                let from = all.partition_point(|(k, _)| k.as_ref() < start);
                let slice = &all[from..];
                let truncated = slice.len() > cap;
                sources.push((slice.iter().take(cap).cloned().collect(), truncated));
            }
        }
        drop(state);
        // Keys at or past a truncated source's last key cannot be merged
        // confidently (the source may hold more below them).
        let horizon: Option<Bytes> = sources
            .iter()
            .filter(|(v, truncated)| *truncated && !v.is_empty())
            .map(|(v, _)| v.last().expect("non-empty").0.clone())
            .min();
        let any_truncated = horizon.is_some();
        // K-way merge with newest-source-wins, stopping at the limit.
        let mut idx = vec![0usize; sources.len()];
        let mut out = Vec::with_capacity(limit.min(1024));
        while out.len() < limit {
            // Smallest next key across sources; ties go to the newest.
            let mut best: Option<(usize, &Bytes)> = None;
            for (s, (entries, _)) in sources.iter().enumerate() {
                if let Some((k, _)) = entries.get(idx[s]) {
                    if best.map(|(_, bk)| k < bk).unwrap_or(true) {
                        best = Some((s, k));
                    }
                }
            }
            let Some((s, key)) = best else { break };
            if let Some(h) = &horizon {
                if key >= h {
                    break;
                }
            }
            let key = key.clone();
            let value = sources[s].0[idx[s]].1.clone();
            // Advance every source past this key (older duplicates lose).
            for (s2, (entries, _)) in sources.iter().enumerate() {
                while entries
                    .get(idx[s2])
                    .map(|(k, _)| *k == key)
                    .unwrap_or(false)
                {
                    idx[s2] += 1;
                }
            }
            if let TableValue::Put(v) = value {
                out.push((key, v));
            }
        }
        let starved = any_truncated && out.len() < limit;
        Ok((out, starved))
    }

    /// Flush the memtable if it is over its budget, then compact as needed.
    fn maybe_flush(&self) -> Result<(), LsmError> {
        if self.state.read().memtable.approx_bytes() < self.config.memtable_bytes {
            return Ok(());
        }
        let mut state = self.state.write();
        // Re-check under the write lock (another thread may have flushed).
        if state.memtable.approx_bytes() < self.config.memtable_bytes {
            return Ok(());
        }
        let _span =
            dcs_telemetry::span("lsm.memtable_rotate", dcs_telemetry::CostClass::Maintenance);
        dcs_telemetry::ledger().maintenance_op();
        let old = std::mem::replace(&mut state.memtable, Arc::new(Memtable::new()));
        let snapshot = old.snapshot();
        if snapshot.is_empty() {
            return Ok(());
        }
        let entries: Vec<(Bytes, TableValue)> =
            snapshot.into_iter().map(|(k, v)| (k, v.into())).collect();
        let table = self.build_table(&mut state, &entries)?;
        state.levels[0].insert(0, table);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.compact(&mut state)?;
        Ok(())
    }

    /// Force a flush regardless of size (tests / shutdown).
    pub fn flush(&self) -> Result<(), LsmError> {
        let mut state = self.state.write();
        let _span =
            dcs_telemetry::span("lsm.memtable_rotate", dcs_telemetry::CostClass::Maintenance);
        let old = std::mem::replace(&mut state.memtable, Arc::new(Memtable::new()));
        let snapshot = old.snapshot();
        if snapshot.is_empty() {
            return Ok(());
        }
        let entries: Vec<(Bytes, TableValue)> =
            snapshot.into_iter().map(|(k, v)| (k, v.into())).collect();
        let table = self.build_table(&mut state, &entries)?;
        state.levels[0].insert(0, table);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.compact(&mut state)?;
        Ok(())
    }

    fn build_table(
        &self,
        state: &mut State,
        entries: &[(Bytes, TableValue)],
    ) -> Result<Arc<SsTable>, LsmError> {
        let id = self.next_table_id.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(SsTable::build(&self.device, id, entries)?);
        self.stats
            .table_bytes_written
            .fetch_add(table.len as u64, Ordering::Relaxed);
        *state.seg_tables.entry(table.segment()).or_insert(0) += 1;
        Ok(table)
    }

    fn retire_table(&self, state: &mut State, table: &Arc<SsTable>) {
        let seg = table.segment();
        if let Some(count) = state.seg_tables.get_mut(&seg) {
            *count -= 1;
            if *count == 0 {
                state.seg_tables.remove(&seg);
                self.device.trim_segment(seg);
                self.stats
                    .segments_reclaimed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Level target size in bytes.
    fn level_target(&self, level: usize) -> usize {
        self.config.level_base_bytes * self.config.level_growth.pow(level.saturating_sub(1) as u32)
    }

    /// Run compactions until every level is within budget.
    fn compact(&self, state: &mut State) -> Result<(), LsmError> {
        loop {
            // L0 by run count.
            if state.levels[0].len() >= self.config.l0_compaction_trigger {
                self.compact_level(state, 0)?;
                continue;
            }
            // Deeper levels by byte budget.
            let mut worked = false;
            for li in 1..self.config.max_levels - 1 {
                let total: usize = state.levels[li].iter().map(|t| t.len).sum();
                if total > self.level_target(li) {
                    self.compact_level(state, li)?;
                    worked = true;
                    break;
                }
            }
            if !worked {
                return Ok(());
            }
        }
    }

    /// Merge level `li` (all of L0, or the oldest run of a deeper level)
    /// with the overlapping runs of level `li + 1`.
    fn compact_level(&self, state: &mut State, li: usize) -> Result<(), LsmError> {
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        let _span = dcs_telemetry::span("lsm.compact", dcs_telemetry::CostClass::Maintenance);
        dcs_telemetry::ledger().maintenance_op();
        let upper: Vec<Arc<SsTable>> = if li == 0 {
            std::mem::take(&mut state.levels[0])
        } else {
            // Oldest run first (smallest id).
            let idx = state.levels[li]
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.id)
                .map(|(i, _)| i)
                .expect("level not empty");
            vec![state.levels[li].remove(idx)]
        };
        let first = upper
            .iter()
            .map(|t| t.first_key.clone())
            .min()
            .expect("upper non-empty");
        let last = upper
            .iter()
            .map(|t| t.last_key.clone())
            .max()
            .expect("upper non-empty");
        let target_level = li + 1;
        let (overlapping, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut state.levels[target_level])
            .into_iter()
            .partition(|t| t.overlaps(&first, &last));
        state.levels[target_level] = kept;

        // Merge: newest source wins per key. Upper L0 runs are newest-first
        // already; deeper sources are older than upper by construction.
        // Input runs are prefetched through the queue pair so the device
        // works on many reads at once instead of one blocking round trip
        // per table.
        let inputs: Vec<Arc<SsTable>> = upper.iter().chain(overlapping.iter()).cloned().collect();
        let contents = self.read_tables_prefetched(&inputs)?;
        let mut merged: std::collections::BTreeMap<Bytes, TableValue> =
            std::collections::BTreeMap::new();
        for all in contents {
            for (k, v) in all {
                merged.entry(k).or_insert(v);
            }
        }
        // Drop tombstones when nothing deeper can hold an older value.
        let deeper_has_data =
            (target_level + 1..self.config.max_levels).any(|l| !state.levels[l].is_empty());
        let entries: Vec<(Bytes, TableValue)> = merged
            .into_iter()
            .filter(|(_, v)| deeper_has_data || !matches!(v, TableValue::Tombstone))
            .collect();

        // Write output runs, split at the target size.
        let mut new_tables = Vec::new();
        let mut chunk: Vec<(Bytes, TableValue)> = Vec::new();
        let mut chunk_bytes = 0usize;
        for (k, v) in entries {
            chunk_bytes += k.len()
                + match &v {
                    TableValue::Put(b) => b.len(),
                    TableValue::Tombstone => 0,
                };
            chunk.push((k, v));
            if chunk_bytes >= self.config.table_target_bytes {
                new_tables.push(self.build_table(state, &chunk)?);
                chunk.clear();
                chunk_bytes = 0;
            }
        }
        if !chunk.is_empty() {
            new_tables.push(self.build_table(state, &chunk)?);
        }
        // Install, keeping the level sorted by first key.
        state.levels[target_level].extend(new_tables);
        state.levels[target_level].sort_by(|a, b| a.first_key.cmp(&b.first_key));
        // Retire inputs.
        for t in upper.iter().chain(overlapping.iter()) {
            self.retire_table(state, t);
        }
        Ok(())
    }

    /// Read every table's full run through the compaction queue pair:
    /// batches are submitted as deep as the device queue allows (one
    /// doorbell charge per batch), completions reaped as they land. Falls
    /// back to smaller batches — ultimately single submissions plus a
    /// reaping spin — when the queue is contended.
    fn read_tables_prefetched(
        &self,
        tables: &[Arc<SsTable>],
    ) -> Result<Vec<Vec<(Bytes, TableValue)>>, LsmError> {
        let mut results: Vec<Option<Vec<(Bytes, TableValue)>>> =
            (0..tables.len()).map(|_| None).collect();
        let mut tickets: HashMap<u64, usize> = HashMap::new();
        let mut next = 0usize;
        let mut first_err: Option<LsmError> = None;
        let mut comps = Vec::new();
        while next < tables.len() || !tickets.is_empty() {
            // Submit the largest batch that fits under the queue depth.
            let mut chunk = tables.len() - next;
            while chunk > 0 {
                let reqs: Vec<IoRequest> = tables[next..next + chunk]
                    .iter()
                    .enumerate()
                    .map(|(i, t)| IoRequest {
                        addr: t.base_addr(),
                        len: t.len,
                        tag: (next + i) as u64,
                    })
                    .collect();
                match self.compact_qp.submit_batch(&reqs) {
                    Ok(ts) => {
                        for (i, ticket) in ts.iter().enumerate() {
                            tickets.insert(ticket.0, next + i);
                        }
                        next += chunk;
                        chunk = tables.len() - next;
                    }
                    Err(SubmitError::QueueFull { .. }) => chunk /= 2,
                }
            }
            comps.clear();
            if self.compact_qp.poll_completions(&mut comps) == 0 && !tickets.is_empty() {
                std::thread::yield_now();
            }
            for c in comps.drain(..) {
                let Some(idx) = tickets.remove(&c.ticket.0) else {
                    continue;
                };
                match c.result {
                    Ok(buf) => results[idx] = Some(SsTable::parse_all(&buf, tables[idx].entries)),
                    Err(e) => {
                        // Finish reaping what is in flight, then fail.
                        first_err.get_or_insert(e.into());
                        next = tables.len();
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every submitted read resolved"))
            .collect())
    }

    /// Number of runs per level (diagnostics).
    pub fn level_shape(&self) -> Vec<usize> {
        self.state.read().levels.iter().map(|l| l.len()).collect()
    }

    /// In-memory footprint (memtable payload).
    pub fn memtable_bytes(&self) -> usize {
        self.state.read().memtable.approx_bytes()
    }

    /// Structural audit: walks every SSTable and checks the invariants the
    /// read path silently relies on. Returns a summary on success and the
    /// first violation found otherwise. O(total table bytes) — a test/debug
    /// tool, not a production call.
    ///
    /// Checked invariants:
    /// * the level vector has exactly `max_levels` levels;
    /// * every table's entries are strictly ascending, match its recorded
    ///   `first_key`/`last_key` fences and entry count, and every stored key
    ///   passes the table's own bloom filter (a false *negative* would make
    ///   the read path skip live data);
    /// * L1+ levels are sorted by first key and non-overlapping (the
    ///   `partition_point` lookup depends on both);
    /// * `seg_tables` refcounts equal a fresh recount of live tables per
    ///   segment (drift would trim segments still holding live tables, or
    ///   leak dead ones forever).
    pub fn audit(&self) -> Result<LsmAuditReport, String> {
        let state = self.state.read();
        if state.levels.len() != self.config.max_levels {
            return Err(format!(
                "level vector has {} levels, config says {}",
                state.levels.len(),
                self.config.max_levels
            ));
        }
        let mut report = LsmAuditReport::default();
        let mut seg_recount: HashMap<SegmentId, usize> = HashMap::new();
        for (li, level) in state.levels.iter().enumerate() {
            for t in level {
                report.tables += 1;
                *seg_recount.entry(t.segment()).or_insert(0) += 1;
                let all = t
                    .read_all(&self.device)
                    .map_err(|e| format!("L{li} table {}: read failed: {e}", t.id))?;
                if all.len() != t.entries {
                    return Err(format!(
                        "L{li} table {}: {} entries read, header says {}",
                        t.id,
                        all.len(),
                        t.entries
                    ));
                }
                let (Some(first), Some(last)) = (all.first(), all.last()) else {
                    return Err(format!("L{li} table {}: empty", t.id));
                };
                if first.0 != t.first_key || last.0 != t.last_key {
                    return Err(format!(
                        "L{li} table {}: fence keys disagree with contents",
                        t.id
                    ));
                }
                for w in all.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(format!(
                            "L{li} table {}: keys not strictly ascending at {:?}",
                            t.id, w[1].0
                        ));
                    }
                }
                for (k, v) in &all {
                    if !t.bloom_may_contain(k) {
                        return Err(format!(
                            "L{li} table {}: bloom filter rejects stored key {k:?}",
                            t.id
                        ));
                    }
                    report.entries += 1;
                    if matches!(v, TableValue::Tombstone) {
                        report.tombstones += 1;
                    }
                }
            }
            if li >= 1 {
                for w in level.windows(2) {
                    if w[0].first_key > w[1].first_key {
                        return Err(format!("L{li}: runs not sorted by first key"));
                    }
                    if w[0].last_key >= w[1].first_key {
                        return Err(format!(
                            "L{li}: runs overlap ({:?} .. {:?} vs {:?} ..)",
                            w[0].first_key, w[0].last_key, w[1].first_key
                        ));
                    }
                }
            }
        }
        if seg_recount != state.seg_tables {
            return Err(format!(
                "segment refcounts diverge: recounted {} segments, tracked {}",
                seg_recount.len(),
                state.seg_tables.len()
            ));
        }
        report.memtable_entries = state.memtable.len();
        Ok(report)
    }
}

/// Summary returned by a passing [`LsmTree::audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmAuditReport {
    /// Live SSTables across all levels.
    pub tables: usize,
    /// Entries stored in those tables (including tombstones).
    pub entries: usize,
    /// Tombstones among them.
    pub tombstones: usize,
    /// Entries currently in the memtable.
    pub memtable_entries: usize,
}

impl std::fmt::Debug for LsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmTree")
            .field("levels", &self.level_shape())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_flashsim::DeviceConfig;

    fn test_tree() -> LsmTree {
        let device = Arc::new(FlashDevice::new(DeviceConfig {
            segment_count: 1024,
            ..DeviceConfig::small_test()
        }));
        LsmTree::new(
            device,
            LsmConfig {
                memtable_bytes: 2 << 10,
                level_base_bytes: 8 << 10,
                table_target_bytes: 4 << 10,
                ..LsmConfig::default()
            },
        )
    }

    fn kv(i: u32) -> (Bytes, Bytes) {
        (
            Bytes::from(format!("key{i:06}")),
            Bytes::from(format!("value-{i}")),
        )
    }

    #[test]
    fn put_get_through_memtable() {
        let t = test_tree();
        t.put(Bytes::from("a"), Bytes::from("1")).unwrap();
        assert_eq!(t.get(b"a").unwrap(), Some(Bytes::from("1")));
        assert_eq!(t.get(b"b").unwrap(), None);
        assert_eq!(t.stats().memtable_hits, 1);
    }

    #[test]
    fn survives_flush_and_compaction() {
        let t = test_tree();
        let n = 5000u32;
        for i in 0..n {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        let s = t.stats();
        assert!(s.flushes > 2, "flushes {}", s.flushes);
        assert!(s.compactions > 0, "compactions {}", s.compactions);
        for i in (0..n).step_by(53) {
            let (k, v) = kv(i);
            assert_eq!(t.get(&k).unwrap(), Some(v), "key {i}");
        }
    }

    #[test]
    fn overwrites_take_latest_across_levels() {
        let t = test_tree();
        for round in 0..5u32 {
            for i in 0..500u32 {
                t.put(kv(i).0, Bytes::from(format!("r{round}-{i}")))
                    .unwrap();
            }
            t.flush().unwrap();
        }
        for i in (0..500u32).step_by(17) {
            assert_eq!(
                t.get(&kv(i).0).unwrap(),
                Some(Bytes::from(format!("r4-{i}"))),
                "key {i}"
            );
        }
    }

    #[test]
    fn deletes_shadow_older_levels() {
        let t = test_tree();
        for i in 0..1000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        t.flush().unwrap();
        for i in (0..1000u32).step_by(2) {
            t.delete(kv(i).0).unwrap();
        }
        t.flush().unwrap();
        for i in 0..1000u32 {
            let got = t.get(&kv(i).0).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None, "key {i} should be deleted");
            } else {
                assert_eq!(got, Some(kv(i).1), "key {i} should live");
            }
        }
    }

    #[test]
    fn blind_updates_do_no_reads() {
        let t = test_tree();
        for i in 0..2000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        t.flush().unwrap();
        let reads_before = t.device().stats().reads;
        let compactions_before = t.stats().compactions;
        // Blind overwrites of flushed keys: no device READS except those
        // caused by compaction merging.
        for i in 0..100u32 {
            t.put(kv(i).0, Bytes::from("new")).unwrap();
        }
        if t.stats().compactions == compactions_before {
            assert_eq!(
                t.device().stats().reads,
                reads_before,
                "blind updates must not read"
            );
        }
    }

    #[test]
    fn write_amplification_is_tracked() {
        let t = test_tree();
        for i in 0..4000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        let wa = t.write_amplification();
        assert!(wa > 1.0, "write amp {wa} should exceed 1 after compactions");
        assert!(wa < 50.0, "write amp {wa} implausible");
    }

    #[test]
    fn scan_merges_all_components() {
        let t = test_tree();
        for i in 0..300u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        t.flush().unwrap();
        t.put(kv(5).0, Bytes::from("fresh")).unwrap();
        t.delete(kv(6).0).unwrap();
        let got = t.scan(&kv(0).0, Some(&kv(10).0)).unwrap();
        assert_eq!(got.len(), 9, "10 keys minus 1 deleted");
        assert_eq!(got[5].1, Bytes::from("fresh"));
        assert!(got.iter().all(|(k, _)| k != &kv(6).0));
        // Full scan covers everything.
        let all = t.scan(b"", None).unwrap();
        assert_eq!(all.len(), 299);
    }

    #[test]
    fn scan_limited_matches_full_scan_prefix() {
        let t = test_tree();
        for i in 0..3000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        // Tombstone a band right after the start point to force shadowing.
        for i in 100..160u32 {
            t.delete(kv(i).0).unwrap();
        }
        t.flush().unwrap();
        let limited = t.scan_limited(&kv(50).0, 200).unwrap();
        let full = t.scan(&kv(50).0, None).unwrap();
        assert_eq!(limited.len(), 200);
        assert_eq!(&limited[..], &full[..200], "prefix mismatch");
        // Exhaustion case: limit exceeds remaining records.
        let tail = t.scan_limited(&kv(2990).0, 500).unwrap();
        assert_eq!(tail.len(), 10);
    }

    #[test]
    fn scan_limited_empty_and_past_end() {
        let t = test_tree();
        assert!(t.scan_limited(b"", 10).unwrap().is_empty());
        for i in 0..50u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        assert!(t.scan_limited(b"zzzz", 10).unwrap().is_empty());
        assert_eq!(t.scan_limited(b"", 10).unwrap().len(), 10);
    }

    #[test]
    fn segments_reclaimed_after_compaction() {
        let device = Arc::new(FlashDevice::new(DeviceConfig {
            segment_bytes: 8 << 10,
            segment_count: 512,
            ..DeviceConfig::small_test()
        }));
        let t = LsmTree::new(
            device,
            LsmConfig {
                memtable_bytes: 2 << 10,
                level_base_bytes: 8 << 10,
                table_target_bytes: 4 << 10,
                ..LsmConfig::default()
            },
        );
        for i in 0..20_000u32 {
            t.put(kv(i % 2000).0, Bytes::from(format!("v{i}"))).unwrap();
        }
        assert!(
            t.stats().segments_reclaimed > 0,
            "dead segments should be trimmed"
        );
    }

    #[test]
    fn level_shape_is_leveled() {
        let t = test_tree();
        for i in 0..10_000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        let shape = t.level_shape();
        assert!(
            shape[0] < t.config.l0_compaction_trigger,
            "L0 over trigger: {shape:?}"
        );
        assert!(
            shape.iter().skip(1).any(|&n| n > 0),
            "no deep levels: {shape:?}"
        );
    }

    #[test]
    fn audit_passes_through_flush_and_compaction() {
        let t = test_tree();
        t.audit().unwrap();
        for i in 0..5000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        for i in (0..5000u32).step_by(3) {
            t.delete(kv(i).0).unwrap();
        }
        t.flush().unwrap();
        let report = t.audit().unwrap();
        assert!(report.tables > 0, "flushed data should live in tables");
        assert!(report.entries > 0);
        assert!(t.stats().compactions > 0, "scenario should compact");
    }

    #[test]
    fn async_get_matches_sync_across_levels() {
        let t = test_tree();
        for i in 0..3000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        for i in (0..3000u32).step_by(7) {
            t.delete(kv(i).0).unwrap();
        }
        t.flush().unwrap();
        // Submit a window of reads, then poll them all to completion and
        // compare with the blocking path.
        let mut expected = HashMap::new();
        let mut pending = HashMap::new();
        for i in (0..3000u32).step_by(111) {
            let (k, _) = kv(i);
            match t.get_submit(&k).unwrap() {
                LsmGet::Ready(v) => {
                    assert_eq!(v, t.get(&k).unwrap(), "key {i} (ready)");
                }
                LsmGet::Pending(token) => {
                    expected.insert(token, t.get(&k).unwrap());
                    pending.insert(token, i);
                }
            }
        }
        assert!(!pending.is_empty(), "flushed keys should need I/O");
        let mut out = Vec::new();
        t.drain_gets(&mut out);
        assert_eq!(out.len(), pending.len());
        for f in out {
            let i = pending[&f.token];
            assert_eq!(f.result.unwrap(), expected[&f.token], "key {i}");
        }
        assert_eq!(t.gets_inflight(), 0);
    }

    #[test]
    fn async_get_tombstone_shadows_older_level() {
        let t = test_tree();
        for i in 0..500u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        t.flush().unwrap();
        t.delete(kv(42).0).unwrap();
        t.flush().unwrap();
        let mut out = Vec::new();
        match t.get_submit(&kv(42).0).unwrap() {
            LsmGet::Ready(v) => assert_eq!(v, None),
            LsmGet::Pending(token) => {
                t.drain_gets(&mut out);
                let f = out.iter().find(|f| f.token == token).expect("completed");
                assert_eq!(f.result.clone().unwrap(), None, "tombstone must win");
            }
        }
    }

    #[test]
    fn speculative_reads_raise_io_depth() {
        let t = test_tree();
        for i in 0..4000u32 {
            let (k, v) = kv(i);
            t.put(k, v).unwrap();
        }
        t.flush().unwrap();
        let mut tokens = 0;
        for i in (0..4000u32).step_by(301) {
            if let LsmGet::Pending(_) = t.get_submit(&kv(i).0).unwrap() {
                tokens += 1;
            }
        }
        let mut out = Vec::new();
        t.drain_gets(&mut out);
        assert_eq!(out.len(), tokens);
        // Several block reads per submit window were in flight at once.
        assert!(
            t.device().stats().io_depth.max > 1,
            "speculative submits should overlap I/O: {:?}",
            t.device().stats().io_depth.max
        );
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let t = Arc::new(test_tree());
        let mut handles = Vec::new();
        for tid in 0..4u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u32 {
                    let id = tid * 2000 + i;
                    t.put(
                        Bytes::from(format!("c{id:07}")),
                        Bytes::from(format!("v{id}")),
                    )
                    .unwrap();
                }
            }));
        }
        for tid in 0..2u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u32 {
                    let _ = t.get(format!("c{:07}", i * 3 + tid).as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for id in (0..8000u32).step_by(97) {
            assert_eq!(
                t.get(format!("c{id:07}").as_bytes()).unwrap(),
                Some(Bytes::from(format!("v{id}"))),
                "key {id}"
            );
        }
    }
}
