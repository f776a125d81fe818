//! The log-structured store.

use crate::codec::Codec;
use crate::sync::{AtomicU64 as SyncAtomicU64, Mutex};
use dcs_bwtree::{PageId, PageImage, PageStore, StoreError};
use dcs_flashsim::{
    fnv64, DeviceError, FlashAddress, FlashDevice, IoQueuePair, IoRequest, SegmentId, SubmitError,
};
use std::collections::HashMap;
// Stats stay on plain std atomics even in instrumented builds: monotonic
// counters admit no interleaving worth exploring (same convention as
// dcs-bwtree's stats). The `Ordering` type is shared — the check shims
// re-export std's.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame magic ("LLMA").
const FRAME_MAGIC: u32 = 0x4C4C_4D41;
/// Frame header: magic(4) lsn(8) pid(8) prev(8) len(4) crc(8).
const FRAME_HEADER: usize = 4 + 8 + 8 + 8 + 4 + 8;
/// `prev` encoding of "no previous part".
const NO_PREV: u64 = u64::MAX;

/// Shadow-heap tag for a part LSN. Tokens are logical, not pointers, so the
/// instrumented build tracks their retire lifecycle through the same shadow
/// heap the EBR hooks use, keyed by a synthetic "address" with bit 63 set —
/// user-space heap addresses never have it, so token slots can't collide
/// with real allocations tracked by `dcs-ebr`.
#[cfg(feature = "check")]
fn shadow_token(lsn: u64) -> *const u8 {
    (((1u64 << 63) | lsn) as usize) as *const u8
}

/// Shadow event: a part was created (written into the buffer or recovered).
fn token_alloc(lsn: u64) {
    #[cfg(feature = "check")]
    dcs_check::shadow::on_alloc(shadow_token(lsn));
    #[cfg(not(feature = "check"))]
    let _ = lsn;
}

/// Shadow event: a part was superseded (retired; readable until GC).
fn token_retire(lsn: u64) {
    #[cfg(feature = "check")]
    dcs_check::shadow::on_retire(shadow_token(lsn));
    #[cfg(not(feature = "check"))]
    let _ = lsn;
}

/// Shadow event: GC dropped a dead part from the offset table.
fn token_free(lsn: u64) {
    #[cfg(feature = "check")]
    dcs_check::shadow::on_free(shadow_token(lsn));
    #[cfg(not(feature = "check"))]
    let _ = lsn;
}

/// Shadow event: a part's payload was read through its token.
fn token_access(lsn: u64) {
    #[cfg(feature = "check")]
    dcs_check::shadow::on_access(shadow_token(lsn));
    #[cfg(not(feature = "check"))]
    let _ = lsn;
}

/// Configuration of the log-structured store.
#[derive(Debug, Clone)]
pub struct LssConfig {
    /// Flush the write buffer once it holds this many bytes. Must not
    /// exceed the device segment size.
    pub flush_buffer_bytes: usize,
    /// GC-eligibility: collect a segment when its live fraction falls below
    /// this threshold.
    pub gc_live_fraction: f64,
    /// Payload compression (§7.2: trade CPU for storage on cold data).
    pub codec: Codec,
    /// Maximum incremental parts per page chain: a delta write that would
    /// exceed this is *rolled up* — the store folds the chain and writes a
    /// full image instead, superseding the history so GC can reclaim it.
    pub max_flush_chain: u32,
}

impl Default for LssConfig {
    fn default() -> Self {
        LssConfig {
            flush_buffer_bytes: 32 << 10,
            gc_live_fraction: 0.5,
            codec: Codec::None,
            max_flush_chain: 4,
        }
    }
}

/// Where a page part's bytes currently are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// Still in the write buffer, at this offset.
    Buffer(usize),
    /// On flash; `addr` points at the frame header.
    Flash(FlashAddress),
}

#[derive(Debug, Clone)]
struct PartMeta {
    pid: PageId,
    prev: Option<u64>,
    /// Serialized image length (payload only).
    len: u32,
    loc: Location,
    /// LSN of the write that superseded this part (a newer full image or a
    /// tombstone), if any. Superseded parts remain readable until their
    /// segment is collected — and remain *GC-live* until the superseder is
    /// durable, or a crash could erase the only durable copy.
    superseded_by: Option<u64>,
    /// Number of parts in this part's chain (1 for a base image).
    chain_len: u32,
}

impl PartMeta {
    /// Whether GC must preserve this part: not superseded, or superseded
    /// only by writes that have not reached a durability barrier yet.
    fn gc_live(&self, synced_watermark: u64) -> bool {
        match self.superseded_by {
            None => true,
            Some(s) => s >= synced_watermark,
        }
    }
}

#[derive(Default)]
struct SegmentInfo {
    live_bytes: usize,
    total_bytes: usize,
}

struct Inner {
    buffer: Vec<u8>,
    /// LSNs whose bytes are in the buffer, in buffer order.
    buffered: Vec<u64>,
    parts: HashMap<u64, PartMeta>,
    /// Live (not superseded) part LSNs per page, oldest first.
    per_pid: HashMap<PageId, Vec<u64>>,
    segments: HashMap<SegmentId, SegmentInfo>,
    /// All LSNs below this are durable (set by `sync`).
    synced_watermark: u64,
}

/// Counters for the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LssStats {
    /// Page parts accepted.
    pub parts_written: u64,
    /// Payload bytes accepted (what a fixed-block store would round up).
    pub payload_bytes: u64,
    /// Payload bytes actually stored after compression.
    pub stored_bytes: u64,
    /// Flush buffers written to the device.
    pub buffers_flushed: u64,
    /// Parts served from the write buffer (no device read).
    pub buffer_hits: u64,
    /// Parts read from the device.
    pub flash_reads: u64,
    /// Segments garbage-collected.
    pub segments_collected: u64,
    /// Live parts relocated by GC.
    pub parts_relocated: u64,
    /// Incremental chains folded into full images by the chain-length cap.
    pub rollups: u64,
}

/// Summary returned by a successful [`LogStructuredStore::audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LssAuditReport {
    /// Parts tracked in the offset table (live + superseded-but-retained).
    pub parts: usize,
    /// Parts not superseded by a newer write.
    pub live_parts: usize,
    /// Pages with at least one live part.
    pub pages: usize,
    /// Parts still in the write buffer (not yet flushed).
    pub buffered_parts: usize,
}

#[derive(Default)]
struct StatsInner {
    parts_written: AtomicU64,
    payload_bytes: AtomicU64,
    stored_bytes: AtomicU64,
    buffers_flushed: AtomicU64,
    buffer_hits: AtomicU64,
    flash_reads: AtomicU64,
    segments_collected: AtomicU64,
    parts_relocated: AtomicU64,
    rollups: AtomicU64,
}

/// Outcome of [`LogStructuredStore::fetch_submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum FetchSubmit {
    /// Every part of the chain was buffer-resident: the folded image is
    /// available immediately, no device read was needed.
    Ready(PageImage),
    /// At least one part needs a device read; it has been submitted on the
    /// store's I/O queue pair. The id keys the eventual
    /// [`LogStructuredStore::poll_fetches`] completion.
    Pending(u64),
}

/// One finished asynchronous fetch, reaped by
/// [`LogStructuredStore::poll_fetches`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFetch {
    /// The id [`FetchSubmit::Pending`] carried.
    pub fetch_id: u64,
    /// The folded page image, or the error the blocking
    /// [`PageStore::fetch`] would have returned.
    pub result: Result<PageImage, StoreError>,
}

/// An asynchronous fetch between submit and completion: the chain walk
/// (newest → oldest part) paused at a flash-resident part whose read is in
/// flight on the queue pair.
struct AsyncFetch {
    /// The originally requested token (for error reporting).
    token: u64,
    /// Parts decoded so far, newest first.
    imgs: Vec<PageImage>,
    /// The part whose device read is in flight.
    awaiting: u64,
    /// Its `prev` link, captured at submit (the walk continues there once
    /// the read lands, unless the part turns out to be a base image).
    awaiting_prev: Option<u64>,
}

#[derive(Default)]
struct AsyncFetches {
    next_id: u64,
    pending: HashMap<u64, AsyncFetch>,
}

/// A step of the asynchronous chain walk.
enum WalkStep {
    /// Chain fully decoded; the folded image.
    Done(PageImage),
    /// A device read was submitted; the walk resumes on its completion.
    Submitted {
        awaiting: u64,
        awaiting_prev: Option<u64>,
    },
}

/// Log-structured page store over a flash device. See the crate docs.
pub struct LogStructuredStore {
    device: Arc<FlashDevice>,
    config: LssConfig,
    inner: Mutex<Inner>,
    next_lsn: SyncAtomicU64,
    stats: StatsInner,
    /// SPDK-style queue pair for asynchronous part fetches.
    qp: IoQueuePair,
    fetches: Mutex<AsyncFetches>,
}

impl LogStructuredStore {
    /// Create an empty store over `device`.
    pub fn new(device: Arc<FlashDevice>, config: LssConfig) -> Self {
        assert!(
            config.flush_buffer_bytes <= device.config().segment_bytes,
            "flush buffer must fit in one device segment"
        );
        LogStructuredStore {
            qp: IoQueuePair::new(device.clone()),
            device,
            config,
            inner: Mutex::new(Inner {
                buffer: Vec::new(),
                buffered: Vec::new(),
                parts: HashMap::new(),
                per_pid: HashMap::new(),
                segments: HashMap::new(),
                synced_watermark: 0,
            }),
            next_lsn: SyncAtomicU64::new(0),
            stats: StatsInner::default(),
            fetches: Mutex::new(AsyncFetches::default()),
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<FlashDevice> {
        &self.device
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LssStats {
        LssStats {
            // ORDERING: statistics counters; each is individually exact
            // and the snapshot tolerates a torn cross-field view.
            parts_written: self.stats.parts_written.load(Ordering::Relaxed),
            payload_bytes: self.stats.payload_bytes.load(Ordering::Relaxed),
            stored_bytes: self.stats.stored_bytes.load(Ordering::Relaxed),
            buffers_flushed: self.stats.buffers_flushed.load(Ordering::Relaxed),
            buffer_hits: self.stats.buffer_hits.load(Ordering::Relaxed),
            flash_reads: self.stats.flash_reads.load(Ordering::Relaxed),
            segments_collected: self.stats.segments_collected.load(Ordering::Relaxed),
            parts_relocated: self.stats.parts_relocated.load(Ordering::Relaxed),
            rollups: self.stats.rollups.load(Ordering::Relaxed),
        }
    }

    /// Encode one frame into `out`, returning the frame's start offset.
    fn encode_frame(
        out: &mut Vec<u8>,
        lsn: u64,
        pid: PageId,
        prev: Option<u64>,
        payload: &[u8],
    ) -> usize {
        let offset = out.len();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&lsn.to_le_bytes());
        out.extend_from_slice(&pid.to_le_bytes());
        out.extend_from_slice(&prev.unwrap_or(NO_PREV).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        offset
    }

    /// Append one framed part into the buffer (caller holds the lock).
    fn buffer_part(
        inner: &mut Inner,
        lsn: u64,
        pid: PageId,
        prev: Option<u64>,
        payload: &[u8],
        chain_len: u32,
    ) {
        let offset = Self::encode_frame(&mut inner.buffer, lsn, pid, prev, payload);
        token_alloc(lsn);
        inner.buffered.push(lsn);
        inner.parts.insert(
            lsn,
            PartMeta {
                pid,
                prev,
                len: payload.len() as u32,
                loc: Location::Buffer(offset),
                superseded_by: None,
                chain_len,
            },
        );
    }

    /// Write the buffer to the device in one append (caller holds the lock).
    fn flush_buffer_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if inner.buffer.is_empty() {
            return Ok(());
        }
        let _span = dcs_telemetry::span("llama.flush_buffer", dcs_telemetry::CostClass::SsWrite);
        // Take the buffer only once it is on flash: a failed append must
        // leave every `Location::Buffer` offset pointing at its bytes.
        let addr = self.device.append(&inner.buffer).map_err(device_err)?;
        let blob = std::mem::take(&mut inner.buffer);
        // ORDERING: statistics counter only; store state is guarded
        // by the inner mutex held here.
        self.stats.buffers_flushed.fetch_add(1, Ordering::Relaxed);
        let seg = inner.segments.entry(addr.segment).or_default();
        seg.total_bytes += blob.len();
        // Re-point every buffered part at its flash location.
        for lsn in std::mem::take(&mut inner.buffered) {
            let meta = inner.parts.get_mut(&lsn).expect("buffered part exists");
            let Location::Buffer(off) = meta.loc else {
                unreachable!("buffered part has buffer location")
            };
            meta.loc = Location::Flash(FlashAddress {
                segment: addr.segment,
                offset: addr.offset + off as u32,
            });
            let framed = FRAME_HEADER + meta.len as usize;
            let superseded = meta.superseded_by.is_some();
            let seg = inner.segments.entry(addr.segment).or_default();
            if !superseded {
                seg.live_bytes += framed;
            }
        }
        Ok(())
    }

    /// Point relocated parts at their new, already-durable home and account
    /// the new segment (caller holds the lock).
    fn install_relocated(
        inner: &mut Inner,
        addr: FlashAddress,
        blob: &[u8],
        placed: &[(u64, usize, u32)],
    ) {
        let seg = inner.segments.entry(addr.segment).or_default();
        seg.total_bytes += blob.len();
        seg.live_bytes += blob.len();
        for (lsn, off, _len) in placed {
            if let Some(meta) = inner.parts.get_mut(lsn) {
                meta.loc = Location::Flash(FlashAddress {
                    segment: addr.segment,
                    offset: addr.offset + *off as u32,
                });
            }
        }
    }

    /// Force any buffered parts onto the device.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        self.flush_buffer_locked(&mut inner)
    }

    /// Flush and issue a durability barrier on the device. After `sync`
    /// returns, every previously written part survives a crash.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.flush()?;
        self.device.sync();
        let mut inner = self.inner.lock();
        inner.synced_watermark = self.next_lsn.load(Ordering::SeqCst);
        Ok(())
    }

    /// Mark all parts of `pid` older than `new_base_lsn` dead (a full image
    /// supersedes the page's entire history). Caller holds the lock.
    fn supersede_pid(inner: &mut Inner, pid: PageId, new_base_lsn: u64) {
        if let Some(lsns) = inner.per_pid.get_mut(&pid) {
            for lsn in lsns.drain(..) {
                if lsn == new_base_lsn {
                    continue;
                }
                if let Some(meta) = inner.parts.get_mut(&lsn) {
                    if meta.superseded_by.is_none() {
                        meta.superseded_by = Some(new_base_lsn);
                        token_retire(lsn);
                        if let Location::Flash(addr) = meta.loc {
                            if let Some(seg) = inner.segments.get_mut(&addr.segment) {
                                seg.live_bytes = seg
                                    .live_bytes
                                    .saturating_sub(FRAME_HEADER + meta.len as usize);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Read one part's payload (device or buffer).
    fn read_part(&self, inner: &Inner, lsn: u64) -> Result<(PartMeta, Vec<u8>), StoreError> {
        let meta = inner
            .parts
            .get(&lsn)
            .ok_or(StoreError::UnknownToken(lsn))?
            .clone();
        token_access(lsn);
        let payload = match meta.loc {
            Location::Buffer(off) => {
                // ORDERING: statistics counter only.
                self.stats.buffer_hits.fetch_add(1, Ordering::Relaxed);
                let start = off + FRAME_HEADER;
                inner.buffer[start..start + meta.len as usize].to_vec()
            }
            Location::Flash(addr) => {
                // ORDERING: statistics counter only.
                self.stats.flash_reads.fetch_add(1, Ordering::Relaxed);
                let payload_addr = FlashAddress {
                    segment: addr.segment,
                    offset: addr.offset + FRAME_HEADER as u32,
                };
                self.device
                    .read(payload_addr, meta.len as usize)
                    .map_err(device_err)?
            }
        };
        Ok((meta, payload))
    }

    /// Garbage-collect at most one segment: the flushed segment with the
    /// lowest live fraction below the configured threshold. Live parts are
    /// relocated to the log tail; the segment is trimmed. Returns the
    /// collected segment, if any.
    pub fn gc_once(&self) -> Result<Option<SegmentId>, StoreError> {
        let mut inner = self.inner.lock();
        // Segments holding any not-yet-durable part are off limits:
        // relocating such a part through the durable GC path would make an
        // unsynced write survive a crash, tearing checkpoint atomicity.
        let watermark = inner.synced_watermark;
        let mut has_unsynced: std::collections::HashSet<SegmentId> =
            std::collections::HashSet::new();
        for (&lsn, m) in inner.parts.iter() {
            if lsn >= watermark {
                if let Location::Flash(a) = m.loc {
                    has_unsynced.insert(a.segment);
                }
            }
        }
        let victim = inner
            .segments
            .iter()
            .filter(|(seg, info)| info.total_bytes > 0 && !has_unsynced.contains(seg))
            .map(|(&seg, info)| (seg, info.live_bytes as f64 / info.total_bytes as f64))
            .filter(|(_, frac)| *frac < self.config.gc_live_fraction)
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("fractions compare"));
        let Some((victim, _)) = victim else {
            return Ok(None);
        };
        let _span = dcs_telemetry::span("llama.gc_segment", dcs_telemetry::CostClass::Maintenance);
        dcs_telemetry::ledger().maintenance_op();
        // Relocate live parts under the same LSNs (tokens are logical, so
        // holders are unaffected). The relocated copies go to the device
        // through an immediately durable append of their own — a global
        // sync here would break checkpoint atomicity by making unrelated
        // buffered parts durable mid-checkpoint.
        let watermark = inner.synced_watermark;
        let live_lsns: Vec<u64> = inner
            .parts
            .iter()
            .filter(|(_, m)| {
                m.gc_live(watermark) && matches!(m.loc, Location::Flash(a) if a.segment == victim)
            })
            .map(|(&lsn, _)| lsn)
            .collect();
        let mut blob = Vec::new();
        let mut placed: Vec<(u64, usize, u32)> = Vec::new(); // (lsn, frame offset, len)
        for lsn in &live_lsns {
            let (meta, payload) = self.read_part(&inner, *lsn)?;
            if blob.len() + FRAME_HEADER + payload.len() > self.config.flush_buffer_bytes {
                let addr = self.device.append_durable(&blob).map_err(device_err)?;
                Self::install_relocated(&mut inner, addr, &blob, &placed);
                blob.clear();
                placed.clear();
            }
            let off = Self::encode_frame(&mut blob, *lsn, meta.pid, meta.prev, &payload);
            placed.push((*lsn, off, payload.len() as u32));
            // ORDERING: statistics counter only; relocation is guarded
            // by the inner mutex held here.
            self.stats.parts_relocated.fetch_add(1, Ordering::Relaxed);
        }
        if !blob.is_empty() {
            let addr = self.device.append_durable(&blob).map_err(device_err)?;
            Self::install_relocated(&mut inner, addr, &blob, &placed);
        }
        // Drop durably-dead parts that lived in the victim segment.
        let dead: Vec<u64> = inner
            .parts
            .iter()
            .filter(|(_, m)| {
                matches!(m.loc, Location::Flash(a) if a.segment == victim) && !m.gc_live(watermark)
            })
            .map(|(&lsn, _)| lsn)
            .collect();
        for lsn in dead {
            inner.parts.remove(&lsn);
            token_free(lsn);
        }
        inner.segments.remove(&victim);
        self.device.trim_segment(victim);
        // ORDERING: statistics counter only; GC state is guarded by
        // the inner mutex held here.
        self.stats
            .segments_collected
            .fetch_add(1, Ordering::Relaxed);
        Ok(Some(victim))
    }

    /// Run GC until no segment is below the threshold. Returns segments
    /// collected.
    pub fn gc_all(&self) -> Result<usize, StoreError> {
        let mut n = 0;
        while self.gc_once()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Live (not superseded) bytes currently resident on flash — the
    /// occupancy the paper's flash-rent term integrates over.
    pub fn live_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner.segments.values().map(|s| s.live_bytes).sum()
    }

    /// Storage utilization: live bytes / total flash bytes in use.
    pub fn utilization(&self) -> f64 {
        let inner = self.inner.lock();
        let (live, total) = inner.segments.values().fold((0usize, 0usize), |(l, t), s| {
            (l + s.live_bytes, t + s.total_bytes)
        });
        if total == 0 {
            1.0
        } else {
            live as f64 / total as f64
        }
    }

    /// The newest durable state of every page, as recovery inputs: PID,
    /// token, and fence/sibling metadata read from the newest part (one
    /// part read per page; record contents stay on flash).
    pub fn newest_page_fences(&self) -> Result<Vec<dcs_bwtree::RecoveredPage>, StoreError> {
        let inner = self.inner.lock();
        let newest: Vec<(PageId, u64)> = inner
            .per_pid
            .iter()
            .filter_map(|(&pid, lsns)| lsns.last().map(|&l| (pid, l)))
            .collect();
        let mut out = Vec::with_capacity(newest.len());
        for (pid, token) in newest {
            let (_, payload) = self.read_part(&inner, token)?;
            let raw = self
                .config
                .codec
                .decode(&payload)
                .map_err(|e| StoreError::Io(format!("corrupt part {token}: {e}")))?;
            let img = PageImage::deserialize(&raw)
                .map_err(|e| StoreError::Io(format!("corrupt part {token}: {e}")))?;
            out.push(dcs_bwtree::RecoveredPage {
                pid,
                token,
                high_key: img.high_key,
                right: img.right,
            });
        }
        Ok(out)
    }

    /// The newest live part LSN for every page — the durable tree state.
    pub fn newest_parts(&self) -> HashMap<PageId, u64> {
        let inner = self.inner.lock();
        inner
            .per_pid
            .iter()
            .filter_map(|(&pid, lsns)| lsns.last().map(|&l| (pid, l)))
            .collect()
    }

    /// Structural audit of the offset tables: every part the store claims to
    /// hold must be backed by a coherent frame at its recorded location, and
    /// the page table / segment accounting must agree with the parts table.
    /// Returns a summary on success and the first violation otherwise.
    /// O(total live bytes) — a test/debug tool, not a production call.
    ///
    /// Checked invariants:
    /// * `synced_watermark ≤ next_lsn`, and every part's LSN is below
    ///   `next_lsn`;
    /// * frame coherence: at each part's recorded buffer offset or flash
    ///   address sits a frame whose magic, LSN, PID, prev pointer, length,
    ///   and payload CRC match the part's metadata (a stale offset table
    ///   here is how a page store silently serves the wrong page);
    /// * the `buffered` list and the set of buffer-located parts agree;
    /// * `per_pid` lists are strictly ascending, reference live
    ///   (non-superseded) parts of the right page, and each listed part's
    ///   `prev` chain resolves within the parts table with consistent
    ///   `chain_len` accounting;
    /// * segment accounting bounds: recounted live frame bytes ≤ recorded
    ///   `live_bytes` ≤ `total_bytes` for every segment (GC relocation keeps
    ///   superseded-but-GC-live parts, so recorded live bytes may exceed the
    ///   strict recount but must never undercount it).
    pub fn audit(&self) -> Result<LssAuditReport, String> {
        let inner = self.inner.lock();
        let next = self.next_lsn.load(Ordering::SeqCst);
        if inner.synced_watermark > next {
            return Err(format!(
                "synced watermark {} beyond next LSN {next}",
                inner.synced_watermark
            ));
        }
        let mut report = LssAuditReport {
            parts: inner.parts.len(),
            ..LssAuditReport::default()
        };
        let mut seg_live_recount: HashMap<SegmentId, usize> = HashMap::new();
        let mut buffer_located = 0usize;
        for (&lsn, meta) in &inner.parts {
            if lsn >= next {
                return Err(format!("part {lsn} at or beyond next LSN {next}"));
            }
            // Frame coherence at the recorded location.
            let (header, payload) = match meta.loc {
                Location::Buffer(off) => {
                    buffer_located += 1;
                    let end = off + FRAME_HEADER + meta.len as usize;
                    if end > inner.buffer.len() {
                        return Err(format!("part {lsn}: buffer offset out of range"));
                    }
                    (
                        inner.buffer[off..off + FRAME_HEADER].to_vec(),
                        inner.buffer[off + FRAME_HEADER..end].to_vec(),
                    )
                }
                Location::Flash(addr) => {
                    if !inner.segments.contains_key(&addr.segment) {
                        return Err(format!(
                            "part {lsn}: lives in untracked segment {}",
                            addr.segment
                        ));
                    }
                    let header = self
                        .device
                        .read(addr, FRAME_HEADER)
                        .map_err(|e| format!("part {lsn}: header read failed: {e}"))?;
                    let payload = self
                        .device
                        .read(
                            FlashAddress {
                                segment: addr.segment,
                                offset: addr.offset + FRAME_HEADER as u32,
                            },
                            meta.len as usize,
                        )
                        .map_err(|e| format!("part {lsn}: payload read failed: {e}"))?;
                    if meta.superseded_by.is_none() {
                        *seg_live_recount.entry(addr.segment).or_insert(0) +=
                            FRAME_HEADER + meta.len as usize;
                    }
                    (header, payload)
                }
            };
            let magic = u32::from_le_bytes(header[0..4].try_into().expect("4"));
            let h_lsn = u64::from_le_bytes(header[4..12].try_into().expect("8"));
            let h_pid = u64::from_le_bytes(header[12..20].try_into().expect("8"));
            let h_prev = u64::from_le_bytes(header[20..28].try_into().expect("8"));
            let h_len = u32::from_le_bytes(header[28..32].try_into().expect("4"));
            let h_crc = u64::from_le_bytes(header[32..40].try_into().expect("8"));
            if magic != FRAME_MAGIC {
                return Err(format!("part {lsn}: bad frame magic at recorded location"));
            }
            if h_lsn != lsn
                || h_pid != meta.pid
                || h_prev != meta.prev.unwrap_or(NO_PREV)
                || h_len != meta.len
            {
                return Err(format!(
                    "part {lsn}: frame header disagrees with offset table \
                     (lsn {h_lsn}, pid {h_pid}, prev {h_prev:#x}, len {h_len})"
                ));
            }
            if fnv64(&payload) != h_crc {
                return Err(format!("part {lsn}: payload CRC mismatch"));
            }
            if meta.superseded_by.is_none() {
                report.live_parts += 1;
            }
        }
        if buffer_located != inner.buffered.len() {
            return Err(format!(
                "{buffer_located} parts claim buffer locations but {} are listed as buffered",
                inner.buffered.len()
            ));
        }
        for &lsn in &inner.buffered {
            match inner.parts.get(&lsn) {
                Some(m) if matches!(m.loc, Location::Buffer(_)) => {}
                Some(_) => return Err(format!("buffered part {lsn} has a flash location")),
                None => return Err(format!("buffered part {lsn} missing from parts table")),
            }
        }
        report.buffered_parts = inner.buffered.len();
        // Page table coherence.
        report.pages = inner.per_pid.len();
        for (&pid, lsns) in &inner.per_pid {
            if lsns.is_empty() {
                return Err(format!("page {pid}: empty live-part list"));
            }
            for w in lsns.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("page {pid}: live parts not strictly ascending"));
                }
            }
            for &lsn in lsns {
                let Some(meta) = inner.parts.get(&lsn) else {
                    return Err(format!("page {pid}: listed part {lsn} missing"));
                };
                if meta.pid != pid {
                    return Err(format!(
                        "page {pid}: listed part {lsn} belongs to page {}",
                        meta.pid
                    ));
                }
                if meta.superseded_by.is_some() {
                    return Err(format!("page {pid}: listed part {lsn} is superseded"));
                }
                if let Some(prev) = meta.prev {
                    let Some(prev_meta) = inner.parts.get(&prev) else {
                        return Err(format!(
                            "page {pid}: part {lsn} chains to missing part {prev}"
                        ));
                    };
                    if prev_meta.pid != pid {
                        return Err(format!(
                            "page {pid}: part {lsn} chains into page {}",
                            prev_meta.pid
                        ));
                    }
                    if meta.chain_len != prev_meta.chain_len + 1 {
                        return Err(format!(
                            "page {pid}: part {lsn} chain length {} vs prev {}",
                            meta.chain_len, prev_meta.chain_len
                        ));
                    }
                }
            }
        }
        // Segment accounting bounds.
        for (&seg, info) in &inner.segments {
            let recount = seg_live_recount.get(&seg).copied().unwrap_or(0);
            if info.live_bytes > info.total_bytes {
                return Err(format!(
                    "segment {seg}: live bytes {} exceed total {}",
                    info.live_bytes, info.total_bytes
                ));
            }
            if recount > info.live_bytes {
                return Err(format!(
                    "segment {seg}: {recount} live frame bytes recounted, only {} recorded",
                    info.live_bytes
                ));
            }
        }
        Ok(report)
    }

    /// Order-independent digest of the store's *logical* state: parts table
    /// (without physical locations), page table, watermark, and next LSN.
    /// Two stores recovered from the same device bytes must produce equal
    /// fingerprints — recovery idempotence.
    pub fn fingerprint(&self) -> u64 {
        let inner = self.inner.lock();
        let mut buf = Vec::new();
        let mut lsns: Vec<u64> = inner.parts.keys().copied().collect();
        lsns.sort_unstable();
        for lsn in lsns {
            let m = &inner.parts[&lsn];
            buf.extend_from_slice(&lsn.to_le_bytes());
            buf.extend_from_slice(&m.pid.to_le_bytes());
            buf.extend_from_slice(&m.prev.unwrap_or(NO_PREV).to_le_bytes());
            buf.extend_from_slice(&m.len.to_le_bytes());
            buf.extend_from_slice(&m.superseded_by.unwrap_or(NO_PREV).to_le_bytes());
            buf.extend_from_slice(&m.chain_len.to_le_bytes());
        }
        let mut pids: Vec<PageId> = inner.per_pid.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            buf.extend_from_slice(&pid.to_le_bytes());
            for lsn in &inner.per_pid[&pid] {
                buf.extend_from_slice(&lsn.to_le_bytes());
            }
        }
        buf.extend_from_slice(&inner.synced_watermark.to_le_bytes());
        buf.extend_from_slice(&self.next_lsn.load(Ordering::SeqCst).to_le_bytes());
        fnv64(&buf)
    }

    /// Rebuild a store's tables by scanning a device (crash recovery).
    ///
    /// Stops scanning a segment at the first torn or corrupt frame. Parts
    /// are replayed in LSN order so supersession is reconstructed exactly.
    pub fn recover_from_device(
        device: Arc<FlashDevice>,
        config: LssConfig,
    ) -> Result<Self, StoreError> {
        #[derive(Clone)]
        struct Scanned {
            lsn: u64,
            pid: PageId,
            prev: Option<u64>,
            len: u32,
            addr: FlashAddress,
            is_delta: bool,
        }
        let mut found: Vec<Scanned> = Vec::new();
        let seg_count = device.config().segment_count;
        for seg in 0..seg_count as SegmentId {
            let written = device.segment_written(seg);
            let mut off = 0usize;
            while off + FRAME_HEADER <= written {
                let addr = FlashAddress {
                    segment: seg,
                    offset: off as u32,
                };
                let header = device.read(addr, FRAME_HEADER).map_err(device_err)?;
                let magic = u32::from_le_bytes(header[0..4].try_into().expect("4"));
                if magic != FRAME_MAGIC {
                    break; // torn tail or free space
                }
                let lsn = u64::from_le_bytes(header[4..12].try_into().expect("8"));
                let pid = u64::from_le_bytes(header[12..20].try_into().expect("8"));
                let prev_raw = u64::from_le_bytes(header[20..28].try_into().expect("8"));
                let len = u32::from_le_bytes(header[28..32].try_into().expect("4"));
                let crc = u64::from_le_bytes(header[32..40].try_into().expect("8"));
                if off + FRAME_HEADER + len as usize > written {
                    break; // torn payload
                }
                let payload_addr = FlashAddress {
                    segment: seg,
                    offset: (off + FRAME_HEADER) as u32,
                };
                let payload = device
                    .read(payload_addr, len as usize)
                    .map_err(device_err)?;
                if fnv64(&payload) != crc {
                    break; // corrupt frame: stop at torn tail
                }
                let is_tombstone = len == 0;
                let is_delta = if is_tombstone {
                    false
                } else {
                    let raw = config
                        .codec
                        .decode(&payload)
                        .map_err(|e| StoreError::Io(format!("corrupt part {lsn}: {e}")))?;
                    raw.first().copied() == Some(1)
                };
                found.push(Scanned {
                    lsn,
                    pid,
                    prev: if prev_raw == NO_PREV {
                        None
                    } else {
                        Some(prev_raw)
                    },
                    len,
                    addr,
                    is_delta,
                });
                off += FRAME_HEADER + len as usize;
            }
        }
        found.sort_by_key(|s| s.lsn);
        let next_lsn = found.last().map(|s| s.lsn + 1).unwrap_or(0);

        let store = LogStructuredStore::new(device, config);
        {
            let mut inner = store.inner.lock();
            for s in &found {
                if s.len == 0 {
                    // Tombstone: the page was retired at this LSN.
                    Self::supersede_pid(&mut inner, s.pid, s.lsn);
                    inner.per_pid.remove(&s.pid);
                    let framed = FRAME_HEADER;
                    let seg = inner.segments.entry(s.addr.segment).or_default();
                    seg.total_bytes += framed;
                    continue;
                }
                let chain_len = s
                    .prev
                    .and_then(|p| inner.parts.get(&p).map(|m| m.chain_len))
                    .unwrap_or(0)
                    + 1;
                token_alloc(s.lsn);
                inner.parts.insert(
                    s.lsn,
                    PartMeta {
                        pid: s.pid,
                        prev: s.prev,
                        len: s.len,
                        loc: Location::Flash(s.addr),
                        superseded_by: None,
                        chain_len,
                    },
                );
                let framed = FRAME_HEADER + s.len as usize;
                let seg = inner.segments.entry(s.addr.segment).or_default();
                seg.total_bytes += framed;
                seg.live_bytes += framed;
                if !s.is_delta {
                    Self::supersede_pid(&mut inner, s.pid, s.lsn);
                }
                inner.per_pid.entry(s.pid).or_default().push(s.lsn);
            }
        }
        store.next_lsn.store(next_lsn, Ordering::SeqCst);
        // Everything recovered from the device is, by construction, durable.
        store.inner.lock().synced_watermark = next_lsn;
        Ok(store)
    }
}

impl LogStructuredStore {
    /// Decode one part's payload into a page image.
    fn decode_part(&self, lsn: u64, payload: &[u8]) -> Result<PageImage, StoreError> {
        let raw = self
            .config
            .codec
            .decode(payload)
            .map_err(|e| StoreError::Io(format!("corrupt compressed part {lsn}: {e}")))?;
        PageImage::deserialize(&raw).map_err(|e| StoreError::Io(format!("corrupt part {lsn}: {e}")))
    }

    /// Fold a fully decoded chain (newest first) into one image.
    fn fold_parts(token: u64, mut imgs: Vec<PageImage>) -> Result<PageImage, StoreError> {
        let mut base = imgs.pop().ok_or(StoreError::UnknownToken(token))?;
        if base.is_delta {
            return Err(StoreError::Io(format!(
                "part chain for token {token} has no base"
            )));
        }
        for delta in imgs.into_iter().rev() {
            base.apply_delta(&delta);
        }
        Ok(base)
    }

    /// Materialize the full image for `token` (caller holds the lock).
    fn fetch_locked(&self, inner: &Inner, token: u64) -> Result<PageImage, StoreError> {
        // Walk the part chain newest → oldest, then fold oldest-up.
        let _span = dcs_telemetry::span("llama.fetch", dcs_telemetry::CostClass::SsRead);
        let mut imgs: Vec<PageImage> = Vec::new();
        let mut cur = Some(token);
        while let Some(lsn) = cur {
            let (meta, payload) = self.read_part(inner, lsn)?;
            let img = self.decode_part(lsn, &payload)?;
            let is_base = !img.is_delta;
            imgs.push(img);
            cur = if is_base { None } else { meta.prev };
        }
        Self::fold_parts(token, imgs)
    }

    // ------------------------------------------------------------------
    // Asynchronous fetch: submit / poll over the store's queue pair
    // ------------------------------------------------------------------

    /// Begin fetching the full image for `token` without blocking on the
    /// device: buffer-resident parts decode inline, the first flash-resident
    /// part's read is submitted on the store's [`IoQueuePair`] and the chain
    /// walk resumes per completion in [`LogStructuredStore::poll_fetches`].
    ///
    /// Errors detectable at submit (unknown token, corrupt buffered part)
    /// surface immediately; I/O errors arrive with the completion. When the
    /// submission queue is momentarily full the read degrades to a blocking
    /// one — correctness never depends on a free slot.
    pub fn fetch_submit(&self, token: u64) -> Result<FetchSubmit, StoreError> {
        let fetch_id = {
            let mut f = self.fetches.lock();
            let id = f.next_id;
            f.next_id += 1;
            id
        };
        let mut imgs = Vec::new();
        match self.walk_fetch(fetch_id, token, Some(token), &mut imgs)? {
            WalkStep::Done(img) => Ok(FetchSubmit::Ready(img)),
            WalkStep::Submitted {
                awaiting,
                awaiting_prev,
            } => {
                self.fetches.lock().pending.insert(
                    fetch_id,
                    AsyncFetch {
                        token,
                        imgs,
                        awaiting,
                        awaiting_prev,
                    },
                );
                Ok(FetchSubmit::Pending(fetch_id))
            }
        }
    }

    /// Advance the chain walk from `cur`, decoding buffer parts inline and
    /// stopping at the first part that needs a device read.
    fn walk_fetch(
        &self,
        fetch_id: u64,
        token: u64,
        mut cur: Option<u64>,
        imgs: &mut Vec<PageImage>,
    ) -> Result<WalkStep, StoreError> {
        while let Some(lsn) = cur {
            // Copy meta (and a buffered payload) out under the table lock;
            // device I/O happens outside it.
            let (meta, buffered_payload) = {
                let inner = self.inner.lock();
                let meta = inner
                    .parts
                    .get(&lsn)
                    .ok_or(StoreError::UnknownToken(lsn))?
                    .clone();
                token_access(lsn);
                let payload = match meta.loc {
                    Location::Buffer(off) => {
                        // ORDERING: statistics counter only.
                        self.stats.buffer_hits.fetch_add(1, Ordering::Relaxed);
                        let start = off + FRAME_HEADER;
                        Some(inner.buffer[start..start + meta.len as usize].to_vec())
                    }
                    Location::Flash(_) => None,
                };
                (meta, payload)
            };
            let payload = match buffered_payload {
                Some(p) => p,
                None => {
                    let Location::Flash(addr) = meta.loc else {
                        unreachable!("non-buffer part is on flash")
                    };
                    let payload_addr = FlashAddress {
                        segment: addr.segment,
                        offset: addr.offset + FRAME_HEADER as u32,
                    };
                    // ORDERING: statistics counter only.
                    self.stats.flash_reads.fetch_add(1, Ordering::Relaxed);
                    match self.qp.submit(IoRequest {
                        addr: payload_addr,
                        len: meta.len as usize,
                        tag: fetch_id,
                    }) {
                        Ok(_) => {
                            return Ok(WalkStep::Submitted {
                                awaiting: lsn,
                                awaiting_prev: meta.prev,
                            })
                        }
                        Err(SubmitError::QueueFull { .. }) => {
                            // Bounded-queue degradation: read synchronously.
                            // A stall by design, so it is exempt from the
                            // caller's non-blocking scope: a served shard
                            // with more misses parked than the queue holds
                            // waits here (ROADMAP item 1).
                            let _stall = dcs_syncshim::block::exempt();
                            self.device
                                .read(payload_addr, meta.len as usize)
                                .map_err(device_err)?
                        }
                    }
                }
            };
            let img = self.decode_part(lsn, &payload)?;
            let is_base = !img.is_delta;
            imgs.push(img);
            cur = if is_base { None } else { meta.prev };
        }
        Ok(WalkStep::Done(Self::fold_parts(
            token,
            std::mem::take(imgs),
        )?))
    }

    /// Reap completed device reads and advance their chain walks. Fetches
    /// whose final part landed are pushed into `out`; multi-part chains may
    /// submit their next read instead and stay pending. Returns how many
    /// fetches finished. Non-blocking.
    pub fn poll_fetches(&self, out: &mut Vec<CompletedFetch>) -> usize {
        let mut comps = Vec::new();
        self.qp.poll_completions(&mut comps);
        let mut finished = 0;
        for c in comps {
            let fetch_id = c.tag;
            let Some(mut st) = self.fetches.lock().pending.remove(&fetch_id) else {
                debug_assert!(false, "completion for unknown fetch {fetch_id}");
                continue;
            };
            let step = c.result.map_err(device_err).and_then(|payload| {
                let img = self.decode_part(st.awaiting, &payload)?;
                let is_base = !img.is_delta;
                st.imgs.push(img);
                let cur = if is_base { None } else { st.awaiting_prev };
                self.walk_fetch(fetch_id, st.token, cur, &mut st.imgs)
            });
            match step {
                Ok(WalkStep::Done(img)) => {
                    finished += 1;
                    out.push(CompletedFetch {
                        fetch_id,
                        result: Ok(img),
                    });
                }
                Ok(WalkStep::Submitted {
                    awaiting,
                    awaiting_prev,
                }) => {
                    st.awaiting = awaiting;
                    st.awaiting_prev = awaiting_prev;
                    self.fetches.lock().pending.insert(fetch_id, st);
                }
                Err(e) => {
                    finished += 1;
                    out.push(CompletedFetch {
                        fetch_id,
                        result: Err(e),
                    });
                }
            }
        }
        finished
    }

    /// Fetches submitted but not yet completed.
    pub fn fetches_inflight(&self) -> usize {
        self.fetches.lock().pending.len()
    }

    /// Block (sleeping out any wall-clock device latency) until every
    /// in-flight fetch has completed, reaping them into `out`. Shutdown
    /// paths use this so no parked request is ever abandoned.
    pub fn drain_fetches(&self, out: &mut Vec<CompletedFetch>) {
        while self.fetches_inflight() > 0 {
            if self.poll_fetches(out) > 0 {
                continue;
            }
            // Nothing wall-ready yet: yield rather than spin hot.
            std::thread::yield_now();
        }
    }
}

impl PageStore for LogStructuredStore {
    fn write(&self, pid: PageId, image: &PageImage, prev: Option<u64>) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        // Roll up over-long incremental chains: fold the durable chain with
        // this delta and write a full image, so the history becomes dead
        // (collectable) and fetch cost stays bounded.
        let mut rolled: Option<PageImage> = None;
        if image.is_delta {
            if let Some(prev_lsn) = prev {
                let chain_len = inner.parts.get(&prev_lsn).map(|m| m.chain_len).unwrap_or(0);
                if chain_len >= self.config.max_flush_chain {
                    let mut full = {
                        // A flush on a serving thread stalls on this read:
                        // a stall by design, exempt from the caller's
                        // non-blocking scope (ROADMAP item 1).
                        let _stall = dcs_syncshim::block::exempt();
                        self.fetch_locked(&inner, prev_lsn)?
                    };
                    full.apply_delta(image);
                    // ORDERING: statistics counter only.
                    self.stats.rollups.fetch_add(1, Ordering::Relaxed);
                    rolled = Some(full);
                }
            }
        }
        let (image, prev) = match &rolled {
            Some(full) => (full, None),
            None => (image, prev),
        };
        let raw = image.serialize();
        let payload = self.config.codec.encode(&raw);
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        // ORDERING: statistics counters only; part visibility is
        // carried by the inner mutex held here, lsn uniqueness by the
        // SeqCst fetch_add above.
        self.stats.parts_written.fetch_add(1, Ordering::Relaxed);
        // ORDERING: as above.
        self.stats
            .payload_bytes
            .fetch_add(raw.len() as u64, Ordering::Relaxed);
        // ORDERING: as above.
        self.stats
            .stored_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if inner.buffer.len() + FRAME_HEADER + payload.len() > self.config.flush_buffer_bytes {
            self.flush_buffer_locked(&mut inner)?;
        }
        let chain_len = match prev {
            Some(p) => inner.parts.get(&p).map(|m| m.chain_len).unwrap_or(0) + 1,
            None => 1,
        };
        Self::buffer_part(&mut inner, lsn, pid, prev, &payload, chain_len);
        if !image.is_delta {
            Self::supersede_pid(&mut inner, pid, lsn);
        }
        inner.per_pid.entry(pid).or_default().push(lsn);
        Ok(lsn)
    }

    fn fetch(&self, _pid: PageId, token: u64) -> Result<PageImage, StoreError> {
        let inner = self.inner.lock();
        self.fetch_locked(&inner, token)
    }

    fn fetch_to_heal(&self, pid: PageId, token: u64) -> Result<PageImage, StoreError> {
        // A write on a serving thread stalls on this read: a stall by
        // design, exempt from the caller's non-blocking scope (ROADMAP
        // item 1).
        let _stall = dcs_syncshim::block::exempt();
        self.fetch(pid, token)
    }

    fn retire_page(&self, pid: PageId) -> Result<(), StoreError> {
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock();
        // Durable tombstone: a zero-length part. Recovery treats it as
        // "this page ceased to exist at this LSN".
        if inner.buffer.len() + FRAME_HEADER > self.config.flush_buffer_bytes {
            self.flush_buffer_locked(&mut inner)?;
        }
        Self::buffer_part(&mut inner, lsn, pid, None, &[], 1);
        // Everything the page ever wrote — including the tombstone part
        // itself — is dead.
        Self::supersede_pid(&mut inner, pid, lsn);
        if let Some(meta) = inner.parts.get_mut(&lsn) {
            meta.superseded_by = Some(lsn);
            token_retire(lsn);
        }
        inner.per_pid.remove(&pid);
        Ok(())
    }
}

fn device_err(e: DeviceError) -> StoreError {
    match e {
        DeviceError::Full => StoreError::Full,
        other => StoreError::Io(other.to_string()),
    }
}

impl std::fmt::Debug for LogStructuredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStructuredStore")
            .field("stats", &self.stats())
            .field("utilization", &self.utilization())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dcs_bwtree::DeltaOp;
    use dcs_flashsim::DeviceConfig;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_owned())
    }

    fn test_store() -> LogStructuredStore {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        LogStructuredStore::new(device, LssConfig::default())
    }

    fn base_img(pairs: &[(&str, &str)]) -> PageImage {
        PageImage::base(
            pairs.iter().map(|(k, v)| (b(k), b(v))).collect(),
            None,
            None,
        )
    }

    #[test]
    fn write_fetch_roundtrip_via_buffer() {
        let s = test_store();
        let img = base_img(&[("a", "1"), ("b", "2")]);
        let t = s.write(1, &img, None).unwrap();
        assert_eq!(s.fetch(1, t).unwrap(), img);
        // Served from the buffer: no device read yet.
        assert_eq!(s.stats().buffer_hits, 1);
        assert_eq!(s.stats().flash_reads, 0);
    }

    #[test]
    fn write_fetch_roundtrip_via_flash() {
        let s = test_store();
        let img = base_img(&[("k", "v")]);
        let t = s.write(1, &img, None).unwrap();
        s.flush().unwrap();
        assert_eq!(s.fetch(1, t).unwrap(), img);
        assert_eq!(s.stats().flash_reads, 1);
        assert_eq!(s.stats().buffers_flushed, 1);
    }

    #[test]
    fn many_parts_one_device_write() {
        let s = test_store();
        for pid in 0..50u64 {
            s.write(pid, &base_img(&[("key", "value")]), None).unwrap();
        }
        s.flush().unwrap();
        // Log-structuring: 50 page writes became one device append.
        assert_eq!(s.device().stats().writes, 1);
        assert_eq!(s.stats().parts_written, 50);
    }

    #[test]
    fn incremental_chain_folds_on_fetch() {
        let s = test_store();
        let t0 = s
            .write(1, &base_img(&[("a", "1"), ("b", "2")]), None)
            .unwrap();
        let d = PageImage::delta(vec![DeltaOp::Put(b("c"), b("3"))], None, None);
        let t1 = s.write(1, &d, Some(t0)).unwrap();
        s.flush().unwrap();
        let img = s.fetch(1, t1).unwrap();
        assert_eq!(img.entries.len(), 3);
        // Two parts ⇒ two flash reads (the I/O cost of delta chains).
        assert_eq!(s.stats().flash_reads, 2);
    }

    #[test]
    fn fetch_submit_ready_from_buffer() {
        let s = test_store();
        let img = base_img(&[("a", "1")]);
        let t = s.write(1, &img, None).unwrap();
        // Not yet flushed: the async path resolves without any device read.
        match s.fetch_submit(t).unwrap() {
            FetchSubmit::Ready(got) => assert_eq!(got, img),
            FetchSubmit::Pending(_) => panic!("buffered part must be ready"),
        }
        assert_eq!(s.device().stats().reads, 0);
        assert_eq!(s.fetches_inflight(), 0);
    }

    #[test]
    fn fetch_submit_poll_multi_part_chain() {
        let s = test_store();
        let t0 = s
            .write(1, &base_img(&[("a", "1"), ("b", "2")]), None)
            .unwrap();
        let d = PageImage::delta(vec![DeltaOp::Put(b("c"), b("3"))], None, None);
        let t1 = s.write(1, &d, Some(t0)).unwrap();
        s.flush().unwrap();
        let FetchSubmit::Pending(id) = s.fetch_submit(t1).unwrap() else {
            panic!("flash-resident chain must go async");
        };
        assert_eq!(s.fetches_inflight(), 1);
        let mut out = Vec::new();
        // Two parts ⇒ the first completion resubmits for the base; drain
        // until the fold lands.
        s.drain_fetches(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fetch_id, id);
        let img = out[0].result.as_ref().unwrap();
        assert_eq!(img.entries.len(), 3);
        // Same I/O accounting as the blocking path.
        assert_eq!(s.stats().flash_reads, 2);
        assert_eq!(s.device().stats().reads, 2);
        // And the folded image matches the blocking fetch.
        assert_eq!(*img, s.fetch(1, t1).unwrap());
    }

    #[test]
    fn concurrent_fetches_share_the_queue_pair() {
        let s = test_store();
        let mut tokens = Vec::new();
        for pid in 0..4u64 {
            let img = base_img(&[("k", &format!("value-{pid}"))]);
            tokens.push((pid, s.write(pid, &img, None).unwrap()));
        }
        s.flush().unwrap();
        let mut ids = Vec::new();
        for (_, t) in &tokens {
            match s.fetch_submit(*t).unwrap() {
                FetchSubmit::Pending(id) => ids.push(id),
                FetchSubmit::Ready(_) => panic!("flushed parts must go async"),
            }
        }
        assert_eq!(s.fetches_inflight(), 4);
        // All four reads were concurrently in flight on the device.
        assert_eq!(s.device().stats().io_depth.max, 4);
        let mut out = Vec::new();
        s.drain_fetches(&mut out);
        assert_eq!(out.len(), 4);
        for c in &out {
            assert!(c.result.is_ok());
        }
    }

    #[test]
    fn base_write_supersedes_history() {
        let s = test_store();
        let t0 = s.write(1, &base_img(&[("a", "old")]), None).unwrap();
        s.flush().unwrap();
        let _t1 = s.write(1, &base_img(&[("a", "new")]), None).unwrap();
        s.flush().unwrap();
        // Old part is dead but still readable until GC trims its segment.
        assert!(s.fetch(1, t0).is_ok());
        let newest = s.newest_parts();
        assert_ne!(newest[&1], t0);
    }

    #[test]
    fn gc_relocates_live_parts_and_preserves_tokens() {
        let device = Arc::new(FlashDevice::new(DeviceConfig {
            segment_bytes: 4 << 10,
            segment_count: 16,
            ..DeviceConfig::small_test()
        }));
        let s = LogStructuredStore::new(
            device,
            LssConfig {
                flush_buffer_bytes: 4 << 10,
                gc_live_fraction: 0.9,
                codec: Codec::None,
                max_flush_chain: 4,
            },
        );
        // Interleave two pids so segments end up partly dead.
        let live_img = base_img(&[("live-key", "live-value-xxxxxxxxxxxxxxxxxxx")]);
        let live_token = s.write(1, &live_img, None).unwrap();
        for i in 0..200u64 {
            // Repeated full rewrites of pid 2 leave dead parts everywhere.
            let img = base_img(&[("churn", &format!("v{i}-{}", "y".repeat(64)))]);
            s.write(2, &img, None).unwrap();
        }
        // GC only touches durable segments (unsynced parts must not be
        // durably relocated), so establish a barrier first.
        s.sync().unwrap();
        let collected = s.gc_all().unwrap();
        assert!(collected > 0, "GC should collect churned segments");
        // The live token survives relocation.
        assert_eq!(s.fetch(1, live_token).unwrap(), live_img);
        assert!(s.stats().parts_relocated > 0);
        // Utilization improves after GC.
        assert!(s.utilization() > 0.5, "utilization {}", s.utilization());
    }

    #[test]
    fn recovery_rebuilds_tables() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let tokens: Vec<u64>;
        {
            let s = LogStructuredStore::new(device.clone(), LssConfig::default());
            let t0 = s.write(1, &base_img(&[("a", "1")]), None).unwrap();
            let t1 = s
                .write(
                    1,
                    &PageImage::delta(vec![DeltaOp::Put(b("b"), b("2"))], None, None),
                    Some(t0),
                )
                .unwrap();
            let t2 = s.write(7, &base_img(&[("x", "y")]), None).unwrap();
            s.sync().unwrap();
            tokens = vec![t0, t1, t2];
        }
        let s2 = LogStructuredStore::recover_from_device(device, LssConfig::default()).unwrap();
        let img = s2.fetch(1, tokens[1]).unwrap();
        assert_eq!(img.entries, vec![(b("a"), b("1")), (b("b"), b("2"))]);
        assert_eq!(
            s2.fetch(7, tokens[2]).unwrap().entries,
            vec![(b("x"), b("y"))]
        );
        let newest = s2.newest_parts();
        assert_eq!(newest[&1], tokens[1]);
        // New writes continue with fresh LSNs.
        let t3 = s2.write(9, &base_img(&[("z", "9")]), None).unwrap();
        assert!(t3 > tokens[2]);
    }

    #[test]
    fn crash_discards_unsynced_parts() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        {
            let s = LogStructuredStore::new(device.clone(), LssConfig::default());
            s.write(1, &base_img(&[("durable", "1")]), None).unwrap();
            s.sync().unwrap();
            s.write(2, &base_img(&[("volatile", "2")]), None).unwrap();
            s.flush().unwrap(); // written but not synced
        }
        device.crash();
        let s2 = LogStructuredStore::recover_from_device(device, LssConfig::default()).unwrap();
        let newest = s2.newest_parts();
        assert!(newest.contains_key(&1), "synced page must survive");
        assert!(!newest.contains_key(&2), "unsynced page must be lost");
    }

    #[test]
    fn unknown_token_is_reported() {
        let s = test_store();
        assert_eq!(s.fetch(1, 999), Err(StoreError::UnknownToken(999)));
    }

    #[test]
    fn oversized_buffer_config_rejected() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let seg = device.config().segment_bytes;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LogStructuredStore::new(
                device,
                LssConfig {
                    flush_buffer_bytes: seg + 1,
                    gc_live_fraction: 0.5,
                    codec: Codec::None,
                    max_flush_chain: 4,
                },
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn payload_accounting_tracks_variable_sizes() {
        let s = test_store();
        let small = base_img(&[("k", "v")]);
        let big = base_img(&[("key-large", &"x".repeat(500))]);
        s.write(1, &small, None).unwrap();
        s.write(2, &big, None).unwrap();
        let stats = s.stats();
        assert_eq!(
            stats.payload_bytes,
            (small.serialize().len() + big.serialize().len()) as u64
        );
    }

    #[test]
    fn audit_passes_through_write_flush_gc_and_recovery() {
        let device = Arc::new(FlashDevice::new(DeviceConfig {
            segment_bytes: 4 << 10,
            segment_count: 16,
            ..DeviceConfig::small_test()
        }));
        let s = LogStructuredStore::new(
            device.clone(),
            LssConfig {
                flush_buffer_bytes: 4 << 10,
                gc_live_fraction: 0.9,
                codec: Codec::None,
                max_flush_chain: 4,
            },
        );
        let t0 = s
            .write(1, &base_img(&[("stable", "payload")]), None)
            .unwrap();
        for i in 0..200u64 {
            let img = base_img(&[("churn", &format!("v{i}-{}", "y".repeat(64)))]);
            s.write(2, &img, None).unwrap();
        }
        // While parts still sit in the write buffer.
        let buffered = s.audit().unwrap();
        assert!(buffered.buffered_parts > 0);
        s.sync().unwrap();
        let synced = s.audit().unwrap();
        assert_eq!(synced.buffered_parts, 0);
        assert_eq!(synced.pages, 2);
        assert!(s.gc_all().unwrap() > 0);
        let after_gc = s.audit().unwrap();
        assert_eq!(after_gc.live_parts, 2);
        assert_eq!(s.fetch(1, t0).unwrap(), base_img(&[("stable", "payload")]));
        drop(s);
        let s2 = LogStructuredStore::recover_from_device(
            device,
            LssConfig {
                flush_buffer_bytes: 4 << 10,
                gc_live_fraction: 0.9,
                codec: Codec::None,
                max_flush_chain: 4,
            },
        )
        .unwrap();
        let recovered = s2.audit().unwrap();
        assert_eq!(recovered.pages, 2);
    }

    #[test]
    fn recovery_is_idempotent_by_fingerprint() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        {
            let s = LogStructuredStore::new(device.clone(), LssConfig::default());
            let t0 = s.write(1, &base_img(&[("a", "1")]), None).unwrap();
            s.write(
                1,
                &PageImage::delta(vec![DeltaOp::Put(b("b"), b("2"))], None, None),
                Some(t0),
            )
            .unwrap();
            s.write(7, &base_img(&[("x", "y")]), None).unwrap();
            s.sync().unwrap();
        }
        let r1 =
            LogStructuredStore::recover_from_device(device.clone(), LssConfig::default()).unwrap();
        let r2 = LogStructuredStore::recover_from_device(device, LssConfig::default()).unwrap();
        assert_eq!(r1.fingerprint(), r2.fingerprint());
        assert_eq!(r1.newest_parts(), r2.newest_parts());
        r1.audit().unwrap();
        r2.audit().unwrap();
    }
}
