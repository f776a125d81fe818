//! The recovery log, whose buffers double as the updated-record cache.
//!
//! Redo records are appended to in-memory log buffers; [`RecoveryLog::flush`]
//! marks a prefix durable (writing it to the flash device as one large
//! append — log-structuring again), but the buffers are *retained in
//! memory* (§6.3): together with the MVCC hash table they form the TC's
//! updated-record cache.

use bytes::Bytes;
use dcs_flashsim::{fnv64, FlashAddress, FlashDevice};
use parking_lot::Mutex;
use std::sync::Arc;

/// Frame magic: `b"TCLG"`.
const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"TCLG");
/// Frame header: magic (4) + batch sequence (8) + payload length (4) +
/// payload checksum (8).
const FRAME_HEADER: usize = 4 + 8 + 4 + 8;

/// One redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Committing transaction's timestamp.
    pub ts: u64,
    /// Record key.
    pub key: Bytes,
    /// New value; `None` = delete.
    pub value: Option<Bytes>,
}

impl LogRecord {
    fn serialized_len(&self) -> usize {
        8 + 4 + self.key.len() + 1 + 4 + self.value.as_ref().map(|v| v.len()).unwrap_or(0)
    }

    fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ts.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.key);
        match &self.value {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }

    /// Parse one record from `buf[*pos..]`, advancing `pos`. `None` on any
    /// truncation (recovery treats it as a torn payload).
    fn deserialize_from(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let ts = u64::from_le_bytes(take(pos, 8)?.try_into().ok()?);
        let klen = u32::from_le_bytes(take(pos, 4)?.try_into().ok()?) as usize;
        let key = Bytes::copy_from_slice(take(pos, klen)?);
        let tag = take(pos, 1)?[0];
        let value = match tag {
            0 => None,
            1 => {
                let vlen = u32::from_le_bytes(take(pos, 4)?.try_into().ok()?) as usize;
                Some(Bytes::copy_from_slice(take(pos, vlen)?))
            }
            _ => return None,
        };
        Some(LogRecord { ts, key, value })
    }
}

struct LogInner {
    /// All records, in append order. Flushed records stay resident.
    records: Vec<LogRecord>,
    /// Records up to this index are durable.
    durable_upto: usize,
    /// Records up to this index have been written to the device (possibly
    /// without a barrier); always ≥ `durable_upto` on a device-backed log.
    appended_upto: usize,
    /// Sequence number of the next frame written to the device.
    next_batch_seq: u64,
    bytes: usize,
}

/// The in-memory recovery log with an optional flash device for
/// durability.
pub struct RecoveryLog {
    inner: Mutex<LogInner>,
    device: Option<Arc<FlashDevice>>,
}

impl RecoveryLog {
    fn empty_inner() -> LogInner {
        LogInner {
            records: Vec::new(),
            durable_upto: 0,
            appended_upto: 0,
            next_batch_seq: 0,
            bytes: 0,
        }
    }

    /// A log kept only in memory (tests / volatile mode).
    pub fn in_memory() -> Self {
        RecoveryLog {
            inner: Mutex::new(Self::empty_inner()),
            device: None,
        }
    }

    /// A log that flushes to `device`.
    pub fn on_device(device: Arc<FlashDevice>) -> Self {
        RecoveryLog {
            inner: Mutex::new(Self::empty_inner()),
            device: Some(device),
        }
    }

    /// Append a group of records (one transaction's writes) atomically.
    /// Returns the log sequence number of the last record.
    pub fn append_group(&self, records: &[LogRecord]) -> u64 {
        let mut inner = self.inner.lock();
        for r in records {
            inner.bytes += r.serialized_len();
            inner.records.push(r.clone());
        }
        inner.records.len() as u64 - 1
    }

    /// Write the not-yet-appended records to the device as framed batches
    /// (each: magic, batch sequence, length, checksum, payload) and issue a
    /// durability barrier. After `Ok`, everything appended — including by
    /// earlier [`RecoveryLog::flush_nobarrier`] calls — is durable and will
    /// be returned by [`RecoveryLog::recover_from_device`]. Records stay
    /// resident in memory (§6.3: the log doubles as the updated-record
    /// cache). No-op for in-memory logs.
    pub fn flush(&self) -> Result<(), dcs_flashsim::DeviceError> {
        let mut inner = self.inner.lock();
        if let Some(device) = &self.device {
            let _span = dcs_telemetry::span("tc.wal_flush", dcs_telemetry::CostClass::Wal);
            dcs_telemetry::ledger().wal_barrier();
            Self::append_frames(device, &mut inner)?;
            // The barrier makes every appended frame durable at once.
            device.sync();
        }
        inner.appended_upto = inner.records.len();
        inner.durable_upto = inner.records.len();
        Ok(())
    }

    /// Group commit: append a whole batch of redo records (many requests'
    /// writes gathered by a caller such as a server shard) and make the log
    /// durable with **one** device barrier. Returns the log sequence number
    /// of the last record, or `None` for an empty batch (which still
    /// flushes any earlier un-flushed appends — a drain-time barrier).
    ///
    /// This is the serving layer's WAL entry point: acknowledging the batch
    /// only after `commit_batch` returns gives every acked write the same
    /// durability as [`RecoveryLog::flush`] at 1/batch-size the barriers.
    pub fn commit_batch(
        &self,
        records: &[LogRecord],
    ) -> Result<Option<u64>, dcs_flashsim::DeviceError> {
        let mut inner = self.inner.lock();
        let lsn = if records.is_empty() {
            None
        } else {
            for r in records {
                inner.bytes += r.serialized_len();
                inner.records.push(r.clone());
            }
            Some(inner.records.len() as u64 - 1)
        };
        if let Some(device) = &self.device {
            // One barrier covers the whole batch — that amortization is
            // exactly what the WAL cost term measures.
            let _span = dcs_telemetry::span("tc.group_commit", dcs_telemetry::CostClass::Wal);
            dcs_telemetry::ledger().wal_barrier();
            Self::append_frames(device, &mut inner)?;
            device.sync();
        }
        inner.appended_upto = inner.records.len();
        inner.durable_upto = inner.records.len();
        Ok(lsn)
    }

    /// Write the not-yet-appended records to the device **without a
    /// durability barrier**: the data is queued at the device but not
    /// acknowledged, so a crash may persist any prefix of it (or none).
    /// `undurable()` therefore does not shrink — only [`RecoveryLog::flush`]
    /// acknowledges durability. Models a buffered write racing a power cut
    /// in the crash-consistency tests.
    pub fn flush_nobarrier(&self) -> Result<(), dcs_flashsim::DeviceError> {
        let mut inner = self.inner.lock();
        if let Some(device) = &self.device {
            Self::append_frames(device, &mut inner)?;
            inner.appended_upto = inner.records.len();
        }
        Ok(())
    }

    /// Frame and append `records[appended_upto..]`. Batches split at record
    /// boundaries so every frame (header + payload) fits one device segment.
    fn append_frames(
        device: &FlashDevice,
        inner: &mut LogInner,
    ) -> Result<(), dcs_flashsim::DeviceError> {
        let max_payload = device.config().segment_bytes - FRAME_HEADER;
        let mut start = inner.appended_upto;
        while start < inner.records.len() {
            let mut payload = Vec::new();
            let mut end = start;
            while end < inner.records.len() {
                let r = &inner.records[end];
                assert!(
                    r.serialized_len() <= max_payload,
                    "log record larger than a device segment"
                );
                if payload.len() + r.serialized_len() > max_payload {
                    break;
                }
                r.serialize_into(&mut payload);
                end += 1;
            }
            let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
            frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
            frame.extend_from_slice(&inner.next_batch_seq.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&fnv64(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            device.append(&frame)?;
            inner.next_batch_seq += 1;
            start = end;
        }
        Ok(())
    }

    /// Scan a (dedicated) log device and return every durably framed record
    /// in original append order. Each segment is read frame by frame,
    /// stopping at the first torn, corrupt, or foreign frame — exactly what
    /// a power cut mid-write leaves behind; batches are then ordered by
    /// their sequence number (frames may land in any segment order) and
    /// deduplicated, so records never acknowledged by a barrier either
    /// appear as a consistent prefix of their batch stream or not at all.
    pub fn recover_from_device(device: &FlashDevice) -> Vec<LogRecord> {
        let mut batches: Vec<(u64, Vec<LogRecord>)> = Vec::new();
        for segment in 0..device.config().segment_count as dcs_flashsim::SegmentId {
            let mut offset = 0u32;
            loop {
                let addr = FlashAddress { segment, offset };
                let Ok(header) = device.read(addr, FRAME_HEADER) else {
                    break; // end of written extent (or unused segment)
                };
                let magic = u32::from_le_bytes(header[0..4].try_into().expect("4"));
                if magic != FRAME_MAGIC {
                    break; // foreign or zeroed bytes: stop trusting this segment
                }
                let seq = u64::from_le_bytes(header[4..12].try_into().expect("8"));
                let len = u32::from_le_bytes(header[12..16].try_into().expect("4")) as usize;
                let crc = u64::from_le_bytes(header[16..24].try_into().expect("8"));
                let payload_addr = FlashAddress {
                    segment,
                    offset: offset + FRAME_HEADER as u32,
                };
                let Ok(payload) = device.read(payload_addr, len) else {
                    break; // torn frame: header persisted, payload did not
                };
                if fnv64(&payload) != crc {
                    break; // corrupt payload
                }
                let mut records = Vec::new();
                let mut pos = 0usize;
                while pos < payload.len() {
                    match LogRecord::deserialize_from(&payload, &mut pos) {
                        Some(r) => records.push(r),
                        None => break,
                    }
                }
                batches.push((seq, records));
                offset += (FRAME_HEADER + len) as u32;
            }
        }
        batches.sort_by_key(|(seq, _)| *seq);
        batches.dedup_by_key(|(seq, _)| *seq);
        batches.into_iter().flat_map(|(_, rs)| rs).collect()
    }

    /// Look up the newest logged value for `key` visible at `read_ts`.
    ///
    /// This is the record-cache read path: a hit avoids the DC entirely.
    pub fn lookup(&self, key: &[u8], read_ts: u64) -> Option<Option<Bytes>> {
        let inner = self.inner.lock();
        inner
            .records
            .iter()
            .rev()
            .find(|r| r.key.as_ref() == key && r.ts <= read_ts)
            .map(|r| r.value.clone())
    }

    /// All records at or after timestamp `from_ts`, for redo replay.
    pub fn records_from(&self, from_ts: u64) -> Vec<LogRecord> {
        let inner = self.inner.lock();
        inner
            .records
            .iter()
            .filter(|r| r.ts >= from_ts)
            .cloned()
            .collect()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records not yet durable.
    pub fn undurable(&self) -> usize {
        let inner = self.inner.lock();
        inner.records.len() - inner.durable_upto
    }

    /// Approximate bytes of retained log buffers.
    pub fn approx_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Discard records older than `horizon` that are durable (cache
    /// trimming; durability is preserved because they were flushed).
    pub fn trim_below(&self, horizon: u64) {
        let mut inner = self.inner.lock();
        let durable = inner.durable_upto;
        let appended = inner.appended_upto;
        let mut kept = Vec::new();
        let mut kept_bytes = 0usize;
        let mut new_durable = 0usize;
        let mut new_appended = 0usize;
        for (i, r) in inner.records.iter().enumerate() {
            if r.ts >= horizon || i >= durable {
                kept_bytes += r.serialized_len();
                if i < durable {
                    new_durable += 1;
                }
                if i < appended {
                    new_appended += 1;
                }
                kept.push(r.clone());
            }
        }
        inner.records = kept;
        inner.durable_upto = new_durable;
        inner.appended_upto = new_appended;
        inner.bytes = kept_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_flashsim::DeviceConfig;

    fn rec(ts: u64, key: &str, value: Option<&str>) -> LogRecord {
        LogRecord {
            ts,
            key: Bytes::from(key.to_owned()),
            value: value.map(|v| Bytes::from(v.to_owned())),
        }
    }

    #[test]
    fn append_and_lookup() {
        let log = RecoveryLog::in_memory();
        log.append_group(&[rec(10, "k", Some("v10"))]);
        log.append_group(&[rec(20, "k", Some("v20")), rec(20, "j", None)]);
        assert_eq!(log.lookup(b"k", 15), Some(Some(Bytes::from("v10"))));
        assert_eq!(log.lookup(b"k", 25), Some(Some(Bytes::from("v20"))));
        assert_eq!(log.lookup(b"j", 25), Some(None));
        assert_eq!(log.lookup(b"x", 100), None);
        assert_eq!(
            log.lookup(b"k", 5),
            None,
            "nothing visible before first write"
        );
    }

    #[test]
    fn flush_marks_durable_and_retains() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        log.append_group(&[rec(1, "a", Some("1")), rec(1, "b", Some("2"))]);
        assert_eq!(log.undurable(), 2);
        log.flush().unwrap();
        assert_eq!(log.undurable(), 0);
        assert_eq!(device.stats().writes, 1, "one large append");
        // Retained in memory: lookups still hit.
        assert_eq!(log.lookup(b"a", 10), Some(Some(Bytes::from("1"))));
        // Idempotent flush.
        log.flush().unwrap();
        assert_eq!(device.stats().writes, 1);
    }

    #[test]
    fn commit_batch_is_one_barrier_and_durable() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        let batch: Vec<LogRecord> = (0..10)
            .map(|i| rec(i, &format!("k{i}"), Some("v")))
            .collect();
        let syncs_before = device.stats().syncs;
        let lsn = log.commit_batch(&batch).unwrap();
        assert_eq!(lsn, Some(9));
        assert_eq!(device.stats().syncs, syncs_before + 1, "one barrier");
        assert_eq!(log.undurable(), 0);
        assert_eq!(RecoveryLog::recover_from_device(&device), batch);
        // Empty batch: still a barrier for earlier un-flushed appends.
        log.append_group(&[rec(99, "tail", Some("t"))]);
        assert_eq!(log.commit_batch(&[]).unwrap(), None);
        assert_eq!(log.undurable(), 0);
        assert_eq!(RecoveryLog::recover_from_device(&device).len(), 11);
    }

    #[test]
    fn records_from_filters_by_ts() {
        let log = RecoveryLog::in_memory();
        log.append_group(&[rec(10, "a", Some("1"))]);
        log.append_group(&[rec(20, "b", Some("2"))]);
        log.append_group(&[rec(30, "c", Some("3"))]);
        let replay = log.records_from(20);
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].ts, 20);
    }

    #[test]
    fn trim_keeps_recent_and_undurable() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device);
        log.append_group(&[rec(10, "old", Some("x"))]);
        log.append_group(&[rec(20, "mid", Some("y"))]);
        log.flush().unwrap();
        log.append_group(&[rec(30, "new", Some("z"))]); // not durable
        log.trim_below(15);
        assert_eq!(log.len(), 2);
        assert_eq!(log.lookup(b"old", 100), None, "trimmed from cache");
        assert_eq!(log.lookup(b"mid", 100), Some(Some(Bytes::from("y"))));
        assert_eq!(log.lookup(b"new", 100), Some(Some(Bytes::from("z"))));
        assert_eq!(log.undurable(), 1);
    }

    #[test]
    fn recovery_returns_flushed_records_in_order() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        log.append_group(&[rec(1, "a", Some("1")), rec(1, "b", Some("2"))]);
        log.flush().unwrap();
        log.append_group(&[rec(2, "a", None)]);
        log.flush().unwrap();
        let recovered = RecoveryLog::recover_from_device(&device);
        assert_eq!(
            recovered,
            vec![
                rec(1, "a", Some("1")),
                rec(1, "b", Some("2")),
                rec(2, "a", None)
            ]
        );
    }

    #[test]
    fn recovery_ignores_unacknowledged_torn_tail() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        log.append_group(&[rec(1, "acked", Some("v"))]);
        log.flush().unwrap();
        log.append_group(&[rec(2, "inflight", Some("w"))]);
        log.flush_nobarrier().unwrap();
        assert_eq!(log.undurable(), 1, "nobarrier must not acknowledge");
        // Power cut persists only 5 bytes of the in-flight frame: not even
        // a whole header survives.
        device.crash_torn(5);
        let recovered = RecoveryLog::recover_from_device(&device);
        assert_eq!(recovered, vec![rec(1, "acked", Some("v"))]);
    }

    #[test]
    fn recovery_drops_frame_with_torn_payload() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        log.append_group(&[rec(1, "acked", Some("v"))]);
        log.flush().unwrap();
        log.append_group(&[rec(2, "inflight", Some("wwwwwwwwwwwwwwww"))]);
        log.flush_nobarrier().unwrap();
        // The header persists but the payload is cut short.
        device.crash_torn(FRAME_HEADER + 3);
        let recovered = RecoveryLog::recover_from_device(&device);
        assert_eq!(recovered, vec![rec(1, "acked", Some("v"))]);
    }

    #[test]
    fn large_flush_splits_frames_at_record_boundaries() {
        let device = Arc::new(FlashDevice::new(DeviceConfig {
            segment_bytes: 256,
            ..DeviceConfig::small_test()
        }));
        let log = RecoveryLog::on_device(device.clone());
        let big = "x".repeat(100);
        let group: Vec<LogRecord> = (0..6)
            .map(|i| rec(i, &format!("k{i}"), Some(&big)))
            .collect();
        log.append_group(&group);
        log.flush().unwrap();
        assert!(device.stats().writes > 1, "must have split into frames");
        assert_eq!(RecoveryLog::recover_from_device(&device), group);
    }

    #[test]
    fn bytes_accounting_tracks_trim() {
        let log = RecoveryLog::in_memory();
        log.append_group(&[rec(10, "key", Some("a-long-value-here"))]);
        let b1 = log.approx_bytes();
        assert!(b1 > 20);
        log.trim_below(100);
        // Undurable records are kept by trim (in-memory log never flushes).
        assert_eq!(log.approx_bytes(), b1);
    }
}
