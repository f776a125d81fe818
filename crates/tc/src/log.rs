//! The recovery log.
//!
//! Redo records are appended to the log; [`RecoveryLog::flush`] (or one
//! group [`RecoveryLog::commit_batch`]) makes them durable by writing them
//! to the flash device as framed appends behind one barrier —
//! log-structuring again. A record leaves memory once a barrier has made it
//! durable on a device: the device already holds it, and nothing on the
//! serving path reads it back. An in-memory log has no other copy, so it
//! keeps its records: together with the MVCC hash table they form the TC's
//! updated-record cache (§6.3), trimmed by [`RecoveryLog::trim_below`].

use bytes::Bytes;
use dcs_flashsim::{fnv64, DeviceError, FlashAddress, FlashDevice};
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

/// Serialized size of a record with a `key_len`-byte key and `value`.
fn encoded_len(key_len: usize, value: Option<&[u8]>) -> usize {
    8 + 4 + key_len + 1 + value.map_or(0, |v| 4 + v.len())
}

impl LogRecord {
    fn serialized_len(&self) -> usize {
        encoded_len(self.key.len(), self.value.as_deref())
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

#[derive(Default)]
struct LogInner {
    /// Records held in memory, in append order: every record of an
    /// in-memory log (until trimmed), only the not-yet-durable tail of a
    /// device log.
    records: Vec<LogRecord>,
    /// Leading `records` that are durable (only an in-memory log keeps
    /// durable records).
    durable_upto: usize,
    /// Leading `records` already framed onto the device without a barrier.
    appended_upto: usize,
    /// Records ever logged: the next record's log sequence number.
    next_lsn: u64,
    /// Sequence number of the next frame written to the device.
    next_batch_seq: u64,
    /// Serialized bytes the log holds, in memory or on its device.
    bytes: usize,
    /// The one frame buffer every device append is built in.
    frame: Vec<u8>,
}

impl LogInner {
    /// Frame and append the records not yet on the device, then `then`,
    /// through the reused `frame` buffer. Batches split at record
    /// boundaries so every frame (header + payload) fits one device
    /// segment; a record that fits no frame fails the call before anything
    /// is appended.
    fn append_frames(
        &mut self,
        device: &FlashDevice,
        then: &[LogRecord],
    ) -> Result<(), DeviceError> {
        let segment_bytes = device.config().segment_bytes;
        let mut records = self.records[self.appended_upto..]
            .iter()
            .chain(then)
            .peekable();
        let frame = &mut self.frame;
        if let Some(r) = records
            .clone()
            .find(|r| FRAME_HEADER + r.serialized_len() > segment_bytes)
        {
            return Err(DeviceError::OversizedAppend {
                requested: FRAME_HEADER + r.serialized_len(),
                segment_bytes,
            });
        }
        while records.peek().is_some() {
            frame.clear();
            frame.resize(FRAME_HEADER, 0);
            while let Some(r) =
                records.next_if(|r| frame.len() + r.serialized_len() <= segment_bytes)
            {
                r.serialize_into(frame);
            }
            let (header, payload) = frame.split_at_mut(FRAME_HEADER);
            header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
            header[4..12].copy_from_slice(&self.next_batch_seq.to_le_bytes());
            header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            header[16..24].copy_from_slice(&fnv64(payload).to_le_bytes());
            device.append(frame)?;
            self.next_batch_seq += 1;
        }
        Ok(())
    }
}

/// The recovery log, kept in memory or made durable on a flash device.
pub struct RecoveryLog {
    inner: Mutex<LogInner>,
    device: Option<Arc<FlashDevice>>,
}

impl RecoveryLog {
    /// A log kept only in memory (tests / volatile mode).
    pub fn in_memory() -> Self {
        RecoveryLog {
            inner: Mutex::default(),
            device: None,
        }
    }

    /// A log that flushes to `device`.
    pub fn on_device(device: Arc<FlashDevice>) -> Self {
        RecoveryLog {
            inner: Mutex::default(),
            device: Some(device),
        }
    }

    /// Count `records` as logged; the LSN of the last, if any.
    fn count(inner: &mut LogInner, records: &[LogRecord]) -> Option<u64> {
        inner.bytes += records.iter().map(LogRecord::serialized_len).sum::<usize>();
        inner.next_lsn += records.len() as u64;
        (!records.is_empty()).then(|| inner.next_lsn - 1)
    }

    /// Append a group of records (one transaction's writes) atomically.
    /// Returns the log sequence number of the last record.
    pub fn append_group(&self, records: &[LogRecord]) -> u64 {
        let mut inner = self.inner.lock();
        inner.records.extend_from_slice(records);
        Self::count(&mut inner, records);
        inner.next_lsn.saturating_sub(1)
    }

    /// Make every appended record durable with one barrier: the records
    /// not yet on the device are framed (each frame: magic, batch sequence,
    /// length, checksum, payload), then the device syncs. After `Ok`,
    /// everything appended — including by earlier
    /// [`RecoveryLog::flush_nobarrier`] calls — will be returned by
    /// [`RecoveryLog::recover_from_device`], and a device log holds none of
    /// it in memory any more. An in-memory log only marks its records
    /// durable.
    pub fn flush(&self) -> Result<(), DeviceError> {
        self.commit(&[], "tc.wal_flush").map(drop)
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
    /// On a device log the batch is framed straight from `records`, so a
    /// commit costs its batch, not the log's history. A batch holding a
    /// record that cannot fit one frame (see [`RecoveryLog::fits`]) fails
    /// with [`DeviceError::OversizedAppend`] and is not logged.
    pub fn commit_batch(&self, records: &[LogRecord]) -> Result<Option<u64>, DeviceError> {
        self.commit(records, "tc.group_commit")
    }

    fn commit(
        &self,
        records: &[LogRecord],
        span: &'static str,
    ) -> Result<Option<u64>, DeviceError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(device) = &self.device else {
            inner.records.extend_from_slice(records);
            inner.durable_upto = inner.records.len();
            inner.appended_upto = inner.records.len();
            return Ok(Self::count(inner, records));
        };
        // One barrier covers the whole batch — that amortization is
        // exactly what the WAL cost term measures.
        let _span = dcs_telemetry::span(span, dcs_telemetry::CostClass::Wal);
        dcs_telemetry::ledger().wal_barrier();
        inner.append_frames(device, records)?;
        device.sync();
        inner.records.clear();
        inner.durable_upto = 0;
        inner.appended_upto = 0;
        Ok(Self::count(inner, records))
    }

    /// Write the not-yet-appended records to the device **without a
    /// durability barrier**: the data is queued at the device but not
    /// acknowledged, so a crash may persist any prefix of it (or none).
    /// `undurable()` therefore does not shrink, and the records stay in
    /// memory — only a barrier acknowledges durability. Models a buffered
    /// write racing a power cut in the crash-consistency tests.
    pub fn flush_nobarrier(&self) -> Result<(), DeviceError> {
        let mut inner = self.inner.lock();
        if let Some(device) = &self.device {
            inner.append_frames(device, &[])?;
            inner.appended_upto = inner.records.len();
        }
        Ok(())
    }

    /// Whether a redo record for `key` → `value` fits one device frame, so
    /// logging it cannot fail as oversized. Always true for an in-memory
    /// log.
    pub fn fits(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        let Some(device) = &self.device else {
            return true;
        };
        FRAME_HEADER + encoded_len(key.len(), value) <= device.config().segment_bytes
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
    /// It answers from memory only, so on a device log it sees just the
    /// records no barrier has made durable yet.
    pub fn lookup(&self, key: &[u8], read_ts: u64) -> Option<Option<Bytes>> {
        let inner = self.inner.lock();
        inner
            .records
            .iter()
            .rev()
            .find(|r| r.key.as_ref() == key && r.ts <= read_ts)
            .map(|r| r.value.clone())
    }

    /// All records at or after timestamp `from_ts`, for redo replay. A
    /// device log reads back what it wrote ([`RecoveryLog::recover_from_device`])
    /// followed by the records still waiting to be framed.
    pub fn records_from(&self, from_ts: u64) -> Vec<LogRecord> {
        let inner = self.inner.lock();
        let (written, unframed) = match &self.device {
            Some(device) => (
                Self::recover_from_device(device),
                &inner.records[inner.appended_upto..],
            ),
            None => (Vec::new(), &inner.records[..]),
        };
        written
            .into_iter()
            .chain(unframed.iter().cloned())
            .filter(|r| r.ts >= from_ts)
            .collect()
    }

    /// Number of records the log holds: in memory, or on its device (for
    /// a device log, every record ever logged).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        match self.device {
            Some(_) => inner.next_lsn as usize,
            None => inner.records.len(),
        }
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

    /// Serialized bytes of the records the log holds, counted like
    /// [`RecoveryLog::len`]: a device log's count never falls.
    pub fn approx_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Discard durable records older than `horizon` from memory (cache
    /// trimming; durability is preserved because they were flushed). A
    /// device log holds no durable record in memory, so this leaves it
    /// as it is.
    pub fn trim_below(&self, horizon: u64) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let durable = inner.durable_upto;
        let (mut i, mut dropped, mut freed) = (0usize, 0usize, 0usize);
        inner.records.retain(|r| {
            let keep = i >= durable || r.ts >= horizon;
            i += 1;
            if !keep {
                dropped += 1;
                freed += r.serialized_len();
            }
            keep
        });
        inner.durable_upto -= dropped;
        inner.appended_upto -= dropped;
        inner.bytes -= freed;
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
    fn flush_marks_durable_and_drops_from_memory() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        let group = [rec(1, "a", Some("1")), rec(1, "b", Some("2"))];
        log.append_group(&group);
        assert_eq!(log.undurable(), 2);
        assert_eq!(log.lookup(b"a", 10), Some(Some(Bytes::from("1"))));
        log.flush().unwrap();
        assert_eq!(log.undurable(), 0);
        assert_eq!(device.stats().writes, 1, "one large append");
        // Durable on the device, so gone from memory: the lookup misses,
        // and the device returns the records.
        assert_eq!(log.lookup(b"a", 10), None);
        assert_eq!(RecoveryLog::recover_from_device(&device), group);
        assert_eq!(log.records_from(0), group);
        assert_eq!(log.len(), 2, "the log still holds them, on the device");
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
        let log = RecoveryLog::in_memory();
        log.append_group(&[rec(10, "old", Some("x"))]);
        log.append_group(&[rec(20, "mid", Some("y"))]);
        log.flush().unwrap();
        log.append_group(&[rec(5, "new", Some("z"))]); // not durable
        log.trim_below(15);
        assert_eq!(log.len(), 2);
        assert_eq!(log.lookup(b"old", 100), None, "trimmed from cache");
        assert_eq!(log.lookup(b"mid", 100), Some(Some(Bytes::from("y"))));
        assert_eq!(log.lookup(b"new", 100), Some(Some(Bytes::from("z"))));
        assert_eq!(log.undurable(), 1);

        // A device log holds only its undurable tail in memory, so a
        // lookup misses once the barrier passed and trim has nothing to
        // drop; the device still returns every record.
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        log.append_group(&[rec(10, "old", Some("x"))]);
        log.append_group(&[rec(20, "mid", Some("y"))]);
        log.flush().unwrap();
        log.append_group(&[rec(30, "new", Some("z"))]); // not durable
        let bytes = log.approx_bytes();
        log.trim_below(100);
        assert_eq!((log.len(), log.approx_bytes()), (3, bytes));
        assert_eq!(log.lookup(b"mid", 100), None, "dropped at the barrier");
        assert_eq!(log.lookup(b"new", 100), Some(Some(Bytes::from("z"))));
        assert_eq!(log.undurable(), 1);
        assert_eq!(
            RecoveryLog::recover_from_device(&device),
            [rec(10, "old", Some("x")), rec(20, "mid", Some("y"))]
        );
        assert_eq!(log.records_from(20).len(), 2, "device + undurable tail");
    }

    #[test]
    fn lsns_are_monotone_across_barriers() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device);
        let three: Vec<LogRecord> = (0..3).map(|i| rec(i, "k", Some("v"))).collect();
        assert_eq!(log.commit_batch(&three).unwrap(), Some(2));
        assert_eq!(log.append_group(&[rec(3, "k", None)]), 3);
        log.flush().unwrap();
        assert_eq!(log.commit_batch(&three[..2]).unwrap(), Some(5));
        assert_eq!(log.commit_batch(&[]).unwrap(), None);
        log.append_group(&[rec(9, "j", Some("w"))]);
        log.flush_nobarrier().unwrap();
        assert_eq!(log.commit_batch(&three[..1]).unwrap(), Some(7));
        assert_eq!(log.len(), 8);
        // Trimming an in-memory log does not reuse sequence numbers.
        let log = RecoveryLog::in_memory();
        assert_eq!(log.commit_batch(&three).unwrap(), Some(2));
        log.trim_below(u64::MAX);
        assert!(log.is_empty());
        assert_eq!(log.append_group(&three[..1]), 3);
    }

    #[test]
    fn every_committed_record_comes_back_and_is_counted() {
        let device = Arc::new(FlashDevice::new(DeviceConfig {
            segment_bytes: 512,
            segment_count: 1024,
            ..DeviceConfig::small_test()
        }));
        let log = RecoveryLog::on_device(device.clone());
        let mut logged = Vec::new();
        for i in 0..200u64 {
            let batch: Vec<LogRecord> = (0..i % 7)
                .map(|j| {
                    rec(
                        i * 10 + j,
                        &format!("k{i}.{j}"),
                        Some(&"v".repeat(j as usize * 9)),
                    )
                })
                .collect();
            log.commit_batch(&batch).unwrap();
            logged.extend(batch);
        }
        // Undurable tails: one framed without a barrier, one not framed.
        log.append_group(&[rec(5_000, "framed", None)]);
        log.flush_nobarrier().unwrap();
        log.append_group(&[rec(5_001, "unframed", Some("u"))]);
        let durable = logged.len();
        logged.extend([
            rec(5_000, "framed", None),
            rec(5_001, "unframed", Some("u")),
        ]);
        assert!(device.free_segments() < 1000, "spans many segments");
        assert_eq!(log.records_from(0), logged);
        assert_eq!(
            log.records_from(1_000),
            logged[logged.iter().position(|r| r.ts >= 1_000).unwrap()..]
        );
        assert_eq!(
            RecoveryLog::recover_from_device(&device),
            logged[..durable + 1]
        );
        assert_eq!(log.len(), logged.len());
        let bytes: usize = logged.iter().map(LogRecord::serialized_len).sum();
        assert_eq!(log.approx_bytes(), bytes);
        log.flush().unwrap();
        assert_eq!(RecoveryLog::recover_from_device(&device), logged);
        assert_eq!((log.len(), log.approx_bytes()), (logged.len(), bytes));
    }

    #[test]
    fn oversized_record_is_refused_and_not_logged() {
        let device = Arc::new(FlashDevice::new(DeviceConfig::small_test()));
        let log = RecoveryLog::on_device(device.clone());
        log.commit_batch(&[rec(1, "a", Some("1"))]).unwrap();
        // The largest value one frame holds, and one byte more.
        let max = device.config().segment_bytes - FRAME_HEADER - encoded_len(1, Some(b""));
        let fits = "x".repeat(max);
        let over = "x".repeat(max + 1);
        assert!(log.fits(b"k", Some(fits.as_bytes())));
        assert!(!log.fits(b"k", Some(over.as_bytes())));
        assert!(RecoveryLog::in_memory().fits(b"k", Some(over.as_bytes())));
        let (len, bytes, writes) = (log.len(), log.approx_bytes(), device.stats().writes);
        let batch = [rec(2, "b", Some("2")), rec(2, "k", Some(&over))];
        assert!(matches!(
            log.commit_batch(&batch),
            Err(DeviceError::OversizedAppend { .. })
        ));
        assert_eq!((log.len(), log.approx_bytes()), (len, bytes), "not logged");
        assert_eq!(device.stats().writes, writes, "nothing appended");
        assert_eq!(
            log.commit_batch(&[rec(3, "k", Some(&fits))]).unwrap(),
            Some(1)
        );
        assert_eq!(
            RecoveryLog::recover_from_device(&device),
            [rec(1, "a", Some("1")), rec(3, "k", Some(&fits))]
        );
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
