//! The simulated append-only flash device.

use crate::clock::VirtualClock;
use crate::config::DeviceConfig;
use crate::inject::FailureInjector;
use crate::stats::{DeviceStats, StatsInner};
use crate::Nanos;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of an erase segment.
pub type SegmentId = u32;

/// A stable address on the device: segment plus byte offset within it.
///
/// Appends never span segments, so `(segment, offset, len)` always names a
/// contiguous byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlashAddress {
    /// Erase segment holding the data.
    pub segment: SegmentId,
    /// Byte offset within the segment.
    pub offset: u32,
}

impl FlashAddress {
    /// Pack into a `u64` (for storage in mapping-table words).
    pub fn to_u64(self) -> u64 {
        ((self.segment as u64) << 32) | self.offset as u64
    }

    /// Unpack from [`FlashAddress::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        FlashAddress {
            segment: (v >> 32) as u32,
            offset: v as u32,
        }
    }
}

/// Errors surfaced by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is out of free segments; the caller must garbage-collect.
    Full,
    /// An append larger than one segment was requested.
    OversizedAppend {
        /// Bytes requested.
        requested: usize,
        /// Segment capacity.
        segment_bytes: usize,
    },
    /// A read named a segment that does not exist or was trimmed.
    BadAddress(FlashAddress),
    /// A read extended past the written extent of its segment.
    ShortSegment {
        /// Requested address.
        addr: FlashAddress,
        /// Requested length.
        len: usize,
        /// Written bytes in that segment.
        written: usize,
    },
    /// An injected (simulated) media failure.
    InjectedFailure,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Full => write!(f, "device full: no free segments"),
            DeviceError::OversizedAppend {
                requested,
                segment_bytes,
            } => write!(
                f,
                "append of {requested} bytes exceeds segment size {segment_bytes}"
            ),
            DeviceError::BadAddress(a) => write!(f, "bad address {a:?}"),
            DeviceError::ShortSegment { addr, len, written } => write!(
                f,
                "read of {len} bytes at {addr:?} past written extent {written}"
            ),
            DeviceError::InjectedFailure => write!(f, "injected media failure"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// One erase segment's in-memory image.
struct Segment {
    data: Box<[u8]>,
    /// Bytes appended so far.
    written: usize,
    /// Bytes known durable (≤ written). A crash truncates to this point.
    durable: usize,
}

impl Segment {
    fn new(size: usize) -> Self {
        Segment {
            data: vec![0u8; size].into_boxed_slice(),
            written: 0,
            durable: 0,
        }
    }
}

struct DeviceState {
    segments: Vec<Option<Segment>>,
    free: Vec<SegmentId>,
    open: Option<SegmentId>,
    /// Erase (trim) count per physical segment — flash wear.
    erase_counts: Vec<u32>,
    /// Segments [`FlashDevice::append`] wrote to since the last sync: the
    /// only ones that can hold bytes a barrier has not made durable.
    unsynced: Vec<SegmentId>,
}

/// The simulated flash SSD.
///
/// * **Append-only within segments**: data is written by [`FlashDevice::append`],
///   which returns a stable [`FlashAddress`]; whole segments are reclaimed by
///   [`FlashDevice::trim_segment`] (flash erase).
/// * **Accounting**: every read/write I/O charges the configured
///   [`crate::IoPathModel`]'s CPU work and occupies the device's virtual-time
///   queue slot (rate `max_iops`), so both the CPU term and the IOPS term of
///   the paper's cost equations are exercised.
/// * **Crash simulation**: [`FlashDevice::sync`] marks appended data durable;
///   [`FlashDevice::crash`] discards the non-durable tail, as a power failure
///   would.
pub struct FlashDevice {
    config: DeviceConfig,
    clock: VirtualClock,
    state: Mutex<DeviceState>,
    /// Virtual time at which the device queue frees up.
    busy_until: AtomicU64,
    /// Read I/Os submitted but not yet completed (achieved io depth).
    inflight_reads: AtomicU64,
    stats: StatsInner,
    injector: FailureInjector,
}

/// A read I/O between submission and completion.
///
/// The data (or error) is **latched at submit time** — simulated DMA: the
/// device captured the bytes when the command was issued, so a later GC
/// relocation or trim of the segment cannot corrupt an in-flight read.
/// Virtual-clock advancement, completion-path CPU, and read accounting are
/// deferred to [`FlashDevice::complete_read`].
#[derive(Debug)]
pub(crate) struct PendingRead {
    /// Outcome decided at submit: data copy, or the error the blocking
    /// path would have returned.
    latched: Result<Vec<u8>, DeviceError>,
    /// Virtual completion time (None when the submit failed before
    /// occupying a device queue slot).
    virtual_done: Option<Nanos>,
    /// Wall-clock completion visibility (None when `wall_read_latency` 0).
    wall_deadline: Option<std::time::Instant>,
}

impl PendingRead {
    /// Completion is visible in wall-clock time (virtual time is advanced
    /// by `complete_read`, not waited on).
    pub(crate) fn wall_ready(&self) -> bool {
        self.wall_deadline
            .map(|d| std::time::Instant::now() >= d)
            .unwrap_or(true)
    }

    /// Sleep until the completion is wall-visible (blocking callers only).
    pub(crate) fn wall_wait(&self) {
        if let Some(deadline) = self.wall_deadline {
            let now = std::time::Instant::now();
            if deadline > now {
                dcs_syncshim::block::sleep(deadline - now);
            }
        }
    }
}

impl FlashDevice {
    /// Create a device with its own clock.
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_clock(config, VirtualClock::new())
    }

    /// Create a device sharing an external virtual clock.
    pub fn with_clock(config: DeviceConfig, clock: VirtualClock) -> Self {
        let state = DeviceState {
            segments: (0..config.segment_count).map(|_| None).collect(),
            free: (0..config.segment_count as SegmentId).rev().collect(),
            open: None,
            erase_counts: vec![0; config.segment_count],
            unsynced: Vec::new(),
        };
        FlashDevice {
            config,
            clock,
            state: Mutex::new(state),
            busy_until: AtomicU64::new(0),
            inflight_reads: AtomicU64::new(0),
            stats: StatsInner::default(),
            injector: FailureInjector::disabled(),
        }
    }

    /// Replace the failure injector (for recovery tests).
    pub fn set_injector(&self, injector: FailureInjector) {
        self.injector.replace_with(injector);
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device's clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Occupy one device queue slot and return the I/O's completion time.
    fn schedule_io(&self, latency: Nanos) -> Nanos {
        let service = (1e9 / self.config.max_iops) as u64;
        let now = self.clock.now();
        // busy_until = max(now, busy_until) + service, atomically.
        let mut cur = self.busy_until.load(Ordering::SeqCst);
        loop {
            let start = cur.max(now);
            let next = start + service;
            match self.busy_until.compare_exchange_weak(
                cur,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return start + latency.max(service),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Append `buf` to the log, returning its address.
    ///
    /// The append charges one write I/O. Appends never span segments: when
    /// the open segment cannot hold `buf`, it is sealed and a fresh segment
    /// opened. Fails with [`DeviceError::Full`] when no free segment remains
    /// (the log-structured store must GC).
    pub fn append(&self, buf: &[u8]) -> Result<FlashAddress, DeviceError> {
        if buf.len() > self.config.segment_bytes {
            return Err(DeviceError::OversizedAppend {
                requested: buf.len(),
                segment_bytes: self.config.segment_bytes,
            });
        }
        let _span =
            crate::stats::service_span("flashsim.append", dcs_telemetry::CostClass::SsWrite);
        self.config.io_path.run_submit();
        self.stats.record_submit_charge();

        let addr = {
            let mut st = self.state.lock();
            let need_new = match st.open {
                Some(id) => {
                    // State-machine invariant (`open` always indexes a
                    // live segment), not reachable from peer input.
                    let seg = st.segments[id as usize]
                        .as_ref()
                        .expect("open segment exists");
                    seg.written + buf.len() > self.config.segment_bytes
                }
                None => true,
            };
            if need_new {
                let id = st.free.pop().ok_or(DeviceError::Full)?;
                st.segments[id as usize] = Some(Segment::new(self.config.segment_bytes));
                st.open = Some(id);
            }
            // `need_new` just set `open`; both expects assert the same
            // segment-table invariant as above.
            let id = st.open.expect("segment just opened");
            let seg = st.segments[id as usize]
                .as_mut()
                .expect("open segment exists");
            let offset = seg.written;
            seg.data[offset..offset + buf.len()].copy_from_slice(buf);
            seg.written += buf.len();
            if st.unsynced.last() != Some(&id) {
                st.unsynced.push(id);
                // Ids recycled by trims between syncs repeat; keep at most
                // one entry per segment.
                if st.unsynced.len() > self.config.segment_count {
                    st.unsynced.sort_unstable();
                    st.unsynced.dedup();
                }
            }
            FlashAddress {
                segment: id,
                offset: offset as u32,
            }
        };

        let done = self.schedule_io(self.config.write_latency);
        self.stats
            .record_depth(self.inflight_reads.load(Ordering::SeqCst) + 1);
        if self.config.advance_clock_on_io {
            self.clock.advance_to(done);
        }
        self.config.io_path.run_complete();
        self.stats.record_write(buf.len() as u64);
        Ok(addr)
    }

    /// Append `buf` with immediate durability (FUA-style): the write goes
    /// to a freshly opened segment whose contents are durable as soon as
    /// the call returns, without affecting the durability of any other
    /// pending write. Used by GC relocation, which must not piggyback a
    /// global sync onto unrelated buffered data.
    pub fn append_durable(&self, buf: &[u8]) -> Result<FlashAddress, DeviceError> {
        if buf.len() > self.config.segment_bytes {
            return Err(DeviceError::OversizedAppend {
                requested: buf.len(),
                segment_bytes: self.config.segment_bytes,
            });
        }
        let _span = crate::stats::service_span(
            "flashsim.append_durable",
            dcs_telemetry::CostClass::SsWrite,
        );
        self.config.io_path.run_submit();
        self.stats.record_submit_charge();
        let addr = {
            let mut st = self.state.lock();
            let id = st.free.pop().ok_or(DeviceError::Full)?;
            let mut seg = Segment::new(self.config.segment_bytes);
            seg.data[..buf.len()].copy_from_slice(buf);
            seg.written = buf.len();
            seg.durable = buf.len();
            st.segments[id as usize] = Some(seg);
            // The fresh segment is closed immediately; the previous open
            // segment (if any) remains the append target.
            FlashAddress {
                segment: id,
                offset: 0,
            }
        };
        let done = self.schedule_io(self.config.write_latency);
        self.stats
            .record_depth(self.inflight_reads.load(Ordering::SeqCst) + 1);
        if self.config.advance_clock_on_io {
            self.clock.advance_to(done);
        }
        self.config.io_path.run_complete();
        self.stats.record_write(buf.len() as u64);
        self.stats.record_sync();
        Ok(addr)
    }

    /// Read `len` bytes at `addr`. Charges one read I/O.
    ///
    /// A thin submit+poll wrapper over the asynchronous engine: the command
    /// is submitted, the caller sleeps out any wall-clock latency, and the
    /// completion is reaped inline — identical costs and error behaviour to
    /// the historical blocking implementation. Blocking by contract, so a
    /// debug build panics if this thread is in a
    /// [`dcs_syncshim::block::non_blocking`] scope.
    pub fn read(&self, addr: FlashAddress, len: usize) -> Result<Vec<u8>, DeviceError> {
        dcs_syncshim::block::assert_may_block("FlashDevice::read");
        let _span = crate::stats::service_span("flashsim.read", dcs_telemetry::CostClass::SsRead);
        let pending = self.submit_read(addr, len, true);
        pending.wall_wait();
        self.complete_read(pending)
    }

    /// Submit one read command: charge submit-path CPU (unless the caller
    /// amortized it over a batch), latch the outcome (simulated DMA — see
    /// [`PendingRead`]), and occupy a device queue slot.
    ///
    /// Error outcomes are latched without occupying a queue slot, exactly
    /// mirroring the blocking path's early returns.
    pub(crate) fn submit_read(
        &self,
        addr: FlashAddress,
        len: usize,
        charge_submit: bool,
    ) -> PendingRead {
        if charge_submit {
            self.config.io_path.run_submit();
            self.stats.record_submit_charge();
        }
        if self.injector.should_fail_read() {
            self.stats.record_injected_failure();
            return PendingRead {
                latched: Err(DeviceError::InjectedFailure),
                virtual_done: None,
                wall_deadline: None,
            };
        }
        let latched = {
            let st = self.state.lock();
            match st
                .segments
                .get(addr.segment as usize)
                .and_then(|s| s.as_ref())
            {
                None => Err(DeviceError::BadAddress(addr)),
                Some(seg) => {
                    let start = addr.offset as usize;
                    if start + len > seg.written {
                        Err(DeviceError::ShortSegment {
                            addr,
                            len,
                            written: seg.written,
                        })
                    } else {
                        Ok(seg.data[start..start + len].to_vec())
                    }
                }
            }
        };
        if latched.is_err() {
            return PendingRead {
                latched,
                virtual_done: None,
                wall_deadline: None,
            };
        }
        let done = self.schedule_io(self.config.read_latency);
        let depth = self.inflight_reads.fetch_add(1, Ordering::SeqCst) + 1;
        self.stats.record_depth(depth);
        let wall_deadline = if self.config.wall_read_latency > 0 {
            Some(
                std::time::Instant::now()
                    + std::time::Duration::from_nanos(self.config.wall_read_latency),
            )
        } else {
            None
        };
        PendingRead {
            latched,
            virtual_done: Some(done),
            wall_deadline,
        }
    }

    /// Complete a previously submitted read: advance the virtual clock to
    /// its completion time, charge completion-path CPU, and account the
    /// read. Error completions charge nothing further, as the blocking
    /// path's early returns did.
    pub(crate) fn complete_read(&self, pending: PendingRead) -> Result<Vec<u8>, DeviceError> {
        let PendingRead {
            latched,
            virtual_done,
            ..
        } = pending;
        let Some(done) = virtual_done else {
            return latched;
        };
        self.inflight_reads.fetch_sub(1, Ordering::SeqCst);
        if self.config.advance_clock_on_io {
            self.clock.advance_to(done);
        }
        self.config.io_path.run_complete();
        // Failed reads never occupy a slot, so `latched` is always `Ok`
        // today; stay total anyway.
        if let Ok(data) = &latched {
            self.stats.record_read(data.len() as u64);
        }
        latched
    }

    /// Charge one submit-path CPU cost: the per-batch doorbell an
    /// [`crate::IoQueuePair`] rings once for a whole batch of submissions.
    pub(crate) fn charge_submit(&self) {
        self.config.io_path.run_submit();
        self.stats.record_submit_charge();
    }

    /// Number of bytes written into `segment` (0 if trimmed/never used).
    pub fn segment_written(&self, segment: SegmentId) -> usize {
        let st = self.state.lock();
        st.segments
            .get(segment as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.written)
            .unwrap_or(0)
    }

    /// Erase a whole segment, returning its storage to the free pool.
    ///
    /// The open segment cannot be trimmed. Trimming an already-free segment
    /// is a no-op (idempotent, as SSD trim is).
    pub fn trim_segment(&self, segment: SegmentId) {
        let mut st = self.state.lock();
        if st.open == Some(segment) {
            return;
        }
        if st
            .segments
            .get(segment as usize)
            .map(|s| s.is_some())
            .unwrap_or(false)
        {
            st.segments[segment as usize] = None;
            st.free.push(segment);
            st.erase_counts[segment as usize] += 1;
            self.stats.record_trim();
        }
    }

    /// Flash-wear summary: `(max erases on any segment, mean erases)`.
    /// Log-structured stores spread erases across segments; a hot-spot in
    /// the maximum relative to the mean indicates poor wear leveling.
    pub fn wear(&self) -> (u32, f64) {
        let st = self.state.lock();
        let max = st.erase_counts.iter().copied().max().unwrap_or(0);
        let sum: u64 = st.erase_counts.iter().map(|&c| c as u64).sum();
        (max, sum as f64 / st.erase_counts.len() as f64)
    }

    /// Seal the open segment so the next append starts a fresh one.
    /// The log-structured store calls this at flush-buffer boundaries.
    pub fn seal_open_segment(&self) {
        let mut st = self.state.lock();
        st.open = None;
    }

    /// Mark all appended data durable (as a flush barrier / FUA would).
    /// Touches only the segments appended to since the last sync, so a
    /// barrier costs what it makes durable, not the device's size.
    pub fn sync(&self) {
        let _span = crate::stats::service_span("flashsim.sync", dcs_telemetry::CostClass::Wal);
        let mut st = self.state.lock();
        let st = &mut *st;
        for id in st.unsynced.drain(..) {
            // A segment trimmed since its append is gone (or reopened,
            // fresh); either way there is nothing stale to mark.
            if let Some(Some(seg)) = st.segments.get_mut(id as usize) {
                seg.durable = seg.written;
            }
        }
        self.stats.record_sync();
    }

    /// Simulate a power failure: every byte appended since the last
    /// [`FlashDevice::sync`] is lost. Returns the number of bytes discarded.
    pub fn crash(&self) -> u64 {
        let mut st = self.state.lock();
        let mut lost = 0u64;
        for seg in st.segments.iter_mut().flatten() {
            lost += (seg.written - seg.durable) as u64;
            seg.written = seg.durable;
        }
        st.open = None;
        lost
    }

    /// Simulate a power failure that *tears* the in-flight write: like
    /// [`FlashDevice::crash`], but the open segment keeps up to `tail_keep`
    /// bytes of its non-durable tail — a partially persisted append, as a
    /// real device may leave after losing power mid-write. Recovery code
    /// must treat that tail as untrusted (torn frames, bad CRCs). Returns
    /// the number of bytes discarded.
    pub fn crash_torn(&self, tail_keep: usize) -> u64 {
        let mut st = self.state.lock();
        let open = st.open;
        let mut lost = 0u64;
        for (id, seg) in st.segments.iter_mut().enumerate() {
            let Some(seg) = seg else { continue };
            let keep = if open == Some(id as SegmentId) {
                seg.written.min(seg.durable + tail_keep)
            } else {
                seg.durable
            };
            lost += (seg.written - keep) as u64;
            seg.written = keep;
            seg.durable = keep;
        }
        st.open = None;
        lost
    }

    /// Free segments remaining.
    pub fn free_segments(&self) -> usize {
        self.state.lock().free.len()
    }

    /// Snapshot of device counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
            .snapshot(self.clock.now(), self.busy_until.load(Ordering::SeqCst))
    }
}

impl std::fmt::Debug for FlashDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlashDevice")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::IoPathKind;

    fn test_device() -> FlashDevice {
        FlashDevice::new(DeviceConfig::small_test())
    }

    #[test]
    fn append_read_roundtrip() {
        let d = test_device();
        let a1 = d.append(b"alpha").unwrap();
        let a2 = d.append(b"beta").unwrap();
        assert_eq!(d.read(a1, 5).unwrap(), b"alpha");
        assert_eq!(d.read(a2, 4).unwrap(), b"beta");
    }

    #[test]
    fn addresses_are_packed_losslessly() {
        let a = FlashAddress {
            segment: 0xDEAD,
            offset: 0xBEEF,
        };
        assert_eq!(FlashAddress::from_u64(a.to_u64()), a);
    }

    #[test]
    fn appends_do_not_span_segments() {
        let d = test_device();
        let seg_size = d.config().segment_bytes;
        let big = vec![7u8; seg_size - 10];
        let a1 = d.append(&big).unwrap();
        let a2 = d.append(b"next-segment").unwrap();
        assert_ne!(a1.segment, a2.segment);
        assert_eq!(a2.offset, 0);
        assert_eq!(d.read(a2, 12).unwrap(), b"next-segment");
    }

    #[test]
    fn oversized_append_rejected() {
        let d = test_device();
        let huge = vec![0u8; d.config().segment_bytes + 1];
        assert!(matches!(
            d.append(&huge),
            Err(DeviceError::OversizedAppend { .. })
        ));
    }

    #[test]
    fn device_fills_up() {
        let cfg = DeviceConfig {
            segment_count: 2,
            ..DeviceConfig::small_test()
        };
        let d = FlashDevice::new(cfg);
        let seg = d.config().segment_bytes;
        d.append(&vec![1u8; seg]).unwrap();
        d.append(&vec![2u8; seg]).unwrap();
        assert_eq!(d.append(b"x"), Err(DeviceError::Full));
    }

    #[test]
    fn trim_frees_capacity() {
        let cfg = DeviceConfig {
            segment_count: 2,
            ..DeviceConfig::small_test()
        };
        let d = FlashDevice::new(cfg);
        let seg = d.config().segment_bytes;
        let a1 = d.append(&vec![1u8; seg]).unwrap();
        d.append(&vec![2u8; seg]).unwrap();
        d.trim_segment(a1.segment);
        assert_eq!(d.free_segments(), 1);
        assert_eq!(d.read(a1, 1), Err(DeviceError::BadAddress(a1)));
        // The trimmed segment is recycled for new appends.
        let a3 = d.append(b"fits now").unwrap();
        assert_eq!(a3.segment, a1.segment);
    }

    #[test]
    fn trim_open_segment_is_refused() {
        let d = test_device();
        let a = d.append(b"keep me").unwrap();
        d.trim_segment(a.segment);
        assert_eq!(d.read(a, 7).unwrap(), b"keep me");
    }

    #[test]
    fn short_read_detected() {
        let d = test_device();
        let a = d.append(b"tiny").unwrap();
        assert!(matches!(
            d.read(a, 100),
            Err(DeviceError::ShortSegment { .. })
        ));
    }

    #[test]
    fn crash_discards_unsynced_tail() {
        let d = test_device();
        let a1 = d.append(b"durable").unwrap();
        d.sync();
        let a2 = d.append(b"volatile").unwrap();
        let lost = d.crash();
        assert_eq!(lost, 8);
        assert_eq!(d.read(a1, 7).unwrap(), b"durable");
        assert!(d.read(a2, 8).is_err());
    }

    #[test]
    fn crash_torn_keeps_a_partial_tail() {
        let d = test_device();
        let a1 = d.append(b"durable").unwrap();
        d.sync();
        let a2 = d.append(b"volatile").unwrap();
        // A torn crash persists only the first 3 bytes of the tail.
        let lost = d.crash_torn(3);
        assert_eq!(lost, 5);
        assert_eq!(d.read(a1, 7).unwrap(), b"durable");
        assert_eq!(d.read(a2, 3).unwrap(), b"vol");
        assert!(d.read(a2, 8).is_err(), "torn bytes must be gone");
        // With a huge tail_keep everything written survives.
        let d = test_device();
        let a = d.append(b"volatile").unwrap();
        assert_eq!(d.crash_torn(1 << 20), 0);
        assert_eq!(d.read(a, 8).unwrap(), b"volatile");
    }

    /// The power cuts a barrier test checks against: a clean `crash()`,
    /// and torn crashes keeping 0 and 3 bytes of the open segment's tail.
    const CUTS: [Option<usize>; 3] = [None, Some(0), Some(3)];

    fn cut(d: &FlashDevice, torn_keep: Option<usize>) -> u64 {
        match torn_keep {
            None => d.crash(),
            Some(keep) => d.crash_torn(keep),
        }
    }

    fn small_segments() -> FlashDevice {
        FlashDevice::new(DeviceConfig {
            segment_bytes: 256,
            ..DeviceConfig::small_test()
        })
    }

    #[test]
    fn sync_covers_sealed_segments_and_loses_exactly_the_later_bytes() {
        for torn_keep in CUTS {
            let d = small_segments();
            // Three unsynced appends: two sealed segments and an open one.
            let pre: Vec<FlashAddress> = (1..=3u8).map(|b| d.append(&[b; 200]).unwrap()).collect();
            assert_eq!(d.free_segments(), 64 - 3);
            d.sync();
            let tail = d.append(&[4; 50]).unwrap(); // fills the open segment
            let open = d.append(&[5; 100]).unwrap(); // opens a fourth
            assert_eq!((tail.segment, tail.offset), (pre[2].segment, 200));
            assert_ne!(open.segment, tail.segment);
            let kept = torn_keep.unwrap_or(0);
            assert_eq!(cut(&d, torn_keep), 150 - kept as u64, "{torn_keep:?}");
            for (b, a) in (1..=3u8).zip(&pre) {
                assert_eq!(d.read(*a, 200).unwrap(), [b; 200]);
            }
            assert!(d.read(tail, 1).is_err(), "a sealed tail is never torn");
            assert!(d.read(open, kept + 1).is_err());
            assert_eq!(d.read(open, kept).unwrap(), vec![5; kept]);
        }
    }

    #[test]
    fn unsynced_segment_trimmed_before_sync_stays_gone() {
        for torn_keep in CUTS {
            let d = small_segments();
            let a = d.append(&[1; 200]).unwrap();
            let b = d.append(&[2; 200]).unwrap(); // seals `a`
            d.trim_segment(a.segment);
            let free = d.free_segments();
            d.sync();
            assert_eq!(cut(&d, torn_keep), 0);
            assert_eq!(d.free_segments(), free, "{torn_keep:?}");
            assert_eq!(d.read(a, 1), Err(DeviceError::BadAddress(a)));
            assert_eq!(d.read(b, 200).unwrap(), [2; 200]);
            // Reopened by a buffered append, the id holds only new bytes,
            // and a crash before the next sync loses them.
            let c = d.append(&[3; 100]).unwrap();
            assert_eq!(c.segment, a.segment);
            let kept = torn_keep.unwrap_or(0);
            assert_eq!(cut(&d, torn_keep), 100 - kept as u64);
            assert_eq!(d.segment_written(a.segment), kept);
            assert_eq!(d.read(c, kept).unwrap(), vec![3; kept]);
        }
    }

    #[test]
    fn append_durable_interleaved_with_buffered_appends() {
        for torn_keep in CUTS {
            let d = test_device();
            let x = d.append(b"synced").unwrap();
            d.sync();
            let y = d.append_durable(b"fua-1").unwrap();
            let z = d.append(b"buffered").unwrap();
            let w = d.append_durable(b"fua-2").unwrap();
            assert_eq!(
                z.segment, x.segment,
                "FUA writes leave the open segment open"
            );
            let kept = torn_keep.unwrap_or(0);
            assert_eq!(cut(&d, torn_keep), 8 - kept as u64, "{torn_keep:?}");
            assert_eq!(d.read(x, 6).unwrap(), b"synced");
            assert_eq!(d.read(y, 5).unwrap(), b"fua-1");
            assert_eq!(d.read(w, 5).unwrap(), b"fua-2");
            assert_eq!(d.read(z, kept).unwrap(), &b"buffered"[..kept]);
            assert!(d.read(z, 8).is_err());
        }
    }

    #[test]
    fn stats_count_ios() {
        let d = test_device();
        let a = d.append(b"12345678").unwrap();
        d.read(a, 8).unwrap();
        d.read(a, 4).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_written, 8);
        assert_eq!(s.bytes_read, 12);
    }

    #[test]
    fn iops_ceiling_advances_clock() {
        let cfg = DeviceConfig {
            max_iops: 1000.0, // 1 ms service time
            read_latency: 0,
            write_latency: 0,
            io_path: IoPathKind::Free.model(),
            ..DeviceConfig::small_test()
        };
        let d = FlashDevice::new(cfg);
        let a = d.append(b"x").unwrap();
        for _ in 0..10 {
            d.read(a, 1).unwrap();
        }
        // 11 I/Os at 1 ms service each ⇒ ≥ 11 ms of virtual time.
        assert!(d.clock().now() >= 11_000_000, "now={}", d.clock().now());
    }

    #[test]
    fn injected_read_failures_surface() {
        let d = test_device();
        let a = d.append(b"data").unwrap();
        d.set_injector(FailureInjector::failing_reads(1.0, 42));
        assert_eq!(d.read(a, 4), Err(DeviceError::InjectedFailure));
        d.set_injector(FailureInjector::disabled());
        assert_eq!(d.read(a, 4).unwrap(), b"data");
    }

    #[test]
    fn concurrent_appends_get_distinct_addresses() {
        let d = std::sync::Arc::new(FlashDevice::new(DeviceConfig {
            segment_count: 256,
            ..DeviceConfig::small_test()
        }));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                let mut addrs = Vec::new();
                for i in 0..200 {
                    let payload = [t, i as u8, 0xAB];
                    addrs.push((d.append(&payload).unwrap(), payload));
                }
                addrs
            }));
        }
        let mut seen = std::collections::HashSet::new();
        for h in handles {
            for (addr, payload) in h.join().unwrap() {
                assert!(seen.insert(addr), "duplicate address {addr:?}");
                assert_eq!(d.read(addr, 3).unwrap(), payload);
            }
        }
    }

    #[test]
    fn wear_counts_erases() {
        let cfg = DeviceConfig {
            segment_count: 4,
            ..DeviceConfig::small_test()
        };
        let d = FlashDevice::new(cfg);
        assert_eq!(d.wear(), (0, 0.0));
        let seg = d.config().segment_bytes;
        for _ in 0..3 {
            let a = d.append(&vec![1u8; seg]).unwrap();
            d.seal_open_segment();
            d.trim_segment(a.segment);
        }
        let (max, mean) = d.wear();
        assert!(max >= 1);
        assert!(
            (mean - 3.0 / 4.0).abs() < 1e-9 || max == 3,
            "max {max} mean {mean}"
        );
    }

    #[test]
    fn seal_open_segment_starts_fresh() {
        let d = test_device();
        let a1 = d.append(b"one").unwrap();
        d.seal_open_segment();
        let a2 = d.append(b"two").unwrap();
        assert_ne!(a1.segment, a2.segment);
    }
}
