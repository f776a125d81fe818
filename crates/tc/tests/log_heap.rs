//! A device-backed recovery log keeps nothing in memory past its barrier,
//! so group commit costs its batch, not the log's history: after many
//! one-record `commit_batch` calls, live heap bytes — less the device's
//! own segment images — stay where they were after the first thousand.
//!
//! A counting global allocator sees every allocation in the process, so
//! this binary holds exactly one test.

use bytes::Bytes;
use dcs_flashsim::{DeviceConfig, FlashDevice};
use dcs_tc::{LogRecord, RecoveryLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn device_log_heap_stays_flat_under_group_commit() {
    const WARM: u64 = 1_000;
    const CALLS: u64 = 50_000;
    const SLACK: usize = 64 << 10;
    let config = DeviceConfig {
        segment_count: 4096,
        ..DeviceConfig::small_test()
    };
    let (segment_count, segment_bytes) = (config.segment_count, config.segment_bytes);
    let device = Arc::new(FlashDevice::new(config));
    let log = RecoveryLog::on_device(device.clone());
    // Live heap bytes outside the device's segment images.
    let heap =
        || LIVE.load(Ordering::Relaxed) - (segment_count - device.free_segments()) * segment_bytes;
    let mut logged = 0usize;
    let mut baseline = 0;
    for ts in 0..CALLS {
        let record = LogRecord {
            ts,
            key: Bytes::from(format!("key{:012}", ts % 10_000)),
            value: Some(Bytes::from(vec![ts as u8; 100])),
        };
        log.commit_batch(std::slice::from_ref(&record)).unwrap();
        logged += 8 + 4 + record.key.len() + 1 + 4 + 100;
        if ts + 1 == WARM {
            baseline = heap();
        }
    }
    let grown = heap().saturating_sub(baseline);
    assert!(
        grown <= SLACK,
        "heap grew {grown} B over {} commits (budget {SLACK} B)",
        CALLS - WARM
    );
    // The accounting still counts every byte logged, on the device.
    assert_eq!(log.approx_bytes(), logged);
    assert_eq!(log.len() as u64, CALLS);
    assert_eq!(log.undurable(), 0);
}
