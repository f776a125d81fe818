//! Deterministic interleaving scenarios for the MRC profiler.
//!
//! The profiler sits on cache hot paths (record cache, page cache, LSM
//! read path), so several shard threads record into one consumer handle
//! while the stats endpoint and the flight recorder snapshot it. The
//! promise: recording is lossless (every access counted exactly once)
//! and a snapshot taken mid-run is a consistent prefix — access counts
//! never overshoot or run backwards, and the curve it carries is a
//! well-formed MRC (sizes ascending, miss ratios non-increasing) at
//! every explored interleaving.

use dcs_check::{explore_with, Config};
use dcs_telemetry::{MrcConfig, MrcProfiler, MrcSnapshot};
use std::sync::{Arc, Mutex};

fn assert_well_formed(snap: &MrcSnapshot) {
    for pair in snap.points.windows(2) {
        assert!(
            pair[0].entities < pair[1].entities,
            "curve sizes not ascending"
        );
        assert!(
            pair[0].miss_ratio >= pair[1].miss_ratio - 1e-12,
            "miss ratio increased with cache size"
        );
    }
    for p in &snap.points {
        assert!(
            (0.0..=1.0).contains(&p.miss_ratio),
            "miss ratio out of range"
        );
    }
    assert!(snap.sampled <= snap.accesses, "sampled more than observed");
}

/// Three recorder threads race a snapshotter over one exact-mode
/// profiler. Nothing is lost, nothing is counted twice, and every
/// mid-run snapshot is a monotone prefix carrying a well-formed curve.
#[test]
fn concurrent_recording_vs_snapshot_is_lossless() {
    explore_with(
        "mrc-profiler-lossless",
        Config {
            seeds: 0..40,
            ..Config::default()
        },
        || {
            let profiler = Arc::new(MrcProfiler::new("check.mrc", MrcConfig::exact()));
            let observed: Arc<Mutex<Vec<MrcSnapshot>>> = Arc::new(Mutex::new(Vec::new()));

            const RECORDERS: u64 = 3;
            const PER_THREAD: u64 = 5;
            let mut threads = Vec::new();
            for t in 0..RECORDERS {
                let profiler = profiler.clone();
                threads.push(dcs_check::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Overlapping key ranges across threads, so reuse
                        // distances are racy, not thread-private.
                        profiler.record(t * 2 + i, 100);
                        dcs_check::thread::yield_now();
                    }
                }));
            }
            {
                let profiler = profiler.clone();
                let observed = observed.clone();
                threads.push(dcs_check::thread::spawn(move || {
                    for _ in 0..4 {
                        observed.lock().unwrap().push(profiler.snapshot());
                        dcs_check::thread::yield_now();
                    }
                }));
            }
            for t in threads {
                t.join().unwrap();
            }

            let total = RECORDERS * PER_THREAD;
            let last = profiler.snapshot();
            assert_eq!(last.accesses, total, "accesses lost or double-counted");
            // Exact mode samples everything it observes.
            assert_eq!(last.sampled, total, "exact mode dropped an access");
            assert_well_formed(&last);
            // Interleaving moves individual reuse *distances* around, but
            // not the number of cold misses: the threads touch 9 distinct
            // keys (0..=8, overlapping), so the curve's top point — which
            // captures every finite-distance reuse — must show exactly
            // the cold misses at every explored schedule.
            let distinct = (0..RECORDERS)
                .flat_map(|t| (0..PER_THREAD).map(move |i| t * 2 + i))
                .collect::<std::collections::HashSet<_>>()
                .len() as f64;
            let top = last.points.last().expect("curve is non-empty");
            assert!(
                (top.miss_ratio - distinct / total as f64).abs() < 1e-9,
                "expected {} cold misses in {} accesses at the curve top, got {}",
                distinct,
                total,
                top.miss_ratio
            );

            // Mid-run snapshots: prefixes, monotone, well-formed.
            let seen = observed.lock().unwrap();
            let mut prev = 0;
            for snap in seen.iter() {
                assert!(snap.accesses <= total, "snapshot overshot the recorders");
                assert!(snap.accesses >= prev, "snapshot went backwards");
                prev = snap.accesses;
                assert_well_formed(snap);
            }
        },
    );
}

/// Recording keeps going *while* a snapshot drains the tracker: the
/// snapshot holds the profiler lock, so late recorders serialize behind
/// it and nothing is attributed to the wrong side of the cut.
#[test]
fn snapshot_cut_is_consistent() {
    explore_with(
        "mrc-snapshot-cut",
        Config {
            seeds: 0..30,
            ..Config::default()
        },
        || {
            let profiler = Arc::new(MrcProfiler::new("check.cut", MrcConfig::exact()));
            // A warm prefix every interleaving shares.
            for k in 0..6 {
                profiler.record(k, 64);
            }
            let writer = {
                let profiler = profiler.clone();
                dcs_check::thread::spawn(move || {
                    for k in 0..6 {
                        profiler.record(k, 64);
                        dcs_check::thread::yield_now();
                    }
                })
            };
            let reader = {
                let profiler = profiler.clone();
                dcs_check::thread::spawn(move || {
                    let snap = profiler.snapshot();
                    assert!(snap.accesses >= 6, "snapshot lost the warm prefix");
                    assert!(snap.accesses <= 12, "snapshot saw unissued accesses");
                    snap
                })
            };
            writer.join().unwrap();
            assert_well_formed(&reader.join().unwrap());

            let last = profiler.snapshot();
            assert_eq!(last.accesses, 12);
            // The second pass re-touches the same 6 keys: reuses at
            // distance ≤ 6, so a 6-entity cache would have hit them all.
            // The curve must reflect that: miss ratio at full residency
            // is the 6 cold misses over 12 accesses.
            let top = last.points.last().expect("curve is non-empty");
            assert!(
                (top.miss_ratio - 0.5).abs() < 1e-9,
                "expected 6 cold misses in 12 accesses at full residency, got {}",
                top.miss_ratio
            );
        },
    );
}
