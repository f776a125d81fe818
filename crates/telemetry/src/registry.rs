//! The process-global metrics registry: named counters, gauges, and
//! histograms with lock-free recording and cross-thread snapshot/merge.
//!
//! Registration (name → handle) takes a mutex, but it happens once per
//! metric per call site — call sites cache the returned `Arc` handle.
//! Recording is lock-free:
//!
//! * [`Counter`] is **stripe-sharded**: each thread is hashed onto one of
//!   16 cache-line-padded `AtomicU64` stripes, so concurrent increments
//!   from different shard threads don't bounce one cache line. Reading
//!   sums the stripes — monotone, and exact once writers quiesce.
//! * [`Gauge`] is a single `AtomicI64` (set/add semantics; gauges are
//!   written rarely — occupancy updates, config echoes).
//! * Histograms are the shared [`Histogram`].
//!
//! [`Registry::snapshot`] copies everything into a plain-data
//! [`RegistrySnapshot`] that merges with other snapshots (multi-process
//! aggregation) and renders to a stable JSON object — the payload of the
//! server's `STATS` wire opcode.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::Json;
use crate::obj;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const STRIPES: usize = 16;

/// One cache line per stripe so increments from different threads don't
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// A monotone counter with stripe-sharded recording.
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

fn stripe_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(i);
        }
        i
    })
}

impl Counter {
    fn new() -> Self {
        Counter {
            stripes: std::array::from_fn(|_| Stripe::default()),
        }
    }

    /// Add `n` on this thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum of all stripes. Exact once writers quiesce; monotone always.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A point-in-time signed value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A namespace of metrics. Most code uses the process-global
/// [`global()`] registry; tests build private ones.
#[derive(Default)]
pub struct Registry {
    maps: Mutex<Maps>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`. Cache the handle; this path
    /// takes the registration mutex. All registry lock sites recover
    /// from poisoning instead of unwrapping: the maps stay structurally
    /// valid across a panicking registrant, and the metrics plane must
    /// never abort a serving shard.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.maps.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            m.counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.maps.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            m.gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.maps.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            m.histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Copy every metric out. Safe concurrently with recording; each
    /// counter read is a consistent monotone lower bound.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.maps.lock().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry every runtime crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Plain-data copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Fold `other` into `self`: counters add, gauges add (occupancies
    /// from disjoint processes sum), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// The snapshot as a [`Json`] object (keys sorted; histograms as
    /// summaries plus occupied buckets).
    pub fn json(&self) -> Json {
        let histograms = self.histograms.iter().map(|(k, h)| {
            let sum = h.summary();
            let buckets = h
                .nonzero_buckets()
                .into_iter()
                .map(|(lo, count)| Json::arr([lo, count]));
            let body = obj! {
                "count": sum.count,
                "mean": sum.mean_nanos,
                "p50": sum.p50_nanos,
                "p95": sum.p95_nanos,
                "p99": sum.p99_nanos,
                "max": sum.max_nanos,
                "buckets": Json::arr(buckets),
            };
            (k.clone(), body)
        });
        obj! {
            "counters": Json::obj(self.counters.iter().map(|(k, &v)| (k.clone(), v.into()))),
            "gauges": Json::obj(self.gauges.iter().map(|(k, &v)| (k.clone(), v.into()))),
            "histograms": Json::obj(histograms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_sums_across_threads() {
        let r = Registry::new();
        let c = r.counter("ops");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 80_000);
        assert_eq!(r.snapshot().counters["ops"], 80_000);
    }

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = Registry::new();
        r.counter("x").add(3);
        r.counter("x").add(4);
        assert_eq!(r.counter("x").value(), 7);
        r.gauge("g").set(-5);
        assert_eq!(r.gauge("g").value(), -5);
        r.histogram("h").record(42);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a = Registry::new();
        a.counter("ops").add(10);
        a.gauge("bytes").set(100);
        a.histogram("lat").record(1000);
        let b = Registry::new();
        b.counter("ops").add(5);
        b.counter("only_b").add(1);
        b.gauge("bytes").set(50);
        b.histogram("lat").record(2000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counters["ops"], 15);
        assert_eq!(m.counters["only_b"], 1);
        assert_eq!(m.gauges["bytes"], 150);
        assert_eq!(m.histograms["lat"].count, 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.gauge("g").set(-3);
        r.histogram("h").record(7);
        let doc = r.snapshot().json();
        // BTreeMap ordering: "a" before "b".
        assert_eq!(
            doc.get("counters"),
            Some(&Json::obj([("a", Json::UInt(1)), ("b", Json::UInt(2))]))
        );
        assert_eq!(doc.at(&["gauges", "g"]), Some(&Json::Int(-3)));
        let h = doc.at(&["histograms", "h"]).unwrap();
        assert_eq!(h.get("count"), Some(&Json::UInt(1)));
        assert_eq!(h.get("max"), Some(&Json::UInt(7)));
        assert!(h.get("p95").and_then(Json::as_f64).is_some());
        assert_eq!(h.get("buckets"), Some(&Json::arr([Json::arr([4u64, 1])])));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("test.registry.shared").add(2);
        global().counter("test.registry.shared").add(3);
        assert!(global().counter("test.registry.shared").value() >= 5);
    }
}
