//! Structured span tracing: bounded per-thread rings, head sampling,
//! chrome://tracing export.
//!
//! A span is a guard: [`span`] stamps the start from
//! [`crate::clock::now_nanos`], dropping it stamps the end and pushes one
//! complete event into the recording thread's ring buffer. Rings are bounded
//! ([`RING_CAPACITY`] events, oldest dropped and counted), so tracing
//! can stay on in a long server run without growing memory.
//!
//! **Sampling is decided at the root.** A top-level span (depth 0 on its
//! thread) consults the global permille knob with a deterministic
//! stride — exactly `n` of every 1000 roots trace — and every nested
//! span inherits that decision, so a sampled request keeps its whole
//! tree (server shard → store → llama/lsm → flashsim) and an unsampled
//! one costs two thread-local cell bumps. The default is 0 (off).
//! Cost attribution ([`crate::cost`]) is *not* gated by sampling.
//!
//! [`export_chrome_json`] drains every thread's ring into the Trace
//! Event Format (`ph:"X"` complete events, microsecond timestamps) that
//! chrome://tracing and Perfetto load directly; nesting falls out of
//! same-thread time containment.

#[cfg(not(feature = "disabled"))]
use crate::clock::now_nanos;
use crate::cost::CostClass;
use crate::json::Json;
use crate::obj;
#[cfg(not(feature = "disabled"))]
use std::cell::Cell;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-thread ring capacity in events; the oldest are dropped (and
/// counted) beyond this.
pub const RING_CAPACITY: usize = 65_536;

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    name: &'static str,
    class: CostClass,
    start_nanos: u64,
    dur_nanos: u64,
}

struct Ring {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

struct ThreadBuf {
    label: String,
    ring: Mutex<Ring>,
}

fn thread_bufs() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

static SAMPLE_PERMILLE: AtomicU32 = AtomicU32::new(0);
static ROOTS_SEEN: AtomicU64 = AtomicU64::new(0);
static ROOTS_SAMPLED: AtomicU64 = AtomicU64::new(0);

/// Set the root-sampling rate in permille (0 = tracing off, 1000 =
/// every root). 1% sampling is `set_sampling_permille(10)`.
pub fn set_sampling_permille(permille: u32) {
    SAMPLE_PERMILLE.store(permille.min(1000), Ordering::Relaxed);
}

/// Current root-sampling rate in permille.
pub fn sampling_permille() -> u32 {
    SAMPLE_PERMILLE.load(Ordering::Relaxed)
}

#[cfg(not(feature = "disabled"))]
thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    // Stride accumulator for deterministic permille sampling.
    static STRIDE: Cell<u32> = const { Cell::new(0) };
}

thread_local! {
    static RING: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

/// The registry counter mirroring ring-bound drops, resolved once: the
/// span-drop path must not pay the registry's name lookup per event.
#[cfg(not(feature = "disabled"))]
fn dropped_spans_counter() -> &'static crate::registry::Counter {
    static COUNTER: OnceLock<Arc<crate::registry::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| crate::registry::global().counter("trace.dropped_spans"))
}

#[cfg(not(feature = "disabled"))]
fn my_ring() -> Arc<ThreadBuf> {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(buf) = r.as_ref() {
            return Arc::clone(buf);
        }
        let label = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
        let buf = Arc::new(ThreadBuf {
            label,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(256),
                dropped: 0,
            }),
        });
        thread_bufs().lock().unwrap().push(Arc::clone(&buf));
        *r = Some(Arc::clone(&buf));
        buf
    })
}

/// A live span; dropping it records the event (if its root was
/// sampled).
#[must_use = "a span measures the scope it is alive for"]
#[cfg_attr(feature = "disabled", allow(dead_code))]
pub struct Span {
    name: &'static str,
    class: CostClass,
    start_nanos: u64,
    active: bool,
    // Spans are thread-scoped guards: they decrement this thread's
    // depth on drop, so they must not cross threads.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a span starting now. Depth-0 spans make the sampling decision;
/// nested spans inherit it.
#[inline]
pub fn span(name: &'static str, class: CostClass) -> Span {
    span_at(name, class, u64::MAX)
}

/// Open a span with an explicit start timestamp (nanoseconds on the
/// telemetry clock) — used to backdate a request's root span to its
/// mailbox-entry time. `u64::MAX` means "now".
pub fn span_at(name: &'static str, class: CostClass, start_nanos: u64) -> Span {
    #[cfg(feature = "disabled")]
    {
        let _ = start_nanos;
        return Span {
            name,
            class,
            start_nanos: 0,
            active: false,
            _not_send: std::marker::PhantomData,
        };
    }
    #[cfg(not(feature = "disabled"))]
    {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let active = if depth == 0 {
            let permille = SAMPLE_PERMILLE.load(Ordering::Relaxed);
            let on = permille > 0
                && STRIDE.with(|s| {
                    let acc = s.get() + permille;
                    if acc >= 1000 {
                        s.set(acc - 1000);
                        true
                    } else {
                        s.set(acc);
                        false
                    }
                });
            ROOTS_SEEN.fetch_add(1, Ordering::Relaxed);
            if on {
                ROOTS_SAMPLED.fetch_add(1, Ordering::Relaxed);
            }
            ACTIVE.with(|a| a.set(on));
            on
        } else {
            ACTIVE.with(|a| a.get())
        };
        Span {
            name,
            class,
            start_nanos: if active {
                if start_nanos == u64::MAX {
                    now_nanos()
                } else {
                    start_nanos
                }
            } else {
                0
            },
            active,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(not(feature = "disabled"))]
        {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            if self.active {
                let end = now_nanos();
                let ev = SpanEvent {
                    name: self.name,
                    class: self.class,
                    start_nanos: self.start_nanos.min(end),
                    dur_nanos: end.saturating_sub(self.start_nanos),
                };
                let buf = my_ring();
                let mut ring = buf.ring.lock().unwrap();
                if ring.events.len() >= RING_CAPACITY {
                    ring.events.pop_front();
                    ring.dropped += 1;
                    // Silent overwrite made visible: scrapers (and the CI
                    // telemetry job) watch `trace.dropped_spans` to know a
                    // trace export is missing events.
                    dropped_spans_counter().add(1);
                }
                ring.events.push_back(ev);
            }
        }
    }
}

/// Counters describing what the tracer has seen/kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Root spans opened (sampled or not).
    pub roots_seen: u64,
    /// Root spans that traced.
    pub roots_sampled: u64,
    /// Events currently buffered across all threads.
    pub buffered: u64,
    /// Events dropped to ring bounds.
    pub dropped: u64,
}

/// Current tracer counters.
pub fn trace_stats() -> TraceStats {
    let mut buffered = 0;
    let mut dropped = 0;
    for buf in thread_bufs().lock().unwrap().iter() {
        let r = buf.ring.lock().unwrap();
        buffered += r.events.len() as u64;
        dropped += r.dropped;
    }
    TraceStats {
        roots_seen: ROOTS_SEEN.load(Ordering::Relaxed),
        roots_sampled: ROOTS_SAMPLED.load(Ordering::Relaxed),
        buffered,
        dropped,
    }
}

/// Drain every thread's ring into a chrome://tracing / Perfetto JSON
/// document (Trace Event Format). Timestamps are microseconds on the
/// telemetry clock; thread ids are assigned in registration order and
/// labelled with thread names via `M` metadata events.
pub fn export_chrome_json() -> String {
    let bufs: Vec<Arc<ThreadBuf>> = thread_bufs().lock().unwrap().clone();
    let mut events: Vec<(u32, SpanEvent)> = Vec::new();
    let mut trace_events = Vec::new();
    for (tid, buf) in bufs.iter().enumerate() {
        let tid = tid as u32 + 1;
        trace_events.push(obj! {
            "name": "thread_name",
            "ph": "M",
            "pid": 1u32,
            "tid": tid,
            "args": obj! { "name": buf.label.as_str() },
        });
        let mut ring = buf.ring.lock().unwrap();
        events.extend(ring.events.drain(..).map(|ev| (tid, ev)));
    }
    events.sort_by_key(|(_, e)| e.start_nanos);
    trace_events.extend(events.iter().map(|(tid, ev)| {
        obj! {
            "name": ev.name,
            "cat": ev.class.label(),
            "ph": "X",
            "ts": ev.start_nanos as f64 / 1000.0,
            "dur": ev.dur_nanos as f64 / 1000.0,
            "pid": 1u32,
            "tid": *tid,
            "args": obj! { "cost_class": ev.class.label() },
        }
    }));
    obj! { "displayTimeUnit": "ns", "traceEvents": Json::Arr(trace_events) }.to_string()
}

#[cfg(all(test, not(feature = "disabled")))]
mod tests {
    use super::*;

    // The sampling knob and rings are process-global; serialize the
    // tests that reconfigure them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drain the rings and return the parsed `traceEvents` array.
    fn exported_events() -> Vec<Json> {
        let doc = Json::parse(&export_chrome_json()).expect("trace is valid JSON");
        assert_eq!(doc.get("displayTimeUnit"), Some(&Json::from("ns")));
        doc.get("traceEvents")
            .map(Json::items)
            .unwrap_or_default()
            .to_vec()
    }

    #[test]
    fn sampling_zero_records_nothing() {
        let _g = guard();
        set_sampling_permille(0);
        let before = trace_stats().buffered;
        for _ in 0..100 {
            let _s = span("noop", CostClass::Mm);
        }
        assert_eq!(trace_stats().buffered, before);
    }

    #[test]
    fn full_sampling_keeps_nested_tree() {
        let _g = guard();
        set_sampling_permille(1000);
        let before = trace_stats();
        {
            let _root = span("request", CostClass::Mm);
            let _child = span("store.get", CostClass::Mm);
            let _leaf = span("device.read", CostClass::SsRead);
        }
        let after = trace_stats();
        assert_eq!(after.buffered - before.buffered, 3);
        set_sampling_permille(0);
        let events = exported_events();
        let named = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no {name} event in {events:?}"))
        };
        assert_eq!(named("request").get("ph"), Some(&Json::from("X")));
        let leaf = named("device.read");
        assert_eq!(leaf.get("cat"), Some(&Json::from("ss_read")));
        assert_eq!(
            leaf.at(&["args", "cost_class"]),
            Some(&Json::from("ss_read"))
        );
        assert!(leaf.get("ts").and_then(Json::as_f64).is_some());
        assert_eq!(named("thread_name").get("ph"), Some(&Json::from("M")));
    }

    #[test]
    fn stride_sampling_hits_rate() {
        let _g = guard();
        set_sampling_permille(100); // 10%
        let before = trace_stats();
        for _ in 0..1000 {
            let _s = span("r", CostClass::Mm);
        }
        let after = trace_stats();
        set_sampling_permille(0);
        let sampled = (after.roots_sampled - before.roots_sampled) as i64;
        assert!(
            (sampled - 100).abs() <= 1,
            "10% of 1000 roots should trace, got {sampled}"
        );
        let _ = export_chrome_json(); // leave rings empty for other tests
    }

    #[test]
    fn backdated_root_span_duration() {
        let _g = guard();
        set_sampling_permille(1000);
        let start = crate::clock::now_nanos();
        {
            let _s = span_at("backdated", CostClass::Mm, start.saturating_sub(5_000));
        }
        set_sampling_permille(0);
        let events = exported_events();
        let backdated = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("backdated"))
            .expect("backdated span exported");
        // Backdated by 5 us: the duration covers at least that.
        assert!(backdated.get("dur").and_then(Json::as_f64) >= Some(5.0));
    }
}
