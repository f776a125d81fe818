//! Flight recorder: a bounded ring of registry + MRC snapshots for
//! postmortems.
//!
//! Latency spikes and reconciliation failures are diagnosed *after* the
//! fact, when the counters that explain them have already moved on. The
//! flight recorder keeps the recent past: every `every_n` ticks it
//! snapshots the global metrics registry and every MRC profiler into a
//! ring bounded at `keep` entries. When an anomaly is detected (a BUSY
//! spike, a p95 regression, a cost-attribution reconciliation failure),
//! the detector calls [`FlightRecorder::trigger`] with a reason; the
//! ring — now ending at the anomaly — is dumped as one JSON document and
//! shipped out as a CI artifact.
//!
//! The recorder is passive: nothing in the serving path ticks it. The
//! load generator (or any embedding process) drives [`FlightRecorder::tick`]
//! from a pacing thread, so a build that never ticks pays nothing beyond
//! the idle `OnceLock`.

use crate::json::Json;
use crate::mrc::{mrc, MrcSnapshot};
use crate::obj;
use crate::registry::{global, RegistrySnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One ring entry: where the system stood at a tick.
#[derive(Debug, Clone)]
pub struct FlightFrame {
    /// Tick count at capture.
    pub tick: u64,
    /// [`crate::clock::now_nanos`] at capture.
    pub nanos: u64,
    /// Anomaly reason, or `""` for a routine periodic frame.
    pub reason: String,
    /// The global metrics registry.
    pub registry: RegistrySnapshot,
    /// Every registered MRC profiler.
    pub mrc: Vec<MrcSnapshot>,
}

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Capture a frame every this many ticks (0 disables periodic
    /// capture; triggers still record).
    pub every_n: u64,
    /// Ring bound: the last `keep` frames survive.
    pub keep: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            every_n: 10,
            keep: 32,
        }
    }
}

/// The bounded snapshot ring. Use [`flight`] for the process global.
pub struct FlightRecorder {
    config: Mutex<FlightConfig>,
    ticks: AtomicU64,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    frames: VecDeque<FlightFrame>,
    triggers: Vec<String>,
}

impl FlightRecorder {
    fn new() -> Self {
        FlightRecorder {
            config: Mutex::new(FlightConfig::default()),
            ticks: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a new cadence/bound (also clears nothing: the ring keeps
    /// whatever it already holds, re-bounded to the new `keep`).
    pub fn configure(&self, config: FlightConfig) {
        *self.config.lock().unwrap_or_else(|e| e.into_inner()) = config;
        let mut inner = self.lock();
        while inner.frames.len() > config.keep.max(1) {
            inner.frames.pop_front();
        }
    }

    fn capture(&self, tick: u64, reason: &str, keep: usize) {
        let frame = FlightFrame {
            tick,
            nanos: crate::clock::now_nanos(),
            reason: reason.to_string(),
            registry: global().snapshot(),
            mrc: mrc().snapshots(),
        };
        let mut inner = self.lock();
        inner.frames.push_back(frame);
        while inner.frames.len() > keep.max(1) {
            inner.frames.pop_front();
        }
    }

    /// Advance the recorder one tick; captures a frame on the configured
    /// cadence. Returns the tick number.
    pub fn tick(&self) -> u64 {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let config = *self.config.lock().unwrap_or_else(|e| e.into_inner());
        if config.every_n > 0 && tick % config.every_n == 0 {
            self.capture(tick, "", config.keep);
        }
        tick
    }

    /// Record an anomaly: remembers `reason` and captures a frame
    /// immediately so the dump ends at the moment of detection.
    pub fn trigger(&self, reason: &str) {
        let config = *self.config.lock().unwrap_or_else(|e| e.into_inner());
        let tick = self.ticks.load(Ordering::Relaxed);
        self.lock().triggers.push(reason.to_string());
        self.capture(tick, reason, config.keep);
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.lock().frames.len()
    }

    /// Whether the ring holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Anomaly reasons recorded so far.
    pub fn triggers(&self) -> Vec<String> {
        self.lock().triggers.clone()
    }

    /// The whole ring as one JSON document:
    /// `{"triggers": [...], "frames": [{tick, nanos, reason, registry, mrc}]}`.
    pub fn dump_json(&self) -> String {
        let inner = self.lock();
        let frames = inner.frames.iter().map(|f| {
            obj! {
                "tick": f.tick,
                "nanos": f.nanos,
                "reason": f.reason.as_str(),
                "registry": f.registry.json(),
                "mrc": Json::arr(f.mrc.iter().map(MrcSnapshot::json)),
            }
        });
        obj! {
            "triggers": Json::arr(inner.triggers.iter().map(String::as_str)),
            "frames": Json::arr(frames),
        }
        .to_string()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("ticks", &self.ticks.load(Ordering::Relaxed))
            .field("frames", &self.len())
            .finish()
    }
}

/// The process-global flight recorder.
pub fn flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global recorder is shared across tests in this binary; each
    /// test uses its own instance.
    fn recorder(every_n: u64, keep: usize) -> FlightRecorder {
        let r = FlightRecorder::new();
        r.configure(FlightConfig { every_n, keep });
        r
    }

    #[test]
    fn periodic_capture_respects_cadence_and_bound() {
        let r = recorder(5, 3);
        for _ in 0..40 {
            r.tick();
        }
        // 8 captures (ticks 5, 10, ..., 40), bounded to the last 3.
        assert_eq!(r.len(), 3);
        let dump = Json::parse(&r.dump_json()).unwrap();
        let ticks: Vec<_> = dump
            .get("frames")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|f| f.get("tick").and_then(Json::as_u64))
            .collect();
        assert_eq!(
            ticks,
            [Some(30), Some(35), Some(40)],
            "old frames rotate out"
        );
    }

    #[test]
    fn trigger_records_reason_and_frame() {
        let r = recorder(0, 4);
        for _ in 0..7 {
            r.tick();
        }
        assert!(r.is_empty(), "cadence 0 must not capture periodically");
        r.trigger("busy spike: 120 rejections in one tick");
        assert_eq!(r.len(), 1);
        assert_eq!(r.triggers().len(), 1);
        let reason = Json::from("busy spike: 120 rejections in one tick");
        let dump = Json::parse(&r.dump_json()).unwrap();
        assert_eq!(dump.get("triggers"), Some(&Json::Arr(vec![reason.clone()])));
        let [frame] = dump.get("frames").map(Json::items).unwrap_or_default() else {
            panic!("one frame expected: {dump}");
        };
        assert_eq!(frame.get("reason"), Some(&reason));
        assert_eq!(frame.get("tick"), Some(&Json::UInt(7)));
        assert!(matches!(
            frame.at(&["registry", "counters"]),
            Some(Json::Obj(_))
        ));
    }

    #[test]
    fn hostile_reasons_stay_valid_json() {
        let r = recorder(0, 2);
        let reason = "p95 \"regression\" \\ test\n\u{1}\u{1f}";
        r.trigger(reason);
        let dump = Json::parse(&r.dump_json()).unwrap();
        assert_eq!(dump.get("triggers"), Some(&Json::arr([reason])));
    }

    #[test]
    fn frames_carry_the_mrc_consumers() {
        mrc().profiler("mrc.flight_test").record(1, 8);
        let r = recorder(1, 2);
        r.tick();
        let dump = Json::parse(&r.dump_json()).unwrap();
        let last = dump.get("frames").and_then(|f| f.items().last()).unwrap();
        let consumers: Vec<_> = last
            .get("mrc")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|s| s.get("consumer").and_then(Json::as_str))
            .collect();
        assert!(consumers.contains(&"mrc.flight_test"), "{consumers:?}");
    }

    #[test]
    fn global_is_a_singleton() {
        let a = flight() as *const _;
        let b = flight() as *const _;
        assert_eq!(a, b);
    }
}
