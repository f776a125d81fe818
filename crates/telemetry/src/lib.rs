//! Unified observability for the workspace: one metrics registry, one
//! histogram implementation, span tracing on the simulator's virtual
//! clock, and cost attribution in the paper's terms.
//!
//! The paper's whole argument is a cost accounting exercise — every
//! operation decomposes into execution cost (MM cycles vs the `R`-times
//! dearer SS path) plus storage rent (§3, Equations 4–5). Before this
//! crate the workspace could only report that per-crate, through seven
//! disconnected ad-hoc `*Stats` structs and two duplicated histogram
//! implementations. `dcs-telemetry` is the shared substrate:
//!
//! * [`registry`] — a process-global registry of named [`Counter`]s
//!   (stripe-sharded, lock-free recording), [`Gauge`]s, and
//!   [`Histogram`]s, with cross-thread [`RegistrySnapshot`] merge and a
//!   stable JSON rendering (scraped live via the server's `STATS`
//!   opcode).
//! * [`hist`] — the one power-of-two histogram, replacing the copies
//!   that used to live in `dcs-server::metrics` and
//!   `dcs-flashsim::stats`. Percentiles interpolate linearly *within*
//!   the winning bucket (and against the observed max in the top
//!   bucket), fixing the upper-bound bias of the old copies.
//! * [`trace`] — structured spans in bounded per-thread ring buffers,
//!   stamped by [`clock::now_nanos`], the process's one monotonic
//!   clock. A sampling knob gates whole request trees; export is
//!   chrome://tracing / Perfetto JSON.
//! * [`cost`] — every span carries a [`CostClass`]; the exact (never
//!   sampled) [`CostLedger`] counts MM ops, SS I/Os, and occupancy so
//!   `dcs_costmodel::accounting` can be fed *measured* rather than
//!   modeled inputs.
//! * [`mod@mrc`] — online miss-ratio curves per memory consumer via
//!   SHARDS-style spatially-hashed reuse-distance sampling (exact
//!   ghost-cache mode for tests): the counterfactual the ledger cannot
//!   see — what a bigger or smaller cache *would* do.
//! * [`json`] — the one [`Json`] value, writer and strict reader every
//!   exported document (report, STATS blocks, flight dump, trace) goes
//!   through.
//! * [`mod@flight`] — a bounded ring of registry + MRC snapshots captured
//!   on a tick cadence and dumped on anomaly (BUSY spike, p95
//!   regression, reconciliation failure) for postmortems.
//!
//! The crate is a dependency leaf (std only) so every runtime crate —
//! ebr, flashsim, llama, lsm, bwtree, tc, core, server — can record into
//! it without cycles. Building with `--features dcs-telemetry/disabled`
//! compiles spans and cost recording to no-ops; the registry and
//! histograms stay live because they are the measurement instrument the
//! CI overhead gate reads.

pub mod clock;
pub mod cost;
pub mod flight;
pub mod hist;
pub mod json;
pub mod mrc;
pub mod registry;
pub mod trace;

pub use clock::now_nanos;
pub use cost::{ledger, CostClass, CostLedger, CostTotals};
pub use flight::{flight, FlightConfig, FlightFrame, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot, HistogramSummary, HIST_BUCKETS};
pub use json::{Json, JsonError};
pub use mrc::{mrc, MrcConfig, MrcPoint, MrcProfiler, MrcRegistry, MrcSnapshot};
pub use registry::{global, Counter, Gauge, Registry, RegistrySnapshot};
pub use trace::{
    export_chrome_json, sampling_permille, set_sampling_permille, span, span_at, trace_stats, Span,
    TraceStats,
};
