//! Workload generation for data-store experiments.
//!
//! The paper's experiments are read/update mixes over keyed records where
//! the *skew* of the key-access distribution determines how hot each page
//! is — and therefore, via the cost model, whether the page belongs in DRAM
//! or on flash. This crate supplies:
//!
//! * **Key distributions** ([`KeyDist`]): uniform, Zipfian (the YCSB
//!   constant-time generator of Gray et al.), scrambled Zipfian, latest, and
//!   hotspot.
//! * **Operation mixes** ([`OpMix`]): weighted blends of reads, updates,
//!   inserts, blind updates, read-modify-writes and scans, matching the
//!   YCSB workload vocabulary the systems community uses.
//! * **Arrival processes** ([`Arrivals`]): fixed-rate and Poisson
//!   inter-arrival streams in virtual nanoseconds, used to drive the
//!   access-interval (`Ti`) experiments of the 5-minute-rule analysis.
//! * **Key codecs** ([`keys`]): order-preserving fixed-width encodings of
//!   `u64` key ids.
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use dcs_workload::{KeyDist, OpMix, WorkloadSpec, OpKind};
//!
//! let spec = WorkloadSpec {
//!     record_count: 10_000,
//!     key_dist: KeyDist::zipfian(0.99),
//!     mix: OpMix::ycsb_b(), // 95% reads, 5% updates
//!     value_len: 100,
//!     seed: 42,
//! };
//! let mut gen = spec.generator();
//! let op = gen.next_op();
//! assert!(matches!(op.kind, OpKind::Read | OpKind::Update));
//! assert!(op.key_id < 10_000);
//! ```

mod arrivals;
mod dist;
pub mod keys;
mod mix;
mod runner;
mod spec;

pub use arrivals::Arrivals;
pub use dist::{KeyDist, KeySampler};
pub use mix::{OpKind, OpMix, Operation};
pub use runner::{AsyncGet, CompletedGet, KvStore, MemStore, RunCounts, Runner, StoreFailure};
pub use spec::{OpGenerator, WorkloadSpec};
