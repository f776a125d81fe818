//! `dcs-server`: a sharded network serving layer for the workspace's data
//! stores.
//!
//! The paper's cost/performance argument is about *served* operations —
//! data caching systems earn their keep at the end of a wire, where
//! batching, pipelining, and group commit amortize per-operation overhead.
//! This crate puts any [`dcs_workload::KvStore`] backend behind a TCP
//! front-end built from:
//!
//! * [`protocol`] — a compact length-prefixed binary framing with request
//!   ids (pipelining), FNV-64 checksums, and strict decode validation;
//! * [`mailbox`] — bounded MPSC shard mailboxes with explicit BUSY
//!   backpressure instead of unbounded queueing;
//! * [`shard`] — shard-per-thread execution over range-partitioned
//!   backends, write batching, and group commit through the TC's
//!   [`dcs_tc::RecoveryLog`] (a write is acked only once durable);
//! * [`server`] — the accept loop, per-connection reader/writer threads
//!   (the reader answers in-memory GET hits itself; the writer carries
//!   shard replies), and drain-and-flush shutdown;
//! * [`client`] — a pooled, pipelined client that is itself a
//!   [`dcs_workload::KvStore`], so every existing harness can drive a
//!   server over the wire unchanged;
//! * [`metrics`] — per-shard op/batch/latency accounting, which the
//!   `loadgen` binary folds into its JSON report.
//!
//! Under the `check` feature the mailbox's synchronization routes through
//! `dcs-check`'s instrumented shims so the enqueue/drain/close protocol can
//! be explored deterministically (see `crates/check/tests/server_mailbox.rs`).

pub mod client;
pub mod mailbox;
pub mod metrics;
pub mod protocol;
pub mod rebalance;
pub mod server;
pub mod shard;
mod sync;

pub use client::{Client, ClientConfig, ClientError, Ticket};
pub use mailbox::{Mailbox, MailboxStats, SendError};
pub use metrics::{LatencyHistogram, ShardMetrics, ShardSnapshot};
pub use protocol::{Frame, ProtoError, Request, Response};
pub use rebalance::{migrate_range, MigrationStats, RebalanceConfig};
pub use server::{Server, ServerConfig, ServerReport, ShardBackend};
pub use shard::{Mail, Partitioner, ReplySink, Shard, ShardConfig};
