//! Deuteronomy's transaction component (TC).
//!
//! Deuteronomy splits a database kernel into a transaction component (TC)
//! — concurrency control and recovery — and a data component (DC) — the
//! Bw-tree over LLAMA. This crate implements the TC behaviours the
//! cost/performance paper leans on:
//!
//! * **MVCC with timestamp ordering** ([`VersionStore`]): the TC keeps versions
//!   themselves (not proxies) in its version store, visibility governed by
//!   transaction timestamps, with first-committer-wins write validation.
//! * **The recovery log as a record cache** (§6.3, Figure 6): an
//!   in-memory [`RecoveryLog`] retains its redo records after flush, and
//!   the MVCC hash table doubles as the index over this updated-record
//!   cache. A TC cache hit avoids not only the I/O but the entire DC visit.
//!   A device-backed log keeps nothing past its barrier: a record leaves
//!   memory once a barrier has made it durable on the device, which then
//!   serves replay.
//! * **A log-structured read cache** ([`ReadCache`]): records read from
//!   the DC are retained in a bounded, log-structured ring.
//! * **All updates are blind at the DC** (§6.2): commit posts each write
//!   to the Bw-tree as a blind delta — the DC never reads a base page to
//!   apply an update, even for records whose page is evicted.
//! * **Redo recovery** : replaying the recovery log after a crash uses the
//!   same blind-update path as normal operation ("there is no difference
//!   in how updates are handled during normal operation and during
//!   recovery").
//!
//! ```
//! use dcs_tc::TransactionalStore;
//! use dcs_bwtree::{BwTree, BwTreeConfig};
//! use std::sync::Arc;
//!
//! let dc = Arc::new(BwTree::in_memory(BwTreeConfig::default()));
//! let tc = TransactionalStore::new(dc, dcs_tc::TcConfig::default());
//! let mut txn = tc.begin();
//! txn.write(b"k".to_vec(), b"v".to_vec());
//! tc.commit(txn).unwrap();
//! let reader = tc.begin();
//! assert_eq!(tc.read(&reader, b"k").unwrap(), Some(bytes::Bytes::from("v")));
//! ```

mod log;
mod mvcc;
mod readcache;
mod txn;

pub use log::{LogRecord, RecoveryLog};
pub use mvcc::VersionStore;
pub use readcache::ReadCache;
pub use txn::{CommitError, TcConfig, TcStats, Transaction, TransactionalStore};
