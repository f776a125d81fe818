//! A latch-free Bw-tree (Levandoski, Lomet, Sengupta — ICDE 2013).
//!
//! The Bw-tree is the data component of Deuteronomy and the "data caching
//! system" of the paper this workspace reproduces. Its distinguishing
//! mechanics, all implemented here:
//!
//! * **Mapping table** ([`MappingTable`]): logical page ids (PIDs) indirect
//!   through a table of atomic words to the physical page representation.
//!   All page updates install with a single compare-and-swap on the PID's
//!   slot — no latches anywhere.
//! * **Delta updates**: updates *prepend* a delta record to the page's chain
//!   rather than modifying the page. A leaf's chain is folded into a fresh
//!   consolidated base page once it reaches
//!   [`BwTreeConfig::consolidate_threshold`]. Index pages get deltas only
//!   from structure modifications, so they fold each one as soon as it is
//!   posted: a descent nearly always routes through a bare base, with one
//!   binary search per level and no allocation.
//! * **Structure modification operations**: page splits are decomposed into
//!   atomic steps (child split delta, then parent index-entry delta), each a
//!   single CAS, with readers helping lagging steps along.
//! * **Blind updates** (§6.2 of the cost/performance paper): a delta can be
//!   prepended to a page whose base is *not in memory* — the mapping entry
//!   simply chains the delta above a flash-resident base reference. No read
//!   I/O is needed to update.
//! * **Record caching** (§6.3): eviction can drop only the base page and
//!   keep recent deltas in memory; reads served from those deltas avoid
//!   I/O entirely.
//! * **Page states for caching**: a page is `Resident` (base in memory),
//!   `Partial` (deltas in memory, base on flash) or `Evicted` (everything on
//!   flash). Movement between states is driven by a cache manager (see
//!   `dcs-llama`) through [`BwTree::flush_page`], [`BwTree::evict_page`] and
//!   friends; the tree fetches flash-resident bases through the
//!   [`PageStore`] trait on demand.
//!
//! Memory reclamation uses epoch-based reclamation from `dcs-ebr`: every
//! replaced chain is retired and freed only after all concurrent readers
//! have unpinned. The rule is carried by types in the two modules that
//! may use `unsafe` (the rest of the crate denies it).
//!
//! # Example
//!
//! ```
//! use dcs_bwtree::{BwTree, BwTreeConfig};
//! use bytes::Bytes;
//!
//! let tree = BwTree::in_memory(BwTreeConfig::default());
//! tree.put(Bytes::from("k1"), Bytes::from("v1"));
//! assert_eq!(tree.get(b"k1"), Some(Bytes::from("v1")));
//! tree.delete(Bytes::from("k1"));
//! assert_eq!(tree.get(b"k1"), None);
//! ```

#![deny(unsafe_code)]

mod audit;
mod config;
// The reclamation rule lives in these two modules, and only here may code
// be `unsafe`: a chain is read only through a `Chain<'g>` loaded under an
// epoch guard; a node never published is an owned value, freed by
// dropping it; a node ever published is freed only by `retire`, which
// takes the mapping table's proof that an unlink removed it.
#[allow(unsafe_code)]
mod delta;
mod iter;
// The other half of the rule: only the table's unlinks (a won CAS, or
// emptying a fresh PID) may claim that published nodes are unreachable,
// and a chain is handed out only under the guard it was loaded with.
#[allow(unsafe_code)]
mod mapping;
mod page;
mod stats;
mod store;
pub(crate) mod sync;
mod tree;

pub use audit::AuditReport;
pub use config::BwTreeConfig;
pub use iter::RangeIter;
pub use mapping::{MappingTable, PageId};
pub use page::PageCodecError;
pub use page::{DeltaOp, PageImage};
pub use stats::TreeStats;
pub use store::{MemStore, NullStore, PageStore, StoreError};
pub use tree::FlushKind;
pub use tree::{BwTree, PageInfo, RecoveredPage, ResidencyState, TreeError, TryGetAsync};
