//! The migration handoff protocol: per-shard write gates and the
//! [`Router`] every shard worker consults before touching a key.
//!
//! A range move is **copy → freeze → replay tail → install new epoch**,
//! with no stop-the-world:
//!
//! 1. `begin` arms the source shard's [`WriteGate`] with a
//!    [`RangeLease`]. From then on every write the worker admits inside
//!    the leased range is mirrored into the gate's *tail* before being
//!    applied to the source backend.
//! 2. The migrator copies the range from the source backend. Writes
//!    racing the copy are covered either by the copy itself or by the
//!    tail — see the interleaving argument below.
//! 3. `freeze` seals the lease: the tail is stolen, and further writes
//!    in the range are refused with `Moved(next_epoch, target)`. Reads
//!    keep being served from the source — its copy of the range is
//!    final (nothing can write it anywhere), so those reads stay
//!    linearizable.
//! 4. The migrator replays the tail onto the target (last writer wins),
//!    installs the `reassign`ed map at the lease's `next_epoch`, and
//!    `finish`es the gate. Stragglers still queued at the source drain
//!    normally and get `Moved` from the router's ownership check.
//!
//! **Why no write is lost or double-applied.** [`Router::admit_write`]
//! makes its decision while holding the gate lock, and the returned
//! [`WritePermit`] keeps holding it until the backend apply completes:
//!
//! - If the gate is *armed*, the write lands in the tail (Copying) or is
//!   refused (Frozen). The tail is stolen under the same lock, so every
//!   mirrored write is either applied before `freeze` returns or never
//!   admitted.
//! - If the gate is *empty*, either the migration has not begun — then
//!   `begin` blocks on the gate lock until the in-flight apply finishes,
//!   so the copy (which starts strictly after `begin`) observes it — or
//!   the migration already finished, in which case the new map was
//!   installed before `finish` released the lock we now hold, and the
//!   ownership check (performed under that same lock) answers `Moved`.
//!
//! Writes to unleased ranges pass straight through; their only cost is
//! the uncontended gate lock. Reads never take the gate: the map
//! ownership check alone is correct for them (frozen-window reads from
//! the source are reads of immutable data).
//!
//! The source keeps its (now stale) copy of a moved range: a parked
//! asynchronous miss admitted before the freeze may still complete from
//! the source store, and deleting under it would turn a valid stale-free
//! read into a wrong `None`. A tombstone sweep once parked misses drain
//! is future work; the leftover bytes are invisible to routing.
//!
//! This file is wire-path (the `#![deny(…)]` header below): nothing here
//! may panic.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::heat::HeatTracker;
use crate::map::{PartitionMap, SharedMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// One key/value write mirrored into the tail (`None` = delete).
pub type TailEntry = (Vec<u8>, Option<Vec<u8>>);

/// The range a migration is moving and where it is going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeLease {
    /// Inclusive lower bound.
    pub lo: Vec<u8>,
    /// Exclusive upper bound (`None` = unbounded).
    pub hi: Option<Vec<u8>>,
    /// Shard currently owning the range.
    pub source: usize,
    /// Shard the range is moving to.
    pub target: usize,
    /// Epoch the reassigned map will carry; quoted in `Moved` replies so
    /// clients can tell progress from churn.
    pub next_epoch: u64,
}

impl RangeLease {
    /// Whether `key` falls inside the leased range.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.lo.as_slice() && self.hi.as_deref().is_none_or(|h| key < h)
    }
}

struct Active {
    lease: RangeLease,
    frozen: bool,
    tail: Vec<TailEntry>,
}

/// Serializes one shard worker's writes with migration phase changes.
pub struct WriteGate {
    inner: Mutex<Option<Active>>,
}

impl Default for WriteGate {
    fn default() -> Self {
        Self::new()
    }
}

/// Holds the gate lock across a backend apply so `begin`/`freeze`
/// cannot interleave mid-write. Drop promptly after the apply.
pub struct WritePermit<'a> {
    _guard: MutexGuard<'a, Option<Active>>,
}

/// The worker's verdict for one write.
pub enum WriteAdmission<'a> {
    /// Apply the write, then drop the permit.
    Clear(WritePermit<'a>),
    /// The key no longer (or soon won't) live here; answer the client
    /// with `MOVED(epoch, shard)` and do not touch the backend.
    Moved {
        /// Map epoch the redirect is valid for.
        epoch: u64,
        /// Shard that owns (or is receiving) the key.
        shard: usize,
    },
}

fn lock_gate<'a>(m: &'a Mutex<Option<Active>>) -> MutexGuard<'a, Option<Active>> {
    // A poisoned gate still guards structurally valid state; refusing
    // to route writes would turn one panicked thread into an outage.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl WriteGate {
    /// An unarmed gate.
    pub fn new() -> Self {
        WriteGate {
            inner: Mutex::new(None),
        }
    }

    /// Arm the gate with `lease`. `false` if a migration is already
    /// active on this shard (one at a time keeps the argument simple).
    pub fn begin(&self, lease: RangeLease) -> bool {
        let mut g = lock_gate(&self.inner);
        if g.is_some() {
            return false;
        }
        *g = Some(Active {
            lease,
            frozen: false, // Copying phase
            tail: Vec::new(),
        });
        true
    }

    /// Seal the lease and steal the tail. `None` if the gate is not
    /// armed. After this, writes in the range are refused until
    /// `finish`.
    pub fn freeze(&self) -> Option<Vec<TailEntry>> {
        let mut g = lock_gate(&self.inner);
        let a = g.as_mut()?;
        a.frozen = true;
        Some(std::mem::take(&mut a.tail))
    }

    /// Disarm the gate. The caller must have installed the new map
    /// first; the docs above explain why that order is load-bearing.
    pub fn finish(&self) {
        let mut g = lock_gate(&self.inner);
        *g = None;
    }

    /// Whether a migration is in flight on this shard.
    pub fn active(&self) -> bool {
        lock_gate(&self.inner).is_some()
    }
}

/// The placement surface shard workers and the rebalancer share: the
/// current map, per-range heat, and one write gate per shard.
pub struct Router {
    map: SharedMap,
    heat: HeatTracker,
    gates: Vec<Arc<WriteGate>>,
}

impl Router {
    /// A router over `map` for `shards` workers.
    pub fn new(map: PartitionMap, shards: usize) -> Self {
        Router {
            map: SharedMap::new(map),
            heat: HeatTracker::new(),
            gates: (0..shards.max(1))
                .map(|_| Arc::new(WriteGate::new()))
                .collect(),
        }
    }

    /// The versioned map.
    pub fn map(&self) -> &SharedMap {
        &self.map
    }

    /// The per-range heat counters.
    pub fn heat(&self) -> &HeatTracker {
        &self.heat
    }

    /// Shard `i`'s write gate.
    pub fn gate(&self, i: usize) -> Option<&Arc<WriteGate>> {
        self.gates.get(i)
    }

    /// Number of shards the router was built for.
    pub fn shards(&self) -> usize {
        self.gates.len()
    }

    /// Admit or refuse a write arriving at shard `shard`. The map
    /// ownership check runs under the gate lock — see the module docs
    /// for why the order matters. `value` is the post-image (`None`
    /// for deletes) and is what a copying lease mirrors into its tail.
    pub fn admit_write(
        &self,
        shard: usize,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> WriteAdmission<'_> {
        let Some(gate) = self.gates.get(shard) else {
            // Unknown shard index: refuse toward the map's real owner.
            let map = self.map.load();
            return WriteAdmission::Moved {
                epoch: map.epoch(),
                shard: map.shard_of(key),
            };
        };
        let mut g = lock_gate(&gate.inner);
        let map = self.map.load();
        let owner = map.shard_of(key);
        if owner != shard {
            return WriteAdmission::Moved {
                epoch: map.epoch(),
                shard: owner,
            };
        }
        let verdict = match g.as_mut() {
            Some(a) if a.lease.contains(key) => {
                if a.frozen {
                    Some((a.lease.next_epoch, a.lease.target))
                } else {
                    a.tail.push((key.to_vec(), value.map(<[u8]>::to_vec)));
                    None
                }
            }
            _ => None,
        };
        match verdict {
            Some((epoch, shard)) => WriteAdmission::Moved { epoch, shard },
            None => WriteAdmission::Clear(WritePermit { _guard: g }),
        }
    }

    /// Ownership check for a read arriving at shard `shard`. `None`
    /// means serve it here; `Some((epoch, owner))` means answer
    /// `MOVED`. Reads never take the gate (module docs).
    pub fn read_misroute(&self, shard: usize, key: &[u8]) -> Option<(u64, usize)> {
        let map = self.map.load();
        let owner = map.shard_of(key);
        if owner != shard {
            Some((map.epoch(), owner))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease() -> RangeLease {
        RangeLease {
            lo: b"f".to_vec(),
            hi: Some(b"m".to_vec()),
            source: 0,
            target: 1,
            next_epoch: 1,
        }
    }

    #[test]
    fn lease_bounds_are_half_open() {
        let l = lease();
        assert!(!l.contains(b"e"));
        assert!(l.contains(b"f"));
        assert!(l.contains(b"lzzz"));
        assert!(!l.contains(b"m"));
        let unbounded = RangeLease {
            hi: None,
            ..lease()
        };
        assert!(unbounded.contains(b"zzzz"));
    }

    #[test]
    fn copying_mirrors_then_frozen_refuses() {
        let r = Router::new(PartitionMap::contiguous(vec![b"m".to_vec()]), 2);
        let gate = r.gate(0).unwrap().clone();
        assert!(gate.begin(lease()));
        assert!(!gate.begin(lease()), "one migration at a time");

        // In-range write during the copy: admitted and tailed.
        match r.admit_write(0, b"g", Some(b"v1")) {
            WriteAdmission::Clear(p) => drop(p),
            WriteAdmission::Moved { .. } => panic!("copying phase must admit"),
        }
        // Out-of-range write: admitted, not tailed.
        match r.admit_write(0, b"a", Some(b"x")) {
            WriteAdmission::Clear(p) => drop(p),
            WriteAdmission::Moved { .. } => panic!("unleased key must pass"),
        }
        let tail = gate.freeze().unwrap();
        assert_eq!(tail, vec![(b"g".to_vec(), Some(b"v1".to_vec()))]);

        // Frozen: in-range writes bounce toward the target.
        match r.admit_write(0, b"g", Some(b"v2")) {
            WriteAdmission::Moved { epoch, shard } => {
                assert_eq!((epoch, shard), (1, 1));
            }
            WriteAdmission::Clear(_) => panic!("frozen range must refuse"),
        }
        gate.finish();
        assert!(!gate.active());
        match r.admit_write(0, b"g", Some(b"v3")) {
            WriteAdmission::Clear(p) => drop(p),
            WriteAdmission::Moved { .. } => panic!("finished gate must admit again"),
        };
    }

    #[test]
    fn ownership_check_beats_gate_state() {
        let map = PartitionMap::contiguous(vec![b"m".to_vec()]);
        let r = Router::new(map, 2);
        let moved = Arc::new(r.map().load().reassign(0, 1).unwrap());
        assert!(r.map().install(moved));
        // Shard 0 no longer owns "g": write and read both bounce.
        match r.admit_write(0, b"g", Some(b"v")) {
            WriteAdmission::Moved { epoch, shard } => assert_eq!((epoch, shard), (1, 1)),
            WriteAdmission::Clear(_) => panic!("stale-routed write must bounce"),
        }
        assert_eq!(r.read_misroute(0, b"g"), Some((1, 1)));
        assert_eq!(r.read_misroute(1, b"g"), None);
    }

    #[test]
    fn router_fans_out_one_gate_per_shard() {
        let r = Router::new(PartitionMap::contiguous(vec![b"m".to_vec()]), 2);
        assert_eq!(r.shards(), 2);
        assert!(r.gate(1).is_some());
        assert!(r.gate(2).is_none());
    }
}
