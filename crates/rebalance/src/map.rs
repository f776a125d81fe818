//! The versioned partition map: immutable epoch-stamped snapshots of
//! range → shard ownership, swapped atomically through [`SharedMap`].
//!
//! A map with `k` split keys has `k + 1` ranges; range `i` covers
//! `[splits[i-1], splits[i])` (the first range starts at the empty key,
//! the last is unbounded above). Unlike the static `Partitioner`, range
//! `i` is **not** required to live on shard `i`: `owners[i]` names the
//! owning shard, so ranges can split, merge, and move without the shard
//! count changing.
//!
//! This file is wire-path (its `#![deny(…)]` header below): shard workers
//! consult the map on every request, so nothing here may panic — lookups
//! use `partition_point`/`get`, mutations return `Option` instead of
//! asserting, and lock poisoning is absorbed with the map structurally
//! intact (an immutable snapshot cannot be torn).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::{Arc, Mutex};

/// An immutable range → shard assignment at one map epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    epoch: u64,
    /// Strictly ascending split keys; `splits.len() + 1` ranges.
    splits: Vec<Vec<u8>>,
    /// `owners[i]` = shard owning range `i`; `owners.len() == splits.len() + 1`.
    owners: Vec<usize>,
}

impl PartitionMap {
    /// Epoch 0, one unbounded range on shard 0.
    pub fn single() -> Self {
        PartitionMap {
            epoch: 0,
            splits: Vec::new(),
            owners: vec![0],
        }
    }

    /// Epoch 0 with the classic static layout: range `i` on shard `i`.
    /// This is the map a `Partitioner`'s split keys describe, so a server
    /// started without rebalancing routes identically to the old code.
    pub fn contiguous(splits: Vec<Vec<u8>>) -> Self {
        debug_assert!(splits.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        let owners = (0..=splits.len()).collect();
        PartitionMap {
            epoch: 0,
            splits,
            owners,
        }
    }

    /// Epoch 0 with explicit ownership. `None` unless `owners` has
    /// exactly one entry per range and `splits` is strictly ascending.
    pub fn with_owners(splits: Vec<Vec<u8>>, owners: Vec<usize>) -> Option<Self> {
        if owners.len() != splits.len() + 1 {
            return None;
        }
        if !splits.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return None;
        }
        Some(PartitionMap {
            epoch: 0,
            splits,
            owners,
        })
    }

    /// The map version. Strictly increases across `split`/`merge`/
    /// `reassign`; [`SharedMap::install`] refuses anything not newer.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of ranges.
    pub fn ranges(&self) -> usize {
        self.owners.len()
    }

    /// Highest owner index + 1 — the shard count the map assumes.
    pub fn shards(&self) -> usize {
        self.owners.iter().copied().max().map_or(1, |m| m + 1)
    }

    /// The split keys (strictly ascending).
    pub fn splits(&self) -> &[Vec<u8>] {
        &self.splits
    }

    /// Per-range owners.
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// Index of the range containing `key`.
    pub fn range_of(&self, key: &[u8]) -> usize {
        self.splits.partition_point(|s| s.as_slice() <= key)
    }

    /// Owner of range `r`, if `r` is in bounds.
    pub fn owner_of_range(&self, r: usize) -> Option<usize> {
        self.owners.get(r).copied()
    }

    /// Owner of the range containing `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.owner_of_range(self.range_of(key)).unwrap_or(0)
    }

    /// `[lo, hi)` bounds of range `r` (`hi == None` means unbounded).
    pub fn bounds(&self, r: usize) -> Option<(&[u8], Option<&[u8]>)> {
        if r >= self.owners.len() {
            return None;
        }
        let lo: &[u8] = if r == 0 {
            b""
        } else {
            match self.splits.get(r - 1) {
                Some(s) => s.as_slice(),
                None => return None,
            }
        };
        let hi = self.splits.get(r).map(|s| s.as_slice());
        Some((lo, hi))
    }

    /// A new map at `epoch + 1` with range `r` split at `at` (both halves
    /// keep the owner). `None` if `at` is not strictly inside the range.
    pub fn split(&self, r: usize, at: Vec<u8>) -> Option<PartitionMap> {
        let (lo, hi) = self.bounds(r)?;
        if at.as_slice() <= lo {
            return None;
        }
        if let Some(h) = hi {
            if at.as_slice() >= h {
                return None;
            }
        }
        let owner = self.owner_of_range(r)?;
        let mut splits = self.splits.clone();
        splits.insert(r, at);
        let mut owners = self.owners.clone();
        owners.insert(r, owner);
        Some(PartitionMap {
            epoch: self.epoch + 1,
            splits,
            owners,
        })
    }

    /// A new map at `epoch + 1` with ranges `r` and `r + 1` merged.
    /// `None` unless both exist and share an owner (merging across
    /// owners would be a disguised migration — use `reassign` first).
    pub fn merge(&self, r: usize) -> Option<PartitionMap> {
        let a = self.owner_of_range(r)?;
        let b = self.owner_of_range(r + 1)?;
        if a != b || r >= self.splits.len() {
            return None;
        }
        let mut splits = self.splits.clone();
        splits.remove(r);
        let mut owners = self.owners.clone();
        owners.remove(r + 1);
        Some(PartitionMap {
            epoch: self.epoch + 1,
            splits,
            owners,
        })
    }

    /// A new map at `epoch + 1` with range `r` owned by shard `to`.
    /// Pure metadata — moving the data is the migration engine's job.
    pub fn reassign(&self, r: usize, to: usize) -> Option<PartitionMap> {
        let mut owners = self.owners.clone();
        *owners.get_mut(r)? = to;
        Some(PartitionMap {
            epoch: self.epoch + 1,
            splits: self.splits.clone(),
            owners,
        })
    }
}

/// A byte-string strictly between `lo` and `hi` (`None` = unbounded),
/// or `None` when the interval is too narrow to split. Treats keys as
/// base-256 fractions and halves their sum, so for fixed-width keys
/// sharing a prefix (the benchmark's `usr:` + big-endian id layout)
/// this is the id-space midpoint.
pub fn midpoint(lo: &[u8], hi: Option<&[u8]>) -> Option<Vec<u8>> {
    // Width: one digit past the longer bound so adjacent-looking bounds
    // still leave room for a fraction between them.
    let width = lo.len().max(hi.map_or(0, <[u8]>::len)) + 1;
    let digit = |s: Option<&[u8]>, i: usize, fill: u8| -> u16 {
        match s {
            Some(s) => u16::from(s.get(i).copied().unwrap_or(0)),
            None => u16::from(fill),
        }
    };
    // Sum lo + hi as base-256 digit strings (hi = None reads as 0xff…).
    let mut sum = vec![0u16; width];
    let mut carry = 0u16;
    for i in (0..width).rev() {
        let s = digit(Some(lo), i, 0) + digit(hi, i, 0xff) + carry;
        carry = s >> 8;
        if let Some(d) = sum.get_mut(i) {
            *d = s & 0xff;
        }
    }
    // Halve left-to-right, pushing the remainder down a digit.
    let mut mid = Vec::with_capacity(width);
    let mut rem = carry; // the overflow digit, halved first
    for d in sum {
        let cur = (rem << 8) | d;
        mid.push((cur >> 1) as u8);
        rem = cur & 1;
    }
    // Trim trailing zeros (shorter keys sort identically) then validate
    // strict betweenness; adjacent bounds have no midpoint.
    while mid.last() == Some(&0) {
        mid.pop();
    }
    if mid.as_slice() <= lo {
        return None;
    }
    if let Some(h) = hi {
        if mid.as_slice() >= h {
            return None;
        }
    }
    Some(mid)
}

/// The process-wide current map: an `Arc` snapshot swapped under a
/// mutex. Readers pay one uncontended lock to clone the `Arc`; the
/// single rebalancer thread is the only writer.
pub struct SharedMap {
    current: Mutex<Arc<PartitionMap>>,
}

impl SharedMap {
    /// Start at `map`.
    pub fn new(map: PartitionMap) -> Self {
        SharedMap {
            current: Mutex::new(Arc::new(map)),
        }
    }

    /// The current snapshot.
    pub fn load(&self) -> Arc<PartitionMap> {
        // A poisoned lock still guards a structurally valid Arc swap;
        // routing must keep working even if a sibling thread panicked.
        let g = self.current.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&g)
    }

    /// Install `map` if it is strictly newer than the current epoch.
    /// Returns whether the swap happened.
    pub fn install(&self, map: Arc<PartitionMap>) -> bool {
        let mut g = self.current.lock().unwrap_or_else(|e| e.into_inner());
        if map.epoch() > g.epoch() {
            *g = map;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    #[test]
    fn contiguous_matches_static_partitioner_routing() {
        let m = PartitionMap::contiguous(vec![k("g"), k("p")]);
        assert_eq!(m.ranges(), 3);
        assert_eq!(m.shard_of(b"a"), 0);
        assert_eq!(m.shard_of(b"g"), 1, "split key belongs to the right");
        assert_eq!(m.shard_of(b"h"), 1);
        assert_eq!(m.shard_of(b"z"), 2);
        assert_eq!(m.bounds(0), Some((&b""[..], Some(&b"g"[..]))));
        assert_eq!(m.bounds(2), Some((&b"p"[..], None)));
        assert_eq!(m.bounds(3), None);
    }

    #[test]
    fn split_keeps_owner_and_bumps_epoch() {
        let m = PartitionMap::contiguous(vec![k("m")]);
        let s = m.split(0, k("f")).unwrap();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.ranges(), 3);
        assert_eq!(s.owners(), &[0, 0, 1]);
        assert_eq!(s.shard_of(b"a"), 0);
        assert_eq!(s.shard_of(b"g"), 0);
        assert_eq!(s.shard_of(b"n"), 1);
        // Out-of-range split points refused.
        assert!(m.split(0, k("m")).is_none());
        assert!(m.split(0, k("")).is_none());
        assert!(m.split(1, k("a")).is_none());
    }

    #[test]
    fn merge_requires_shared_owner() {
        let m = PartitionMap::contiguous(vec![k("m")]);
        assert!(m.merge(0).is_none(), "owners differ");
        let s = m.split(0, k("f")).unwrap();
        let g = s.merge(0).unwrap();
        assert_eq!(g.epoch(), 2);
        assert_eq!(g.splits(), &[k("m")]);
        assert_eq!(g.owners(), &[0, 1]);
    }

    #[test]
    fn reassign_moves_ownership_only() {
        let m = PartitionMap::contiguous(vec![k("m")]);
        let r = m.reassign(0, 1).unwrap();
        assert_eq!(r.epoch(), 1);
        assert_eq!(r.shard_of(b"a"), 1);
        assert_eq!(r.shard_of(b"z"), 1);
        assert_eq!(r.splits(), m.splits(), "boundaries untouched");
        assert!(m.reassign(9, 1).is_none());
    }

    #[test]
    fn shared_map_refuses_stale_installs() {
        let sm = SharedMap::new(PartitionMap::contiguous(vec![k("m")]));
        let v0 = sm.load();
        let v1 = Arc::new(v0.reassign(0, 1).unwrap());
        assert!(sm.install(Arc::clone(&v1)));
        assert!(!sm.install(Arc::clone(&v1)), "same epoch refused");
        assert!(!sm.install(v0), "older epoch refused");
        assert_eq!(sm.load().epoch(), 1);
    }

    #[test]
    fn midpoint_bisects_fixed_width_keys() {
        let lo = vec![0, 0, 0, 0];
        let hi = vec![0, 0, 4, 0];
        let mid = midpoint(&lo, Some(&hi)).unwrap();
        assert_eq!(mid, vec![0, 0, 2]);
        assert!(mid.as_slice() > lo.as_slice() && mid.as_slice() < hi.as_slice());
    }

    #[test]
    fn midpoint_handles_unbounded_and_empty() {
        let mid = midpoint(b"", None).unwrap();
        assert!(!mid.is_empty());
        let again = midpoint(b"", Some(&mid)).unwrap();
        assert!(again.as_slice() < mid.as_slice());
    }

    #[test]
    fn midpoint_refuses_adjacent_bounds() {
        // [x, x+ε): nothing strictly between a key and itself.
        assert!(midpoint(b"abc", Some(b"abc")).is_none());
        // Repeated bisection keeps producing strictly interior points.
        let lo = vec![7u8];
        let mut hi = vec![8u8];
        for _ in 0..64 {
            match midpoint(&lo, Some(&hi)) {
                Some(m) => {
                    assert!(m.as_slice() > lo.as_slice() && m.as_slice() < hi.as_slice());
                    hi = m;
                }
                None => break,
            }
        }
    }
}
