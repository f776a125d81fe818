//! The MassTree proper: layered descent, lock-free reads, copy-on-write
//! writes with per-parent-slot serialization.

use crate::node::{
    free_subtree, slice_at, Border, Entry, EntryValue, Interior, Layer, MemCounter, Node, HAS_MORE,
    WIDTH,
};
use crate::sync::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Mutex, Ordering};
use bytes::Bytes;
use dcs_ebr::Guard;
use std::sync::Arc;

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MassTreeStats {
    /// Point lookups.
    pub gets: u64,
    /// Inserts (including overwrites).
    pub inserts: u64,
    /// Removes that found their key.
    pub removes: u64,
    /// Border-node splits.
    pub splits: u64,
    /// Next-layer subtrees created.
    pub layers_created: u64,
    /// Write retries due to races.
    pub retries: u64,
}

#[derive(Default)]
struct StatsInner {
    gets: AtomicU64,
    inserts: AtomicU64,
    removes: AtomicU64,
    splits: AtomicU64,
    layers_created: AtomicU64,
    retries: AtomicU64,
}

/// A MassTree. See the crate docs for structure and concurrency notes.
pub struct MassTree {
    layer0: Arc<Layer>,
    mem: MemCounter,
    len: AtomicUsize,
    stats: StatsInner,
}

/// Key-length class for the slice at `offset`.
fn klen_of(key: &[u8], offset: usize) -> u8 {
    let remaining = key.len().saturating_sub(offset);
    if remaining > 8 {
        HAS_MORE
    } else {
        remaining as u8
    }
}

impl MassTree {
    /// An empty tree.
    pub fn new() -> Self {
        let t = MassTree {
            layer0: Arc::new(Layer::new_empty()),
            mem: MemCounter::default(),
            len: AtomicUsize::new(0),
            stats: StatsInner::default(),
        };
        // Charge the initial empty root.
        // SAFETY: `Layer::new_empty` just stored a valid, non-null root
        // pointer, and no other thread can hold the tree yet.
        t.mem
            .add(unsafe { &*t.layer0.root.load(Ordering::SeqCst) }.approx_bytes());
        t
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of live tree nodes (the paper's memory-expansion
    /// measurements read this).
    pub fn footprint_bytes(&self) -> usize {
        self.mem.get()
    }

    pub(crate) fn root_layer(&self) -> &crate::node::Layer {
        &self.layer0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MassTreeStats {
        MassTreeStats {
            gets: self.stats.gets.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            removes: self.stats.removes.load(Ordering::Relaxed),
            splits: self.stats.splits.load(Ordering::Relaxed),
            layers_created: self.stats.layers_created.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Read path (lock-free)
    // ------------------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let guard = dcs_ebr::pin();
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let mut layer = self.layer0.clone();
        let mut offset = 0usize;
        loop {
            let slice = slice_at(key, offset);
            let klen = klen_of(key, offset);
            let border = Self::descend(&layer, slice, &guard);
            // SAFETY: guard pinned since before loading the pointer.
            let b = match unsafe { &*border } {
                Node::Border(b) => b,
                Node::Interior(_) => unreachable!("descend returns a border"),
            };
            match b.find(slice, klen) {
                Err(_) => return None,
                Ok(idx) => match &b.entries[idx].value {
                    EntryValue::Inline { suffix, value } => {
                        if klen == HAS_MORE && suffix.as_ref() != &key[offset + 8..] {
                            return None;
                        }
                        return Some(value.clone());
                    }
                    EntryValue::NextLayer(next) => {
                        layer = next.clone();
                        offset += 8;
                    }
                },
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Descend within one layer to the border node covering `slice`.
    fn descend(layer: &Layer, slice: u64, _guard: &Guard) -> *mut Node {
        let mut node = layer.root.load(Ordering::SeqCst);
        loop {
            // SAFETY: guard pinned; nodes freed only through EBR.
            match unsafe { &*node } {
                Node::Interior(i) => {
                    node = i.children[i.route(slice)].load(Ordering::SeqCst);
                }
                Node::Border(_) => return node,
            }
        }
    }

    /// Descend recording the interior path (for writers).
    fn descend_with_path(
        layer: &Layer,
        slice: u64,
        _guard: &Guard,
    ) -> (*mut Node, Vec<(*mut Node, usize)>) {
        let mut path = Vec::new();
        let mut node = layer.root.load(Ordering::SeqCst);
        loop {
            // SAFETY: guard pinned.
            match unsafe { &*node } {
                Node::Interior(i) => {
                    let slot = i.route(slice);
                    path.push((node, slot));
                    node = i.children[slot].load(Ordering::SeqCst);
                }
                Node::Border(_) => return (node, path),
            }
        }
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Insert or overwrite. Returns `true` if the key was new.
    pub fn insert(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> bool {
        let key = key.into();
        let value = value.into();
        let guard = dcs_ebr::pin();
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        let mut layer = self.layer0.clone();
        let mut offset = 0usize;
        loop {
            let slice = slice_at(&key, offset);
            let klen = klen_of(&key, offset);
            let (border, path) = Self::descend_with_path(&layer, slice, &guard);
            // SAFETY: guard pinned.
            let b = match unsafe { &*border } {
                Node::Border(b) => b,
                Node::Interior(_) => unreachable!(),
            };
            let suffix = if klen == HAS_MORE {
                key.slice(offset + 8..)
            } else {
                Bytes::new()
            };
            let (new_entries, inserted_new) = match b.find(slice, klen) {
                Ok(idx) => match &b.entries[idx].value {
                    EntryValue::NextLayer(next) => {
                        layer = next.clone();
                        offset += 8;
                        continue;
                    }
                    EntryValue::Inline {
                        suffix: old_suffix,
                        value: old_value,
                    } => {
                        let mut entries = b.entries.clone();
                        if klen == HAS_MORE && old_suffix != &suffix {
                            // Second key sharing this slice: grow a layer
                            // holding both suffixed records.
                            let sub = Arc::new(self.build_layer_with_two(
                                old_suffix.clone(),
                                old_value.clone(),
                                suffix.clone(),
                                value.clone(),
                            ));
                            entries[idx] = Entry {
                                slice,
                                klen: HAS_MORE,
                                value: EntryValue::NextLayer(sub),
                            };
                            self.stats.layers_created.fetch_add(1, Ordering::Relaxed);
                            (entries, true)
                        } else {
                            entries[idx] = Entry {
                                slice,
                                klen,
                                value: EntryValue::Inline {
                                    suffix,
                                    value: value.clone(),
                                },
                            };
                            (entries, false)
                        }
                    }
                },
                Err(pos) => {
                    let mut entries = b.entries.clone();
                    entries.insert(
                        pos,
                        Entry {
                            slice,
                            klen,
                            value: EntryValue::Inline {
                                suffix,
                                value: value.clone(),
                            },
                        },
                    );
                    (entries, true)
                }
            };
            if self.try_publish(&layer, border, &path, new_entries, &guard) {
                if inserted_new {
                    self.len.fetch_add(1, Ordering::Relaxed);
                }
                return inserted_new;
            }
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: &[u8]) -> Option<Bytes> {
        let guard = dcs_ebr::pin();
        let mut layer = self.layer0.clone();
        let mut offset = 0usize;
        loop {
            let slice = slice_at(key, offset);
            let klen = klen_of(key, offset);
            let (border, path) = Self::descend_with_path(&layer, slice, &guard);
            // SAFETY: guard pinned.
            let b = match unsafe { &*border } {
                Node::Border(b) => b,
                Node::Interior(_) => unreachable!(),
            };
            let (new_entries, old_value) = match b.find(slice, klen) {
                Err(_) => return None,
                Ok(idx) => match &b.entries[idx].value {
                    EntryValue::NextLayer(next) => {
                        layer = next.clone();
                        offset += 8;
                        continue;
                    }
                    EntryValue::Inline { suffix, value } => {
                        if klen == HAS_MORE && suffix.as_ref() != &key[offset + 8..] {
                            return None;
                        }
                        let mut entries = b.entries.clone();
                        entries.remove(idx);
                        (entries, value.clone())
                    }
                },
            };
            if self.try_publish(&layer, border, &path, new_entries, &guard) {
                self.stats.removes.fetch_add(1, Ordering::Relaxed);
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(old_value);
            }
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A fresh layer containing two suffixed records (built privately, then
    /// published by the caller).
    fn build_layer_with_two(&self, s1: Bytes, v1: Bytes, s2: Bytes, v2: Bytes) -> Layer {
        debug_assert_ne!(s1, s2);
        let layer = Layer::new_empty();
        // SAFETY: `Layer::new_empty` just stored a valid, non-null root, and
        // the layer is unpublished — no other thread can reach it.
        self.mem
            .add(unsafe { &*layer.root.load(Ordering::SeqCst) }.approx_bytes());
        // Insert both records layer-locally. This recursion terminates: the
        // suffixes differ, so within finitely many 8-byte slices they part.
        self.layer_insert_unpublished(&layer, &s1, v1);
        self.layer_insert_unpublished(&layer, &s2, v2);
        layer
    }

    /// Insert into a layer that is not yet published (no concurrency).
    fn layer_insert_unpublished(&self, layer: &Layer, key: &Bytes, value: Bytes) {
        let mut layer_ref: Arc<Layer>;
        let mut cur: &Layer = layer;
        let mut offset = 0usize;
        loop {
            let slice = slice_at(key, offset);
            let klen = klen_of(key, offset);
            let root = cur.root.load(Ordering::SeqCst);
            // Unpublished layers are always a single border node (two keys).
            // SAFETY: exclusive access (unpublished).
            let b = match unsafe { &*root } {
                Node::Border(b) => b,
                Node::Interior(_) => unreachable!("unpublished layer stays single-node"),
            };
            let suffix = if klen == HAS_MORE {
                key.slice(offset + 8..)
            } else {
                Bytes::new()
            };
            match b.find(slice, klen) {
                Ok(idx) => match &b.entries[idx].value {
                    EntryValue::NextLayer(next) => {
                        layer_ref = next.clone();
                        offset += 8;
                        // Continue the loop borrowing the Arc we keep alive.
                        // SAFETY: `layer_ref` holds the Arc for the rest of
                        // this iteration, so the pointee outlives the borrow.
                        cur = unsafe { &*(Arc::as_ptr(&layer_ref)) };
                        let _ = &layer_ref;
                        continue;
                    }
                    EntryValue::Inline {
                        suffix: old_suffix,
                        value: old_value,
                    } => {
                        debug_assert!(klen == HAS_MORE && old_suffix != &suffix);
                        let sub = Arc::new(self.build_layer_with_two(
                            old_suffix.clone(),
                            old_value.clone(),
                            suffix,
                            value,
                        ));
                        self.stats.layers_created.fetch_add(1, Ordering::Relaxed);
                        let mut entries = b.entries.clone();
                        entries[idx] = Entry {
                            slice,
                            klen: HAS_MORE,
                            value: EntryValue::NextLayer(sub),
                        };
                        self.swap_unpublished_root(cur, root, entries);
                        return;
                    }
                },
                Err(pos) => {
                    let mut entries = b.entries.clone();
                    entries.insert(
                        pos,
                        Entry {
                            slice,
                            klen,
                            value: EntryValue::Inline { suffix, value },
                        },
                    );
                    self.swap_unpublished_root(cur, root, entries);
                    return;
                }
            }
        }
    }

    fn swap_unpublished_root(&self, layer: &Layer, old: *mut Node, entries: Vec<Entry>) {
        let new = Node::Border(Border { entries });
        self.mem.add(new.approx_bytes());
        // SAFETY: exclusive (unpublished layer).
        self.mem.sub(unsafe { &*old }.approx_bytes());
        layer.root.store(new.into_raw(), Ordering::SeqCst);
        // SAFETY: the layer is unpublished, so `old` (its detached former
        // root) is exclusively owned here and freed exactly once.
        unsafe { free_subtree(old) };
    }

    // ------------------------------------------------------------------
    // Publication: replace a border node, splitting upward as needed.
    // ------------------------------------------------------------------

    /// Replace the border at the end of `path` with node(s) holding
    /// `new_entries`. Returns `false` if a race invalidated the path (the
    /// caller re-descends).
    fn try_publish(
        &self,
        layer: &Layer,
        old_border: *mut Node,
        path: &[(*mut Node, usize)],
        new_entries: Vec<Entry>,
        guard: &Guard,
    ) -> bool {
        // Locks are acquired bottom-up and held in this vector until the
        // publication completes (drop order is irrelevant for correctness).
        let mut locks: Vec<crate::sync::MutexGuard<'_, ()>> = Vec::new();

        if new_entries.len() <= WIDTH {
            let new_node = Node::Border(Border {
                entries: new_entries,
            });
            return self.publish_swap(
                layer,
                path,
                path.len(),
                old_border,
                new_node,
                &mut locks,
                guard,
            );
        }

        // Split: find a boundary that does not separate equal slices (at
        // most 10 klen classes share a slice, and 10 < WIDTH, so a boundary
        // always exists near the middle).
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        let mut mid = new_entries.len() / 2;
        while mid < new_entries.len() && new_entries[mid].slice == new_entries[mid - 1].slice {
            mid += 1;
        }
        if mid == new_entries.len() {
            mid = new_entries.len() / 2;
            while mid > 1 && new_entries[mid].slice == new_entries[mid - 1].slice {
                mid -= 1;
            }
        }
        let right_entries = new_entries[mid..].to_vec();
        let upkey = right_entries[0].slice;
        let left_entries = new_entries[..mid].to_vec();
        let left = Node::Border(Border {
            entries: left_entries,
        })
        .into_raw();
        let right = Node::Border(Border {
            entries: right_entries,
        })
        .into_raw();
        // SAFETY: `left` was just allocated by `into_raw` and not yet published.
        self.mem.add(unsafe { &*left }.approx_bytes());
        // SAFETY: `right` was just allocated by `into_raw` and not yet published.
        self.mem.add(unsafe { &*right }.approx_bytes());

        if self.insert_into_parents(
            layer,
            path,
            path.len(),
            old_border,
            upkey,
            left,
            right,
            &mut locks,
            guard,
        ) {
            true
        } else {
            // SAFETY: `left` was never published, so we still own it exclusively.
            self.mem.sub(unsafe { &*left }.approx_bytes());
            // SAFETY: `right` was never published, so we still own it exclusively.
            self.mem.sub(unsafe { &*right }.approx_bytes());
            // SAFETY: both nodes came from `Box::into_raw` above and were
            // never published; reclaiming each exactly once is sound.
            unsafe {
                drop(Box::from_raw(left));
                drop(Box::from_raw(right));
            }
            false
        }
    }

    /// Swap `old` for `new_node` at the slot above `level` (the parent at
    /// `path[level-1]`, or the layer root when `level == 0`). Verifies the
    /// slot still points at `old`.
    #[allow(clippy::too_many_arguments)]
    fn publish_swap(
        &self,
        layer: &Layer,
        path: &[(*mut Node, usize)],
        level: usize,
        old: *mut Node,
        new_node: Node,
        locks: &mut Vec<crate::sync::MutexGuard<'_, ()>>,
        guard: &Guard,
    ) -> bool {
        let new_bytes = new_node.approx_bytes();
        if level == 0 {
            let lock = layer.root_lock.lock().expect("root lock poisoned");
            // SAFETY: transmute the guard lifetime into the held vector; the
            // vector dies before `layer` does.
            locks.push(unsafe {
                std::mem::transmute::<
                    crate::sync::MutexGuard<'_, ()>,
                    crate::sync::MutexGuard<'_, ()>,
                >(lock)
            });
            if layer.root.load(Ordering::SeqCst) != old {
                return false;
            }
            let new_ptr = new_node.into_raw();
            self.mem.add(new_bytes);
            layer.root.store(new_ptr, Ordering::SeqCst);
            self.retire_node(old, guard);
            true
        } else {
            let (pnode, slot) = path[level - 1];
            // SAFETY: guard pinned; pnode is a live interior node.
            let p = match unsafe { &*pnode } {
                Node::Interior(i) => i,
                Node::Border(_) => unreachable!("path holds interior nodes"),
            };
            let lock = p.wlock.lock().expect("node lock poisoned");
            // SAFETY: see publish_swap's root case — the node outlives the
            // guard (EBR pin), and `locks` drops before publication returns.
            locks.push(unsafe {
                std::mem::transmute::<
                    crate::sync::MutexGuard<'_, ()>,
                    crate::sync::MutexGuard<'_, ()>,
                >(lock)
            });
            if p.obsolete.load(Ordering::SeqCst) || p.children[slot].load(Ordering::SeqCst) != old {
                return false;
            }
            let new_ptr = new_node.into_raw();
            self.mem.add(new_bytes);
            p.children[slot].store(new_ptr, Ordering::SeqCst);
            self.retire_node(old, guard);
            true
        }
    }

    /// Propagate a split upward: replace `old_child` at `path[..level]` with
    /// `left`/`right` separated by `upkey`, splitting interiors as needed.
    #[allow(clippy::too_many_arguments)]
    fn insert_into_parents(
        &self,
        layer: &Layer,
        path: &[(*mut Node, usize)],
        level: usize,
        old_child: *mut Node,
        upkey: u64,
        left: *mut Node,
        right: *mut Node,
        locks: &mut Vec<crate::sync::MutexGuard<'_, ()>>,
        guard: &Guard,
    ) -> bool {
        if level == 0 {
            // New root for this layer.
            let lock = layer.root_lock.lock().expect("root lock poisoned");
            // SAFETY: see publish_swap's root case.
            locks.push(unsafe {
                std::mem::transmute::<
                    crate::sync::MutexGuard<'_, ()>,
                    crate::sync::MutexGuard<'_, ()>,
                >(lock)
            });
            if layer.root.load(Ordering::SeqCst) != old_child {
                return false;
            }
            let new_root = Node::Interior(Interior {
                keys: vec![upkey],
                children: vec![AtomicPtr::new(left), AtomicPtr::new(right)],
                wlock: Mutex::new(()),
                obsolete: AtomicBool::new(false),
            });
            self.mem.add(new_root.approx_bytes());
            layer.root.store(new_root.into_raw(), Ordering::SeqCst);
            self.retire_node(old_child, guard);
            return true;
        }
        let (pnode, slot) = path[level - 1];
        // SAFETY: guard pinned.
        let p = match unsafe { &*pnode } {
            Node::Interior(i) => i,
            Node::Border(_) => unreachable!("path holds interior nodes"),
        };
        let lock = p.wlock.lock().expect("node lock poisoned");
        // SAFETY: the guard's borrow is detached from `p`'s lifetime, but
        // the node outlives every held guard: it is reachable from the
        // tree (or retired through EBR, whose grace period cannot elapse
        // while our epoch Guard is pinned), and `locks` drops before the
        // enclosing publication call returns.
        locks.push(unsafe {
            std::mem::transmute::<crate::sync::MutexGuard<'_, ()>, crate::sync::MutexGuard<'_, ()>>(
                lock,
            )
        });
        if p.obsolete.load(Ordering::SeqCst) || p.children[slot].load(Ordering::SeqCst) != old_child
        {
            return false;
        }
        // Build the replacement for p with `upkey` inserted at `slot`.
        let mut keys: Vec<u64> = p.keys.clone();
        let mut children: Vec<*mut Node> = p
            .children
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect();
        keys.insert(slot, upkey);
        children[slot] = left;
        children.insert(slot + 1, right);

        let publish_interior = |keys: Vec<u64>, children: Vec<*mut Node>| -> Node {
            Node::Interior(Interior {
                keys,
                children: children.into_iter().map(AtomicPtr::new).collect(),
                wlock: Mutex::new(()),
                obsolete: AtomicBool::new(false),
            })
        };

        if keys.len() <= WIDTH {
            let p_new = publish_interior(keys, children);
            if self.publish_swap(layer, path, level - 1, pnode, p_new, locks, guard) {
                p.obsolete.store(true, Ordering::SeqCst);
                // The split child was detached by p_new's child slots.
                self.retire_node(old_child, guard);
                true
            } else {
                false
            }
        } else {
            // Split the interior: median moves up.
            self.stats.splits.fetch_add(1, Ordering::Relaxed);
            let m = keys.len() / 2;
            let up = keys[m];
            let right_keys = keys[m + 1..].to_vec();
            let left_keys = keys[..m].to_vec();
            let right_children = children[m + 1..].to_vec();
            let left_children = children[..m + 1].to_vec();
            let p_left = publish_interior(left_keys, left_children).into_raw();
            let p_right = publish_interior(right_keys, right_children).into_raw();
            // SAFETY: `p_left` was just allocated by `into_raw` and not yet published.
            self.mem.add(unsafe { &*p_left }.approx_bytes());
            // SAFETY: `p_right` was just allocated by `into_raw` and not yet published.
            self.mem.add(unsafe { &*p_right }.approx_bytes());
            if self.insert_into_parents(
                layer,
                path,
                level - 1,
                pnode,
                up,
                p_left,
                p_right,
                locks,
                guard,
            ) {
                p.obsolete.store(true, Ordering::SeqCst);
                // The split child was detached by p_left/p_right's slots.
                self.retire_node(old_child, guard);
                true
            } else {
                // SAFETY: `p_left` was never published, so we still own it exclusively.
                self.mem.sub(unsafe { &*p_left }.approx_bytes());
                // SAFETY: `p_right` was never published, so we still own it exclusively.
                self.mem.sub(unsafe { &*p_right }.approx_bytes());
                // SAFETY: both nodes came from `Box::into_raw` above and were
                // never published; reclaiming each exactly once is sound.
                unsafe {
                    drop(Box::from_raw(p_left));
                    drop(Box::from_raw(p_right));
                }
                false
            }
        }
    }

    /// Retire a replaced node (shallow: children/entries were cloned or are
    /// now owned by the replacement).
    fn retire_node(&self, node: *mut Node, guard: &Guard) {
        // SAFETY: node was atomically unlinked by the caller.
        let bytes = unsafe { &*node }.approx_bytes();
        let mem = self.mem.clone();
        let addr = node as usize;
        guard.defer(move || {
            mem.sub(bytes);
            // SAFETY: unlinked, grace period elapsed. Shallow drop: the Box
            // drops Vecs of AtomicPtr (no child ownership) and Border entry
            // clones (refcounted Bytes / Arc<Layer>).
            drop(unsafe { Box::from_raw(addr as *mut Node) });
        });
    }
}

impl Default for MassTree {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MassTree {
    fn drop(&mut self) {
        // Layer0's Drop frees the whole structure (sub-layers via Arc).
    }
}

impl std::fmt::Debug for MassTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MassTree")
            .field("len", &self.len())
            .field("footprint_bytes", &self.footprint_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

// SAFETY: all interior mutability is via atomics and mutexes; raw node
// pointers are managed by the EBR protocol.
unsafe impl Send for MassTree {}
// SAFETY: shared access goes through atomics, per-node locks, and EBR
// guards; no `&self` method hands out unsynchronized mutable state.
unsafe impl Sync for MassTree {}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_owned())
    }

    #[test]
    fn empty_tree() {
        let t = MassTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(b"x"), None);
    }

    #[test]
    fn insert_get_short_keys() {
        let t = MassTree::new();
        assert!(t.insert(b("a"), b("1")));
        assert!(t.insert(b("b"), b("2")));
        assert!(!t.insert(b("a"), b("1x"))); // overwrite
        assert_eq!(t.get(b"a"), Some(b("1x")));
        assert_eq!(t.get(b"b"), Some(b("2")));
        assert_eq!(t.get(b"c"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_key_is_a_key() {
        let t = MassTree::new();
        t.insert(b(""), b("empty"));
        assert_eq!(t.get(b""), Some(b("empty")));
        assert_eq!(t.remove(b""), Some(b("empty")));
        assert_eq!(t.get(b""), None);
    }

    #[test]
    fn exact_8_byte_vs_longer_keys() {
        let t = MassTree::new();
        t.insert(b("ABCDEFGH"), b("eight"));
        t.insert(b("ABCDEFGHI"), b("nine"));
        t.insert(b("ABCDEFGHIJKLMNOPQ"), b("seventeen"));
        assert_eq!(t.get(b"ABCDEFGH"), Some(b("eight")));
        assert_eq!(t.get(b"ABCDEFGHI"), Some(b("nine")));
        assert_eq!(t.get(b"ABCDEFGHIJKLMNOPQ"), Some(b("seventeen")));
        assert_eq!(t.get(b"ABCDEFG"), None);
        assert_eq!(t.get(b"ABCDEFGHIJ"), None);
    }

    #[test]
    fn shared_slice_creates_layer() {
        let t = MassTree::new();
        t.insert(b("prefix--suffix-one"), b("1"));
        assert_eq!(t.stats().layers_created, 0);
        t.insert(b("prefix--suffix-two"), b("2"));
        assert!(
            t.stats().layers_created >= 1,
            "shared slice should grow a layer"
        );
        assert_eq!(t.get(b"prefix--suffix-one"), Some(b("1")));
        assert_eq!(t.get(b"prefix--suffix-two"), Some(b("2")));
        assert_eq!(t.get(b"prefix--suffix-xxx"), None);
    }

    #[test]
    fn deep_shared_prefixes() {
        // Keys sharing 24 bytes force three layers.
        let t = MassTree::new();
        let p = "X".repeat(24);
        t.insert(Bytes::from(format!("{p}aaa")), b("A"));
        t.insert(Bytes::from(format!("{p}bbb")), b("B"));
        t.insert(Bytes::from(p.to_string()), b("P"));
        assert_eq!(t.get(format!("{p}aaa").as_bytes()), Some(b("A")));
        assert_eq!(t.get(format!("{p}bbb").as_bytes()), Some(b("B")));
        assert_eq!(t.get(p.as_bytes()), Some(b("P")));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn padding_collision_is_handled() {
        // "abc" and "abc\0\0\0\0\0" share a padded slice but differ in klen.
        let t = MassTree::new();
        t.insert(b("abc"), b("short"));
        t.insert(Bytes::from(&b"abc\0\0\0\0\0"[..]), b("padded"));
        assert_eq!(t.get(b"abc"), Some(b("short")));
        assert_eq!(t.get(b"abc\0\0\0\0\0"), Some(b("padded")));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn splits_occur_and_preserve_data() {
        let t = MassTree::new();
        let n = 5000u32;
        for i in 0..n {
            t.insert(
                Bytes::from(format!("key{i:08}")),
                Bytes::from(format!("v{i}")),
            );
        }
        assert!(t.stats().splits > 10, "splits: {}", t.stats().splits);
        assert_eq!(t.len(), n as usize);
        for i in 0..n {
            assert_eq!(
                t.get(format!("key{i:08}").as_bytes()),
                Some(Bytes::from(format!("v{i}"))),
                "key {i} lost"
            );
        }
    }

    #[test]
    fn random_order_inserts() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut ids: Vec<u32> = (0..3000).collect();
        ids.shuffle(&mut rng);
        let t = MassTree::new();
        for &i in &ids {
            t.insert(
                Bytes::from(format!("k{i:06}")),
                Bytes::from(format!("v{i}")),
            );
        }
        for i in 0..3000u32 {
            assert_eq!(
                t.get(format!("k{i:06}").as_bytes()),
                Some(Bytes::from(format!("v{i}")))
            );
        }
    }

    #[test]
    fn remove_everything() {
        let t = MassTree::new();
        for i in 0..1000u32 {
            t.insert(
                Bytes::from(format!("k{i:05}")),
                Bytes::from(format!("v{i}")),
            );
        }
        for i in 0..1000u32 {
            assert_eq!(
                t.remove(format!("k{i:05}").as_bytes()),
                Some(Bytes::from(format!("v{i}"))),
                "remove {i}"
            );
        }
        assert_eq!(t.len(), 0);
        for i in 0..1000u32 {
            assert_eq!(t.get(format!("k{i:05}").as_bytes()), None);
        }
        // Removing again is a no-op.
        assert_eq!(t.remove(b"k00000"), None);
    }

    #[test]
    // The EBR drain wait is bounded by a wall-clock deadline.
    #[allow(clippy::disallowed_types)]
    fn footprint_tracks_growth_and_shrink() {
        // Keys fit in one slice (≤ 8 bytes) so no sub-layers are created:
        // layer and node skeletons are never collapsed (as in the original),
        // so only same-layer payload shrinkage is asserted here.
        let t = MassTree::new();
        let f0 = t.footprint_bytes();
        for i in 0..2000u32 {
            t.insert(Bytes::from(format!("k{i:06}")), Bytes::from(vec![7u8; 100]));
        }
        let f1 = t.footprint_bytes();
        assert!(f1 > f0 + 2000 * 100, "f1 {f1} too small");
        for i in 0..2000u32 {
            t.remove(format!("k{i:06}").as_bytes());
        }
        // EBR frees lazily, and concurrently running tests can briefly hold
        // the epoch back; flush until the garbage drains (bounded wait).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let f2 = loop {
            for _ in 0..64 {
                dcs_ebr::pin().flush();
            }
            let f = t.footprint_bytes();
            if f < f1 / 2 || std::time::Instant::now() > deadline {
                break f;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(f2 < f1 / 2, "footprint did not shrink: {f1} -> {f2}");
    }

    #[test]
    fn model_check_against_btreemap() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let t = MassTree::new();
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            // Keys with heavy shared prefixes to exercise layers.
            let d = rng.gen_range(0..4u8);
            let key = match d {
                0 => format!("k{}", rng.gen_range(0..500u32)),
                1 => format!("shared-prefix-{}", rng.gen_range(0..300u32)),
                2 => format!("shared-prefix-deeper-{}", rng.gen_range(0..300u32)),
                _ => format!("{}", rng.gen_range(0..100u32)),
            };
            if rng.gen_bool(0.7) {
                let v = format!("v{}", rng.gen::<u32>());
                t.insert(Bytes::from(key.clone()), Bytes::from(v.clone()));
                model.insert(key, v);
            } else {
                let got = t
                    .remove(key.as_bytes())
                    .map(|b| String::from_utf8(b.to_vec()).expect("utf8 value"));
                assert_eq!(got, model.remove(&key), "remove {key} mismatch");
            }
        }
        for (k, v) in &model {
            assert_eq!(
                t.get(k.as_bytes()),
                Some(Bytes::from(v.clone())),
                "key {k} mismatch"
            );
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(MassTree::new());
        const THREADS: u32 = 8;
        const PER: u32 = 2000;
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    let id = tid * PER + i;
                    let k = Bytes::from(format!("con{id:08}"));
                    let v = Bytes::from(format!("val{id}"));
                    t.insert(k.clone(), v.clone());
                    assert_eq!(t.get(&k), Some(v), "own write lost {id}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), (THREADS * PER) as usize);
        for id in 0..THREADS * PER {
            assert_eq!(
                t.get(format!("con{id:08}").as_bytes()),
                Some(Bytes::from(format!("val{id}"))),
                "key {id} lost"
            );
        }
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let t = Arc::new(MassTree::new());
        for i in 0..1000u32 {
            t.insert(Bytes::from(format!("stable{i:05}")), b("init"));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        // Writers churn a different key range.
        for tid in 0..2u32 {
            let t = t.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    t.insert(
                        Bytes::from(format!("churn{tid}-{:05}", i % 3000)),
                        Bytes::from(format!("{i}")),
                    );
                    i += 1;
                }
            }));
        }
        // Readers must always see the stable range intact.
        for _ in 0..4 {
            let t = t.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for i in (0..1000u32).step_by(37) {
                        assert_eq!(
                            t.get(format!("stable{i:05}").as_bytes()),
                            Some(b("init")),
                            "stable key {i} disturbed"
                        );
                    }
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
