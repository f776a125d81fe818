//! Structural invariant auditor for the Bw-tree.
//!
//! [`BwTree::audit`] walks the whole logical tree through the mapping table
//! and cross-checks the invariants that latch-free updates are supposed to
//! preserve:
//!
//! * **key order** — consolidated leaf/absorb entries strictly sorted and
//!   inside the page's fence (`< high_key`); inner separators strictly
//!   sorted;
//! * **chain discipline** — leaf chains hold only leaf-kind deltas and end
//!   in a leaf base, inner chains likewise; chain length stays within a
//!   generous multiple of the consolidation threshold (a runaway chain
//!   means consolidation can no longer win its CAS);
//! * **cached sizes** — every leaf and inner base's size, computed once at
//!   construction, still equals the size of its entries;
//! * **mapping-table hygiene** — every PID a reachable page still routes
//!   to is itself reachable and not on the free list, every allocated PID
//!   is reachable from the root (no leaked pages), and no reachable slot
//!   is empty. "Still routes to" is worked out here, independently of the
//!   descent code: in an inner chain the tightest split fence and the
//!   newest index delta per separator win; in a leaf chain an absorb
//!   delta supersedes the sibling links below it.
//!
//! The audit is compiled in every build (it has no checker dependency) and
//! is intended to be called at *quiescence*: after worker threads joined in
//! a test, or under the deterministic checker at the end of a scenario. It
//! takes a guard so chain walks are safe against any straggling reclaim.

use crate::delta::{chain_iter, InnerBase, LeafBase, Node};
use crate::mapping::PageId;
use crate::tree::BwTree;
use dcs_ebr::Guard;
use std::collections::{BTreeSet, VecDeque};

/// Summary of a successful audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Pages reachable from the root (including via sibling links).
    pub reachable_pages: usize,
    /// Leaf pages seen.
    pub leaf_pages: usize,
    /// Inner pages seen.
    pub inner_pages: usize,
    /// Longest delta chain encountered.
    pub max_chain_len: usize,
    /// Total records in consolidated leaf bases (excludes un-consolidated
    /// put/del deltas — a structural count, not a logical one).
    pub base_records: usize,
    /// Approximate bytes of every reachable chain, summed over this walk
    /// after each base's cached size was checked against its entries. At
    /// quiescence, [`BwTree::footprint_bytes`] is this plus the mapping
    /// table's 16 B per slot.
    pub chain_bytes: usize,
    /// Delta nodes above every reachable inner base. Index pages fold each
    /// SMO delta when it is posted, so at quiescence this is 0 unless a
    /// fold lost its CAS (the page's next SMO folds it).
    pub inner_deltas: usize,
}

impl BwTree {
    /// Audit structural invariants; see the module docs. `Err` carries a
    /// human-readable description of the first violation found.
    ///
    /// Call at quiescence: concurrent structure modifications can make the
    /// audit report transient states as violations.
    pub fn audit(&self, guard: &Guard) -> Result<AuditReport, String> {
        let mapping = self.mapping();
        let mut report = AuditReport::default();
        // Chains can legitimately exceed the consolidation threshold (a
        // consolidation that loses its CAS simply retries later), but not by
        // an unbounded amount at quiescence.
        let chain_limit = self.config().consolidate_threshold * 4 + 16;

        let mut queue = VecDeque::new();
        let mut visited = BTreeSet::new();
        queue.push_back(self.root_pid());
        visited.insert(self.root_pid());

        let enqueue = |pid: PageId,
                       from: PageId,
                       queue: &mut VecDeque<PageId>,
                       visited: &mut BTreeSet<PageId>|
         -> Result<(), String> {
            if pid as usize >= mapping.capacity() {
                return Err(format!("page {from} references out-of-range pid {pid}"));
            }
            if visited.insert(pid) {
                queue.push_back(pid);
            }
            Ok(())
        };

        while let Some(pid) = queue.pop_front() {
            let Some(head) = mapping.load(pid, guard) else {
                return Err(format!(
                    "pid {pid} is reachable but its mapping slot is empty"
                ));
            };
            report.reachable_pages += 1;
            let mut chain_len = 0usize;
            let mut base_kind: Option<bool> = None; // Some(true) = leaf
            let mut delta_is_leaf: Option<bool> = None;
            // An absorb delta supersedes the sibling links below it: the
            // older ones name the page it absorbed.
            let mut absorbed = false;
            // Inner routing, gathered newest-first: the tightest split
            // fence, and per separator the newest insert (`Some`) or
            // delete (`None`), which shadows older deltas and the base.
            let mut fence: Option<&bytes::Bytes> = None;
            let mut decided: Vec<(&bytes::Bytes, Option<PageId>)> = Vec::new();
            let mut inner_base: Option<&InnerBase> = None;
            for node in chain_iter(head) {
                chain_len += 1;
                report.chain_bytes += node.approx_bytes();
                if chain_len > chain_limit {
                    return Err(format!(
                        "pid {pid}: delta chain exceeds {chain_limit} nodes — runaway chain"
                    ));
                }
                match node {
                    Node::Put { .. } | Node::Del { .. } => {
                        delta_is_leaf = Some(true);
                    }
                    Node::LeafSplit { right, .. } => {
                        delta_is_leaf = Some(true);
                        if !absorbed {
                            enqueue(*right, pid, &mut queue, &mut visited)?;
                        }
                    }
                    Node::Absorb {
                        sep,
                        entries,
                        high_key,
                        right,
                        ..
                    } => {
                        delta_is_leaf = Some(true);
                        check_sorted_in_fence(pid, "absorb", entries.iter().map(|(k, _)| k))?;
                        for (k, _) in entries {
                            if k < sep {
                                return Err(format!("pid {pid}: absorb entry below its separator"));
                            }
                            if let Some(h) = high_key {
                                if k >= h {
                                    return Err(format!(
                                        "pid {pid}: absorb entry at/above high key"
                                    ));
                                }
                            }
                        }
                        if let (Some(r), false) = (right, absorbed) {
                            enqueue(*r, pid, &mut queue, &mut visited)?;
                        }
                        absorbed = true;
                    }
                    Node::FlushMarker { .. } => {}
                    Node::RemoveNode { left, .. } => {
                        enqueue(*left, pid, &mut queue, &mut visited)?;
                    }
                    Node::IndexInsert { sep, child, .. } => {
                        delta_is_leaf = Some(false);
                        if !decided.iter().any(|(s, _)| *s == sep) {
                            decided.push((sep, Some(*child)));
                        }
                    }
                    Node::IndexDelete { sep, .. } => {
                        delta_is_leaf = Some(false);
                        if !decided.iter().any(|(s, _)| *s == sep) {
                            decided.push((sep, None));
                        }
                    }
                    Node::InnerSplit { sep, right, .. } => {
                        delta_is_leaf = Some(false);
                        if fence.is_none_or(|f| sep < f) {
                            fence = Some(sep);
                        }
                        enqueue(*right, pid, &mut queue, &mut visited)?;
                    }
                    Node::LeafBase(base) => {
                        base_kind = Some(true);
                        check_size(
                            pid,
                            "leaf base payload",
                            base.payload_bytes(),
                            LeafBase::payload_of(&base.entries),
                        )?;
                        check_sorted_in_fence(
                            pid,
                            "leaf base",
                            base.entries.iter().map(|(k, _)| k),
                        )?;
                        if let Some(h) = &base.high_key {
                            if let Some((k, _)) = base.entries.last() {
                                if k >= h {
                                    return Err(format!(
                                        "pid {pid}: leaf base entry at/above high key"
                                    ));
                                }
                            }
                        }
                        report.base_records += base.entries.len();
                        if let (Some(r), false) = (base.right, absorbed) {
                            enqueue(r, pid, &mut queue, &mut visited)?;
                        }
                    }
                    Node::FlashBase { right, .. } => {
                        base_kind = Some(true);
                        if let (Some(r), false) = (right, absorbed) {
                            enqueue(*r, pid, &mut queue, &mut visited)?;
                        }
                    }
                    Node::InnerBase(base) => {
                        base_kind = Some(false);
                        check_size(
                            pid,
                            "inner base separator",
                            base.separator_bytes(),
                            InnerBase::separator_bytes_of(&base.entries),
                        )?;
                        check_sorted_in_fence(
                            pid,
                            "inner base",
                            base.entries.iter().map(|(k, _)| k),
                        )?;
                        inner_base = Some(base);
                        if let Some(r) = base.right {
                            enqueue(r, pid, &mut queue, &mut visited)?;
                        }
                    }
                }
            }
            // Follow only the children routing can still reach. Entries at
            // or above the fence belong to the right sibling, already
            // enqueued through the split delta.
            if let Some(base) = inner_base {
                let below_fence = |sep: &bytes::Bytes| fence.is_none_or(|f| sep < f);
                let base_live = base
                    .entries
                    .iter()
                    .filter(|(sep, _)| !decided.iter().any(|(s, _)| *s == sep))
                    .map(|(sep, child)| (sep, *child));
                let delta_live = decided
                    .iter()
                    .filter_map(|(sep, decision)| decision.map(|child| (*sep, child)));
                enqueue(base.first_child, pid, &mut queue, &mut visited)?;
                for (sep, child) in base_live.chain(delta_live) {
                    if below_fence(sep) {
                        enqueue(child, pid, &mut queue, &mut visited)?;
                    }
                }
            }
            let is_leaf = match base_kind {
                Some(kind) => kind,
                None => {
                    return Err(format!("pid {pid}: chain has no base node"));
                }
            };
            if let Some(delta_kind) = delta_is_leaf {
                if delta_kind != is_leaf {
                    return Err(format!(
                        "pid {pid}: {} deltas stacked on {} base",
                        if delta_kind { "leaf" } else { "inner" },
                        if is_leaf { "leaf" } else { "inner" },
                    ));
                }
            }
            if is_leaf {
                report.leaf_pages += 1;
            } else {
                report.inner_pages += 1;
                report.inner_deltas += chain_len - 1;
            }
            report.max_chain_len = report.max_chain_len.max(chain_len);
        }

        // Mapping-table hygiene: reachable ∩ free list = ∅, and every
        // populated slot is reachable (no leaked pages).
        let free: BTreeSet<PageId> = mapping.free_pids().into_iter().collect();
        if let Some(pid) = visited.intersection(&free).next() {
            return Err(format!("pid {pid} is reachable but sits on the free list"));
        }
        for pid in 0..mapping.high_water() {
            let populated = mapping.load(pid, guard).is_some();
            if populated && !visited.contains(&pid) {
                return Err(format!(
                    "pid {pid} holds a chain but is unreachable from the root — leaked page"
                ));
            }
            if !populated && !free.contains(&pid) && visited.contains(&pid) {
                // Already reported above as empty reachable slot; defensive.
                return Err(format!("pid {pid} reachable with empty slot"));
            }
        }
        Ok(report)
    }
}

fn check_size(pid: PageId, what: &str, cached: usize, entries: usize) -> Result<(), String> {
    if cached != entries {
        return Err(format!(
            "pid {pid}: {what} size cached as {cached} B, its entries hold {entries} B"
        ));
    }
    Ok(())
}

fn check_sorted_in_fence<'a>(
    pid: PageId,
    what: &str,
    keys: impl Iterator<Item = &'a bytes::Bytes>,
) -> Result<(), String> {
    let mut prev: Option<&bytes::Bytes> = None;
    for k in keys {
        if let Some(p) = prev {
            if p >= k {
                return Err(format!("pid {pid}: {what} keys not strictly sorted"));
            }
        }
        prev = Some(k);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::tree::BwTree;
    use crate::BwTreeConfig;

    #[test]
    fn empty_tree_audits_clean() {
        let tree = BwTree::in_memory(BwTreeConfig::small_pages());
        let guard = dcs_ebr::pin();
        let report = tree.audit(&guard).unwrap();
        assert!(report.reachable_pages >= 1);
        assert_eq!(report.base_records, 0);
    }

    #[test]
    fn populated_tree_audits_clean() {
        let tree = BwTree::in_memory(BwTreeConfig::small_pages());
        let n = 500;
        for i in 0..n {
            let k = format!("key{i:05}");
            tree.put(k.into_bytes(), b"v".to_vec());
        }
        // Deletes and overwrites exercise del deltas and consolidation.
        for i in (0..n).step_by(3) {
            let k = format!("key{i:05}");
            tree.delete(k.into_bytes());
        }
        let guard = dcs_ebr::pin();
        let report = tree.audit(&guard).unwrap();
        assert!(report.leaf_pages >= 1);
        assert!(report.inner_pages >= 1, "500 keys should split the root");
        assert!(report.max_chain_len >= 1);
    }

    /// Completed merges leave superseded links behind: the parent's base
    /// still names the dead page until an `IndexDelete` shadows it, and
    /// the absorbing page's base still points right at it until the next
    /// consolidation. The audit must follow only what routing can reach,
    /// so it runs after every delete, not just at the end.
    #[test]
    fn merged_tree_audits_clean() {
        let key = |i: usize| format!("key{i:04}").into_bytes();
        let value = |i: usize| format!("value{i:04}-{}", "x".repeat(32)).into_bytes();
        let tree = BwTree::in_memory(BwTreeConfig::small_pages());
        for i in 0..48 {
            tree.put(key(i), value(i));
        }
        for _ in 0..2 {
            for i in 12..30 {
                tree.delete(key(i));
                let guard = dcs_ebr::pin();
                if let Err(e) = tree.audit(&guard) {
                    panic!("audit after deleting key {i} failed: {e}");
                }
            }
        }
        assert!(tree.stats().leaf_merges > 0, "{:?}", tree.stats());
        for i in 0..48 {
            let want = (!(12..30).contains(&i)).then(|| value(i));
            assert_eq!(tree.get(&key(i)).map(|v| v.to_vec()), want, "key {i}");
        }
    }
}
