//! Effect inference: per-function summaries over the workspace call
//! graph, computed by bottom-up fixpoint over SCCs.
//!
//! Every function gets a summary in a small lattice: a bitset of
//! [`Effect`]s (allocates, may panic, blocks on I/O, reads the wall
//! clock, performs an unbounded channel send) plus the set of lock
//! labels it may acquire, directly or through anything it calls. The
//! intrinsic sites are extracted syntactically by the call-graph walk;
//! this module propagates them caller-ward: `summary(f) = intrinsics(f)
//! ∪ ⋃ summary(callee)` for every resolved callee. Strongly connected
//! components (recursion, mutual recursion) are iterated to a fixpoint —
//! the lattice is finite and the transfer function monotone, so the loop
//! terminates.
//!
//! Each inferred effect carries an [`Origin`]: the concrete site that
//! introduced it and the call chain it travelled, so a transitive
//! finding three crates away still names the line to fix. Origins are
//! first-wins: the report shows *one* witness per effect, not all of
//! them.
//!
//! Effects are waivable at their intrinsic site with
//! `// LINT: allow(effect-<name>): <reason>` (`effect-alloc`,
//! `effect-panic`, `effect-block`, `effect-clock`, `effect-send`,
//! `effect-lock`) — the site then contributes nothing to any summary.
//! This is deliberately stronger than a violation-level `LINT: allow`:
//! it declares the effect itself intended, for every caller.

use crate::callgraph::{CallGraph, NodeId};
use crate::manifest::{HotPath, Manifest};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Number of effect kinds (lock acquisition is tracked separately,
/// labelled).
pub const EFFECT_COUNT: usize = 5;

/// One effect kind in the summary lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Heap allocation (`Box::new`, `format!`, `.clone()`, …).
    Allocates = 0,
    /// `.unwrap()` / `.expect(…)` / panicking macro.
    MayPanic = 1,
    /// Blocks the calling thread (sleep, park, blocking recv, condvar
    /// wait, thread join, or a manifest-declared blocking function).
    BlocksOnIo = 2,
    /// Reads the real clock (`Instant` / `SystemTime`) outside the
    /// allowlisted clock boundaries.
    WallClock = 3,
    /// Channel `.send(…)` on a receiver not named bounded by policy.
    SendsUnbounded = 4,
}

impl Effect {
    /// All effects, in bit order.
    pub const ALL: [Effect; EFFECT_COUNT] = [
        Effect::Allocates,
        Effect::MayPanic,
        Effect::BlocksOnIo,
        Effect::WallClock,
        Effect::SendsUnbounded,
    ];

    /// Index into [`Summary::origins`].
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Bitmask bit.
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Waiver key: `LINT: allow(<this>): reason` at the intrinsic site
    /// suppresses the effect.
    pub fn waiver(self) -> &'static str {
        match self {
            Effect::Allocates => "effect-alloc",
            Effect::MayPanic => "effect-panic",
            Effect::BlocksOnIo => "effect-block",
            Effect::WallClock => "effect-clock",
            Effect::SendsUnbounded => "effect-send",
        }
    }
}

/// One intrinsic effect site inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Which effect.
    pub effect: Effect,
    /// 1-based line of the site.
    pub line: u32,
    /// Human-readable description (`` `format!` (allocation) ``).
    pub what: String,
    /// Stable fingerprint fragment (no line numbers).
    pub detail: String,
}

/// Where an inferred effect (or lock label) came from.
#[derive(Debug, Clone)]
pub struct Origin {
    /// Workspace-relative file of the intrinsic site.
    pub file: String,
    /// 1-based line of the intrinsic site.
    pub line: u32,
    /// Function containing the site.
    pub symbol: String,
    /// Site description.
    pub what: String,
    /// Call chain (display names) from the summarized function down to
    /// the site's function; empty for intrinsic effects.
    pub chain: Vec<String>,
}

impl Origin {
    /// `` `what` at file:line (via a -> b) `` — the report fragment.
    pub fn describe(&self) -> String {
        let via = if self.chain.is_empty() {
            String::new()
        } else {
            format!(" via {}", self.chain.join(" -> "))
        };
        format!("{} at {}:{}{via}", self.what, self.file, self.line)
    }
}

/// One function's inferred summary.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Bitset of [`Effect`]s.
    pub effects: u8,
    /// One witness per set effect bit.
    pub origins: [Option<Origin>; EFFECT_COUNT],
    /// Lock labels (`crate:receiver`) this function may acquire,
    /// transitively, each with a witness.
    pub locks: BTreeMap<String, Origin>,
}

impl Summary {
    /// Does the summary carry `e`?
    pub fn has(&self, e: Effect) -> bool {
        self.effects & e.bit() != 0
    }

    /// The witness for `e`, when set.
    pub fn origin(&self, e: Effect) -> Option<&Origin> {
        self.origins[e.idx()].as_ref()
    }
}

/// The interprocedural analysis: call graph plus per-node summaries.
/// Built once per run; every lint's `finish` pass reads it.
pub struct Analysis<'a> {
    /// The parsed workspace, in [`CallGraph`] node `file`-index order.
    pub files: &'a [SourceFile],
    /// The policy manifest.
    pub manifest: &'a Manifest,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Per-node summaries, indexed by [`NodeId`].
    pub summaries: Vec<Summary>,
}

impl<'a> Analysis<'a> {
    /// Build the graph and run the fixpoint.
    pub fn build(files: &'a [SourceFile], manifest: &'a Manifest) -> Analysis<'a> {
        let graph = CallGraph::build(files, manifest);
        let mut summaries: Vec<Summary> = Vec::with_capacity(graph.nodes.len());

        // Seed each node from its intrinsic sites.
        for node in &graph.nodes {
            let mut s = Summary::default();
            let file = files[node.file].rel.clone();
            for site in &node.intrinsics {
                s.effects |= site.effect.bit();
                let slot = &mut s.origins[site.effect.idx()];
                if slot.is_none() {
                    *slot = Some(Origin {
                        file: file.clone(),
                        line: site.line,
                        symbol: node.name.clone(),
                        what: site.what.clone(),
                        chain: Vec::new(),
                    });
                }
            }
            for ls in &node.locks {
                s.locks.entry(ls.label.clone()).or_insert_with(|| Origin {
                    file: file.clone(),
                    line: ls.line,
                    symbol: node.name.clone(),
                    what: format!("acquires `{}`", ls.label),
                    chain: Vec::new(),
                });
            }
            summaries.push(s);
        }

        // Bottom-up fixpoint: SCCs come callee-first out of Tarjan, so a
        // single pass suffices for the acyclic part; cyclic components
        // iterate until the (finite, monotone) lattice stops moving.
        for scc in &graph.sccs {
            loop {
                let mut changed = false;
                for &v in scc {
                    for ci in 0..graph.nodes[v].calls.len() {
                        for ti in 0..graph.nodes[v].calls[ci].targets.len() {
                            let t = graph.nodes[v].calls[ci].targets[ti];
                            if t == v {
                                continue;
                            }
                            let callee = summaries[t].clone();
                            let via = graph.nodes[t].display.clone();
                            changed |= merge(&mut summaries[v], &callee, &via);
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        Analysis {
            files,
            manifest,
            graph,
            summaries,
        }
    }

    /// Nodes a manifest `crate::function` reference names.
    pub fn resolve(&self, hp: &HotPath) -> &[NodeId] {
        self.graph.lookup(&hp.krate, &hp.func)
    }

    /// Is any workspace node in crate `krate`?
    pub fn has_crate(&self, krate: &str) -> bool {
        self.graph.nodes.iter().any(|n| n.krate == krate)
    }
}

/// Merge `callee`'s summary into `caller` through the call to `via`;
/// true when anything changed.
fn merge(caller: &mut Summary, callee: &Summary, via: &str) -> bool {
    let mut changed = false;
    let fresh = callee.effects & !caller.effects;
    if fresh != 0 {
        caller.effects |= fresh;
        changed = true;
        for e in Effect::ALL {
            if fresh & e.bit() != 0 {
                if let Some(o) = callee.origin(e) {
                    let mut chain = vec![via.to_string()];
                    chain.extend(o.chain.iter().cloned());
                    caller.origins[e.idx()] = Some(Origin { chain, ..o.clone() });
                }
            }
        }
    }
    for (label, o) in &callee.locks {
        if !caller.locks.contains_key(label) {
            let mut chain = vec![via.to_string()];
            chain.extend(o.chain.iter().cloned());
            caller
                .locks
                .insert(label.clone(), Origin { chain, ..o.clone() });
            changed = true;
        }
    }
    changed
}

/// Is the intrinsic site at `line` (whose statement starts at
/// `stmt_first`) waived for `name`? Same placement rules as violation
/// waivers: a trailing comment on the site line, or anywhere in the
/// contiguous comment block above the statement. The reason is
/// mandatory.
pub(crate) fn site_waived(sf: &SourceFile, line: u32, stmt_first: u32, name: &str) -> bool {
    if crate::waiver_matches(sf.line_text(line), name) {
        return true;
    }
    let mut l = stmt_first.saturating_sub(1);
    while l >= 1 {
        let text = sf.line_text(l);
        if !text.trim_start().starts_with("//") {
            break;
        }
        if crate::waiver_matches(text, name) {
            return true;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("m.rs"), "crates/x/src/m.rs".into(), "x", src)
    }

    fn node_id(a: &Analysis, name: &str) -> NodeId {
        (0..a.graph.nodes.len())
            .find(|&i| a.graph.nodes[i].name == name)
            .unwrap_or_else(|| panic!("no node `{name}`"))
    }

    #[test]
    fn intrinsic_effects_are_seeded() {
        let files = [file("fn f() { let s = format!(\"{}\", 1); }")];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let f = node_id(&a, "f");
        assert!(a.summaries[f].has(Effect::Allocates));
        assert!(!a.summaries[f].has(Effect::MayPanic));
    }

    #[test]
    fn effects_propagate_through_calls_with_chain() {
        let files = [file(
            "fn top() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf(x: Option<u32>) { x.unwrap(); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let top = node_id(&a, "top");
        let s = &a.summaries[top];
        assert!(s.has(Effect::MayPanic));
        let o = s.origin(Effect::MayPanic).unwrap();
        assert_eq!(o.symbol, "leaf");
        assert_eq!(o.chain, vec!["dcs-x::mid", "dcs-x::leaf"]);
    }

    #[test]
    fn mutual_recursion_converges() {
        // even/odd call each other; odd sleeps. Both summaries must end
        // up BlocksOnIo and the fixpoint must terminate.
        let files = [file(
            "fn even(n: u32) { if n > 0 { odd(n - 1); } }\n\
             fn odd(n: u32) { std::thread::sleep(D); if n > 0 { even(n - 1); } }\n\
             fn top() { even(4); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        for name in ["even", "odd", "top"] {
            let id = node_id(&a, name);
            assert!(
                a.summaries[id].has(Effect::BlocksOnIo),
                "{name} should block"
            );
        }
        // even/odd form one SCC.
        let e = node_id(&a, "even");
        let o = node_id(&a, "odd");
        assert_eq!(a.graph.scc_of[e], a.graph.scc_of[o]);
        let t = node_id(&a, "top");
        assert_ne!(a.graph.scc_of[t], a.graph.scc_of[e]);
    }

    #[test]
    fn self_recursion_converges() {
        let files = [file(
            "fn f(n: u32) { if n > 0 { f(n - 1); } let b = Box::new(n); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let f = node_id(&a, "f");
        assert!(a.summaries[f].has(Effect::Allocates));
    }

    #[test]
    fn effect_waiver_suppresses_the_site() {
        let files = [file(
            "fn f() {\n\
             // LINT: allow(effect-alloc): startup-only buffer.\n\
             let b = Box::new(1);\n\
             }\n\
             fn g() { f(); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        assert!(!a.summaries[node_id(&a, "f")].has(Effect::Allocates));
        assert!(!a.summaries[node_id(&a, "g")].has(Effect::Allocates));
    }

    #[test]
    fn effect_waiver_requires_reason() {
        let files = [file(
            "fn f() { let b = Box::new(1); // LINT: allow(effect-alloc)\n}",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        assert!(a.summaries[node_id(&a, "f")].has(Effect::Allocates));
    }

    #[test]
    fn lock_labels_propagate() {
        let files = [file(
            "fn inner(s: &S) { let g = s.table.lock(); }\n\
             fn outer(s: &S) { inner(s); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let outer = node_id(&a, "outer");
        assert!(a.summaries[outer].locks.contains_key("x:s.table"));
        let o = &a.summaries[outer].locks["x:s.table"];
        assert_eq!(o.chain, vec!["dcs-x::inner"]);
    }

    #[test]
    fn declared_blocking_seeds_the_summary() {
        let files = [file("fn dev_read() { /* polls a register */ }")];
        let m = Manifest::parse("[effects]\nblocking = [\"dcs-x::dev_read\"]").unwrap();
        let a = Analysis::build(&files, &m);
        let id = node_id(&a, "dev_read");
        assert!(a.summaries[id].has(Effect::BlocksOnIo));
        assert!(a.summaries[id]
            .origin(Effect::BlocksOnIo)
            .unwrap()
            .what
            .contains("declared"));
    }
}
