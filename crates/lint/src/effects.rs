//! Lock-set inference: per-function summaries over the workspace call
//! graph, computed by bottom-up fixpoint over SCCs.
//!
//! Every function gets a summary: the set of lock labels it may
//! acquire, directly or through anything it calls. The acquisition
//! sites are extracted syntactically by the call-graph walk; this module
//! propagates them caller-ward: `summary(f) = locks(f) ∪ ⋃
//! summary(callee)` for every resolved callee. Strongly connected
//! components (recursion, mutual recursion) are iterated to a fixpoint —
//! the lattice is finite and the transfer function monotone, so the loop
//! terminates.
//!
//! Each inferred label carries an [`Origin`]: the concrete site that
//! acquires it and the call chain it travelled, so a transitive
//! finding three crates away still names the line to fix. Origins are
//! first-wins: the report shows *one* witness per label, not all of
//! them.
//!
//! An acquisition is waivable at its site with
//! `// LINT: allow(effect-lock): <reason>` — the site then contributes
//! nothing to any summary.
//! This is deliberately stronger than a violation-level `LINT: allow`:
//! it declares the acquisition itself intended, for every caller.

use crate::callgraph::CallGraph;
use crate::manifest::Manifest;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Where an inferred lock label came from.
#[derive(Debug, Clone)]
pub struct Origin {
    /// Workspace-relative file of the acquisition site.
    pub file: String,
    /// 1-based line of the acquisition site.
    pub line: u32,
    /// Function containing the site.
    pub symbol: String,
    /// Site description.
    pub what: String,
    /// Call chain (display names) from the summarized function down to
    /// the site's function; empty for the function's own sites.
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
    /// Lock labels (`crate:receiver`) this function may acquire,
    /// transitively, each with a witness.
    pub locks: BTreeMap<String, Origin>,
}

/// The interprocedural analysis: call graph plus per-node summaries.
/// Built once per run; every lint's `finish` pass reads it.
pub struct Analysis<'a> {
    /// The parsed workspace, in [`CallGraph`] node `file`-index order.
    pub files: &'a [SourceFile],
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Per-node summaries, indexed by [`NodeId`](crate::callgraph::NodeId).
    pub summaries: Vec<Summary>,
}

impl<'a> Analysis<'a> {
    /// Build the graph and run the fixpoint.
    pub fn build(files: &'a [SourceFile], manifest: &'a Manifest) -> Analysis<'a> {
        let graph = CallGraph::build(files, manifest);
        let mut summaries: Vec<Summary> = Vec::with_capacity(graph.nodes.len());

        // Seed each node from its own acquisition sites.
        for node in &graph.nodes {
            let mut s = Summary::default();
            let file = files[node.file].rel.clone();
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
            graph,
            summaries,
        }
    }
}

/// Merge `callee`'s summary into `caller` through the call to `via`;
/// true when anything changed.
fn merge(caller: &mut Summary, callee: &Summary, via: &str) -> bool {
    let mut changed = false;
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

/// Is the acquisition site at `line` (whose statement starts at
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
    use crate::callgraph::NodeId;

    fn file(src: &str) -> SourceFile {
        SourceFile::fixture("x", "m.rs", src)
    }

    fn node_id(a: &Analysis, name: &str) -> NodeId {
        (0..a.graph.nodes.len())
            .find(|&i| a.graph.nodes[i].name == name)
            .unwrap_or_else(|| panic!("no node `{name}`"))
    }

    fn locks(a: &Analysis, name: &str) -> Vec<String> {
        a.summaries[node_id(a, name)]
            .locks
            .keys()
            .cloned()
            .collect()
    }

    #[test]
    fn effects_propagate_through_calls_with_chain() {
        let files = [file(
            "fn top(s: &S) { mid(s); }\n\
             fn mid(s: &S) { leaf(s); }\n\
             fn leaf(s: &S) { let g = s.table.lock(); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let top = node_id(&a, "top");
        let o = &a.summaries[top].locks["x:s.table"];
        assert_eq!(o.symbol, "leaf");
        assert_eq!(o.line, 3);
        assert_eq!(o.chain, vec!["dcs-x::mid", "dcs-x::leaf"]);
    }

    #[test]
    fn mutual_recursion_converges() {
        // even/odd call each other; odd locks. Both summaries must end
        // up holding the label and the fixpoint must terminate.
        let files = [file(
            "fn even(s: &S, n: u32) { if n > 0 { odd(s, n - 1); } }\n\
             fn odd(s: &S, n: u32) { s.m.lock(); if n > 0 { even(s, n - 1); } }\n\
             fn top(s: &S) { even(s, 4); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        for name in ["even", "odd", "top"] {
            assert_eq!(locks(&a, name), vec!["x:s.m"], "{name} should lock");
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
            "fn f(s: &S, n: Option<u32>) { if n.is_some() { f(s, None); } s.m.lock(); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        assert_eq!(locks(&a, "f"), vec!["x:s.m"]);
    }

    #[test]
    fn effect_waiver_suppresses_the_site() {
        let files = [file(
            "fn f(s: &S) {\n\
             // LINT: allow(effect-lock): startup-only, before any worker runs.\n\
             let g = s.m.lock();\n\
             }\n\
             fn g(s: &S) { f(s); }",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        assert!(locks(&a, "f").is_empty());
        assert!(locks(&a, "g").is_empty());
    }

    #[test]
    fn effect_waiver_requires_reason() {
        let files = [file(
            "fn f(s: &S) { let g = s.m.lock(); // LINT: allow(effect-lock)\n}",
        )];
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        assert_eq!(locks(&a, "f"), vec!["x:s.m"]);
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
}
