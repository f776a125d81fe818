//! Lock-order lint: build the static Mutex/RwLock acquisition graph for
//! the *whole workspace* and reject cycles.
//!
//! The guard-scope modeling (block frames, statement temporaries,
//! `drop(g)` release, `.unwrap()` adapters) lives in the call-graph walk
//! ([`crate::callgraph`]); this lint consumes its output twice over:
//!
//! * **Direct edges** — every [`crate::callgraph::LockSite`] records which labels were
//!   held when it fired: held → acquired, keyed by crate-qualified
//!   receiver text (`server:self.state`), the right granularity for
//!   this workspace's one-lock-per-named-field style.
//! * **Call-propagated edges** — every call site made while holding a
//!   lock contributes held → *L* for each lock *L* in the callee's
//!   inferred lock summary. This is what makes a server→tc→llama
//!   inversion visible: the inner acquisition may be two crates away
//!   from the outer one.
//!
//! Edges union across all functions; a cycle in the union means two
//! code paths acquire the same set of locks in incompatible orders — a
//! deadlock nobody has hit yet. Recursive acquisition of the same
//! receiver inside one function (including via a callee, when direct)
//! is reported at the site.
//!
//! Known approximations, chosen to over- rather than under-report:
//! receivers with equal text in different types of the same crate merge
//! (disambiguate via `LINT: allow(lock-order)` with a reason, or rename
//! the field), and a guard passed to a function that drops it early is
//! still considered held to end of block. An acquisition can be hidden
//! from the interprocedural graph entirely with
//! `// LINT: allow(effect-lock): <reason>`.

use super::{Lint, Violation};
use crate::effects::Analysis;
use std::collections::{BTreeMap, BTreeSet};

/// One recorded `outer → inner` acquisition, with its site.
#[derive(Debug, Clone)]
struct Edge {
    outer: String,
    inner: String,
    file: String,
    line: u32,
    symbol: String,
    /// For call-propagated edges: the callee whose summary carries the
    /// inner lock.
    via: Option<String>,
}

/// The lock-order lint.
pub struct LockOrder;

impl Lint for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "workspace-wide lock acquisition graph must be acyclic"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let mut edges: Vec<Edge> = Vec::new();
        for node in &a.graph.nodes {
            let sf = &a.files[node.file];
            for site in &node.locks {
                if site.recursive {
                    out.push(Violation::new(
                        self.name(),
                        sf,
                        site.line,
                        node.name.clone(),
                        format!(
                            "recursive acquisition: `{}` is already held when it is \
                             acquired again",
                            site.label
                        ),
                        &format!("recursive:{}", site.label),
                    ));
                }
                for h in &site.held {
                    if *h != site.label {
                        edges.push(Edge {
                            outer: h.clone(),
                            inner: site.label.clone(),
                            file: sf.rel.clone(),
                            line: site.line,
                            symbol: node.name.clone(),
                            via: None,
                        });
                    }
                }
            }
            // Calls made while holding a lock: the callee's whole
            // inferred lock set nests inside the held labels.
            for call in &node.calls {
                if call.held.is_empty() {
                    continue;
                }
                for &t in &call.targets {
                    for label in a.summaries[t].locks.keys() {
                        for h in &call.held {
                            if h != label {
                                edges.push(Edge {
                                    outer: h.clone(),
                                    inner: label.clone(),
                                    file: sf.rel.clone(),
                                    line: call.line,
                                    symbol: node.name.clone(),
                                    via: Some(a.graph.nodes[t].display.clone()),
                                });
                            }
                        }
                    }
                }
            }
        }
        for cycle in find_cycles(&edges) {
            // One violation per cycle, anchored at its first edge's
            // site; the message walks the whole loop with every
            // participating site so the report is actionable alone.
            let mut names: Vec<&str> = cycle.iter().map(|e| e.outer.as_str()).collect();
            names.push(cycle[0].outer.as_str());
            let sites = cycle
                .iter()
                .map(|e| {
                    let via = e
                        .via
                        .as_ref()
                        .map(|v| format!(" via `{v}`"))
                        .unwrap_or_default();
                    format!(
                        "{} -> {} at {}:{} ({}){via}",
                        e.outer, e.inner, e.file, e.line, e.symbol
                    )
                })
                .collect::<Vec<_>>()
                .join("; ");
            let first = &cycle[0];
            // Fingerprint: the cycle's sorted node set — stable under
            // both line churn and which edge the search enters at.
            let mut key: Vec<&str> = cycle.iter().map(|e| e.outer.as_str()).collect();
            key.sort_unstable();
            out.push(Violation {
                lint: self.name(),
                file: first.file.clone(),
                line: first.line,
                symbol: first.symbol.clone(),
                message: format!(
                    "lock-order cycle in workspace: {} [{sites}]",
                    names.join(" -> "),
                ),
                fingerprint: format!("lock-order|workspace|cycle|{}", key.join(",")),
            });
        }
    }
}

/// All elementary cycles reachable in the edge union, deduplicated by
/// node set. DFS with a bounded path — workspace lock graphs are tiny.
fn find_cycles(edges: &[Edge]) -> Vec<Vec<Edge>> {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.outer.as_str()).or_default().push(e);
    }
    let mut cycles: Vec<Vec<Edge>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut path: Vec<&Edge> = Vec::new();
        let mut on_path: Vec<&str> = vec![start];
        dfs(start, start, &adj, &mut path, &mut on_path, &mut |cyc| {
            let mut key: Vec<String> = cyc.iter().map(|e| e.outer.clone()).collect();
            key.sort();
            if seen_sets.insert(key) {
                cycles.push(cyc.iter().map(|e| (*e).clone()).collect());
            }
        });
    }
    cycles
}

fn dfs<'a>(
    node: &'a str,
    start: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    path: &mut Vec<&'a Edge>,
    on_path: &mut Vec<&'a str>,
    emit: &mut impl FnMut(&[&Edge]),
) {
    if path.len() > 8 {
        return; // bounded: lock chains longer than this are their own bug
    }
    let Some(nexts) = adj.get(node) else { return };
    for e in nexts {
        if e.inner == start && !path.is_empty() {
            path.push(e);
            emit(path);
            path.pop();
            continue;
        }
        // Only close cycles back to `start`; revisiting other on-path
        // nodes would re-find the same loop from a different entry.
        if e.inner == start || on_path.contains(&e.inner.as_str()) {
            continue;
        }
        // A cycle is also closed by a single edge A -> A elsewhere, but
        // that is reported as recursive acquisition at scan time.
        if e.inner == e.outer {
            continue;
        }
        path.push(e);
        on_path.push(&e.inner);
        dfs(&e.inner, start, adj, path, on_path, emit);
        on_path.pop();
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Violation> {
        run_files(&[("x", "m.rs", src)])
    }

    fn run_files(srcs: &[(&str, &str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(krate, name, src)| SourceFile::fixture(krate, name, src))
            .collect();
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let mut out = Vec::new();
        LockOrder.check(&a, &mut out);
        out
    }

    #[test]
    fn two_lock_cycle_is_reported() {
        let out = run("fn ab(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }\n\
             fn ba(s: &S) { let b = s.b.lock(); let a = s.a.lock(); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
        assert!(out[0].message.contains("s.a"));
        assert!(out[0].message.contains("s.b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let out = run("fn ab(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }\n\
             fn ab2(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let out = run(
            "fn ab(s: &S) { let a = s.a.lock(); drop(a); let b = s.b.lock(); }\n\
             fn ba(s: &S) { let b = s.b.lock(); drop(b); let a = s.a.lock(); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let out = run(
            "fn ab(s: &S) { { let a = s.a.lock(); } let b = s.b.lock(); }\n\
             fn ba(s: &S) { { let b = s.b.lock(); } let a = s.a.lock(); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn recursive_acquisition_is_reported() {
        let out = run("fn f(s: &S) { let a = s.a.lock(); let b = s.a.lock(); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("recursive"));
    }

    #[test]
    fn inline_temporary_is_statement_scoped() {
        // The temporary guard from the first statement is gone by the
        // second, so no edge and no cycle.
        let out = run("fn ab(s: &S) { s.a.lock().push(1); s.b.lock().push(2); }\n\
             fn ba(s: &S) { s.b.lock().push(1); s.a.lock().push(2); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn nested_temporaries_form_edges() {
        let out = run("fn ab(s: &S) { s.a.lock().push(s.b.lock().pop()); }\n\
             fn ba(s: &S) { s.b.lock().push(s.a.lock().pop()); }");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let out = run(
            "fn f(s: &S, buf: &mut [u8]) { let a = s.a.lock(); s.file.read(buf); }\n\
             fn g(s: &S, buf: &mut [u8]) { s.file.read(buf); let a = s.a.lock(); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn three_lock_cycle_found() {
        let out = run("fn ab(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }\n\
             fn bc(s: &S) { let b = s.b.lock(); let c = s.c.lock(); }\n\
             fn ca(s: &S) { let c = s.c.lock(); let a = s.a.lock(); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("x:s.a -> x:s.b"));
    }

    #[test]
    fn for_loop_header_guard_releases_at_loop_end() {
        // The iterator temporary is held through the body (real Rust
        // semantics) but must not survive past the loop's `}`.
        let out = run("fn f(s: &S) {\n\
                 for x in s.a.lock().iter() { use_it(x); }\n\
                 let b = s.b.lock();\n\
             }\n\
             fn g(s: &S) { let b = s.b.lock(); let a = s.a.lock(); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn for_loop_header_guard_held_during_body() {
        let out = run(
            "fn f(s: &S) { for x in s.a.lock().iter() { s.b.lock().push(x); } }\n\
             fn g(s: &S) { for x in s.b.lock().iter() { s.a.lock().push(x); } }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
    }

    #[test]
    fn mid_chain_guard_is_a_temporary() {
        // `….lock().pending.remove(…)` yields a temporary guard; a later
        // statement re-locking the same mutex is not recursive.
        let out = run("fn f(s: &S) {\n\
                 let Some(mut st) = s.a.lock().pending.remove(&k) else { return; };\n\
                 st.step();\n\
                 s.a.lock().pending.insert(k, st);\n\
             }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unwrap_adapter_still_binds_the_guard() {
        let out = run(
            "fn ab(s: &S) { let a = s.a.lock().unwrap(); let b = s.b.lock().unwrap(); }\n\
             fn ba(s: &S) { let b = s.b.lock().unwrap(); let a = s.a.lock().unwrap(); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
    }

    #[test]
    fn if_condition_guard_does_not_leak_past_block() {
        // Double-checked flush shape: read in the condition, write after
        // the early-return block. Not recursive.
        let out = run("fn f(s: &S) {\n\
                 if s.state.read().bytes() < MAX { return; }\n\
                 let mut st = s.state.write();\n\
                 st.go();\n\
             }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let out = run("#[cfg(test)]\nmod tests {\n\
             fn ab(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }\n\
             fn ba(s: &S) { let b = s.b.lock(); let a = s.a.lock(); }\n}");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cross_crate_cycle_via_call_propagation() {
        // Crate a locks alpha then calls into crate b, which locks beta;
        // crate b locks beta then calls back into a, which locks alpha.
        // Neither crate's local graph has a cycle — only the merged one.
        let out = run_files(&[
            (
                "a",
                "a.rs",
                "pub fn forward(s: &S) { let g = s.alpha.lock(); dcs_b::hold_beta(s); }\n\
                 pub fn hold_alpha(s: &S) { let g = s.alpha.lock(); }",
            ),
            (
                "b",
                "b.rs",
                "pub fn hold_beta(s: &S) { let g = s.beta.lock(); }\n\
                 pub fn backward(s: &S) { let g = s.beta.lock(); dcs_a::hold_alpha(s); }",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("a:s.alpha"));
        assert!(out[0].message.contains("b:s.beta"));
        assert!(out[0].message.contains("via"), "{}", out[0].message);
        assert_eq!(
            out[0].fingerprint,
            "lock-order|workspace|cycle|a:s.alpha,b:s.beta"
        );
    }

    #[test]
    fn deep_callee_lock_still_forms_edge() {
        // The lock two hops below the call site still nests under the
        // held guard (summary propagation, not just direct callees).
        let out = run_files(&[
            (
                "a",
                "a.rs",
                "pub fn forward(s: &S) { let g = s.alpha.lock(); dcs_b::step(s); }\n\
                 pub fn hold_alpha(s: &S) { let g = s.alpha.lock(); }",
            ),
            (
                "b",
                "b.rs",
                "pub fn step(s: &S) { inner(s); }\n\
                 fn inner(s: &S) { let g = s.beta.lock(); }\n\
                 pub fn backward(s: &S) { let g = s.beta.lock(); dcs_a::hold_alpha(s); }",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn effect_lock_waiver_hides_acquisition() {
        let out = run_files(&[(
            "x",
            "m.rs",
            "fn ab(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }\n\
             fn ba(s: &S) {\n\
                 // LINT: allow(effect-lock): startup-only path, never concurrent with ab\n\
                 let b = s.b.lock();\n\
                 let a = s.a.lock();\n\
             }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
