//! Hot-path allocation lint: functions registered in
//! `lint-hotpaths.toml` must not reach allocation or blocking locks.
//!
//! The paper's cost model prices the hot paths as pure main-memory
//! execution; an accidental `format!` or `Mutex::lock` on one silently
//! bends the measured curve away from the modeled one. Registered roots
//! (server request loop, bwtree read path, flashsim poll, telemetry
//! record) are traversed through the workspace call graph — *across
//! crate boundaries* — and every `Allocates` intrinsic or lock
//! acquisition reachable from a root is reported with the call chain
//! that reaches it. Ambiguous callees get no call edge (the resolver
//! refuses to guess), so traversal over-approximates locally, never
//! globally.
//!
//! Banned in a hot path: `Box::new`, `.push(…)`, `format!`, `vec!`,
//! `.to_vec()`, `.to_owned()`, `.to_string()`, `String::from`,
//! zero-argument `.clone()` (the `Allocates` intrinsics of
//! [`crate::callgraph`]), and blocking `.lock()`/`.read()`/`.write()`
//! (zero-argument — the RwLock shape).

use super::{Lint, Violation};
use crate::callgraph::NodeId;
use crate::effects::{Analysis, Effect};
use crate::manifest::Manifest;
use crate::source::SourceFile;
use std::collections::{BTreeSet, VecDeque};

/// Hot-path allocation/blocking lint. Pure `finish`-time consumer of
/// the interprocedural analysis.
pub struct HotPathAlloc;

impl Lint for HotPathAlloc {
    fn name(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn description(&self) -> &'static str {
        "registered hot paths must not reach allocation, formatting, or blocking locks"
    }

    fn check_file(&mut self, _sf: &SourceFile, _m: &Manifest, _out: &mut Vec<Violation>) {}

    fn finish(&mut self, a: &Analysis, out: &mut Vec<Violation>) {
        for hp in &a.manifest.hotpaths {
            if !a.has_crate(&hp.krate) {
                out.push(Violation {
                    lint: self.name(),
                    file: "lint-hotpaths.toml".into(),
                    line: 0,
                    symbol: hp.func.clone(),
                    message: format!("hot-path crate `{}` not found in workspace", hp.krate),
                    fingerprint: format!("hot-path-alloc|manifest|{}|missing-crate", hp.krate),
                });
                continue;
            }
            let roots = a.resolve(hp);
            if roots.len() != 1 {
                out.push(Violation {
                    lint: self.name(),
                    file: "lint-hotpaths.toml".into(),
                    line: 0,
                    symbol: hp.func.clone(),
                    message: format!(
                        "hot-path function `{}::{}` not found (or ambiguous) — \
                         fix the manifest entry",
                        hp.krate, hp.func
                    ),
                    fingerprint: format!(
                        "hot-path-alloc|manifest|{}::{}|missing-fn",
                        hp.krate, hp.func
                    ),
                });
                continue;
            }
            check_root(a, roots[0], &hp.func, out);
        }
    }
}

/// BFS from one registered root through the resolved call graph.
fn check_root(a: &Analysis, root: NodeId, root_name: &str, out: &mut Vec<Violation>) {
    let mut queue: VecDeque<(NodeId, Vec<String>)> = VecDeque::new();
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    queue.push_back((root, vec![root_name.to_string()]));
    visited.insert(root);
    while let Some((id, chain)) = queue.pop_front() {
        let node = &a.graph.nodes[id];
        let sf = &a.files[node.file];
        let via = if chain.len() > 1 {
            format!(" (via {})", chain.join(" -> "))
        } else {
            String::new()
        };
        for site in &node.intrinsics {
            if site.effect == Effect::Allocates {
                out.push(Violation::new(
                    "hot-path-alloc",
                    sf,
                    site.line,
                    node.name.clone(),
                    format!("hot path `{root_name}` reaches {}{via}", site.what),
                    &format!("{root_name}:{}", site.detail),
                ));
            }
        }
        for lock in &node.locks {
            out.push(Violation::new(
                "hot-path-alloc",
                sf,
                lock.line,
                node.name.clone(),
                format!(
                    "hot path `{root_name}` reaches blocking `.{}()` (lock acquisition){via}",
                    lock.method
                ),
                &format!("{root_name}:.{}()", lock.method),
            ));
        }
        if chain.len() >= 4 {
            continue; // depth bound: deep chains get a manifest entry
        }
        for call in &node.calls {
            for &t in &call.targets {
                if visited.insert(t) {
                    let mut c = chain.clone();
                    c.push(a.graph.nodes[t].name.clone());
                    queue.push_back((t, c));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::HotPath;
    use std::path::PathBuf;

    fn run(src: &str, funcs: &[&str]) -> Vec<Violation> {
        run_files(&[("x", "m.rs", src)], funcs)
    }

    fn run_files(srcs: &[(&str, &str, &str)], funcs: &[&str]) -> Vec<Violation> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(krate, name, src)| {
                SourceFile::from_text(
                    PathBuf::from(name),
                    format!("crates/{krate}/src/{name}"),
                    krate,
                    src,
                )
            })
            .collect();
        let m = Manifest {
            hotpaths: funcs
                .iter()
                .map(|f| {
                    let (krate, func) = f.split_once("!!").unwrap_or(("x", f));
                    HotPath {
                        krate: krate.into(),
                        func: func.to_string(),
                    }
                })
                .collect(),
            ..Manifest::default()
        };
        let a = Analysis::build(&files, &m);
        let mut out = Vec::new();
        HotPathAlloc.finish(&a, &mut out);
        out
    }

    #[test]
    fn direct_format_fires() {
        let out = run("fn hot() { let s = format!(\"x{}\", 1); }", &["hot"]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("format!"));
    }

    #[test]
    fn transitive_alloc_fires_with_chain() {
        let out = run(
            "fn hot() { helper(); }\nfn helper() { let b = Box::new(1); }",
            &["hot"],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("Box::new"));
        assert!(out[0].message.contains("via hot -> helper"));
    }

    #[test]
    fn clean_hot_path_is_clean() {
        let out = run(
            "fn hot(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); helper(x); }\n\
             fn helper(x: &AtomicU64) { x.load(Ordering::Acquire); }",
            &["hot"],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn blocking_lock_fires() {
        let out = run("fn hot(s: &S) { let g = s.m.lock(); }", &["hot"]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("lock"));
    }

    #[test]
    fn clone_with_args_is_not_flagged() {
        // `.clone()` zero-arg fires; io `.read(buf)` style non-zero-arg
        // receivers of banned names do not.
        let out = run(
            "fn hot(s: &S, buf: &mut [u8]) { s.file.read(buf); }",
            &["hot"],
        );
        assert!(out.is_empty(), "{out:?}");
        let out = run("fn hot(v: &Val) -> Val { v.clone() }", &["hot"]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ambiguous_callee_stops_traversal() {
        let out = run(
            "fn hot() { go(); }\n\
             fn go() { let b = Box::new(1); }\n\
             mod other { pub fn go() {} }",
            &["hot"],
        );
        // Two `go` definitions: resolution refuses to guess, so the
        // Box::new in one of them is not attributed to the hot path.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_function_is_a_manifest_violation() {
        let out = run("fn other() {}", &["hot"]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("not found"));
    }

    #[test]
    fn method_roots_resolve_by_qualified_name() {
        let out = run(
            "struct S;\nimpl S { fn serve(&self) { let v = vec![1]; } }",
            &["S::serve"],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("vec!"));
    }

    #[test]
    fn cross_crate_reachability_fires() {
        // The allocation is in another crate, two hops down — invisible
        // to the old per-crate BFS, found by the workspace graph.
        let out = run_files(
            &[
                ("x", "m.rs", "pub fn hot() { dcs_y::step(); }"),
                (
                    "y",
                    "m.rs",
                    "pub fn step() { deep(); }\nfn deep() { let s = String::from(\"z\"); }",
                ),
            ],
            &["hot"],
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("String::from"));
        assert!(out[0].message.contains("via hot -> step -> deep"));
        assert_eq!(out[0].file, "crates/y/src/m.rs");
    }

    #[test]
    fn effect_alloc_waiver_stops_attribution() {
        let out = run(
            "fn hot() { helper(); }\n\
             fn helper() {\n\
                 // LINT: allow(effect-alloc): one-time cold-start buffer, amortized\n\
                 let b = Box::new(1);\n\
             }",
            &["hot"],
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
