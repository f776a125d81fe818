//! Async-shard non-blocking lint: nothing reachable from the shard
//! worker loop may block the shard thread.
//!
//! The whole point of the parked-miss loop (`Shard::run`) is that a shard
//! keeps serving hits while misses are in flight — the loop submits,
//! polls, and parks, but never waits. One synchronous device read or
//! condvar wait anywhere under the loop silently makes every hit queued
//! behind a miss wait out the device, and the miss-service experiment
//! stops measuring what it claims to. The roots come from the manifest's
//! `[async-shard] roots`; everything reachable from them in the
//! workspace call graph whose summary carries `BlocksOnIo` is reported.
//!
//! Findings are anchored where they are fixable: at the intrinsic site
//! when it lives in the root's own crate, else at the call edge where
//! the chain leaves the root's crate (you can't edit another crate from
//! here, but you can stop calling into it). Legitimate blocking — the
//! idle-only mailbox wait, a bounded backoff sleep — is waived at the
//! site with `// LINT: allow(effect-block): <reason>`, which removes it
//! from every summary at once.

use super::{Lint, Violation};
use crate::callgraph::NodeId;
use crate::effects::{Analysis, Effect};
use crate::manifest::Manifest;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The async-shard non-blocking lint.
pub struct AsyncShard;

impl Lint for AsyncShard {
    fn name(&self) -> &'static str {
        "async-shard"
    }

    fn description(&self) -> &'static str {
        "nothing reachable from the async drain loop may block the shard thread"
    }

    fn check_file(&mut self, _sf: &SourceFile, _m: &Manifest, _out: &mut Vec<Violation>) {}

    fn finish(&mut self, a: &Analysis, out: &mut Vec<Violation>) {
        for hp in &a.manifest.async_roots {
            let roots = a.resolve(hp);
            if roots.len() != 1 {
                out.push(Violation {
                    lint: self.name(),
                    file: "lint-hotpaths.toml".into(),
                    line: 0,
                    symbol: hp.func.clone(),
                    message: format!(
                        "async-shard root `{}::{}` not found (or ambiguous) — \
                         fix the manifest entry",
                        hp.krate, hp.func
                    ),
                    fingerprint: format!(
                        "async-shard|manifest|{}::{}|missing-root",
                        hp.krate, hp.func
                    ),
                });
                continue;
            }
            check_root(a, roots[0], out);
        }
    }
}

/// BFS from one async root; report every reachable `BlocksOnIo`
/// intrinsic once, anchored per the module docs.
fn check_root(a: &Analysis, root: NodeId, out: &mut Vec<Violation>) {
    let root_krate = a.graph.nodes[root].krate.clone();
    let root_name = a.graph.nodes[root].name.clone();
    // parent[n] = (parent node, call line) on the BFS tree.
    let mut parent: BTreeMap<NodeId, (NodeId, u32)> = BTreeMap::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    queue.push_back(root);
    parent.insert(root, (root, 0));
    let mut order: Vec<NodeId> = Vec::new();
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for call in &a.graph.nodes[id].calls {
            for &t in &call.targets {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                    e.insert((id, call.line));
                    queue.push_back(t);
                }
            }
        }
    }
    for id in order {
        let node = &a.graph.nodes[id];
        for site in &node.intrinsics {
            if site.effect != Effect::BlocksOnIo {
                continue;
            }
            // The BFS-tree chain from the root down to this node.
            let mut chain: Vec<NodeId> = vec![id];
            let mut cur = id;
            while cur != root {
                cur = parent[&cur].0;
                chain.push(cur);
            }
            chain.reverse();
            let path = chain
                .iter()
                .map(|&n| a.graph.nodes[n].name.as_str())
                .collect::<Vec<_>>()
                .join(" -> ");
            // Anchor: the intrinsic site when it's in the root's crate,
            // else the call edge that leaves the root's crate.
            let (anchor_node, anchor_line) = if node.krate == root_krate {
                (id, site.line)
            } else {
                let mut leave = (id, site.line);
                for w in chain.windows(2) {
                    if a.graph.nodes[w[0]].krate == root_krate
                        && a.graph.nodes[w[1]].krate != root_krate
                    {
                        leave = (w[0], parent[&w[1]].1);
                    }
                }
                leave
            };
            let detail = format!("blocks:{}:{}", node.display, site.detail);
            if !seen.insert(detail.clone()) {
                continue;
            }
            let anchor = &a.graph.nodes[anchor_node];
            let sf = &a.files[anchor.file];
            out.push(Violation::new(
                "async-shard",
                sf,
                anchor_line,
                anchor.name.clone(),
                format!(
                    "async drain loop `{root_name}` reaches {} at {}:{} (via {path})",
                    site.what, a.files[node.file].rel, site.line
                ),
                &detail,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::HotPath;
    use std::path::PathBuf;

    fn run_files(srcs: &[(&str, &str, &str)], root: (&str, &str)) -> Vec<Violation> {
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
            async_roots: vec![HotPath {
                krate: root.0.into(),
                func: root.1.into(),
            }],
            ..Manifest::default()
        };
        let a = Analysis::build(&files, &m);
        let mut out = Vec::new();
        AsyncShard.finish(&a, &mut out);
        out
    }

    #[test]
    fn blocking_two_hops_down_fires_at_site() {
        let out = run_files(
            &[(
                "x",
                "m.rs",
                "struct Shard2;\n\
                 impl Shard2 { fn drain(&self) { step(); } }\n\
                 fn step() { fetch(); }\n\
                 fn fetch() { std::thread::sleep(d); }",
            )],
            ("x", "Shard2::drain"),
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4); // anchored at the sleep itself
        assert!(out[0]
            .message
            .contains("via Shard2::drain -> step -> fetch"));
    }

    #[test]
    fn cross_crate_blocking_anchors_at_departing_call() {
        let out = run_files(
            &[
                (
                    "server",
                    "m.rs",
                    "struct Shard2;\nimpl Shard2 { fn drain(&self) { dcs_dev::fetch(); } }",
                ),
                ("dev", "m.rs", "pub fn fetch() { std::thread::sleep(d); }"),
            ],
            ("server", "Shard2::drain"),
        );
        assert_eq!(out.len(), 1, "{out:?}");
        // Anchored at the server-side call that leaves the root crate.
        assert_eq!(out[0].file, "crates/server/src/m.rs");
        assert!(out[0].message.contains("crates/dev/src/m.rs"));
    }

    #[test]
    fn waived_blocking_site_is_clean() {
        let out = run_files(
            &[(
                "x",
                "m.rs",
                "struct Shard2;\n\
                 impl Shard2 { fn drain(&self) { idle(); } }\n\
                 fn idle() {\n\
                     // LINT: allow(effect-block): bounded backoff only when idle\n\
                     std::thread::sleep(d);\n\
                 }",
            )],
            ("x", "Shard2::drain"),
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_root_is_a_manifest_violation() {
        let out = run_files(&[("x", "m.rs", "fn other() {}")], ("x", "Shard2::drain"));
        assert_eq!(out.len(), 1);
        assert!(out[0].fingerprint.ends_with("missing-root"));
    }

    #[test]
    fn declared_blocking_manifest_fn_fires() {
        let files = [
            SourceFile::from_text(
                PathBuf::from("m.rs"),
                "crates/server/src/m.rs".into(),
                "server",
                "struct Shard2;\nimpl Shard2 { fn drain(&self) { dcs_dev::Dev::fetch(); } }",
            ),
            SourceFile::from_text(
                PathBuf::from("m.rs"),
                "crates/dev/src/m.rs".into(),
                "dev",
                "pub struct Dev;\nimpl Dev { pub fn fetch() { /* opaque */ } }",
            ),
        ];
        let m = Manifest::parse(
            "[async-shard]\nroots = [\"dcs-server::Shard2::drain\"]\n\
             [effects]\nblocking = [\"dcs-dev::Dev::fetch\"]",
        )
        .unwrap();
        let a = Analysis::build(&files, &m);
        let mut out = Vec::new();
        AsyncShard.finish(&a, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("declared-blocking"));
    }
}
