//! Panic-freedom on the wire path, across files and crates.
//!
//! A panic in request decode or shard dispatch kills the shard thread —
//! the server's unit of capacity — on input an adversarial client
//! controls. A file is *wire-path* if and only if it carries the header
//!
//! ```text
//! #![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing,
//!         clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]
//! ```
//!
//! so clippy already bans the panicking surface written *in* the file
//! (`assert!`/`debug_assert!` stay allowed: they state invariants about
//! our state, not about peer input). What clippy cannot see is a wire
//! function calling *out* into code that panics. This lint closes that
//! gap on the call graph: a wire-path function's call into a function
//! outside the wire-path files whose inferred summary carries
//! `MayPanic` is reported at the call site, with the origin chain down
//! to the intrinsic `unwrap`/`expect`/panicking macro.

use super::{Lint, Violation};
use crate::effects::{Analysis, Effect};
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// The clippy lints a wire-path header denies, all of them.
const WIRE_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "indexing_slicing",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Does `sf` carry the wire-path header: a `#![deny(…)]` naming every
/// `WIRE_LINTS` entry?
pub fn is_wire_path(sf: &SourceFile) -> bool {
    let code: Vec<_> = sf.tokens.iter().filter(|t| !t.is_comment()).collect();
    code.windows(4).enumerate().any(|(i, w)| {
        let opens = w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].ident() == Some("deny");
        opens && {
            let names: Vec<&str> = code[i + 4..]
                .iter()
                .take_while(|t| !t.is_punct(']'))
                .filter_map(|t| t.ident())
                .collect();
            WIRE_LINTS.iter().all(|l| names.contains(l))
        }
    })
}

/// The wire-path panic-freedom lint.
pub struct PanicFree;

impl Lint for PanicFree {
    fn name(&self) -> &'static str {
        "panic-path"
    }

    fn description(&self) -> &'static str {
        "wire-path files must not call code that may panic"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let wire: Vec<bool> = a.files.iter().map(is_wire_path).collect();
        // One finding per (caller, callee) pair — each call line
        // repeating it would drown the report.
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (id, node) in a.graph.nodes.iter().enumerate() {
            if !wire[node.file] {
                continue;
            }
            for call in &node.calls {
                for &t in &call.targets {
                    let target = &a.graph.nodes[t];
                    // Clippy covers wire-internal code; only calls that
                    // leave the wire files need the summary.
                    if wire[target.file]
                        || !a.summaries[t].has(Effect::MayPanic)
                        || !seen.insert((id, t))
                    {
                        continue;
                    }
                    let origin = a.summaries[t]
                        .origin(Effect::MayPanic)
                        .map(|o| format!(" — {}", o.describe()))
                        .unwrap_or_default();
                    out.push(Violation::new(
                        self.name(),
                        &a.files[node.file],
                        call.line,
                        node.name.clone(),
                        format!(
                            "wire path calls `{}`, which may panic{origin}",
                            target.display
                        ),
                        &format!("panics:{}", target.display),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    const HEADER: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, \
                          clippy::indexing_slicing, clippy::panic, clippy::unreachable, \
                          clippy::todo, clippy::unimplemented)]\n";

    fn run(srcs: &[(&str, &str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(krate, name, src)| SourceFile::fixture(krate, name, src))
            .collect();
        let m = Manifest::default();
        let a = Analysis::build(&files, &m);
        let mut out = Vec::new();
        PanicFree.check(&a, &mut out);
        out
    }

    /// A wire-path `protocol.rs` (header included) whose `decode` calls
    /// `dcs_util::parse_len`, defined by `util`.
    fn wire_calling(util: &str) -> Vec<Violation> {
        let wire = format!("{HEADER}pub fn decode(buf: &[u8]) {{ dcs_util::parse_len(buf); }}");
        run(&[("server", "protocol.rs", &wire), ("util", "m.rs", util)])
    }

    #[test]
    fn header_marks_wire_path() {
        let sf = |src: &str| SourceFile::fixture("x", "m.rs", src);
        assert!(is_wire_path(&sf(&format!("//! Docs.\n{HEADER}use a::b;"))));
        assert!(!is_wire_path(&sf(
            "#![deny(clippy::unwrap_used)]\nuse a::b;"
        )));
        assert!(!is_wire_path(&sf(&format!("// {HEADER}"))));
    }

    #[test]
    fn unwrap_expect_panic_fire() {
        for body in [
            "x.unwrap();",
            "x.expect(\"msg\");",
            "panic!(\"boom\");",
            "unreachable!();",
        ] {
            let out = wire_calling(&format!("pub fn parse_len(x: Option<u32>) {{ {body} }}"));
            assert_eq!(out.len(), 1, "{body}: {out:?}");
        }
    }

    #[test]
    fn asserts_are_allowed() {
        let out =
            wire_calling("pub fn parse_len(n: usize) { assert!(n < 10); debug_assert!(n > 0); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn files_not_in_scope_are_skipped() {
        let out = run(&[
            (
                "server",
                "other.rs",
                "pub fn decode(buf: &[u8]) { dcs_util::parse_len(buf); }",
            ),
            (
                "util",
                "m.rs",
                "pub fn parse_len(x: Option<u32>) { x.unwrap(); }",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_mod_within_wire_file_is_exempt() {
        let wire = format!(
            "{HEADER}fn clean() {{}}\n#[cfg(test)]\n\
             mod tests {{ #[test] fn t() {{ dcs_util::parse_len(None); }} }}"
        );
        let out = run(&[
            ("server", "protocol.rs", &wire),
            (
                "util",
                "m.rs",
                "pub fn parse_len(x: Option<u32>) { x.unwrap(); }",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn transitive_panic_across_crates_fires() {
        // The unwrap is two hops and one crate away from the wire file;
        // the finding lands on the wire-side call with the origin chain.
        let out = wire_calling(
            "pub fn parse_len(buf: &[u8]) { helper(buf); }\n\
             fn helper(buf: &[u8]) { let n = buf.first().unwrap(); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/server/src/protocol.rs");
        assert!(out[0].message.contains("may panic"));
        assert!(out[0].message.contains("dcs-util::parse_len"));
        assert!(out[0].message.contains("via"), "{}", out[0].message);
    }

    #[test]
    fn transitive_pass_skips_panic_free_callees() {
        let out = wire_calling("pub fn parse_len(buf: &[u8]) -> Option<&u8> { buf.first() }");
        assert!(out.is_empty(), "{out:?}");
    }
}
