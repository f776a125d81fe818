//! `dcs-lint`: workspace-wide static lock-order analyzer.
//!
//! The dynamic checkers (dcs-check's seeded interleavings, dcs-lin's
//! history search, miri/TSan) verify what a run *did*; this crate
//! verifies what the source *can* do, on every commit, in milliseconds.
//! It enforces one invariant only a whole-workspace call graph can see:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `lock-order` | the workspace lock acquisition graph is acyclic |
//!
//! Blocking on a shard thread is caught at run time by
//! `dcs_syncshim::block`, panics on client input by the hostile-request
//! test, and per-file rules (the wall clock, the panicking surface
//! written in a wire-path file, unbounded channel sends, unchecked
//! sleeps and condvar waits) by clippy (the workspace `clippy.toml` and
//! each wire-path file's `#![deny(…)]` header). The lint runs on an
//! **interprocedural lock-set engine** ([`callgraph`] + [`effects`]):
//! one workspace call graph, per-function lock summaries inferred
//! bottom-up over SCCs, so a lock taken three crates below a held guard
//! still forms an edge at the call site that reaches it, and the
//! finding's message carries the call chain.
//!
//! Policy lives in `<root>/lint-hotpaths.toml`. The gate is "no
//! unwaived violation"; the one escape hatch is an adjacent
//! `// LINT: allow(<lint-name>): <reason>` comment on the finding — the
//! reason is mandatory. An acquisition can additionally be waived at
//! its *source* with `// LINT: allow(effect-lock): <reason>`, which
//! removes it from every transitive summary at once.
//!
//! The analyzer hand-rolls its lexer and item parser (no `syn`/rustc,
//! consistent with the offline shimmed build), trading full grammar
//! fidelity for zero parser dependencies; its reports go through
//! `dcs_telemetry::json`. Ambiguity is resolved toward over-reporting
//! plus explicit waivers; *call resolution* is the one place ambiguity
//! resolves toward silence, because a wrong edge manufactures findings
//! in unrelated crates.

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod lints;
pub mod manifest;
pub mod report;
pub mod sarif;
pub mod source;

use effects::Analysis;
use lints::{all_lints, Violation};
use manifest::Manifest;
use report::Report;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Run every lint over the workspace at `root` (the directory holding
/// `crates/`) under `<root>/lint-hotpaths.toml`. The report's violations
/// are the CI gate: any one fails it, and so does a `[dispatch]` row that
/// names no workspace function (an `Err`).
pub fn run(root: &Path) -> Result<Report, String> {
    let manifest_path = root.join("lint-hotpaths.toml");
    let manifest = if manifest_path.exists() {
        Manifest::load(&manifest_path)?
    } else {
        Manifest::default()
    };
    let files = collect_files(root)?;
    // A row naming no function would drop its calls from the graph unseen.
    let graph = callgraph::CallGraph::build(&files, &manifest);
    for (method, targets) in &manifest.dispatch {
        if let Some(t) = targets
            .iter()
            .find(|t| graph.lookup(&t.krate, &t.func).is_empty())
        {
            return Err(format!(
                "[dispatch] {method}: no function dcs-{}::{}",
                t.krate, t.func
            ));
        }
    }
    Ok(analyze(&files, &manifest))
}

/// Run the lints over already-collected files (fixture tests call this
/// directly; `run` adds manifest loading and file discovery).
pub fn analyze(files: &[SourceFile], manifest: &Manifest) -> Report {
    let analysis = Analysis::build(files, manifest);
    let lints = all_lints();
    let mut violations: Vec<Violation> = Vec::new();
    for lint in &lints {
        lint.check(&analysis, &mut violations);
    }
    // Adjacent `LINT: allow(<name>): reason` waivers, applied centrally
    // so every lint supports them uniformly. An allow with no reason
    // text does not count.
    violations.retain(|v| !waived(files, v));
    violations.sort_by(|a, b| {
        (a.lint, &a.file, a.line, &a.message).cmp(&(b.lint, &b.file, b.line, &b.message))
    });
    Report {
        violations,
        files_scanned: files.len(),
        lints: lints.iter().map(|l| (l.name(), l.description())).collect(),
    }
}

/// Is this violation waived by an adjacent `LINT: allow(...)` comment?
///
/// The waiver may sit as a trailing comment on the violation line, or
/// anywhere in the contiguous block of comment-only lines immediately
/// above it (a multi-line waiver reads naturally as `allow` + wrapped
/// reason text).
fn waived(files: &[SourceFile], v: &Violation) -> bool {
    let Some(sf) = files.iter().find(|f| f.rel == v.file) else {
        return false;
    };
    if waiver_matches(sf.line_text(v.line), v.lint) {
        return true;
    }
    // Walk the comment block above; a trailing comment on a *code* line
    // up there waives that line's own code instead, so stop at it.
    let mut probe = v.line.saturating_sub(1);
    while probe >= 1 {
        let text = sf.line_text(probe);
        if !text.trim_start().starts_with("//") {
            break;
        }
        if waiver_matches(text, v.lint) {
            return true;
        }
        probe -= 1;
    }
    false
}

/// Does `text` carry `// LINT: allow(<lint>): <non-empty reason>`?
pub(crate) fn waiver_matches(text: &str, lint: &str) -> bool {
    let comment = match text.split_once("//") {
        Some((_, c)) => c,
        None => return false,
    };
    if let Some((name, reason)) = comment
        .trim()
        .strip_prefix("LINT: allow(")
        .and_then(|r| r.split_once(')'))
    {
        let reason = reason.trim_start_matches([':', '-', '—', ' ']).trim();
        return name.trim() == lint && !reason.is_empty();
    }
    false
}

/// Every `.rs` under `crates/*/src`, recursively. `shims/` is vendored
/// third-party API surface and stays out of scope.
pub fn collect_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk(&src, &mut files).map_err(|e| format!("walking {}: {e}", src.display()))?;
        files.sort();
        for f in files {
            out.push(
                SourceFile::load(root, &f, &crate_name)
                    .map_err(|e| format!("reading {}: {e}", f.display()))?,
            );
        }
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walk up from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint `fn f(s: &S) { let g = s.m.lock(); <body> }`. Each further
    /// `s.m.lock()` in `body` (line 3 on) is a recursive acquisition:
    /// one `lock-order` finding on its own line.
    fn lint_body(body: &str) -> Vec<Violation> {
        let src = format!("fn f(s: &S) {{\nlet g = s.m.lock();\n{body}\n}}");
        let sf = SourceFile::fixture("x", "m.rs", &src);
        analyze(&[sf], &Manifest::default()).violations
    }

    #[test]
    fn waiver_requires_reason() {
        let vs = lint_body(
            "let a = s.m.lock(); // LINT: allow(lock-order): reentrant by design\n\
             let b = s.m.lock(); // LINT: allow(lock-order)",
        );
        // Line 3 waived (has a reason); line 4's allow has none → kept.
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn waiver_on_preceding_line_works() {
        let vs = lint_body(
            "// LINT: allow(lock-order): reentrant by design\n\
             let a = s.m.lock();",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn waiver_anywhere_in_comment_block_above_works() {
        // The allow line is two lines up, with a wrapped continuation
        // line in between — still part of the contiguous block.
        let vs = lint_body(
            "// LINT: allow(lock-order): reentrant by\n\
             // design (startup only).\n\
             let a = s.m.lock();",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn waiver_block_stops_at_code_line() {
        // A trailing comment on a code line above does not waive the
        // statement below it.
        let vs = lint_body(
            "let n = 1; // LINT: allow(lock-order): someone else's waiver\n\
             let a = s.m.lock();",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 4);
    }
}
