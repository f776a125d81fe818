//! The lint framework: [`Lint`] trait, [`Violation`], and the registry.
//!
//! Every lint is one whole-workspace pass over the interprocedural
//! [`Analysis`] — the call graph plus inferred per-function lock
//! summaries — because the check needs the global view (the lock-order
//! graph across crates). Per-file syntactic rules belong to clippy (see
//! the workspace `clippy.toml`).
//! [`all_lints`] is the registry: adding a lint is implementing the
//! trait and pushing it there.

use crate::effects::Analysis;
use crate::source::SourceFile;

pub mod lock_order;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Lint that produced it (stable kebab-case name).
    pub lint: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function (`Type::method`), or `(file)`.
    pub symbol: String,
    /// Human-readable description.
    pub message: String,
    /// Line-number-free identity (`lint|file|symbol|detail`), so a
    /// finding keeps its SARIF `partialFingerprints` across unrelated
    /// edits.
    pub fingerprint: String,
}

impl Violation {
    /// Build a violation with the canonical fingerprint shape. `detail`
    /// must not contain line numbers (it is the stable identity).
    pub fn new(
        lint: &'static str,
        sf: &SourceFile,
        line: u32,
        symbol: String,
        message: String,
        detail: &str,
    ) -> Violation {
        Violation {
            lint,
            file: sf.rel.clone(),
            line,
            fingerprint: format!("{lint}|{}|{symbol}|{detail}", sf.rel),
            symbol,
            message,
        }
    }
}

/// A pluggable static check.
pub trait Lint {
    /// Stable kebab-case name (report key, `LINT: allow(<name>)` key).
    fn name(&self) -> &'static str;

    /// One-line description for `--list-lints` and the report.
    fn description(&self) -> &'static str;

    /// The whole-workspace pass over the shared interprocedural
    /// analysis (call graph + lock summaries).
    fn check(&self, a: &Analysis, out: &mut Vec<Violation>);
}

/// The registry: every lint the analyzer ships, in report order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![Box::new(lock_order::LockOrder)]
}
