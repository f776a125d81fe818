//! The lint framework: [`Lint`] trait, [`Violation`], and the registry.
//!
//! Each lint sees every parsed [`SourceFile`] once (`check_file`), then
//! gets a whole-workspace pass (`finish`) over the interprocedural
//! [`Analysis`] — the call graph plus inferred per-function effect
//! summaries — for checks that need the global view (the lock-order
//! graph, hot-path reachability, async-path blocking). Lints are
//! pluggable: [`all_lints`] is the registry, and the engine treats the
//! list as data — adding a lint is implementing the trait and pushing it
//! there.

use crate::effects::Analysis;
use crate::manifest::Manifest;
use crate::source::SourceFile;

pub mod async_shard;
pub mod bounded_send;
pub mod clock;
pub mod hotpath;
pub mod lock_order;
pub mod panic_path;

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

    /// Per-file pass. Push findings; accumulate cross-file state in
    /// `self` for [`Lint::finish`].
    fn check_file(&mut self, sf: &SourceFile, manifest: &Manifest, out: &mut Vec<Violation>);

    /// Whole-workspace pass after every file was seen, with the shared
    /// interprocedural analysis (call graph + effect summaries).
    fn finish(&mut self, _a: &Analysis, _out: &mut Vec<Violation>) {}
}

/// The registry: every lint the analyzer ships, in report order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(hotpath::HotPathAlloc),
        Box::new(clock::ClockDiscipline),
        Box::new(panic_path::PanicFree),
        Box::new(async_shard::AsyncShard),
        Box::new(bounded_send::BoundedSend),
    ]
}

/// Keywords that can directly precede `[` without it being an index
/// expression, and that never name a callable.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Is `s` a Rust keyword?
pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}
