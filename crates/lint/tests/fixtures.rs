//! Fixture-corpus tests: known-bad snippets, asserting the lint fires on
//! each fixture at the expected site.
//!
//! The fixtures live as real files under `tests/fixtures/` (outside any
//! `src/`, so the workspace scan never picks them up) and are loaded
//! with `include_str!` so the corpus cannot drift from what the tests
//! exercise.

use dcs_lint::analyze;
use dcs_lint::lints::Violation;
use dcs_lint::manifest::Manifest;
use dcs_lint::source::SourceFile;

fn only<'a>(violations: &'a [Violation], lint: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.lint == lint).collect()
}

#[test]
fn lock_cycle_fixture_fires() {
    let sf = SourceFile::fixture("x", "lock_cycle.rs", include_str!("fixtures/lock_cycle.rs"));
    let vs = analyze(&[sf], &Manifest::default()).violations;
    let cycles = only(&vs, "lock-order");
    assert_eq!(cycles.len(), 1, "{vs:?}");
    let v = cycles[0];
    assert_eq!(v.file, "crates/x/src/lock_cycle.rs");
    // Anchored at the first edge (alpha -> beta in `forward`, line 6),
    // message walks both participating sites.
    assert_eq!(v.line, 6);
    assert!(v.message.contains("forward"), "{}", v.message);
    assert!(v.message.contains("backward"), "{}", v.message);
    // The fingerprint is the sorted node set (crate-qualified labels),
    // with no line numbers.
    assert_eq!(
        v.fingerprint,
        "lock-order|workspace|cycle|x:s.alpha,x:s.beta"
    );
}

#[test]
fn cross_crate_lock_cycle_fixture_fires() {
    // The cycle is split across two crates: `a` locks alpha then calls
    // into `b` (which locks beta); `b` locks beta then calls back into
    // `a` (which locks alpha). Each crate's local graph is acyclic —
    // only the call-propagated workspace graph closes the loop.
    let files = vec![
        SourceFile::fixture("a", "xcycle_a.rs", include_str!("fixtures/xcycle_a.rs")),
        SourceFile::fixture("b", "xcycle_b.rs", include_str!("fixtures/xcycle_b.rs")),
    ];
    let vs = analyze(&files, &Manifest::default()).violations;
    let cycles = only(&vs, "lock-order");
    assert_eq!(cycles.len(), 1, "{vs:?}");
    let v = cycles[0];
    assert_eq!(
        v.fingerprint,
        "lock-order|workspace|cycle|a:s.alpha,b:s.beta"
    );
    assert!(v.message.contains("via"), "{}", v.message);
}
