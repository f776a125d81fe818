//! Fixture-corpus tests: one known-bad snippet per lint, asserting each
//! lint fires on its fixture at the expected site.
//!
//! The fixtures live as real files under `tests/fixtures/` (outside any
//! `src/`, so the workspace scan never picks them up) and are loaded
//! with `include_str!` so the corpus cannot drift from what the tests
//! exercise.

use dcs_lint::analyze;
use dcs_lint::lints::Violation;
use dcs_lint::manifest::{FnRef, Manifest};
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

#[test]
fn async_block_fixture_fires() {
    let m = Manifest {
        async_roots: vec![FnRef {
            krate: "x".into(),
            func: "Shard2::drain".into(),
        }],
        ..Manifest::default()
    };
    let sf = SourceFile::fixture(
        "x",
        "async_block.rs",
        include_str!("fixtures/async_block.rs"),
    );
    let vs = analyze(&[sf], &m).violations;
    let hits = only(&vs, "async-shard");
    assert_eq!(hits.len(), 1, "{vs:?}");
    let v = hits[0];
    // Same-crate origin: anchored at the sleep itself, two hops down.
    assert_eq!(v.line, 18);
    assert_eq!(v.symbol, "fetch");
    assert!(
        v.message.contains("via Shard2::drain -> step -> fetch"),
        "{}",
        v.message
    );
}

/// Analyze the caller fixture `name` as crate `server`, next to the
/// `util` crate it calls into.
fn run_panic_fixture(name: &str, text: &str) -> Vec<Violation> {
    let files = vec![
        SourceFile::fixture("server", name, text),
        SourceFile::fixture(
            "util",
            "panic_callee.rs",
            include_str!("fixtures/panic_callee.rs"),
        ),
    ];
    analyze(&files, &Manifest::default()).violations
}

#[test]
fn panic_wire_fixture_fires() {
    // The header makes the file wire-path: its call into the unwrapping
    // helper fires at the call site, with the helper's unwrap as origin.
    let vs = run_panic_fixture("panic_wire.rs", include_str!("fixtures/panic_wire.rs"));
    let hits = only(&vs, "panic-path");
    assert_eq!(hits.len(), 1, "{vs:?}");
    assert_eq!(hits[0].line, 17);
    assert_eq!(hits[0].symbol, "decode");
    assert!(
        hits[0].message.contains("dcs-util::parse_len"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0]
            .message
            .contains("crates/util/src/panic_callee.rs:5"),
        "{}",
        hits[0].message
    );
}

#[test]
fn headerless_file_is_not_wire_path() {
    let vs = run_panic_fixture(
        "panic_headerless.rs",
        include_str!("fixtures/panic_headerless.rs"),
    );
    assert!(only(&vs, "panic-path").is_empty(), "{vs:?}");
}
