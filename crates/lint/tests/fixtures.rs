//! Fixture-corpus tests: one known-bad snippet per lint, asserting each
//! lint fires on its fixture at the expected site.
//!
//! The fixtures live as real files under `tests/fixtures/` (outside any
//! `src/`, so the workspace scan never picks them up) and are loaded
//! with `include_str!` so the corpus cannot drift from what the tests
//! exercise.

use dcs_lint::analyze;
use dcs_lint::lints::Violation;
use dcs_lint::manifest::{HotPath, Manifest};
use dcs_lint::source::SourceFile;
use std::path::PathBuf;

/// Parse one fixture as if it lived at `crates/<krate>/src/<name>`.
fn fixture(krate: &str, name: &str, text: &str) -> SourceFile {
    SourceFile::from_text(
        PathBuf::from(name),
        format!("crates/{krate}/src/{name}"),
        krate,
        text,
    )
}

/// A manifest that puts every fixture in scope of its lint.
fn corpus_manifest() -> Manifest {
    Manifest {
        hotpaths: vec![HotPath {
            krate: "x".into(),
            func: "hot".into(),
        }],
        clock_allow: Vec::new(),
        wire_files: vec!["crates/x/src/panic_wire.rs".into()],
        ..Manifest::default()
    }
}

fn run_fixture(name: &str, text: &str) -> Vec<Violation> {
    let sf = fixture("x", name, text);
    analyze(&[sf], &corpus_manifest()).violations
}

fn only<'a>(violations: &'a [Violation], lint: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.lint == lint).collect()
}

#[test]
fn lock_cycle_fixture_fires() {
    let vs = run_fixture("lock_cycle.rs", include_str!("fixtures/lock_cycle.rs"));
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
        fixture("a", "xcycle_a.rs", include_str!("fixtures/xcycle_a.rs")),
        fixture("b", "xcycle_b.rs", include_str!("fixtures/xcycle_b.rs")),
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
        async_roots: vec![HotPath {
            krate: "x".into(),
            func: "Shard2::drain".into(),
        }],
        ..Manifest::default()
    };
    let sf = fixture(
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

#[test]
fn send_wire_fixture_fires() {
    let m = Manifest {
        wire_send_files: vec!["crates/x/src/send_wire.rs".into()],
        bounded_senders: vec!["mailbox".into()],
        ..Manifest::default()
    };
    let sf = fixture("x", "send_wire.rs", include_str!("fixtures/send_wire.rs"));
    let vs = analyze(&[sf], &m).violations;
    let hits = only(&vs, "bounded-send");
    // Only the bare `tx.send` fires; `mailbox.send` (registered bounded
    // receiver) and `try_send` stay clean.
    assert_eq!(hits.len(), 1, "{vs:?}");
    assert_eq!(hits[0].line, 7);
    assert_eq!(hits[0].symbol, "dispatch");
}

#[test]
fn hotpath_format_fixture_fires() {
    let vs = run_fixture(
        "hotpath_format.rs",
        include_str!("fixtures/hotpath_format.rs"),
    );
    let hits = only(&vs, "hot-path-alloc");
    assert_eq!(hits.len(), 1, "{vs:?}");
    let v = hits[0];
    assert_eq!(v.line, 5);
    assert_eq!(v.symbol, "hot");
    assert!(v.message.contains("format!"), "{}", v.message);
}

#[test]
fn clock_fixture_fires() {
    let vs = run_fixture(
        "clock_instant.rs",
        include_str!("fixtures/clock_instant.rs"),
    );
    let hits = only(&vs, "virtual-clock");
    assert_eq!(hits.len(), 1, "{vs:?}");
    assert_eq!(hits[0].line, 5);
    assert_eq!(hits[0].symbol, "measure");
}

#[test]
fn panic_wire_fixture_fires() {
    let vs = run_fixture("panic_wire.rs", include_str!("fixtures/panic_wire.rs"));
    let hits = only(&vs, "panic-path");
    // One indexing violation (line 5) and one `.unwrap()` (line 6).
    assert_eq!(hits.len(), 2, "{vs:?}");
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].message.contains("indexing"), "{}", hits[0].message);
    assert_eq!(hits[1].line, 6);
    assert!(hits[1].message.contains("unwrap"), "{}", hits[1].message);
    assert!(hits.iter().all(|v| v.symbol == "decode"));
}
