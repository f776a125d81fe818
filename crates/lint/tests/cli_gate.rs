//! End-to-end CLI gate test: seed a violation in a throwaway workspace,
//! prove the binary exits non-zero (what fails the CI job), then waive
//! it in place and prove the gate reopens.

use dcs_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch workspace under the target temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dcs-lint-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/x/src")).unwrap();
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
        Scratch(dir)
    }

    fn write(&self, rel: &str, text: &str) {
        std::fs::write(self.0.join(rel), text).unwrap();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lint(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dcs-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("dcs-lint binary runs")
}

#[test]
fn seeded_violation_fails_then_waiver_reopens_the_gate() {
    let ws = Scratch::new("seeded");
    // The seed: a mutex re-locked while its guard is still live — a
    // self-deadlock, the class of bug the lock-order lint exists for.
    let seed = |waiver: &str| {
        format!(
            "fn relock(s: &S) {{\n\
             let g = s.m.lock();\n\
             {waiver}\n\
             let h = s.m.lock();\n\
             }}\n"
        )
    };
    ws.write("crates/x/src/lib.rs", &seed(""));
    let out = lint(&ws.0, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lock-order"), "{stdout}");
    assert!(stdout.contains("crates/x/src/lib.rs:4"), "{stdout}");

    // Waive it in place, with a reason: the gate passes.
    let allow = "// LINT: allow(lock-order): reentrant by design";
    ws.write("crates/x/src/lib.rs", &seed(allow));
    let waived = lint(&ws.0, &[]);
    assert_eq!(waived.status.code(), Some(0), "{waived:?}");

    // A second instance whose allow carries no reason still fails.
    ws.write("crates/x/src/more.rs", &seed("// LINT: allow(lock-order)"));
    let unreasoned = lint(&ws.0, &[]);
    assert_eq!(unreasoned.status.code(), Some(1), "{unreasoned:?}");
    let stdout = String::from_utf8_lossy(&unreasoned.stdout);
    assert!(stdout.contains("crates/x/src/more.rs:4"), "{stdout}");
    assert!(!stdout.contains("crates/x/src/lib.rs"), "{stdout}");
}

#[test]
fn clean_tree_exits_zero_and_writes_json() {
    let ws = Scratch::new("clean");
    ws.write(
        "crates/x/src/lib.rs",
        "pub fn add(a: u64, b: u64) -> u64 { a + b }\n",
    );
    let json_path = ws.0.join("lint-report.json");
    let out = lint(&ws.0, &["--json", json_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    let violations = report.at(&["summary", "violations"]);
    assert_eq!(violations.and_then(Json::as_u64), Some(0), "{report}");
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_dcs-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("dcs-lint binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn sarif_report_is_written() {
    let ws = Scratch::new("sarif");
    ws.write(
        "crates/x/src/lib.rs",
        "fn relock(s: &S) {\n\
         let g = s.m.lock();\n\
         let h = s.m.lock();\n\
         }\n",
    );
    let sarif_path = ws.0.join("lint.sarif");
    let out = lint(&ws.0, &["--sarif", sarif_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let sarif = Json::parse(&std::fs::read_to_string(&sarif_path).unwrap()).unwrap();
    assert_eq!(sarif.get("version").and_then(Json::as_str), Some("2.1.0"));
    let run = &sarif.get("runs").unwrap().items()[0];
    let result = &run.get("results").unwrap().items()[0];
    assert_eq!(
        result.get("ruleId").and_then(Json::as_str),
        Some("lock-order")
    );
    let location = &result.get("locations").unwrap().items()[0];
    let start_line = location.at(&["physicalLocation", "region", "startLine"]);
    assert_eq!(start_line.and_then(Json::as_u64), Some(3));
    let fingerprint = result.at(&["partialFingerprints", "dcsLint/v1"]);
    assert!(fingerprint.and_then(Json::as_str).is_some(), "{sarif}");
}
