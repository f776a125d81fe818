//! Report rendering: human text and the JSON artifact.
//!
//! The JSON shape (CI uploads it; nothing reads its keys back):
//!
//! ```json
//! {
//!   "files_scanned": 100,
//!   "summary": { "violations": 0, "per_lint": { "lock-order": 0, … } },
//!   "lints": [ { "name": "lock-order", "description": "…" }, … ],
//!   "violations": [ { "lint": "…", "file": "…", "line": 1, "symbol": "…",
//!                     "message": "…", "fingerprint": "…" }, … ]
//! }
//! ```

use crate::lints::Violation;
use dcs_telemetry::{obj, Json};

/// Everything one analyzer run produced.
pub struct Report {
    /// Unwaived violations, in lint/file/line order.
    pub violations: Vec<Violation>,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Registered lints: `(name, description)`.
    pub lints: Vec<(&'static str, &'static str)>,
}

impl Report {
    /// Human-readable summary for stdout.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {} (in {})\n",
                v.file, v.line, v.lint, v.message, v.symbol
            ));
        }
        out.push_str(&format!(
            "dcs-lint: {} file(s), {} lint(s): {} violation(s)\n",
            self.files_scanned,
            self.lints.len(),
            self.violations.len()
        ));
        out
    }

    /// The JSON artifact.
    pub fn to_json(&self) -> Json {
        let per_lint = self.lints.iter().map(|(name, _)| {
            let n = self.violations.iter().filter(|v| v.lint == *name).count();
            (*name, Json::from(n))
        });
        let lints = self
            .lints
            .iter()
            .map(|(name, desc)| obj! { "name": *name, "description": *desc });
        let violations = self.violations.iter().map(|v| {
            obj! {
                "lint": v.lint,
                "file": v.file.as_str(),
                "line": v.line,
                "symbol": v.symbol.as_str(),
                "message": v.message.as_str(),
                "fingerprint": v.fingerprint.as_str(),
            }
        });
        obj! {
            "files_scanned": self.files_scanned,
            "summary": obj! {
                "violations": self.violations.len(),
                "per_lint": Json::obj(per_lint),
            },
            "lints": Json::arr(lints),
            "violations": Json::arr(violations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            violations: vec![Violation {
                lint: "virtual-clock",
                file: "crates/x/src/a.rs".into(),
                line: 3,
                symbol: "f".into(),
                message: "bad \"clock\"".into(),
                fingerprint: "virtual-clock|crates/x/src/a.rs|f|Instant".into(),
            }],
            files_scanned: 2,
            lints: vec![("virtual-clock", "desc"), ("lock-order", "desc2")],
        }
    }

    #[test]
    fn text_lists_only_new() {
        let t = sample().render_text();
        assert!(t.contains("crates/x/src/a.rs:3: [virtual-clock]"), "{t}");
        assert!(t.contains("2 file(s), 2 lint(s): 1 violation(s)"), "{t}");
    }

    #[test]
    fn json_escapes_and_counts() {
        let text = sample().to_json().to_string();
        assert!(text.contains(r#"bad \"clock\""#), "{text}");
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.at(&["summary", "violations"]), Some(&Json::UInt(1)));
        let per_lint = |lint| j.at(&["summary", "per_lint", lint]).and_then(Json::as_u64);
        assert_eq!(per_lint("virtual-clock"), Some(1));
        assert_eq!(per_lint("lock-order"), Some(0));
        let v = &j.get("violations").unwrap().items()[0];
        assert_eq!(
            v.get("message").and_then(Json::as_str),
            Some("bad \"clock\"")
        );
        assert_eq!(v.get("line").and_then(Json::as_u64), Some(3));
    }
}
