//! SARIF 2.1.0 rendering, so CI can upload findings as GitHub
//! code-scanning annotations.
//!
//! Violation fingerprints ride in `partialFingerprints` under the
//! `dcsLint/v1` key, giving GitHub a line-churn-stable identity for each
//! finding. Manifest-anchored findings report line 0 internally; SARIF
//! regions are 1-based, so those clamp to 1.

use crate::report::Report;
use dcs_telemetry::{obj, Json};

/// The report as a SARIF 2.1.0 document.
pub fn render(report: &Report) -> Json {
    let rules = report.lints.iter().map(|(name, desc)| {
        obj! { "id": *name, "shortDescription": obj! { "text": *desc } }
    });
    let results = report.violations.iter().map(|v| {
        let region = obj! { "startLine": v.line.max(1) };
        let location = obj! {
            "physicalLocation": obj! {
                "artifactLocation": obj! { "uri": v.file.as_str() },
                "region": region,
            },
        };
        obj! {
            "ruleId": v.lint,
            "level": "error",
            "message": obj! { "text": v.message.as_str() },
            "locations": Json::arr([location]),
            "partialFingerprints": obj! { "dcsLint/v1": v.fingerprint.as_str() },
        }
    });
    let driver = obj! {
        "name": "dcs-lint",
        "informationUri": "https://example.invalid/dcs-lint",
        "rules": Json::arr(rules),
    };
    obj! {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": Json::arr([obj! {
            "tool": obj! { "driver": driver },
            "results": Json::arr(results),
        }]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Violation;

    fn report_with(line: u32) -> Json {
        let report = Report {
            violations: vec![Violation {
                lint: "lock-order",
                file: "crates/x/src/m.rs".into(),
                line,
                symbol: "f".into(),
                message: "cycle: \"a\" -> b".into(),
                fingerprint: "lock-order|crates/x/src/m.rs|f|cycle".into(),
            }],
            files_scanned: 1,
            lints: vec![("lock-order", "graph must be acyclic")],
        };
        Json::parse(&render(&report).to_string()).unwrap()
    }

    fn result(sarif: &Json) -> &Json {
        &sarif.get("runs").unwrap().items()[0]
            .get("results")
            .unwrap()
            .items()[0]
    }

    fn start_line(sarif: &Json) -> Option<u64> {
        let location = &result(sarif).get("locations").unwrap().items()[0];
        location
            .at(&["physicalLocation", "region", "startLine"])
            .and_then(Json::as_u64)
    }

    #[test]
    fn renders_rule_result_and_fingerprint() {
        let s = report_with(7);
        assert_eq!(s.get("version").and_then(Json::as_str), Some("2.1.0"));
        let r = result(&s);
        assert_eq!(r.get("ruleId").and_then(Json::as_str), Some("lock-order"));
        assert_eq!(start_line(&s), Some(7));
        let fp = r.at(&["partialFingerprints", "dcsLint/v1"]);
        assert_eq!(
            fp.and_then(Json::as_str),
            Some("lock-order|crates/x/src/m.rs|f|cycle")
        );
        let text = r.at(&["message", "text"]).and_then(Json::as_str);
        assert_eq!(text, Some("cycle: \"a\" -> b"));
    }

    #[test]
    fn line_zero_clamps_to_one() {
        assert_eq!(start_line(&report_with(0)), Some(1));
    }
}
