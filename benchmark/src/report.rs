//! Printing and persisting what was measured: the per-metric lines, the
//! driver's one-line JSON, `result.json`, and `compare`.

use crate::json::{self, Value};
use crate::run::Metrics;
use crate::spec::{self, Better, MetricSpec};
use crate::stats;
use std::collections::BTreeMap;

/// One workload's outcome, as reported.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// Empty unless the run was traced.
    pub per_layer: Metrics,
    /// Interquartile distance ÷ median per end-to-end metric, when the
    /// values are medians of repeated runs.
    pub spread: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The value of every metric in `specs`, or the name of one not measured.
fn lookup<'a>(
    specs: &'a [MetricSpec],
    values: &'a Metrics,
) -> impl Iterator<Item = Result<(&'a MetricSpec, f64), String>> + 'a {
    specs.iter().map(move |m| {
        values
            .get(m.name)
            .map(|v| (m, *v))
            .ok_or_else(|| format!("metric {} was not measured", m.name))
    })
}

/// `name value unit` lines, one per metric of the contract.
pub fn metric_lines(specs: &[MetricSpec], values: &Metrics) -> Result<String, String> {
    let mut s = String::new();
    for row in lookup(specs, values) {
        let (m, v) = row?;
        s.push_str(&format!("  {:<40} {:>16.4} {}\n", m.name, v, m.unit));
    }
    Ok(s)
}

/// `"name": {"value": v, "unit": u[, "spread": s]}`.
fn metric_field(m: &MetricSpec, value: f64, spread: Option<f64>) -> String {
    let spread = spread.map_or(String::new(), |s| {
        format!(", \"spread\": {}", json::number(s))
    });
    format!(
        "{}: {{\"value\": {}, \"unit\": {}{spread}}}",
        json::quote(m.name),
        json::number(value),
        json::quote(m.unit)
    )
}

/// One JSON object holding every metric of `specs`; `sep` goes between the
/// fields.
fn metrics_object(
    specs: &[MetricSpec],
    values: &Metrics,
    spreads: &BTreeMap<&'static str, f64>,
    sep: &str,
) -> Result<String, String> {
    let fields = lookup(specs, values)
        .map(|row| row.map(|(m, v)| metric_field(m, v, spreads.get(m.name).copied())))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(format!("{{{}}}", fields.join(sep)))
}

/// The driver contract's last line of standard output.
pub fn driver_line(o: &Outcome, traced: bool) -> Result<String, String> {
    let none = BTreeMap::new();
    let metrics = if traced {
        metrics_object(spec::PER_LAYER, &o.per_layer, &none, ", ")?
    } else {
        metrics_object(spec::END_TO_END, &o.end_to_end, &none, ", ")?
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed
    ))
}

/// First line a tool prints, or "unknown" where the tool or its answer is
/// missing (a driver checkout is not a git repository).
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the run that are not metrics.
pub fn meta_json(seed: u64, scale: f64, steal_frac: f64) -> String {
    format!(
        "{{\"seed\": {seed}, \"scale\": {}, \"commit\": {}, \"nproc\": {}, \"rustc\": {}, \
         \"bench.cpu_steal_frac\": {}}}",
        json::number(scale),
        json::quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(0, usize::from),
        json::quote(&first_line_of("rustc", &["--version"])),
        json::number(steal_frac)
    )
}

/// The text of `result.json` (also what `repeat` writes, with medians as
/// values and the spread beside each).
pub fn result_json(
    meta: &str,
    outcomes: &BTreeMap<&'static str, Outcome>,
) -> Result<String, String> {
    let mut s = format!("{{\n\"meta\": {meta},\n\"workloads\": {{\n");
    for (i, (name, o)) in outcomes.iter().enumerate() {
        let e2e = metrics_object(spec::END_TO_END, &o.end_to_end, &o.spread, ",\n    ")?;
        let per_layer = if o.per_layer.is_empty() {
            "{}".to_string()
        } else {
            metrics_object(spec::PER_LAYER, &o.per_layer, &BTreeMap::new(), ", ")?
        };
        s.push_str(&format!(
            "  {}: {{\n   \"correct\": {}, \"attempted\": {}, \"failed\": {},\n   \"end_to_end\": {e2e},\n   \"per_layer\": {per_layer}\n  }}{}\n",
            json::quote(name),
            o.correct(),
            o.attempted,
            o.failed,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    s.push_str("}\n}\n");
    Ok(s)
}

/// Read one workload's [`Outcome`] back from the text [`result_json`] wrote.
/// Metrics the contract does not name are dropped.
pub fn outcome_from_json(file: &Value, workload: &str) -> Option<Outcome> {
    let w = file.get("workloads")?.get(workload)?;
    let metrics = |section: &str, specs: &'static [MetricSpec]| -> Metrics {
        specs
            .iter()
            .filter_map(|m| {
                let v = w.get(section)?.get(m.name)?.get("value")?.as_f64()?;
                Some((m.name, v))
            })
            .collect()
    };
    Some(Outcome {
        attempted: w.get("attempted")?.as_f64()? as u64,
        failed: w.get("failed")?.as_f64()? as u64,
        end_to_end: metrics("end_to_end", spec::END_TO_END),
        per_layer: metrics("per_layer", spec::PER_LAYER),
        spread: BTreeMap::new(),
    })
}

/// Median, quartiles and spreads of repeated runs, folded into one
/// [`Outcome`] per workload, with a printable table.
pub fn fold_repeats(runs: &[Outcome]) -> (Outcome, String) {
    let mut folded = Outcome::default();
    let mut table = String::from(
        "  metric                           median           q1           q3   iqr/med  range/med\n",
    );
    for m in spec::END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|o| o.end_to_end.get(m.name).copied())
            .collect();
        let med = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values).unwrap_or((med, med));
        let iqr = stats::iqr_spread(&values).unwrap_or(0.0);
        let range = stats::range_spread(&values).unwrap_or(0.0);
        folded.end_to_end.insert(m.name, med);
        folded.spread.insert(m.name, iqr);
        table.push_str(&format!(
            "  {:<26} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>9.2}%\n",
            m.name,
            med,
            q1,
            q3,
            iqr * 100.0,
            range * 100.0
        ));
    }
    folded.attempted = runs.iter().map(|o| o.attempted).sum();
    folded.failed = runs.iter().map(|o| o.failed).sum();
    (folded, table)
}

/// How `b` stands against baseline `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs' own spread is wider than the bound: no call either way.
    Unresolved,
}

/// The share of `a` by which `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(m: &MetricSpec, a: f64, b: f64, spread: f64) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by(m.better, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare two result files, one row per workload × end-to-end metric.
/// Returns the table and whether `b` passes (nothing regressed, nothing
/// failed a correctness check).
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (json::parse(a_text)?, json::parse(b_text)?);
    let mut table = String::from(
        "  workload        metric                     baseline       change   worse by    bound  verdict\n",
    );
    let (mut pass, mut unresolved) = (true, 0);
    for w in &spec::WORKLOADS {
        let side = |v: &Value| v.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            continue;
        };
        if wb.get("correct") != Some(&Value::Bool(true)) {
            table.push_str(&format!("  {:<15} failed its correctness checks\n", w.name));
            pass = false;
        }
        for m in spec::END_TO_END {
            let field = |side: &Value, f: &str| {
                side.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get(f))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (field(&wa, "value"), field(&wb, "value")) else {
                return Err(format!("{}: {} is missing from a file", w.name, m.name));
            };
            let spread = field(&wa, "spread")
                .unwrap_or(0.0)
                .max(field(&wb, "spread").unwrap_or(0.0));
            let v = verdict(m, va, vb, spread);
            pass &= v != Verdict::Regressed;
            unresolved += usize::from(v == Verdict::Unresolved);
            table.push_str(&format!(
                "  {:<15} {:<20} {:>14.4} {:>12.4} {:>9.2}% {:>7.0}%  {}\n",
                w.name,
                m.name,
                va,
                vb,
                worse_by(m.better, va, vb) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed => "REGRESSED".to_string(),
                    Verdict::Unresolved => format!("unresolved (spread {:.1} %)", spread * 100.0),
                }
            ));
        }
    }
    table.push_str(&format!(
        "  {} — {unresolved} unresolved\n",
        if pass { "PASS" } else { "FAIL" }
    ));
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(scale: f64, spread: f64) -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in spec::END_TO_END {
            o.end_to_end.insert(m.name, 100.0 * scale);
            o.spread.insert(m.name, spread);
        }
        o
    }

    fn file(o: Outcome) -> String {
        let outcomes = spec::WORKLOADS
            .iter()
            .map(|w| (w.name, o.clone()))
            .collect();
        result_json("{}", &outcomes).unwrap()
    }

    #[test]
    fn compare_applies_direction_bound_and_spread() {
        let base = file(outcome(1.0, 0.01));
        let (_, pass) = compare(&base, &base).unwrap();
        assert!(pass);
        // Everything 40 % higher: good for throughput, bad for the rest.
        let (table, pass) = compare(&base, &file(outcome(1.4, 0.01))).unwrap();
        assert!(!pass);
        assert!(table.contains("REGRESSED"));
        let tput_row = table
            .lines()
            .find(|l| l.contains("store_hot") && l.contains("throughput_ops_s"))
            .unwrap();
        assert!(tput_row.ends_with("ok"), "{tput_row}");
        // A spread wider than the bound is no verdict, and no failure.
        let (table, pass) = compare(&base, &file(outcome(1.4, 0.5))).unwrap();
        assert!(pass && table.contains("unresolved (spread 50.0 %)"));
        // A failed correctness check fails the comparison.
        let mut bad = outcome(1.0, 0.01);
        bad.failed = 1;
        assert!(!compare(&base, &file(bad)).unwrap().1);
        assert!(
            compare(&base, "{}").unwrap().1,
            "no common workloads, nothing to fail"
        );
    }

    #[test]
    fn an_outcome_survives_the_file() {
        let mut o = outcome(2.0, 0.0);
        o.failed = 3;
        for m in spec::PER_LAYER {
            o.per_layer.insert(m.name, 1.0);
        }
        let back = outcome_from_json(&json::parse(&file(o.clone())).unwrap(), "wire_rtt").unwrap();
        assert_eq!((back.attempted, back.failed), (o.attempted, o.failed));
        assert_eq!(back.end_to_end, o.end_to_end);
        assert_eq!(back.per_layer, o.per_layer);
        assert!(outcome_from_json(&json::parse("{}").unwrap(), "wire_rtt").is_none());
    }

    #[test]
    fn verdicts() {
        let tput = spec::end_to_end("throughput_ops_s").unwrap();
        assert_eq!(verdict(tput, 100.0, 95.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(tput, 100.0, 70.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(tput, 100.0, 70.0, 0.9), Verdict::Unresolved);
        assert_eq!(worse_by(Better::Lower, 10.0, 12.0), 0.2);
        assert_eq!(worse_by(Better::Higher, 10.0, 12.0), -0.2);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_names() {
        let mut o = outcome(1.0, 0.0);
        for m in spec::PER_LAYER {
            o.per_layer.insert(m.name, 1.5);
        }
        for (traced, specs) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            let v = json::parse(&driver_line(&o, traced).unwrap()).unwrap();
            let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let emitted: Vec<&str> = v
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            let mut wanted: Vec<&str> = specs.iter().map(|m| m.name).collect();
            wanted.sort_unstable();
            assert_eq!(emitted, wanted);
        }
        o.end_to_end.remove("rss_mb");
        assert!(driver_line(&o, false).unwrap_err().contains("rss_mb"));
    }

    #[test]
    fn folding_repeats_reports_the_median_and_spread() {
        let runs: Vec<Outcome> = (1..=10).map(|i| outcome(f64::from(i), 0.0)).collect();
        let (folded, table) = fold_repeats(&runs);
        assert_eq!(folded.end_to_end["setup_s"], 550.0);
        assert_eq!(folded.spread["setup_s"], 1.0);
        assert!(table.contains("setup_s"));
    }
}
