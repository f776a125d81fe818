//! `dcs-benchmark`: the repo's benchmark.
//!
//! ```text
//! dcs-benchmark run [--seed N] [--scale F] [--traced] [--workload NAME]...
//! dcs-benchmark one --workload NAME [--seed N] [--scale F] [--traced]
//! dcs-benchmark repeat N [--seed N] [--scale F] [--workload NAME]...
//! dcs-benchmark compare A.json B.json
//! dcs-benchmark emit-spec
//! dcs-benchmark --workload NAME --seed N --seconds S --trace 0|1   (driver contract)
//! ```
//!
//! Everything is measured from outside the program under test: through its
//! public functions, its public `*Stats` structs and `/proc/self`.

mod harness;
mod inproc;
mod json;
mod layers;
mod probes;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use harness::{Budget, Path, WorkloadDef};
use report::Outcome;
use run::{RunOpts, RunResult, SETUP_REPS};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Where `result.json` and the trace files go.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A traced window is this share of the untraced one.
const TRACED_FRAC: f64 = 0.25;

fn note_failures(name: &str, r: &RunResult) {
    for note in r.notes() {
        eprintln!("{name}: FAILED {note}");
    }
}

/// The untraced run: every end-to-end metric.
fn measure(def: &WorkloadDef, seed: u64, budget: Budget) -> Result<(Outcome, f64), String> {
    let r = run::execute(
        def,
        RunOpts {
            seed,
            budget,
            traced: false,
            setup_reps: SETUP_REPS,
        },
    )?;
    note_failures(def.name, &r);
    let lat = &r.window.out.lat;
    let outcome = Outcome {
        attempted: r.attempted(),
        failed: r.failed(),
        end_to_end: r.end_to_end(),
        ..Outcome::default()
    };
    println!(
        "  {}: {} ops in {:.2} s on the clock; latency samples get {} put {} rmw {} scan {}",
        def.name,
        r.window.out.attempted,
        r.window.wall_ns as f64 / 1e9,
        lat[0].len(),
        lat[1].len(),
        lat[2].len(),
        lat[3].len()
    );
    Ok((outcome, r.throughput()))
}

/// The traced run and the probes: every per-layer metric, the trace file,
/// and (for a wire workload) the stage table. `reference_tput` is the
/// untraced throughput to hold the traced one against; without one, an
/// untraced window of the same length is run first.
fn measure_layers(
    def: &WorkloadDef,
    seed: u64,
    budget: Budget,
    reference_tput: Option<f64>,
) -> Result<(Outcome, String), String> {
    let opts = RunOpts {
        seed,
        budget,
        traced: false,
        setup_reps: 1,
    };
    let reference_tput = match reference_tput {
        Some(t) => t,
        None => {
            let r = run::execute(def, opts)?;
            note_failures(def.name, &r);
            r.throughput()
        }
    };
    let traced = run::execute(
        def,
        RunOpts {
            traced: true,
            ..opts
        },
    )?;
    note_failures(def.name, &traced);
    let probes = probes::run_all(def, seed)?;
    let per_layer = layers::metrics(def, &traced, reference_tput, &probes);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", def.name));
    trace::write_chrome(&path, &traced.window.tracers)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut text = String::new();
    for (name, a) in trace::aggregate(&traced.window.tracers) {
        text.push_str(&format!(
            "  span {:<24} n {:>9}  total {:>10.3} ms  self {:>10.3} ms\n",
            name,
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        ));
    }
    if matches!(def.path, Path::Wire { .. }) {
        text.push_str(&layers::stage_table(&traced, &per_layer));
    }
    let outcome = Outcome {
        attempted: traced.attempted(),
        failed: traced.failed(),
        per_layer,
        ..Outcome::default()
    };
    Ok((outcome, text))
}

struct Args {
    seed: u64,
    scale: f64,
    traced: bool,
    workloads: Vec<WorkloadDef>,
    seconds: Option<f64>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 42,
        scale: 1.0,
        traced: false,
        workloads: Vec::new(),
        seconds: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{a} needs {what}"))
                .map(String::as_str)
        };
        let number = |s: &str| s.parse::<f64>().map_err(|_| format!("{a}: bad number {s}"));
        match a.as_str() {
            "--seed" => {
                let s = value("a number")?;
                out.seed = s.parse().map_err(|_| format!("--seed: bad number {s}"))?;
            }
            "--scale" => out.scale = number(value("a factor")?)?,
            "--seconds" => out.seconds = Some(number(value("a number of seconds")?)?),
            "--traced" => out.traced = true,
            "--trace" => out.traced = value("0 or 1")? == "1",
            "--workload" => {
                let name = value("a workload name")?;
                let def = harness::workloads()
                    .into_iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                out.workloads.push(def);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => out.positional.push(a.clone()),
        }
    }
    if !(out.scale > 0.0 && out.scale.is_finite()) {
        return Err("--scale must be positive".to_string());
    }
    if out.workloads.is_empty() {
        out.workloads = harness::workloads().to_vec();
    }
    Ok(out)
}

/// `one`: one workload at a fixed op count, every metric printed, the
/// outcome left in `out/one.json`. It is what `run` and `repeat` execute,
/// in a process of its own per workload: the memory high-water mark, the
/// allocator's retained heap and the thread placements of one workload must
/// not leak into the next one's numbers (nor depend on their order).
fn cmd_one(a: &Args) -> Result<bool, String> {
    let [def] = a.workloads.as_slice() else {
        return Err("`one` runs one --workload".to_string());
    };
    let budget = Budget::Ops(def.nominal_ops).scaled(a.scale);
    let why = spec::workload(def.name).map_or("", |w| w.why);
    println!("== {} — {why}", def.name);
    let (mut outcome, tput) = measure(def, a.seed, budget)?;
    print!(
        "{}",
        report::metric_lines(spec::END_TO_END, &outcome.end_to_end)?
    );
    println!("  checked {} failed {}", outcome.attempted, outcome.failed);
    if a.traced {
        let (layer, text) = measure_layers(def, a.seed, budget.scaled(TRACED_FRAC), Some(tput))?;
        print!(
            "{}",
            report::metric_lines(spec::PER_LAYER, &layer.per_layer)?
        );
        print!("{text}");
        outcome.failed += layer.failed;
        outcome.attempted += layer.attempted;
        outcome.per_layer = layer.per_layer;
    }
    let correct = outcome.correct();
    write_result("one.json", "{}", &BTreeMap::from([(def.name, outcome)]))?;
    Ok(correct)
}

/// Run `one` for `def` in a child process and read its outcome back.
fn one_in_child(def: &WorkloadDef, a: &Args, seed: u64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["one", "--workload", def.name])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &a.scale.to_string()]);
    if a.traced {
        cmd.arg("--traced");
    }
    let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
    // 1 is a failed check, which the outcome file records; anything else
    // means there is no outcome.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{}: the run ended with {status}", def.name));
    }
    let path = out_dir().join("one.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report::outcome_from_json(&json::parse(&text)?, def.name)
        .ok_or_else(|| format!("{}: no outcome for {}", path.display(), def.name))
}

/// `run`: all workloads at a fixed op count, every metric printed.
fn cmd_run(a: &Args) -> Result<bool, String> {
    let jiffies = procfs::cpu_jiffies();
    let mut outcomes = BTreeMap::new();
    for def in &a.workloads {
        outcomes.insert(def.name, one_in_child(def, a, a.seed)?);
    }
    let steal = procfs::steal_frac(jiffies, procfs::cpu_jiffies());
    write_result(
        "result.json",
        &report::meta_json(a.seed, a.scale, steal),
        &outcomes,
    )?;
    Ok(outcomes.values().all(Outcome::correct))
}

fn write_result(
    file: &str,
    meta: &str,
    outcomes: &BTreeMap<&'static str, Outcome>,
) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, report::result_json(meta, outcomes)?)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `repeat N`: N untraced runs per workload, each with another seed;
/// median, quartiles and spreads per metric.
fn cmd_repeat(a: &Args) -> Result<bool, String> {
    let n: usize = a
        .positional
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|n| *n >= 2)
        .ok_or("repeat needs a count of at least 2")?;
    let jiffies = procfs::cpu_jiffies();
    let mut runs: BTreeMap<&'static str, Vec<Outcome>> = BTreeMap::new();
    // Workloads interleave, so that drift over the session spreads over
    // all of them instead of landing on the last.
    for i in 0..n {
        for def in &a.workloads {
            let outcome = one_in_child(def, a, a.seed + i as u64)?;
            eprintln!("run {}/{n} of {} done", i + 1, def.name);
            runs.entry(def.name).or_default().push(outcome);
        }
    }
    let mut outcomes = BTreeMap::new();
    for (name, list) in &runs {
        let (folded, table) = report::fold_repeats(list);
        println!("== {name} — {n} runs");
        print!("{table}");
        outcomes.insert(*name, folded);
    }
    let steal = procfs::steal_frac(jiffies, procfs::cpu_jiffies());
    write_result(
        "repeat.json",
        &report::meta_json(a.seed, a.scale, steal),
        &outcomes,
    )?;
    Ok(outcomes.values().all(Outcome::correct))
}

/// `compare A B`: B against baseline A, by each metric's direction and
/// bound.
fn cmd_compare(a: &Args) -> Result<bool, String> {
    let [base, change] = a.positional.as_slice() else {
        return Err("compare needs two result files".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, pass) = report::compare(&read(base)?, &read(change)?)?;
    print!("{table}");
    Ok(pass)
}

/// The driver contract: one workload, a window of `--seconds`, and as the
/// last line of standard output the one JSON object the driver reads.
fn cmd_driver(a: &Args) -> Result<bool, String> {
    let [def] = a.workloads.as_slice() else {
        return Err("the driver runs one --workload at a time".to_string());
    };
    let seconds = a.seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let budget = Budget::Seconds(seconds);
    let outcome = if a.traced {
        let (outcome, text) = measure_layers(def, a.seed, budget.scaled(TRACED_FRAC), None)?;
        print!(
            "{}",
            report::metric_lines(spec::PER_LAYER, &outcome.per_layer)?
        );
        print!("{text}");
        outcome
    } else {
        let (outcome, _) = measure(def, a.seed, budget)?;
        print!(
            "{}",
            report::metric_lines(spec::END_TO_END, &outcome.end_to_end)?
        );
        outcome
    };
    // The driver reads `correct` and `failed` from this line; the exit code
    // only says whether there is a line to read.
    println!("{}", report::driver_line(&outcome, a.traced)?);
    Ok(true)
}

fn main() -> ExitCode {
    // Before any other thread exists, so that all of them inherit it.
    if let Err(e) = procfs::pin_to_first_cpu() {
        eprintln!("dcs-benchmark: cannot confine itself to one CPU: {e}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "one" | "repeat" | "compare" | "emit-spec")) => (c, &argv[1..]),
        Some(flag) if flag.starts_with("--") => ("driver", &argv[..]),
        _ => {
            eprintln!(
                "usage: dcs-benchmark run|repeat N|compare A B|emit-spec, or the driver flags"
            );
            return ExitCode::from(2);
        }
    };
    let result = parse_args(rest).and_then(|a| match cmd {
        "run" => cmd_run(&a),
        "one" => cmd_one(&a),
        "repeat" => cmd_repeat(&a),
        "compare" => cmd_compare(&a),
        "emit-spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => cmd_driver(&a),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dcs-benchmark: a check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dcs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real (tiny) run of each mode emits exactly the names of the
    /// contract: nothing the tables promise is left unmeasured.
    #[test]
    fn a_real_run_measures_every_metric_of_the_contract() {
        let def = harness::workloads().into_iter().next().unwrap();
        let budget = Budget::Ops(40_000);
        let (outcome, tput) = measure(&def, 11, budget).unwrap();
        assert!(outcome.correct() && tput > 0.0);
        report::driver_line(&outcome, false).unwrap();

        let (layers, text) =
            measure_layers(&def, 11, budget.scaled(TRACED_FRAC), Some(tput)).unwrap();
        assert!(layers.correct());
        report::driver_line(&layers, true).unwrap();
        assert!(text.contains("llama.cache.sweep"), "{text}");
        assert!(layers.per_layer["llama.cache.sweep_ms"] > 0.0);
        assert!(layers.per_layer["core.get_ns"] > 0.0);
        assert!(out_dir().join("trace-store_hot.json").exists());
    }

    #[test]
    fn arguments() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload wire_rtt --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.traced), (7, Some(2.5), true));
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(parse_args(&args("--scale 0.5")).unwrap().workloads.len(), 4);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--scale 0")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }
}
