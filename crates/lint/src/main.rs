//! `dcs-lint` CLI: run the workspace analyzer, gate on violations.
//!
//! Exit codes: `0` clean, `1` unwaived violations found, `2` usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dcs-lint: workspace-wide static invariant analyzer

USAGE:
    dcs-lint [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root (default: walk up from cwd)
    --json [<FILE>]     also write the JSON report (default: lint-report.json)
    --sarif <FILE>      also write a SARIF 2.1.0 report (code-scanning upload)
    --list-lints        print the lint catalog and exit
    -h, --help          print this help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dcs-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut sarif: Option<PathBuf> = None;
    let mut list = false;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = Some(path_arg(&mut it, "--root")?),
            "--json" => {
                // Optional value: a following non-flag token is the path.
                json = Some(match it.peek() {
                    Some(next) if !next.starts_with("--") => PathBuf::from(it.next().unwrap()),
                    _ => PathBuf::from("lint-report.json"),
                });
            }
            "--sarif" => sarif = Some(path_arg(&mut it, "--sarif")?),
            "--list-lints" => list = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    if list {
        for lint in dcs_lint::lints::all_lints() {
            println!("{:<16} {}", lint.name(), lint.description());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot get cwd: {e}"))?;
            dcs_lint::find_workspace_root(&cwd)
                .ok_or("no workspace root found above cwd; pass --root")?
        }
    };
    let report = dcs_lint::run(&root)?;

    if let Some(json_path) = json {
        std::fs::write(&json_path, report.to_json().to_string())
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    }
    if let Some(sarif_path) = sarif {
        std::fs::write(&sarif_path, dcs_lint::sarif::render(&report).to_string())
            .map_err(|e| format!("cannot write {}: {e}", sarif_path.display()))?;
    }
    print!("{}", report.render_text());
    Ok(if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn path_arg(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}
