//! The `xtask` binary: `cargo run -p xtask -- lint [...]`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lint::lint_workspace;

const USAGE: &str = "\
usage: xtask <command> [options]

commands:
  lint        run the determinism and reachability lint (rules D001-D006) over the workspace
      --root <dir>       workspace root (default: .)
      --json             machine-readable report on stdout
      --deny             exit nonzero if any violation is found
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or("."));
    let json = args.iter().any(|a| a == "--json");
    let deny = args.iter().any(|a| a == "--deny");
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", report.to_json());
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        println!(
            "xtask lint: {} file(s), {} violation(s), {} waiver(s) honored",
            report.files,
            report.violations.len(),
            report.waivers_honored
        );
    }
    if deny && !report.violations.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
