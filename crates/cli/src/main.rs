//! The `geocast` binary: thin shell around [`geocast_cli`].

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match geocast_cli::parse_args(&args).and_then(|invocation| geocast_cli::run(&invocation)) {
        Ok(output) => print!("{output}"),
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
