//! `bp-conformance` — run the verification subsystem
//! ([`bp_conformance::cli`]).

use bp_conformance::cli;
use bp_experiments::cli::finish;

fn main() -> std::process::ExitCode {
    let result = cli::Options::parse(std::env::args().skip(1))
        .and_then(|opts| cli::run(&opts, &mut std::io::stdout()));
    finish(result, &cli::usage())
}
