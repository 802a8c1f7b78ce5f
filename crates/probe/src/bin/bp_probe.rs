//! `bp-probe` — black-box capacity/aliasing probing of the predictor zoo
//! ([`bp_probe::cli`]).

use bp_experiments::cli::finish;
use bp_probe::cli;

fn main() -> std::process::ExitCode {
    let result = cli::Options::parse(std::env::args().skip(1))
        .and_then(|opts| cli::run(&opts, &mut std::io::stdout()));
    finish(result, &cli::usage())
}
