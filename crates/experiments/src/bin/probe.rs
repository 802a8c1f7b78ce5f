//! `probe` — a fast calibration dump of key predictor accuracies ([`bp_experiments::probe`]).

use bp_experiments::{cli, probe};

fn main() -> std::process::ExitCode {
    let result = probe::Options::parse(std::env::args().skip(1))
        .and_then(|opts| probe::run(&opts, &mut std::io::stdout()));
    cli::finish(result, &probe::usage())
}
