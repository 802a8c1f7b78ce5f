//! `repro` — regenerate the paper's tables and figures ([`bp_experiments::repro`]).

use bp_experiments::{cli, repro};

fn main() -> std::process::ExitCode {
    let result = repro::Options::parse(std::env::args().skip(1))
        .and_then(|opts| repro::run(&opts, &mut std::io::stdout()));
    cli::finish(result, &repro::usage())
}
