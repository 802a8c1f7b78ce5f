//! `ablate` — the accuracy side of the design ablations ([`bp_experiments::ablate`]).

use bp_experiments::{ablate, cli};

fn main() -> std::process::ExitCode {
    let result = ablate::Options::parse(std::env::args().skip(1))
        .and_then(|opts| ablate::run(&opts, &mut std::io::stdout()));
    cli::finish(result, &ablate::usage())
}
