//! `scale` — paper-scale single-benchmark runs through the streaming
//! pipeline ([`bp_experiments::scale`]).

use bp_experiments::scale;
use bp_trace::cli::finish;

fn main() -> std::process::ExitCode {
    let result = scale::Options::parse(std::env::args().skip(1))
        .and_then(|opts| scale::run(&opts, &mut std::io::stdout()));
    finish(result, &scale::usage())
}
