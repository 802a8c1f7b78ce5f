//! `bp-serve` — the evaluation daemon.
//!
//! ```text
//! bp-serve [--addr HOST:PORT] [--workers N] [--queue N] [--jobs N]
//!          [--trace-dir DIR] [--max-frame BYTES]
//!          [--cache-dir DIR] [--cache-budget-mb N] [--quiet]
//! ```
//!
//! With `--cache-dir` the rendered-output cache persists across
//! restarts: the daemon warm-starts from the directory's `.bpo` entries
//! at boot, so a restarted shard serves its prior working set without
//! recomputation.
//!
//! Binds, prints `listening <addr>` on stdout (so scripts binding `:0`
//! can discover the port), and serves until a client sends `shutdown`,
//! then drains the queue and exits 0. A stdout that cannot take the
//! `listening` line drains at once and exits 1, leaving no listener.
//! There is no SIGTERM hook — the workspace vendors no libc — so
//! supervisors should stop the daemon with `bp-client --addr …
//! shutdown`, which is the graceful path.

use std::io::Write;
use std::process::ExitCode;

use bp_serve::{spawn, ServerConfig};
use bp_trace::cli::{finish, RunError};
use bp_trace::MAX_THREADS;

const USAGE: &str = "usage: bp-serve [--addr HOST:PORT] [--workers N] [--queue N] [--jobs N] \
    [--trace-dir DIR] [--max-frame BYTES] [--cache-dir DIR] [--cache-budget-mb N] [--quiet]";

/// Parses `flag`'s value as an integer of at least `min`.
fn at_least(flag: &str, value: &str, min: usize) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!(
            "{flag} needs an integer of at least {min}, got {value:?}"
        )),
    }
}

fn main() -> ExitCode {
    finish(parse_args().and_then(serve), USAGE)
}

fn parse_args() -> Result<ServerConfig, RunError> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:4098".to_owned(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed = match flag {
            "--addr" => value().map(|v| cfg.addr = v),
            // The server spawns one thread per worker.
            "--workers" => value()
                .and_then(|v| at_least(flag, &v, 1))
                .and_then(|n| {
                    (n <= MAX_THREADS)
                        .then_some(n)
                        .ok_or_else(|| format!("{flag} {n} is more than {MAX_THREADS} threads"))
                })
                .map(|n| cfg.workers = n),
            "--queue" => value()
                .and_then(|v| at_least(flag, &v, 1))
                .map(|n| cfg.queue_capacity = n),
            "--jobs" => value()
                .and_then(|v| at_least(flag, &v, 1))
                .map(|n| cfg.engine_jobs = n),
            "--max-frame" => value()
                .and_then(|v| at_least(flag, &v, 1024))
                .map(|n| cfg.max_frame = n),
            "--trace-dir" => value().map(|v| cfg.trace_dir = Some(v.into())),
            "--cache-dir" => value().map(|v| cfg.cache_dir = Some(v.into())),
            "--cache-budget-mb" => value()
                .and_then(|v| at_least(flag, &v, 1))
                .and_then(|mb| {
                    mb.checked_mul(1 << 20)
                        .ok_or_else(|| format!("{flag} {mb} overflows a byte count"))
                })
                .map(|bytes| cfg.cache_budget = bytes),
            "--quiet" => {
                cfg.quiet = true;
                Ok(())
            }
            "--help" | "-h" => return Err(RunError::Help),
            other => Err(format!("unknown flag {other}")),
        };
        parsed.map_err(RunError::Usage)?;
    }
    Ok(cfg)
}

/// Binds, announces the address on stdout and serves until a client
/// sends `shutdown`. When the announcement cannot be written, the server
/// drains before the error is returned.
fn serve(cfg: ServerConfig) -> Result<(), RunError> {
    let handle = spawn(cfg).map_err(|e| RunError::Failed(format!("could not bind: {e}")))?;
    let mut out = std::io::stdout();
    let announced = writeln!(out, "listening {}", handle.local_addr()).and_then(|()| out.flush());
    if announced.is_err() {
        handle.begin_drain();
    }
    handle.join();
    announced.map_err(RunError::Output)
}
