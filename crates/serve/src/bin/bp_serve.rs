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
use bp_trace::cli::{finish, Flag, Flags, RunError, JOBS};
use bp_trace::MAX_THREADS;

const USAGE: &str = "usage: bp-serve [--addr HOST:PORT] [--workers N] [--queue N] [--jobs N] \
    [--trace-dir DIR] [--max-frame BYTES] [--cache-dir DIR] [--cache-budget-mb N] [--quiet]";

fn main() -> ExitCode {
    finish(parse_args().and_then(serve), USAGE)
}

fn parse_args() -> Result<ServerConfig, RunError> {
    const FLAGS: &[Flag] = &[
        Flag::value("--addr"),
        Flag::value("--workers"),
        Flag::value("--queue"),
        JOBS,
        Flag::value("--trace-dir"),
        Flag::value("--max-frame"),
        Flag::value("--cache-dir"),
        Flag::value("--cache-budget-mb"),
        Flag::switch("--quiet"),
    ];
    let flags = Flags::parse(std::env::args().skip(1), FLAGS)?;
    flags.words(0)?;
    let defaults = ServerConfig::default();
    // The server spawns one thread per worker.
    let workers_needs = format!("a worker count in 1..={MAX_THREADS}");
    let workers = flags.value("--workers", &workers_needs, |n| {
        (1..=MAX_THREADS).contains(n)
    })?;
    let queue = flags.value("--queue", "an integer of at least 1", |&n| n >= 1)?;
    let max_frame = flags.value("--max-frame", "an integer of at least 1024", |&n| n >= 1024)?;
    let budget_needs = "a MiB count of at least 1 that does not overflow a byte count";
    let cache_budget = flags.get("--cache-budget-mb", budget_needs, |v| {
        v.parse::<usize>()
            .ok()
            .filter(|&mb| mb >= 1)?
            .checked_mul(1 << 20)
    })?;
    Ok(ServerConfig {
        addr: flags.text("--addr").unwrap_or("127.0.0.1:4098").to_owned(),
        workers: workers.unwrap_or(defaults.workers),
        queue_capacity: queue.unwrap_or(defaults.queue_capacity),
        engine_jobs: flags.jobs()?.unwrap_or(defaults.engine_jobs),
        max_frame: max_frame.unwrap_or(defaults.max_frame),
        trace_dir: flags.text("--trace-dir").map(Into::into),
        cache_dir: flags.text("--cache-dir").map(Into::into),
        cache_budget: cache_budget.unwrap_or(defaults.cache_budget),
        quiet: flags.switch("--quiet"),
    })
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
