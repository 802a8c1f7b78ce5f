//! `bp-client` — CLI for one or many `bp-serve` daemons.
//!
//! ```text
//! bp-client [--addr HOST:PORT]... eval EXPERIMENT [--seed N] [--target N] [--deadline-ms N]
//! bp-client [--addr HOST:PORT] trace PATH --predictor KIND [--bits N] [--history-bits N]
//! bp-client [--addr HOST:PORT]... stats
//! bp-client [--addr HOST:PORT] ping [--delay-ms N]
//! bp-client [--addr HOST:PORT]... shutdown
//! bp-client [--addr HOST:PORT]... bench --conns N --requests M [--experiment ID]
//!           [--seed N] [--spread K] [--target N] [--rate R] [--deadline-ms N]
//!           [--chaos-kill SHARD --chaos-after-ms T] [--json]
//! bp-client [--addr HOST:PORT] idle --conns N [--hold-ms T]
//! ```
//!
//! `bench` without `--rate` is a closed loop: each connection sends its
//! next request as soon as the previous one completes. `bench --rate R`
//! is the open-loop mode: all sends are scheduled up front at R req/s
//! across the fleet and never re-anchored, and the report adds
//! queueing-delay percentiles — how late each send actually left
//! relative to its schedule — next to the usual service latency.
//!
//! Each subcommand rejects any `--flag` it does not read, so a typo
//! fails instead of silently running the default.
//!
//! `--addr` may repeat: `eval`, `bench`, and `shutdown` then treat the
//! addresses as a shard fleet, routing each key over the consistent-hash
//! ring with bounded retry (`--retries`, `--retry-base-ms`,
//! `--retry-seed`) and failover. `eval` prints the served output with a
//! trailing newline, exactly as `repro --bare EXPERIMENT` prints it —
//! the two are diffable through every layer (reactor, cache, ring).
//!
//! `idle` opens N connections and holds them open without sending a
//! byte — the harness behind the idle-connection memory numbers in
//! `BENCH_repro.json`.

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use bp_serve::stats::LatencySnapshot;
use bp_serve::{
    run_bench, BenchOptions, ChaosOptions, Client, PredictorSpec, Response, RetryPolicy,
    ShardedClient, StatsSnapshot,
};
use bp_trace::cli::{finish, note, RunError};
use bp_trace::MAX_THREADS;
use bp_workloads::WorkloadConfig;

const USAGE: &str = "usage: bp-client [--addr HOST:PORT]... <eval|trace|stats|ping|shutdown|bench|idle> [options]\n\
    \x20 eval EXPERIMENT [--seed N] [--target N] [--deadline-ms N]\n\
    \x20 trace PATH --predictor gshare|if_gshare|pas|if_pas [--bits N] [--history-bits N]\n\
    \x20 stats | ping [--delay-ms N] | shutdown\n\
    \x20 bench --conns N --requests M [--experiment ID] [--seed N] [--spread K] [--target N] \
    [--rate R] [--deadline-ms N] [--chaos-kill SHARD --chaos-after-ms T] [--json]\n\
    \x20 idle --conns N [--hold-ms T]\n\
    \x20 retry (eval/bench): [--retries N] [--retry-base-ms T] [--retry-seed N]";

struct Flags {
    addrs: Vec<String>,
    command: String,
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// The options `command` reads, space-separated; any other `--flag` is
/// a usage error. `None` for an unknown command.
fn known_options(command: &str) -> Option<&'static str> {
    Some(match command {
        "eval" => "seed target deadline-ms retries retry-base-ms retry-seed",
        "trace" => "predictor bits history-bits deadline-ms",
        "stats" | "shutdown" => "",
        "ping" => "delay-ms",
        "bench" => {
            "conns requests experiment seed spread target rate deadline-ms json \
             retries retry-base-ms retry-seed chaos-kill chaos-after-ms"
        }
        "idle" => "conns hold-ms",
        _ => return None,
    })
}

/// Parses the command line. `--help` is a help request; no command
/// at all is a usage error with no message.
fn parse_args() -> Result<Flags, RunError> {
    let mut addrs = Vec::new();
    let mut command = String::new();
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| RunError::Usage(format!("{arg} needs a value")))
        };
        if arg == "--addr" {
            addrs.push(value()?);
        } else if arg == "--help" || arg == "-h" {
            return Err(RunError::Help);
        } else if let Some(flag) = arg.strip_prefix("--") {
            // Flags that take values vs booleans.
            let value = match flag {
                "json" => None,
                _ => Some(value()?),
            };
            options.push((flag.to_owned(), value));
        } else if command.is_empty() {
            command = arg;
        } else {
            positional.push(arg);
        }
    }
    if command.is_empty() {
        return Err(RunError::Usage(String::new()));
    }
    if let Some(known) = known_options(&command) {
        let unread = options
            .iter()
            .find(|(k, _)| !known.split_whitespace().any(|o| o == k));
        if let Some((flag, _)) = unread {
            return Err(RunError::Usage(format!("{command} does not take --{flag}")));
        }
    }
    if addrs.is_empty() {
        addrs.push("127.0.0.1:4098".to_owned());
    }
    Ok(Flags {
        addrs,
        command,
        positional,
        options,
    })
}

fn opt<'a>(flags: &'a Flags, name: &str) -> Option<&'a str> {
    flags
        .options
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_deref())
}

/// The value of `--name` as a `T` that passes `ok`; anything else is a
/// usage error naming the flag and what it `needs`.
fn value_of<T: FromStr>(
    flags: &Flags,
    name: &str,
    needs: &str,
    ok: fn(&T) -> bool,
) -> Result<Option<T>, RunError> {
    let bad = |v: &str| RunError::Usage(format!("--{name} needs {needs}, got {v:?}"));
    let parse = |v: &str| v.parse().ok().filter(ok).ok_or_else(|| bad(v));
    opt(flags, name).map(parse).transpose()
}

/// The value of `--name` as an unsigned integer.
fn opt_u64(flags: &Flags, name: &str) -> Result<Option<u64>, RunError> {
    value_of(flags, name, "an unsigned integer", |_| true)
}

/// The value of `--name` as an unsigned 32-bit integer.
fn opt_u32(flags: &Flags, name: &str) -> Result<Option<u32>, RunError> {
    value_of(flags, name, "an unsigned integer below 2^32", |_| true)
}

fn has_flag(flags: &Flags, name: &str) -> bool {
    flags.options.iter().any(|(k, _)| k == name)
}

fn retry_policy(flags: &Flags) -> Result<RetryPolicy, RunError> {
    let mut policy = RetryPolicy::default();
    if let Some(n) = opt_u32(flags, "retries")? {
        policy.attempts = n.max(1);
    }
    if let Some(ms) = opt_u64(flags, "retry-base-ms")? {
        policy.base = Duration::from_millis(ms);
    }
    if let Some(seed) = opt_u64(flags, "retry-seed")? {
        policy.seed = seed;
    }
    Ok(policy)
}

/// A failure reported by a server or the network, as an `error:` line.
fn failed(e: impl std::fmt::Display) -> RunError {
    RunError::Failed(e.to_string())
}

fn print_stats(out: &mut dyn Write, s: &StatsSnapshot) -> std::io::Result<()> {
    writeln!(out, "endpoint      requests        ok    errors")?;
    for (name, e) in [
        ("eval", s.eval),
        ("trace_eval", s.trace_eval),
        ("stats", s.stats),
        ("ping", s.ping),
        ("shutdown", s.shutdown),
    ] {
        writeln!(
            out,
            "{name:<12} {:>9} {:>9} {:>9}",
            e.requests, e.ok, e.errors
        )?;
    }
    writeln!(
        out,
        "backpressure: overloaded {}  deadline_missed {}  bad_frames {}",
        s.overloaded, s.deadline_missed, s.bad_frames
    )?;
    writeln!(
        out,
        "caching: memory_hits {}  disk_hits {}  entries {}  bytes {}  evictions {}  \
         warm_start {}  coalesced {}",
        s.result_cache_hits,
        s.disk_cache_hits,
        s.cache_entries,
        s.cache_bytes,
        s.cache_evictions,
        s.warm_start_entries,
        s.coalesced
    )?;
    writeln!(
        out,
        "engines: {}  engine cache {} hits / {} misses",
        s.engines, s.engine_cache_hits, s.engine_cache_misses
    )?;
    writeln!(
        out,
        "connections: open {}  accepted {}",
        s.open_connections, s.conns_accepted
    )?;
    let latency = |out: &mut dyn Write, kind: &str, h: &LatencySnapshot| {
        writeln!(
            out,
            "{kind} latency: count {}  p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  max {:.3}ms",
            h.count,
            h.p50_us as f64 / 1e3,
            h.p99_us as f64 / 1e3,
            h.p999_us as f64 / 1e3,
            h.max_us as f64 / 1e3
        )
    };
    latency(out, "eval", &s.eval_latency)?;
    if s.trace_latency.count > 0 {
        latency(out, "trace", &s.trace_latency)?;
    }
    Ok(())
}

/// Reports a response of the wrong kind on stderr; the run fails with
/// no further `error:` line.
fn report_unexpected(resp: &Response) -> RunError {
    match resp {
        Response::Error { code, message, .. } => {
            note(format_args!("error ({}): {message}", code.as_str()));
        }
        other => note(format_args!("error: unexpected response {other:?}")),
    }
    RunError::Failed(String::new())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|flags| run(&flags, &mut std::io::stdout()));
    finish(result, USAGE)
}

/// Runs one subcommand, writing what it prints to `out`.
fn run(flags: &Flags, out: &mut dyn Write) -> Result<(), RunError> {
    let defaults = WorkloadConfig::default();
    match flags.command.as_str() {
        "eval" => {
            let [experiment] = &flags.positional[..] else {
                return Err(RunError::Usage(String::new()));
            };
            let seed = opt_u64(flags, "seed")?;
            let target = opt_u64(flags, "target")?;
            let deadline = opt_u64(flags, "deadline-ms")?;
            let retry = retry_policy(flags)?;
            let mut client = ShardedClient::new(flags.addrs.clone(), retry);
            let resp = client
                .eval(
                    experiment,
                    seed.unwrap_or(defaults.seed),
                    target.unwrap_or(defaults.target_branches as u64),
                    deadline,
                )
                .map_err(failed)?;
            match resp {
                Response::Result {
                    output,
                    cached,
                    seconds,
                    ..
                } => {
                    writeln!(out, "{output}")?;
                    note(format_args!(
                        "[served in {seconds:.3}s{}]",
                        if cached { ", cached" } else { "" }
                    ));
                    Ok(())
                }
                other => Err(report_unexpected(&other)),
            }
        }
        "trace" => {
            let [path] = &flags.positional[..] else {
                return Err(RunError::Usage(String::new()));
            };
            let bits = opt_u32(flags, "bits")?.unwrap_or(16);
            let history_bits = opt_u32(flags, "history-bits")?.unwrap_or(6);
            let predictor = match opt(flags, "predictor").unwrap_or("gshare") {
                "gshare" => PredictorSpec::Gshare { bits },
                "if_gshare" => PredictorSpec::IfGshare { bits },
                "pas" => PredictorSpec::Pas,
                "if_pas" => PredictorSpec::IfPas { history_bits },
                other => return Err(RunError::Usage(format!("--predictor {other:?} is unknown"))),
            };
            let deadline = opt_u64(flags, "deadline-ms")?;
            let mut client = Client::connect(&flags.addrs[0]).map_err(failed)?;
            match client
                .trace_eval(path, predictor, deadline)
                .map_err(failed)?
            {
                Response::TraceResult {
                    predictions,
                    correct,
                    seconds,
                    ..
                } => {
                    let pct = if predictions == 0 {
                        0.0
                    } else {
                        correct as f64 / predictions as f64 * 100.0
                    };
                    writeln!(
                        out,
                        "{correct}/{predictions} correct ({pct:.2}%) in {seconds:.3}s"
                    )?;
                    Ok(())
                }
                other => Err(report_unexpected(&other)),
            }
        }
        "stats" => {
            let many = flags.addrs.len() > 1;
            let mut failures = 0;
            for addr in &flags.addrs {
                if many {
                    writeln!(out, "== shard {addr} ==")?;
                }
                match Client::connect(addr).and_then(|mut c| c.stats()) {
                    Ok(Response::Stats { snapshot, .. }) => print_stats(out, &snapshot)?,
                    Ok(other) => {
                        report_unexpected(&other);
                        failures += 1;
                    }
                    Err(e) => {
                        note(format_args!("error: {addr}: {e}"));
                        failures += 1;
                    }
                }
            }
            if failures > 0 {
                return Err(RunError::Failed(String::new()));
            }
            Ok(())
        }
        "ping" => {
            let delay = opt_u64(flags, "delay-ms")?;
            let mut client = Client::connect(&flags.addrs[0]).map_err(failed)?;
            match client.ping(delay).map_err(failed)? {
                Response::Pong { .. } => {
                    writeln!(out, "pong")?;
                    Ok(())
                }
                other => Err(report_unexpected(&other)),
            }
        }
        "shutdown" => {
            let mut failures = 0;
            for addr in &flags.addrs {
                match Client::connect(addr).and_then(|mut c| c.shutdown()) {
                    Ok(Response::ShuttingDown { .. }) => writeln!(out, "{addr} draining")?,
                    Ok(other) => {
                        report_unexpected(&other);
                        failures += 1;
                    }
                    Err(e) => {
                        note(format_args!("error: {addr}: {e}"));
                        failures += 1;
                    }
                }
            }
            if failures > 0 {
                return Err(RunError::Failed(String::new()));
            }
            Ok(())
        }
        "bench" => {
            // One thread per connection: the count is bounded before any starts.
            let conns_needs = format!("a connection count in 1..={MAX_THREADS}");
            let conns = value_of(flags, "conns", &conns_needs, |n: &usize| {
                (1..=MAX_THREADS).contains(n)
            })?;
            let requests = value_of(flags, "requests", "a count of at least 1", |n| *n >= 1)?;
            let seed = opt_u64(flags, "seed")?;
            let spread = value_of(flags, "spread", "a count of at least 1", |n| *n >= 1)?;
            let target = opt_u64(flags, "target")?;
            let deadline = opt_u64(flags, "deadline-ms")?;
            let rate = value_of(flags, "rate", "a positive number", |r: &f64| {
                r.is_finite() && *r > 0.0
            })?;
            let retry = retry_policy(flags)?;
            let chaos_kill = opt_u64(flags, "chaos-kill")?;
            let chaos_after = opt_u64(flags, "chaos-after-ms")?;
            let chaos = match (chaos_kill, chaos_after) {
                (Some(shard), after) => {
                    if shard as usize >= flags.addrs.len() {
                        let why = "--chaos-kill is out of range for the address list";
                        return Err(RunError::Usage(why.into()));
                    }
                    Some(ChaosOptions {
                        kill_shard: shard as usize,
                        after: Duration::from_millis(after.unwrap_or(500)),
                    })
                }
                (None, Some(_)) => {
                    let why = "--chaos-after-ms needs --chaos-kill";
                    return Err(RunError::Usage(why.into()));
                }
                (None, None) => None,
            };
            let opts = BenchOptions {
                addrs: flags.addrs.clone(),
                conns: conns.unwrap_or(4),
                requests_per_conn: requests.unwrap_or(32),
                experiment: opt(flags, "experiment").unwrap_or("fig4").to_owned(),
                seed: seed.unwrap_or(defaults.seed),
                seed_spread: spread.unwrap_or(1),
                target: target.unwrap_or(defaults.target_branches as u64),
                deadline_ms: deadline,
                rate,
                retry,
                chaos,
            };
            let report = run_bench(&opts).map_err(failed)?;
            if has_flag(flags, "json") {
                writeln!(out, "{}", report.render_json())?;
            } else {
                writeln!(out, "{}", report.render_text())?;
            }
            Ok(())
        }
        "idle" => {
            let conns = opt_u64(flags, "conns")?.unwrap_or(100) as usize;
            let hold = opt_u64(flags, "hold-ms")?.unwrap_or(60_000);
            // Grown per connection: `--conns` has no upper bound, so
            // reserving it up front could overflow the vector.
            let mut held = Vec::new();
            for i in 0..conns {
                let addr = &flags.addrs[i % flags.addrs.len()];
                match std::net::TcpStream::connect(addr.as_str()) {
                    Ok(stream) => held.push(stream),
                    Err(e) => {
                        note(format_args!("error: connection {i} to {addr} failed: {e}"));
                        break;
                    }
                }
            }
            // Printed once all sockets are up so harnesses can key
            // their memory measurement off this line.
            let complete = held.len() == conns;
            writeln!(out, "idle holding {} connections", held.len())?;
            out.flush()?;
            std::thread::sleep(Duration::from_millis(hold));
            drop(held);
            if !complete {
                return Err(RunError::Failed(String::new()));
            }
            Ok(())
        }
        _ => Err(RunError::Usage(String::new())),
    }
}
