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
use std::time::Duration;

use bp_serve::stats::LatencySnapshot;
use bp_serve::{
    run_bench, BenchOptions, ChaosOptions, Client, ClientError, PredictorSpec, Response,
    RetryPolicy, ShardedClient, StatsSnapshot,
};
use bp_trace::cli::{finish, note, Flag, Flags, RunError, SEED, TARGET};
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

const ADDR: Flag = Flag::value("--addr");
const DEADLINE: Flag = Flag::value("--deadline-ms");
const RETRIES: Flag = Flag::value("--retries");
const RETRY_BASE: Flag = Flag::value("--retry-base-ms");
const RETRY_SEED: Flag = Flag::value("--retry-seed");
const CONNS: Flag = Flag::value("--conns");

/// Each command and the flags it reads; any other `--flag` is a usage
/// error.
const COMMANDS: &[(&str, &[Flag])] = &[
    (
        "eval",
        &[
            ADDR, SEED, TARGET, DEADLINE, RETRIES, RETRY_BASE, RETRY_SEED,
        ],
    ),
    (
        "trace",
        &[
            ADDR,
            Flag::value("--predictor"),
            Flag::value("--bits"),
            Flag::value("--history-bits"),
            DEADLINE,
        ],
    ),
    ("stats", &[ADDR]),
    ("ping", &[ADDR, Flag::value("--delay-ms")]),
    ("shutdown", &[ADDR]),
    (
        "bench",
        &[
            ADDR,
            CONNS,
            Flag::value("--requests"),
            Flag::value("--experiment"),
            SEED,
            Flag::value("--spread"),
            TARGET,
            Flag::value("--rate"),
            DEADLINE,
            Flag::switch("--json"),
            RETRIES,
            RETRY_BASE,
            RETRY_SEED,
            Flag::value("--chaos-kill"),
            Flag::value("--chaos-after-ms"),
        ],
    ),
    ("idle", &[ADDR, CONNS, Flag::value("--hold-ms")]),
];

fn retry_policy(flags: &Flags) -> Result<RetryPolicy, RunError> {
    let mut policy = RetryPolicy::default();
    if let Some(n) = flags.u32("--retries")? {
        policy.attempts = n.max(1);
    }
    if let Some(ms) = flags.u64("--retry-base-ms")? {
        policy.base = Duration::from_millis(ms);
    }
    if let Some(seed) = flags.u64("--retry-seed")? {
        policy.seed = seed;
    }
    Ok(policy)
}

/// A failure reported by a server or the network, as an `error:` line.
fn failed(e: impl std::fmt::Display) -> RunError {
    RunError::Failed(e.to_string())
}

/// Notes one shard's failure, naming the shard: a failed connect names
/// its address already.
fn shard_failed(addr: &str, e: &ClientError) {
    match e {
        ClientError::Connect { .. } => note(format_args!("error: {e}")),
        _ => note(format_args!("error: {addr}: {e}")),
    }
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
    let result = Flags::parse_command(std::env::args().skip(1), COMMANDS)
        .and_then(|(command, flags)| run(command, &flags, &mut std::io::stdout()));
    finish(result, USAGE)
}

/// Runs one subcommand, writing what it prints to `out`.
fn run(command: &str, flags: &Flags, out: &mut dyn Write) -> Result<(), RunError> {
    let defaults = WorkloadConfig::default();
    let mut addrs: Vec<String> = flags.texts("--addr").map(String::from).collect();
    if addrs.is_empty() {
        addrs.push("127.0.0.1:4098".to_owned());
    }
    let words = flags.words(if matches!(command, "eval" | "trace") {
        1
    } else {
        0
    })?;
    match command {
        "eval" => {
            let [experiment] = words else {
                return Err(RunError::Usage(String::new()));
            };
            let seed = flags.seed()?.unwrap_or(defaults.seed);
            let target = flags.target()?.unwrap_or(defaults.target_branches);
            let deadline = flags.u64("--deadline-ms")?;
            let retry = retry_policy(flags)?;
            let mut client = ShardedClient::new(addrs, retry);
            let resp = client
                .eval(experiment, seed, target as u64, deadline)
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
            let [path] = words else {
                return Err(RunError::Usage(String::new()));
            };
            let bits = flags.u32("--bits")?.unwrap_or(16);
            let history_bits = flags.u32("--history-bits")?.unwrap_or(6);
            let needs = "gshare, if_gshare, pas or if_pas";
            let predictor = flags.get("--predictor", needs, |v| match v {
                "gshare" => Some(PredictorSpec::Gshare { bits }),
                "if_gshare" => Some(PredictorSpec::IfGshare { bits }),
                "pas" => Some(PredictorSpec::Pas),
                "if_pas" => Some(PredictorSpec::IfPas { history_bits }),
                _ => None,
            })?;
            let deadline = flags.u64("--deadline-ms")?;
            let mut client = Client::connect(&addrs[0]).map_err(failed)?;
            match client
                .trace_eval(
                    path,
                    predictor.unwrap_or(PredictorSpec::Gshare { bits }),
                    deadline,
                )
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
            let many = addrs.len() > 1;
            let mut failures = 0;
            for addr in &addrs {
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
                        shard_failed(addr, &e);
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
            let delay = flags.u64("--delay-ms")?;
            let mut client = Client::connect(&addrs[0]).map_err(failed)?;
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
            for addr in &addrs {
                match Client::connect(addr).and_then(|mut c| c.shutdown()) {
                    Ok(Response::ShuttingDown { .. }) => writeln!(out, "{addr} draining")?,
                    Ok(other) => {
                        report_unexpected(&other);
                        failures += 1;
                    }
                    Err(e) => {
                        shard_failed(addr, &e);
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
            let conns = flags.value("--conns", &conns_needs, |n| (1..=MAX_THREADS).contains(n))?;
            let at_least_1 = "a count of at least 1";
            let requests = flags.value("--requests", at_least_1, |&n| n >= 1)?;
            let seed = flags.seed()?;
            let spread = flags.value("--spread", at_least_1, |&n| n >= 1)?;
            let target = flags.target()?;
            let deadline = flags.u64("--deadline-ms")?;
            let rate = flags.value("--rate", "a positive number", |r: &f64| {
                r.is_finite() && *r > 0.0
            })?;
            let retry = retry_policy(flags)?;
            let chaos_kill = flags.u64("--chaos-kill")?;
            let chaos_after = flags.u64("--chaos-after-ms")?;
            let chaos = match (chaos_kill, chaos_after) {
                (Some(shard), after) => {
                    if shard as usize >= addrs.len() {
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
                addrs,
                conns: conns.unwrap_or(4),
                requests_per_conn: requests.unwrap_or(32),
                experiment: flags.text("--experiment").unwrap_or("fig4").to_owned(),
                seed: seed.unwrap_or(defaults.seed),
                seed_spread: spread.unwrap_or(1),
                target: target.unwrap_or(defaults.target_branches) as u64,
                deadline_ms: deadline,
                rate,
                retry,
                chaos,
            };
            let report = run_bench(&opts).map_err(failed)?;
            if flags.switch("--json") {
                writeln!(out, "{}", report.render_json())?;
            } else {
                writeln!(out, "{}", report.render_text())?;
            }
            Ok(())
        }
        // `idle`: `Flags::parse_command` admits no other command.
        _ => {
            let conns = flags.u64("--conns")?.unwrap_or(100) as usize;
            let hold = flags.u64("--hold-ms")?.unwrap_or(60_000);
            // Grown per connection: `--conns` has no upper bound, so
            // reserving it up front could overflow the vector.
            let mut held = Vec::new();
            for i in 0..conns {
                let addr = &addrs[i % addrs.len()];
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
    }
}
