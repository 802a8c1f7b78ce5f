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

use std::process::ExitCode;
use std::time::Duration;

use bp_serve::{
    run_bench, BenchOptions, ChaosOptions, Client, PredictorSpec, Response, RetryPolicy,
    ShardedClient, StatsSnapshot,
};
use bp_workloads::WorkloadConfig;

fn usage() {
    eprintln!(
        "usage: bp-client [--addr HOST:PORT]... <eval|trace|stats|ping|shutdown|bench|idle> [options]\n\
         \x20 eval EXPERIMENT [--seed N] [--target N] [--deadline-ms N]\n\
         \x20 trace PATH --predictor gshare|if_gshare|pas|if_pas [--bits N] [--history-bits N]\n\
         \x20 stats | ping [--delay-ms N] | shutdown\n\
         \x20 bench --conns N --requests M [--experiment ID] [--seed N] [--spread K] [--target N] \
         [--rate R] [--deadline-ms N] [--chaos-kill SHARD --chaos-after-ms T] [--json]\n\
         \x20 idle --conns N [--hold-ms T]\n\
         \x20 retry (eval/bench): [--retries N] [--retry-base-ms T] [--retry-seed N]"
    );
}

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

/// Parses the command line; `Err` carries the `error:` line to print
/// (`None` for a bare usage request).
fn parse_args() -> Result<Flags, Option<String>> {
    let mut addrs = Vec::new();
    let mut command = String::new();
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| Some(format!("{arg} needs a value")))
        };
        if arg == "--addr" {
            addrs.push(value()?);
        } else if arg == "--help" || arg == "-h" {
            return Err(None);
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
        return Err(None);
    }
    if let Some(known) = known_options(&command) {
        let unread = options
            .iter()
            .find(|(k, _)| !known.split_whitespace().any(|o| o == k));
        if let Some((flag, _)) = unread {
            return Err(Some(format!("{command} does not take --{flag}")));
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

fn opt_u64(flags: &Flags, name: &str) -> Result<Option<u64>, ()> {
    match opt(flags, name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            eprintln!("error: --{name} needs an unsigned integer");
        }),
    }
}

fn has_flag(flags: &Flags, name: &str) -> bool {
    flags.options.iter().any(|(k, _)| k == name)
}

fn retry_policy(flags: &Flags) -> Result<RetryPolicy, ()> {
    let mut policy = RetryPolicy::default();
    if let Some(n) = opt_u64(flags, "retries")? {
        policy.attempts = (n as u32).max(1);
    }
    if let Some(ms) = opt_u64(flags, "retry-base-ms")? {
        policy.base = Duration::from_millis(ms);
    }
    if let Some(seed) = opt_u64(flags, "retry-seed")? {
        policy.seed = seed;
    }
    Ok(policy)
}

fn print_stats(s: &StatsSnapshot) {
    println!("endpoint      requests        ok    errors");
    for (name, e) in [
        ("eval", s.eval),
        ("trace_eval", s.trace_eval),
        ("stats", s.stats),
        ("ping", s.ping),
        ("shutdown", s.shutdown),
    ] {
        println!("{name:<12} {:>9} {:>9} {:>9}", e.requests, e.ok, e.errors);
    }
    println!(
        "backpressure: overloaded {}  deadline_missed {}  bad_frames {}",
        s.overloaded, s.deadline_missed, s.bad_frames
    );
    println!(
        "caching: memory_hits {}  disk_hits {}  entries {}  bytes {}  evictions {}  \
         warm_start {}  coalesced {}",
        s.result_cache_hits,
        s.disk_cache_hits,
        s.cache_entries,
        s.cache_bytes,
        s.cache_evictions,
        s.warm_start_entries,
        s.coalesced
    );
    println!(
        "engines: {}  engine cache {} hits / {} misses",
        s.engines, s.engine_cache_hits, s.engine_cache_misses
    );
    println!(
        "connections: open {}  accepted {}",
        s.open_connections, s.conns_accepted
    );
    println!(
        "eval latency: count {}  p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  max {:.3}ms",
        s.eval_latency.count,
        s.eval_latency.p50_us as f64 / 1e3,
        s.eval_latency.p99_us as f64 / 1e3,
        s.eval_latency.p999_us as f64 / 1e3,
        s.eval_latency.max_us as f64 / 1e3
    );
    if s.trace_latency.count > 0 {
        println!(
            "trace latency: count {}  p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms  max {:.3}ms",
            s.trace_latency.count,
            s.trace_latency.p50_us as f64 / 1e3,
            s.trace_latency.p99_us as f64 / 1e3,
            s.trace_latency.p999_us as f64 / 1e3,
            s.trace_latency.max_us as f64 / 1e3
        );
    }
}

fn report_unexpected(resp: &Response) -> ExitCode {
    match resp {
        Response::Error { code, message, .. } => {
            eprintln!("error ({}): {message}", code.as_str());
        }
        other => eprintln!("error: unexpected response {other:?}"),
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let flags = match parse_args() {
        Ok(flags) => flags,
        Err(why) => {
            if let Some(why) = why {
                eprintln!("error: {why}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    let defaults = WorkloadConfig::default();

    let run = || -> Result<ExitCode, Box<dyn std::error::Error>> {
        match flags.command.as_str() {
            "eval" => {
                let [experiment] = &flags.positional[..] else {
                    usage();
                    return Ok(ExitCode::FAILURE);
                };
                let seed = opt_u64(&flags, "seed").map_err(|()| "bad --seed")?;
                let target = opt_u64(&flags, "target").map_err(|()| "bad --target")?;
                let deadline = opt_u64(&flags, "deadline-ms").map_err(|()| "bad --deadline-ms")?;
                let retry = retry_policy(&flags).map_err(|()| "bad retry flags")?;
                let mut client = ShardedClient::new(flags.addrs.clone(), retry);
                let resp = client.eval(
                    experiment,
                    seed.unwrap_or(defaults.seed),
                    target.unwrap_or(defaults.target_branches as u64),
                    deadline,
                )?;
                match resp {
                    Response::Result {
                        output,
                        cached,
                        seconds,
                        ..
                    } => {
                        println!("{output}");
                        eprintln!(
                            "[served in {seconds:.3}s{}]",
                            if cached { ", cached" } else { "" }
                        );
                        Ok(ExitCode::SUCCESS)
                    }
                    other => Ok(report_unexpected(&other)),
                }
            }
            "trace" => {
                let [path] = &flags.positional[..] else {
                    usage();
                    return Ok(ExitCode::FAILURE);
                };
                let bits = opt_u64(&flags, "bits")
                    .map_err(|()| "bad --bits")?
                    .unwrap_or(16) as u32;
                let history_bits = opt_u64(&flags, "history-bits")
                    .map_err(|()| "bad --history-bits")?
                    .unwrap_or(6) as u32;
                let predictor = match opt(&flags, "predictor").unwrap_or("gshare") {
                    "gshare" => PredictorSpec::Gshare { bits },
                    "if_gshare" => PredictorSpec::IfGshare { bits },
                    "pas" => PredictorSpec::Pas,
                    "if_pas" => PredictorSpec::IfPas { history_bits },
                    other => {
                        eprintln!("error: unknown predictor {other}");
                        return Ok(ExitCode::FAILURE);
                    }
                };
                let deadline = opt_u64(&flags, "deadline-ms").map_err(|()| "bad --deadline-ms")?;
                let mut client = Client::connect(&flags.addrs[0])?;
                match client.trace_eval(path, predictor, deadline)? {
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
                        println!("{correct}/{predictions} correct ({pct:.2}%) in {seconds:.3}s");
                        Ok(ExitCode::SUCCESS)
                    }
                    other => Ok(report_unexpected(&other)),
                }
            }
            "stats" => {
                let many = flags.addrs.len() > 1;
                let mut failures = 0;
                for addr in &flags.addrs {
                    if many {
                        println!("== shard {addr} ==");
                    }
                    match Client::connect(addr).and_then(|mut c| c.stats()) {
                        Ok(Response::Stats { snapshot, .. }) => print_stats(&snapshot),
                        Ok(other) => {
                            report_unexpected(&other);
                            failures += 1;
                        }
                        Err(e) => {
                            eprintln!("error: {addr}: {e}");
                            failures += 1;
                        }
                    }
                }
                Ok(if failures == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            "ping" => {
                let delay = opt_u64(&flags, "delay-ms").map_err(|()| "bad --delay-ms")?;
                let mut client = Client::connect(&flags.addrs[0])?;
                match client.ping(delay)? {
                    Response::Pong { .. } => {
                        println!("pong");
                        Ok(ExitCode::SUCCESS)
                    }
                    other => Ok(report_unexpected(&other)),
                }
            }
            "shutdown" => {
                let mut failures = 0;
                for addr in &flags.addrs {
                    match Client::connect(addr).and_then(|mut c| c.shutdown()) {
                        Ok(Response::ShuttingDown { .. }) => {
                            println!("{addr} draining");
                        }
                        Ok(other) => {
                            report_unexpected(&other);
                            failures += 1;
                        }
                        Err(e) => {
                            eprintln!("error: {addr}: {e}");
                            failures += 1;
                        }
                    }
                }
                Ok(if failures == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            "bench" => {
                let conns = opt_u64(&flags, "conns")
                    .map_err(|()| "bad --conns")?
                    .unwrap_or(4) as usize;
                let requests = opt_u64(&flags, "requests")
                    .map_err(|()| "bad --requests")?
                    .unwrap_or(32) as usize;
                let seed = opt_u64(&flags, "seed").map_err(|()| "bad --seed")?;
                let spread = opt_u64(&flags, "spread").map_err(|()| "bad --spread")?;
                let target = opt_u64(&flags, "target").map_err(|()| "bad --target")?;
                let deadline = opt_u64(&flags, "deadline-ms").map_err(|()| "bad --deadline-ms")?;
                let rate = match opt(&flags, "rate") {
                    None => None,
                    Some(v) => Some(v.parse::<f64>().map_err(|_| "bad --rate")?),
                };
                let retry = retry_policy(&flags).map_err(|()| "bad retry flags")?;
                let chaos_kill = opt_u64(&flags, "chaos-kill").map_err(|()| "bad --chaos-kill")?;
                let chaos_after =
                    opt_u64(&flags, "chaos-after-ms").map_err(|()| "bad --chaos-after-ms")?;
                let chaos = match (chaos_kill, chaos_after) {
                    (Some(shard), after) => {
                        if shard as usize >= flags.addrs.len() {
                            return Err("--chaos-kill is out of range for the address list".into());
                        }
                        Some(ChaosOptions {
                            kill_shard: shard as usize,
                            after: Duration::from_millis(after.unwrap_or(500)),
                        })
                    }
                    (None, Some(_)) => {
                        return Err("--chaos-after-ms needs --chaos-kill".into());
                    }
                    (None, None) => None,
                };
                let opts = BenchOptions {
                    addrs: flags.addrs.clone(),
                    conns: conns.max(1),
                    requests_per_conn: requests.max(1),
                    experiment: opt(&flags, "experiment").unwrap_or("fig4").to_owned(),
                    seed: seed.unwrap_or(defaults.seed),
                    seed_spread: spread.unwrap_or(1).max(1),
                    target: target.unwrap_or(defaults.target_branches as u64),
                    deadline_ms: deadline,
                    rate,
                    retry,
                    chaos,
                };
                let report = run_bench(&opts)?;
                if has_flag(&flags, "json") {
                    println!("{}", report.render_json());
                } else {
                    println!("{}", report.render_text());
                }
                Ok(ExitCode::SUCCESS)
            }
            "idle" => {
                let conns = opt_u64(&flags, "conns")
                    .map_err(|()| "bad --conns")?
                    .unwrap_or(100) as usize;
                let hold = opt_u64(&flags, "hold-ms")
                    .map_err(|()| "bad --hold-ms")?
                    .unwrap_or(60_000);
                let mut held = Vec::with_capacity(conns);
                for i in 0..conns {
                    let addr = &flags.addrs[i % flags.addrs.len()];
                    match std::net::TcpStream::connect(addr.as_str()) {
                        Ok(stream) => held.push(stream),
                        Err(e) => {
                            eprintln!("error: connection {i} to {addr} failed: {e}");
                            break;
                        }
                    }
                }
                // Printed once all sockets are up so harnesses can key
                // their memory measurement off this line.
                let complete = held.len() == conns;
                println!("idle holding {} connections", held.len());
                use std::io::Write;
                let _ = std::io::stdout().flush();
                std::thread::sleep(Duration::from_millis(hold));
                drop(held);
                Ok(if complete {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => {
                usage();
                Ok(ExitCode::FAILURE)
            }
        }
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
