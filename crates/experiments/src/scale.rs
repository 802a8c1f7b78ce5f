//! The `scale` pipeline: paper-scale single-benchmark runs on the
//! evaluation engine.
//!
//! ```text
//! scale --bench m88ksim --target 100m            classification + oracle, streamed
//! scale --target 1b --skip-oracle                classification only
//! scale --target 100m --jobs 8                   parallel classify + oracle search
//! scale --target 1b --artifacts DIR              reuse packed .bps artifacts (mmap)
//! ```
//!
//! [`run`] builds one [`Engine`] over a streaming [`TraceSet`] and asks
//! it for the benchmark's packed streams, its classification and, unless
//! `--skip-oracle`, its oracle analysis: the calls `repro`'s experiments
//! make. The full trace never exists in memory — the workload is
//! regenerated chunk by chunk on every scan. With `--artifacts DIR` the
//! engine reopens the packed streams and oracle matrix from `.bps` files
//! zero-copy, and builds and saves whichever it cannot reopen; a rotten
//! artifact is evicted with a one-line notice and rebuilt
//! ([`crate::artifacts`]).
//!
//! The artifact summary [`run`] writes is deterministic and identical
//! for every `--jobs` value, and whether artifacts were rebuilt or
//! reopened (CI diffs both). The wall-clock of each engine call, marked
//! `reused` when the call reopened an artifact, and peak resident memory
//! go to stderr.

use std::io::Write;
use std::time::Instant;

use bp_core::{ClassifierConfig, OracleConfig, PaClass};
use bp_trace::cli::{note, RunError};
use bp_trace::PathWindow;
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::artifacts::ArtifactStore;
use crate::cli::{default_jobs, workload_flag};
use crate::{Engine, TraceSet};

/// The usage text `scale` prints with a command-line error or `--help`.
pub fn usage() -> String {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    format!(
        "usage: scale [--bench NAME] [--target N[k|m|b]] [--seed N] [--artifacts DIR] \
         [--jobs N] [--skip-oracle] [--oracle-window N] [--oracle-cap N]\nbenchmarks: {}",
        names.join(" ")
    )
}

/// A parsed `scale` command line.
#[derive(Debug)]
pub struct Options {
    bench: Benchmark,
    cfg: WorkloadConfig,
    artifacts_dir: Option<String>,
    jobs: usize,
    skip_oracle: bool,
    oracle: OracleConfig,
}

impl Options {
    /// Parses `scale`'s arguments (without the program name). Values that
    /// size memory (`--oracle-window`, `--jobs`) are bounded here, before
    /// anything runs.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        let mut opts = Options {
            bench: Benchmark::M88ksim,
            cfg: WorkloadConfig::default().with_target(10_000_000),
            artifacts_dir: None,
            jobs: default_jobs(),
            skip_oracle: false,
            oracle: OracleConfig::default(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if workload_flag(&arg, &mut args, &mut opts.cfg).map_err(RunError::Usage)? {
                continue;
            }
            let bad = |why: String| Err(RunError::Usage(why));
            match arg.as_str() {
                "--bench" => {
                    let Some(name) = args.next() else {
                        return bad("--bench needs a benchmark name".into());
                    };
                    match Benchmark::parse(&name) {
                        Some(b) => opts.bench = b,
                        None => return bad(format!("unknown benchmark '{name}'")),
                    }
                }
                "--artifacts" => match args.next() {
                    Some(dir) => opts.artifacts_dir = Some(dir),
                    None => return bad("--artifacts needs a directory".into()),
                },
                "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.jobs = n,
                    _ => return bad("--jobs needs a positive thread count".into()),
                },
                "--skip-oracle" => opts.skip_oracle = true,
                "--oracle-window" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if (1..=PathWindow::MAX_CAPACITY).contains(&n) => {
                        opts.oracle.window = n
                    }
                    _ => {
                        return bad(format!(
                            "--oracle-window needs a length in 1..={}",
                            PathWindow::MAX_CAPACITY
                        ))
                    }
                },
                "--oracle-cap" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.oracle.candidate_cap = n,
                    _ => return bad("--oracle-cap needs a positive candidate count".into()),
                },
                "--help" | "-h" => return Err(RunError::Help),
                other => return bad(format!("unknown argument '{other}'")),
            }
        }
        Ok(opts)
    }
}

/// Runs one benchmark's streams, classification and (unless
/// `--skip-oracle`) oracle analysis through one engine, writing the
/// artifact summary to `out` section by section. Each call's wall-clock
/// and the peak memory go to stderr.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let Options {
        bench, cfg, jobs, ..
    } = *opts;
    let mut engine = Engine::new(TraceSet::new(cfg).with_streaming(), jobs);
    if let Some(dir) = &opts.artifacts_dir {
        let store = ArtifactStore::open(dir)
            .map_err(|e| RunError::Failed(format!("cannot open artifact directory {dir}: {e}")))?;
        engine = engine.with_artifacts(store);
    }

    writeln!(
        out,
        "# scale run: bench={} seed={} target={}",
        bench.name(),
        cfg.seed,
        cfg.target_branches
    )?;
    out.flush()?;

    let streams = phase(&engine, "streams", || engine.streams(bench));
    write!(
        out,
        "conditionals: {}\nstatic branches: {}\n",
        streams.dynamic_count(),
        streams.static_count()
    )?;
    out.flush()?;

    let classification = phase(&engine, "classify", || {
        engine.classification(bench, &ClassifierConfig::default())
    });
    let dist = classification.dynamic_distribution();
    let mut static_counts: std::collections::HashMap<PaClass, u64> = Default::default();
    for (_, scores) in classification.iter() {
        *static_counts.entry(scores.class()).or_insert(0) += 1;
    }
    let classes: String = PaClass::ALL
        .iter()
        .map(|class| {
            format!(
                "class {}: static={} dynamic={:.6}\n",
                class.label(),
                static_counts.get(class).copied().unwrap_or(0),
                dist.get(class).copied().unwrap_or(0.0)
            )
        })
        .collect();
    out.write_all(classes.as_bytes())?;
    out.flush()?;

    if !opts.skip_oracle {
        let oracle = phase(&engine, "oracle", || engine.oracle(bench, &opts.oracle));
        let mut summary = format!("oracle branches: {}\n", oracle.branch_count());
        for k in 1..=3 {
            summary += &format!("oracle accuracy k={k}: {:.6}\n", oracle.accuracy(k));
        }
        out.write_all(summary.as_bytes())?;
        out.flush()?;
    }

    match peak_rss_kib() {
        Some(kib) => note(format_args!("[peak rss: {:.1} MiB]", kib as f64 / 1024.0)),
        None => note("[peak rss: unavailable]"),
    }
    Ok(())
}

/// Runs one engine call, then notes its wall-clock on stderr, marked
/// `reused` when the call reopened a `.bps` artifact.
fn phase<T>(engine: &Engine, name: &str, call: impl FnOnce() -> T) -> T {
    let (t0, reused) = (Instant::now(), engine.cache_stats().reused);
    let value = call();
    let reused = if engine.cache_stats().reused > reused {
        ", reused"
    } else {
        ""
    };
    note(format_args!(
        "[{name}: {:.1}s{reused}]",
        t0.elapsed().as_secs_f64()
    ));
    value
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
