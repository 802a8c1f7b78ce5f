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
//! it, unless `--skip-oracle`, for the benchmark's oracle analysis, then
//! for its packed streams and its classification: the calls `repro`'s
//! experiments make. The full trace never exists in memory — the
//! workload is regenerated chunk by chunk on every scan. A cold oracle
//! scans the trace twice, for candidates and for the outcome matrix, and
//! the streams are read off that matrix, so the run makes two scans in
//! all; `--skip-oracle` makes one, for the streams. With `--artifacts
//! DIR` the engine reopens the packed streams and oracle matrix from
//! `.bps` files zero-copy, and builds and saves whichever it cannot
//! reopen; a rotten artifact is evicted with a one-line notice and
//! rebuilt ([`crate::artifacts`]).
//!
//! The artifact summary [`run`] writes is deterministic and identical
//! for every `--jobs` value, and whether artifacts were rebuilt or
//! reopened (CI diffs both); its sections keep the order streams,
//! classification, oracle. The wall-clock of each engine call, in call
//! order and marked `reused` when the call reopened its own artifact,
//! and peak resident memory go to stderr.

use std::io::Write;
use std::time::Instant;

use bp_core::{ClassifierConfig, OracleConfig, PaClass};
use bp_trace::cli::{default_jobs, note, Flag, Flags, RunError, JOBS, SEED, TARGET};
use bp_trace::PathWindow;
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::artifacts::ArtifactStore;
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
        const FLAGS: &[Flag] = &[
            Flag::value("--bench"),
            TARGET,
            SEED,
            Flag::value("--artifacts"),
            JOBS,
            Flag::switch("--skip-oracle"),
            Flag::value("--oracle-window"),
            Flag::value("--oracle-cap"),
        ];
        let flags = Flags::parse(args, FLAGS)?;
        flags.words(0)?;
        let defaults = WorkloadConfig::default();
        let mut oracle = OracleConfig::default();
        let max_window = PathWindow::MAX_CAPACITY;
        let window_needs = format!("a length in 1..={max_window}");
        let window = flags.value("--oracle-window", &window_needs, |n| {
            (1..=max_window).contains(n)
        })?;
        oracle.window = window.unwrap_or(oracle.window);
        let cap = flags.value("--oracle-cap", "a positive candidate count", |&n| n >= 1)?;
        oracle.candidate_cap = cap.unwrap_or(oracle.candidate_cap);
        Ok(Options {
            bench: flags
                .get("--bench", "a benchmark name", Benchmark::parse)?
                .unwrap_or(Benchmark::M88ksim),
            cfg: WorkloadConfig {
                seed: flags.seed()?.unwrap_or(defaults.seed),
                target_branches: flags.target()?.unwrap_or(10_000_000),
            },
            artifacts_dir: flags.text("--artifacts").map(String::from),
            jobs: flags.jobs()?.unwrap_or_else(default_jobs),
            skip_oracle: flags.switch("--skip-oracle"),
            oracle,
        })
    }
}

/// Runs one benchmark's oracle analysis (unless `--skip-oracle`),
/// streams and classification through one engine, writing the artifact
/// summary to `out` section by section. Each call's wall-clock and the
/// peak memory go to stderr.
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

    // The oracle goes first: its matrix build reads the streams off the
    // planes it packs, so the streams call below scans nothing.
    let oracle = (!opts.skip_oracle)
        .then(|| phase(&engine, "oracle", || engine.oracle(bench, &opts.oracle)));
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

    if let Some(oracle) = oracle {
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
