//! The `scale` pipeline: paper-scale single-benchmark runs through the
//! streaming pipeline.
//!
//! ```text
//! scale --bench m88ksim --target 100m            classification + oracle, streamed
//! scale --bench gcc --target 2m --materialized   same run via the in-memory path
//! scale --target 1b --skip-oracle                classification only
//! scale --target 100m --jobs 8                   parallel classify + oracle search
//! scale --target 1b --artifacts DIR              reuse packed .bps artifacts (mmap)
//! scale --artifacts DIR --artifacts-budget-gb 2  cap the store, LRU-evict over budget
//! ```
//!
//! The artifact summary [`run`] writes is deterministic and identical
//! between the streaming and `--materialized` paths, for every `--jobs`
//! value, and whether artifacts were rebuilt or re-opened (CI diffs all
//! of these); wall-clock per phase — with the thread count of each
//! parallel phase; a trace scan runs on the calling thread — and peak
//! resident memory go to stderr. In streaming mode the full trace never
//! exists in memory — the workload is regenerated chunk by chunk on
//! every scan. With `--artifacts DIR` the packed streams and
//! oracle matrix are persisted as `.bps` files on first use and re-opened
//! zero-copy afterwards; a rotten artifact is evicted with a one-line
//! notice and rebuilt. `--artifacts-budget-gb` caps the store: when a
//! save busts the budget, least-recently-used artifacts (loads refresh
//! recency) are evicted, again one notice per file, sparing whatever the
//! current run just wrote.

use std::io::Write;
use std::time::Instant;

use bp_core::{
    Classifier, ClassifierConfig, OracleConfig, OracleSelector, OutcomeMatrix, PaClass,
    TagCandidates,
};
use bp_trace::{BranchStreams, PathWindow, TagScheme};
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::artifacts::{matrix_config_fp, streams_config_fp, ArtifactStore};
use crate::cli::{default_jobs, workload_flag, RunError};
use crate::TraceSet;

/// The usage text `scale` prints with a command-line error or `--help`.
pub fn usage() -> String {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    format!(
        "usage: scale [--bench NAME] [--target N[k|m|b]] [--seed N] [--artifacts DIR] \
         [--artifacts-budget-gb F] [--jobs N] [--materialized] [--skip-oracle] \
         [--oracle-window N] [--oracle-cap N]\nbenchmarks: {}",
        names.join(" ")
    )
}

/// A parsed `scale` command line.
#[derive(Debug)]
pub struct Options {
    bench: Benchmark,
    cfg: WorkloadConfig,
    artifacts_dir: Option<String>,
    artifacts_budget: Option<u64>,
    jobs: usize,
    materialized: bool,
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
            artifacts_budget: None,
            jobs: default_jobs(),
            materialized: false,
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
                    let name = args.next().unwrap_or_default();
                    match Benchmark::parse(&name) {
                        Some(b) => opts.bench = b,
                        None => return bad(format!("unknown benchmark '{name}'")),
                    }
                }
                "--artifacts" => match args.next() {
                    Some(dir) => opts.artifacts_dir = Some(dir),
                    None => return bad("--artifacts needs a directory".into()),
                },
                "--artifacts-budget-gb" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(gb) if gb > 0.0 => {
                        opts.artifacts_budget = Some((gb * (1u64 << 30) as f64) as u64);
                    }
                    _ => return bad("--artifacts-budget-gb needs a positive size in GiB".into()),
                },
                "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.jobs = n,
                    _ => return bad("--jobs needs a positive thread count".into()),
                },
                "--materialized" => opts.materialized = true,
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

/// Runs one benchmark through the streams, classification and (unless
/// `--skip-oracle`) oracle builders, writing the artifact summary to
/// `out` section by section. Phase timings and peak memory go to stderr.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let Options {
        bench, cfg, jobs, ..
    } = *opts;
    let oracle_cfg = &opts.oracle;
    let mut traces = TraceSet::new(cfg);
    if opts.materialized {
        // Pre-materialize so the streaming/materialized split is explicit
        // in the phase timings rather than hidden in the first scan.
        let t0 = Instant::now();
        let _ = traces.trace(bench);
        eprintln!("[materialize: {:.1}s]", t0.elapsed().as_secs_f64());
    } else {
        traces = traces.with_streaming();
    }
    let source = traces.source(bench);
    let store = match &opts.artifacts_dir {
        Some(dir) => Some(
            ArtifactStore::open(dir)
                .map_err(|e| {
                    RunError::Failed(format!("cannot open artifact directory {dir}: {e}"))
                })?
                .with_budget(opts.artifacts_budget),
        ),
        None => None,
    };

    writeln!(
        out,
        "# scale run: bench={} seed={} target={}",
        bench.name(),
        cfg.seed,
        cfg.target_branches
    )?;
    out.flush()?;

    let t0 = Instant::now();
    let streams_fp = streams_config_fp(bench.name(), cfg.seed, cfg.target_branches);
    let reused = store
        .as_ref()
        .and_then(|s| s.load_streams(bench.name(), streams_fp));
    let streams = match reused {
        Some((streams, mapped)) => {
            eprintln!(
                "[streams: {:.1}s, reused ({})]",
                t0.elapsed().as_secs_f64(),
                if mapped { "mmap" } else { "read" }
            );
            streams
        }
        None => {
            let streams = BranchStreams::from_source_sharded(&source, 1)
                .map_err(|e| RunError::Failed(format!("trace scan failed: {e}")))?;
            if let Some(store) = &store {
                store.save_streams(bench.name(), &streams, streams_fp);
            }
            eprintln!("[streams: {:.1}s]", t0.elapsed().as_secs_f64());
            streams
        }
    };
    write!(
        out,
        "conditionals: {}\nstatic branches: {}\n",
        streams.dynamic_count(),
        streams.static_count()
    )?;
    out.flush()?;

    let t0 = Instant::now();
    let (classification, _) =
        Classifier::classify_streams_parallel(&streams, &ClassifierConfig::default(), jobs);
    eprintln!(
        "[classify: {:.1}s, {jobs} threads]",
        t0.elapsed().as_secs_f64()
    );
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
    drop(classification);

    if !opts.skip_oracle {
        let t0 = Instant::now();
        let matrix_fp = matrix_config_fp(
            bench.name(),
            cfg.seed,
            cfg.target_branches,
            oracle_cfg.window,
            oracle_cfg.candidate_cap,
        );
        let reused = store.as_ref().and_then(|s| {
            s.load_matrix(
                bench.name(),
                oracle_cfg.window,
                oracle_cfg.candidate_cap,
                matrix_fp,
            )
        });
        let matrix = match reused {
            Some((matrix, mapped)) => {
                eprintln!(
                    "[oracle matrix: {:.1}s, reused ({})]",
                    t0.elapsed().as_secs_f64(),
                    if mapped { "mmap" } else { "read" }
                );
                matrix
            }
            None => {
                let candidates = TagCandidates::collect_from_source_sharded(
                    &source,
                    oracle_cfg.window,
                    oracle_cfg.candidate_cap,
                    &TagScheme::ALL,
                    1,
                )
                .map_err(|e| RunError::Failed(format!("candidate scan failed: {e}")))?;
                eprintln!("[oracle candidates: {:.1}s]", t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                let matrix = OutcomeMatrix::build_from_source_sharded(
                    &source,
                    &candidates,
                    oracle_cfg.window,
                    1,
                )
                .map_err(|e| RunError::Failed(format!("matrix scan failed: {e}")))?;
                if let Some(store) = &store {
                    store.save_matrix(
                        bench.name(),
                        oracle_cfg.window,
                        oracle_cfg.candidate_cap,
                        &matrix,
                        matrix_fp,
                    );
                }
                eprintln!("[oracle matrix: {:.1}s]", t0.elapsed().as_secs_f64());
                matrix
            }
        };
        let t0 = Instant::now();
        let oracle = OracleSelector::analyze_matrix_parallel(&matrix, oracle_cfg, jobs);
        eprintln!(
            "[oracle select: {:.1}s, {jobs} threads]",
            t0.elapsed().as_secs_f64()
        );
        let mut summary = format!("oracle branches: {}\n", oracle.branch_count());
        for k in 1..=3 {
            summary += &format!("oracle accuracy k={k}: {:.6}\n", oracle.accuracy(k));
        }
        out.write_all(summary.as_bytes())?;
        out.flush()?;
    }

    match peak_rss_kib() {
        Some(kib) => eprintln!("[peak rss: {:.1} MiB]", kib as f64 / 1024.0),
        None => eprintln!("[peak rss: unavailable]"),
    }
    Ok(())
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
