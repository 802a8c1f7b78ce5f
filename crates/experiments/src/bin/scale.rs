//! `scale` — paper-scale single-benchmark runs through the streaming
//! pipeline.
//!
//! ```text
//! scale --bench m88ksim --target 100m            classification + oracle, streamed
//! scale --bench gcc --target 2m --materialized   same run via the in-memory path
//! scale --target 10m --cache DIR                 stream through an on-disk .bpt2
//! scale --target 1b --skip-oracle                classification only
//! scale --target 100m --jobs 8                   sharded executor + parallel kernels
//! scale --target 1b --artifacts DIR              reuse packed .bps artifacts (mmap)
//! scale --artifacts DIR --artifacts-budget-gb 2  cap the store, LRU-evict over budget
//! ```
//!
//! The artifact summary on stdout is deterministic and identical between
//! the streaming and `--materialized` paths, for every `--jobs` value,
//! and whether artifacts were rebuilt or re-opened (CI diffs all of
//! these); wall-clock per phase — with the thread count that produced it —
//! and peak resident memory go to stderr. In streaming mode the full
//! trace never exists in memory — the workload is consumed chunk by
//! chunk, either regenerated per scan or read back through a fixed-size
//! window from the `--cache` stream file. With `--artifacts DIR` the
//! packed streams and oracle matrix are persisted as `.bps` files on
//! first use and re-opened zero-copy afterwards; a rotten artifact is
//! evicted with a one-line notice and rebuilt. `--artifacts-budget-gb`
//! caps the store: when a save busts the budget, least-recently-used
//! artifacts (loads refresh recency) are evicted, again one notice per
//! file, sparing whatever the current run just wrote.

use std::process::ExitCode;
use std::time::Instant;

use bp_core::{
    Classifier, ClassifierConfig, OracleConfig, OracleSelector, OutcomeMatrix, PaClass,
    TagCandidates,
};
use bp_experiments::artifacts::{matrix_config_fp, streams_config_fp, ArtifactStore};
use bp_experiments::cli::workload_flag;
use bp_experiments::TraceSet;
use bp_trace::{BranchStreams, PathWindow, TagScheme};
use bp_workloads::{Benchmark, WorkloadConfig};

fn usage() {
    eprintln!(
        "usage: scale [--bench NAME] [--target N[k|m|b]] [--seed N] [--cache DIR] \
         [--artifacts DIR] [--artifacts-budget-gb F] [--jobs N] [--materialized] \
         [--skip-oracle] [--oracle-window N] [--oracle-cap N]"
    );
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    eprintln!("benchmarks: {}", names.join(" "));
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let mut bench = Benchmark::M88ksim;
    let mut cfg = WorkloadConfig::default().with_target(10_000_000);
    let mut cache_dir: Option<String> = None;
    let mut artifacts_dir: Option<String> = None;
    let mut artifacts_budget: Option<u64> = None;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut materialized = false;
    let mut skip_oracle = false;
    let mut oracle_cfg = OracleConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match workload_flag(&arg, &mut args, &mut cfg) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
        }
        match arg.as_str() {
            "--bench" => {
                let name = args.next().unwrap_or_default();
                match Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == name || b.short_name() == name)
                {
                    Some(b) => bench = b,
                    None => {
                        eprintln!("error: unknown benchmark '{name}'");
                        usage();
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--cache" => match args.next() {
                Some(dir) => cache_dir = Some(dir),
                None => {
                    eprintln!("error: --cache needs a directory");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--artifacts" => match args.next() {
                Some(dir) => artifacts_dir = Some(dir),
                None => {
                    eprintln!("error: --artifacts needs a directory");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--artifacts-budget-gb" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(gb) if gb > 0.0 => {
                    artifacts_budget = Some((gb * (1u64 << 30) as f64) as u64);
                }
                _ => {
                    eprintln!("error: --artifacts-budget-gb needs a positive size in GiB");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("error: --jobs needs a positive thread count");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--materialized" => materialized = true,
            "--skip-oracle" => skip_oracle = true,
            "--oracle-window" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=PathWindow::MAX_CAPACITY).contains(&n) => oracle_cfg.window = n,
                _ => {
                    eprintln!(
                        "error: --oracle-window needs a length in 1..={}",
                        PathWindow::MAX_CAPACITY
                    );
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--oracle-cap" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => oracle_cfg.candidate_cap = n,
                _ => {
                    eprintln!("error: --oracle-cap needs a positive candidate count");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let mut traces = match &cache_dir {
        Some(dir) => TraceSet::with_disk_cache(cfg, dir),
        None => TraceSet::new(cfg),
    };
    if !materialized {
        traces = traces.with_streaming();
    }
    if materialized {
        // Pre-materialize so the streaming/materialized split is explicit
        // in the phase timings rather than hidden in the first scan.
        let t0 = Instant::now();
        let _ = traces.trace(bench);
        eprintln!("[materialize: {:.1}s]", t0.elapsed().as_secs_f64());
    }
    let source = traces.source(bench);
    let store = match &artifacts_dir {
        Some(dir) => match ArtifactStore::open(dir) {
            Ok(s) => Some(s.with_budget(artifacts_budget)),
            Err(e) => {
                eprintln!("error: cannot open artifact directory {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    println!(
        "# scale run: bench={} seed={} target={}",
        bench.name(),
        cfg.seed,
        cfg.target_branches
    );

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
            let streams = match BranchStreams::from_source_sharded(&source, jobs) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: trace scan failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(store) = &store {
                store.save_streams(bench.name(), &streams, streams_fp);
            }
            eprintln!(
                "[streams: {:.1}s, {jobs} threads]",
                t0.elapsed().as_secs_f64()
            );
            streams
        }
    };
    println!("conditionals: {}", streams.dynamic_count());
    println!("static branches: {}", streams.static_count());

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
    for class in PaClass::ALL {
        println!(
            "class {}: static={} dynamic={:.6}",
            class.label(),
            static_counts.get(&class).copied().unwrap_or(0),
            dist.get(&class).copied().unwrap_or(0.0)
        );
    }
    drop(classification);

    if !skip_oracle {
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
                let candidates = match TagCandidates::collect_from_source_sharded(
                    &source,
                    oracle_cfg.window,
                    oracle_cfg.candidate_cap,
                    &TagScheme::ALL,
                    jobs,
                ) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("error: candidate scan failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                eprintln!(
                    "[oracle candidates: {:.1}s, {jobs} threads]",
                    t0.elapsed().as_secs_f64()
                );
                let t0 = Instant::now();
                let matrix = match OutcomeMatrix::build_from_source_sharded(
                    &source,
                    &candidates,
                    oracle_cfg.window,
                    jobs,
                ) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("error: matrix scan failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(store) = &store {
                    store.save_matrix(
                        bench.name(),
                        oracle_cfg.window,
                        oracle_cfg.candidate_cap,
                        &matrix,
                        matrix_fp,
                    );
                }
                eprintln!(
                    "[oracle matrix: {:.1}s, {jobs} threads]",
                    t0.elapsed().as_secs_f64()
                );
                matrix
            }
        };
        let t0 = Instant::now();
        let oracle = OracleSelector::analyze_matrix_parallel(&matrix, &oracle_cfg, jobs);
        eprintln!(
            "[oracle select: {:.1}s, {jobs} threads]",
            t0.elapsed().as_secs_f64()
        );
        println!("oracle branches: {}", oracle.branch_count());
        for k in 1..=3 {
            println!("oracle accuracy k={k}: {:.6}", oracle.accuracy(k));
        }
    }

    match peak_rss_kib() {
        Some(kib) => eprintln!("[peak rss: {:.1} MiB]", kib as f64 / 1024.0),
        None => eprintln!("[peak rss: unavailable]"),
    }
    ExitCode::SUCCESS
}
