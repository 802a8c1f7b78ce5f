//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 every experiment, default trace length
//! repro table2 fig4         a subset
//! repro --quick all         40k-branch traces (fast smoke run)
//! repro --target 1000000 all   paper-scale traces
//! repro --seed 7 fig6       different workload seed
//! repro --jobs 4 all        four worker threads (same output as --jobs 1)
//! repro --timings OUT.json all   per-experiment wall clock + cache stats
//! ```
//!
//! Experiments share one evaluation [`Engine`]: traces, predictor
//! simulations, oracle analyses and classifications are memoized across
//! experiments, and per-benchmark work fans out over `--jobs` worker
//! threads. Results are reassembled in benchmark order, so stdout is
//! byte-identical whatever the job count. Experiments are evaluated in
//! [`evaluation_order`] (fig5 ahead of the other users of its window-16
//! point) but printed in the requested order, each as soon as it and
//! every section before it are done.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use bp_experiments::cli::{emit, workload_flag};
use bp_experiments::goldens::{self, Goldens};
use bp_experiments::{
    evaluation_order, run_experiment, Engine, ExperimentConfig, TraceSet, EXPERIMENT_IDS,
};

fn usage() {
    eprintln!(
        "usage: repro [--quick] [--seed N] [--target N[k|m|b]] [--stream] \
         [--jobs N] [--timings FILE] [--bare] [--goldens FILE] [--verify-goldens] \
         [--write-goldens] <experiment...|all>"
    );
    eprintln!("experiments: {}", EXPERIMENT_IDS.join(" "));
}

/// One experiment's wall-clock measurement.
struct Timing {
    id: String,
    seconds: f64,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn write_timings(
    path: &str,
    cfg: &ExperimentConfig,
    engine: &Engine,
    timings: &[Timing],
    total_seconds: f64,
) -> std::io::Result<()> {
    let cache = engine.cache_stats();
    let fanout = engine.fanout_stats();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", cfg.workload.seed));
    out.push_str(&format!(
        "  \"target_branches\": {},\n",
        cfg.workload.target_branches
    ));
    out.push_str(&format!("  \"jobs\": {},\n", engine.jobs()));
    out.push_str(&format!("  \"total_seconds\": {total_seconds:.3},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let sep = if i + 1 == timings.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}}}{}\n",
            json_escape(&t.id),
            t.seconds,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"oracle\": [\n");
    let phases = engine.oracle_phase_stats();
    for (i, (benchmark, p)) in phases.iter().enumerate() {
        let sep = if i + 1 == phases.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"analyses\": {}, \"builds\": {}, \"shards\": {}, \
             \"matrix_seconds\": {:.3}, \"search_seconds\": {:.3}}}{}\n",
            benchmark.short_name(),
            p.analyses,
            p.builds,
            p.shards,
            p.matrix_seconds,
            p.search_seconds,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"classify\": [\n");
    let classify = engine.classify_phase_stats();
    for (i, (benchmark, p)) in classify.iter().enumerate() {
        let sep = if i + 1 == classify.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"classifications\": {}, \
             \"stream_seconds\": {:.3}, \"sweep_seconds\": {:.3}, \
             \"replay_seconds\": {:.3}}}{}\n",
            benchmark.short_name(),
            p.classifications,
            p.stream_seconds,
            p.sweep_seconds,
            p.replay_seconds,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},\n",
        cache.hits, cache.misses, cache.entries
    ));
    out.push_str(&format!(
        "  \"threads\": {{\"busy_seconds\": {:.3}, \"fanout_wall_seconds\": {:.3}, \
         \"utilization\": {:.3}}}\n",
        fanout.busy_seconds,
        fanout.wall_seconds,
        fanout.utilization()
    ));
    out.push_str("}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

fn main() -> ExitCode {
    let mut cfg = ExperimentConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut stream = false;
    let mut timings_path: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut bare = false;
    let mut goldens_path: Option<String> = None;
    let mut verify_goldens = false;
    let mut write_goldens = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match workload_flag(&arg, &mut args, &mut cfg.workload) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
        }
        match arg.as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--stream" => stream = true,
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs needs a worker count of at least 1");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--timings" => match args.next() {
                Some(path) => timings_path = Some(path),
                None => {
                    eprintln!("error: --timings needs a file path");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--bare" => bare = true,
            "--goldens" => match args.next() {
                Some(path) => goldens_path = Some(path),
                None => {
                    eprintln!("error: --goldens needs a file path");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--verify-goldens" => verify_goldens = true,
            "--write-goldens" => write_goldens = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENT_IDS.iter().map(|s| (*s).to_owned()).collect();
    }
    if ids.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    for id in &ids {
        if !EXPERIMENT_IDS.contains(&id.as_str()) {
            eprintln!("error: unknown experiment: {id}");
            usage();
            return ExitCode::FAILURE;
        }
    }

    let goldens_file = goldens_path
        .map(std::path::PathBuf::from)
        .unwrap_or_else(goldens::default_path);
    let committed_goldens = if verify_goldens {
        match Goldens::load(&goldens_file) {
            Ok(g) => {
                if let Err(e) = g.check_config(&cfg) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                Some(g)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let mut fresh_goldens = Goldens::new(&cfg);
    let mut golden_mismatches: Vec<String> = Vec::new();

    if !bare {
        let header = format!(
            "# Reproduction run: seed={} target={} branches/benchmark\n\n",
            cfg.workload.seed, cfg.workload.target_branches
        );
        if let Err(code) = emit(&header) {
            return code;
        }
    }
    let mut traces = TraceSet::new(cfg.workload);
    if stream {
        traces = traces.with_streaming();
    }
    let engine = match jobs {
        Some(n) => Engine::new(traces, n),
        None => Engine::with_available_parallelism(traces),
    };

    let run_started = Instant::now();
    let mut timings: Vec<Timing> = Vec::new();

    // A multi-experiment run warms the shared cache up front: every trace
    // is generated and the standard predictors are simulated in one batched
    // pass per trace, so no experiment pays for them again.
    if ids.len() > 1 {
        let started = Instant::now();
        engine.prewarm(&cfg);
        let seconds = started.elapsed().as_secs_f64();
        eprintln!("[prewarm done in {seconds:.1}s]\n");
        timings.push(Timing {
            id: "prewarm".to_owned(),
            seconds,
        });
    }

    let mut sections: Vec<Option<(String, f64)>> = vec![None; ids.len()];
    let mut printed = 0;
    for i in evaluation_order(&ids) {
        let id = &ids[i];
        let started = Instant::now();
        let rendered = run_experiment(id, &cfg, &engine).expect("ids validated above");
        let seconds = started.elapsed().as_secs_f64();
        eprintln!("[{id} done in {seconds:.1}s]\n");
        sections[i] = Some((rendered, seconds));
        while let Some(Some((rendered, seconds))) = sections.get(printed) {
            let id = &ids[printed];
            if let Err(code) = emit(&format!("{rendered}\n")) {
                return code;
            }
            if write_goldens || verify_goldens {
                fresh_goldens.record(id, goldens::fingerprint(rendered));
            }
            if let Some(committed) = &committed_goldens {
                if let Err(m) = committed.verify(id, rendered) {
                    golden_mismatches.push(m.to_string());
                }
            }
            timings.push(Timing {
                id: id.clone(),
                seconds: *seconds,
            });
            printed += 1;
        }
    }

    let total_seconds = run_started.elapsed().as_secs_f64();
    let cache = engine.cache_stats();
    eprintln!(
        "[total {:.1}s, jobs={}, cache {} hits / {} misses]",
        total_seconds,
        engine.jobs(),
        cache.hits,
        cache.misses
    );
    if let Some(path) = timings_path {
        if let Err(e) = write_timings(&path, &cfg, &engine, &timings, total_seconds) {
            eprintln!("error: could not write timings to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if write_goldens {
        if let Err(e) = fresh_goldens.write(&goldens_file) {
            eprintln!(
                "error: could not write goldens to {}: {e}",
                goldens_file.display()
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[wrote {} golden fingerprints to {}]",
            fresh_goldens.len(),
            goldens_file.display()
        );
    }
    if verify_goldens {
        if golden_mismatches.is_empty() {
            eprintln!("[goldens verified: {} experiments]", ids.len());
        } else {
            for m in &golden_mismatches {
                eprintln!("golden mismatch: {m}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
