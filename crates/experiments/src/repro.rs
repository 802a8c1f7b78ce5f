//! The `repro` pipeline: regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 every experiment, default trace length
//! repro table2 fig4         a subset
//! repro --quick all         40k-branch traces (fast smoke run)
//! repro --target 1000000 all   paper-scale traces
//! repro --seed 7 fig6       different workload seed
//! repro --jobs 4 all        four worker threads (same output as --jobs 1)
//! repro --timings OUT.json all   per-experiment wall clock + cache stats
//! repro --quick all > tests/goldens/quick.txt   regenerate the quick golden
//! ```
//!
//! Experiments share one evaluation [`Engine`]: traces, predictor
//! simulations, oracle analyses and classifications are memoized across
//! experiments, and per-benchmark work fans out over `--jobs` worker
//! threads. Results are reassembled in benchmark order, so the output is
//! byte-identical whatever the job count. Experiments are evaluated in
//! [`evaluation_order`] (fig5 ahead of the other users of its window-16
//! point) but written in the requested order, each as soon as it and
//! every section before it are done. The stdout of `repro --quick all`
//! is committed as `tests/goldens/quick.txt`, and [`check_quick_golden`]
//! compares a run's output with it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bp_trace::cli::{default_jobs, note, Flag, Flags, RunError, JOBS, SEED, TARGET};

use crate::{evaluation_order, run_experiment, Engine, ExperimentConfig, TraceSet, EXPERIMENT_IDS};

/// The usage text `repro` prints with a command-line error or `--help`.
pub fn usage() -> String {
    format!(
        "usage: repro [--quick] [--seed N] [--target N[k|m|b]] \
         [--jobs N] [--timings FILE] [--bare] <experiment...|all>\nexperiments: {}",
        EXPERIMENT_IDS.join(" ")
    )
}

/// A parsed `repro` command line.
#[derive(Debug)]
pub struct Options {
    cfg: ExperimentConfig,
    ids: Vec<String>,
    timings: Option<String>,
    jobs: usize,
    bare: bool,
}

impl Options {
    /// Parses `repro`'s arguments (without the program name). `--quick`
    /// sets the base configuration that `--seed` and `--target` override,
    /// whatever their order. Every experiment id is checked here, so a
    /// run never starts on a typo.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        const FLAGS: &[Flag] = &[
            Flag::switch("--quick"),
            SEED,
            TARGET,
            JOBS,
            Flag::value("--timings"),
            Flag::switch("--bare"),
        ];
        let flags = Flags::parse(args, FLAGS)?;
        let mut cfg = if flags.switch("--quick") {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::default()
        };
        cfg.workload.seed = flags.seed()?.unwrap_or(cfg.workload.seed);
        cfg.workload.target_branches = flags.target()?.unwrap_or(cfg.workload.target_branches);
        let mut ids = flags.words(usize::MAX)?.to_vec();
        if ids.iter().any(|i| i == "all") {
            ids = EXPERIMENT_IDS.iter().map(|s| (*s).to_owned()).collect();
        }
        if ids.is_empty() {
            return Err(RunError::Usage(String::new()));
        }
        if let Some(id) = ids.iter().find(|id| !EXPERIMENT_IDS.contains(&id.as_str())) {
            return Err(RunError::Usage(format!("unknown experiment: {id}")));
        }
        Ok(Options {
            cfg,
            ids,
            timings: flags.text("--timings").map(String::from),
            jobs: flags.jobs()?.unwrap_or_else(default_jobs),
            bare: flags.switch("--bare"),
        })
    }
}

/// Runs the requested experiments and writes their sections to `out`,
/// flushing each one as soon as it and every section before it are done.
/// Progress and wall-clock lines go to stderr; `--timings` writes its
/// file once every section is out.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let cfg = &opts.cfg;
    if !opts.bare {
        write!(
            out,
            "# Reproduction run: seed={} target={} branches/benchmark\n\n",
            cfg.workload.seed, cfg.workload.target_branches
        )?;
        out.flush()?;
    }
    let engine = Engine::new(TraceSet::new(cfg.workload), opts.jobs);

    let run_started = Instant::now();
    // (experiment id or `prewarm`, wall-clock seconds)
    let mut timings: Vec<(String, f64)> = Vec::new();

    // A multi-experiment run warms the shared cache up front: every trace
    // is generated and the standard predictors are simulated in one batched
    // pass per trace, so no experiment pays for them again.
    if opts.ids.len() > 1 {
        let started = Instant::now();
        engine.prewarm(cfg);
        let seconds = started.elapsed().as_secs_f64();
        note(format_args!("[prewarm done in {seconds:.1}s]\n"));
        timings.push(("prewarm".to_owned(), seconds));
    }

    let mut sections: Vec<Option<(String, f64)>> = vec![None; opts.ids.len()];
    let mut printed = 0;
    for i in evaluation_order(&opts.ids) {
        let id = &opts.ids[i];
        let started = Instant::now();
        let rendered = run_experiment(id, cfg, &engine).expect("ids validated by parse");
        let seconds = started.elapsed().as_secs_f64();
        note(format_args!("[{id} done in {seconds:.1}s]\n"));
        sections[i] = Some((rendered, seconds));
        while let Some(Some((rendered, seconds))) = sections.get(printed) {
            writeln!(out, "{rendered}")?;
            out.flush()?;
            timings.push((opts.ids[printed].clone(), *seconds));
            printed += 1;
        }
    }

    let total_seconds = run_started.elapsed().as_secs_f64();
    let cache = engine.cache_stats();
    note(format_args!(
        "[total {:.1}s, jobs={}, cache {} hits / {} misses]",
        total_seconds,
        engine.jobs(),
        cache.hits,
        cache.misses
    ));
    if let Some(path) = &opts.timings {
        write_timings(path, cfg, &engine, &timings, total_seconds)
            .map_err(|e| RunError::Failed(format!("could not write timings to {path}: {e}")))?;
    }
    Ok(())
}

/// Compares `output` with the committed stdout of `repro --quick all`,
/// `tests/goldens/quick.txt` (regenerate it with `repro --quick all >
/// tests/goldens/quick.txt`). `Err` names the golden's first line that
/// differs, with both versions of it.
pub fn check_quick_golden(output: &str) -> Result<(), String> {
    const GOLDEN: &str = "tests/goldens/quick.txt";
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(GOLDEN);
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (mut want, mut got) = (golden.split('\n'), output.split('\n'));
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        if w != g {
            let show = |l: Option<&str>| l.map_or("(end of text)".to_owned(), |l| format!("{l:?}"));
            return Err(format!(
                "{GOLDEN}:{line} differs\n  golden: {}\n  output: {}",
                show(w),
                show(g)
            ));
        }
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

/// Writes `--timings` JSON. Ids are experiment names or `prewarm`, so
/// they go in unescaped.
fn write_timings(
    path: &str,
    cfg: &ExperimentConfig,
    engine: &Engine,
    timings: &[(String, f64)],
    total_seconds: f64,
) -> std::io::Result<()> {
    let experiments = json_rows(
        timings
            .iter()
            .map(|(id, seconds)| format!("{{\"id\": \"{id}\", \"seconds\": {seconds:.3}}}")),
    );
    let oracle = json_rows(engine.oracle_phase_stats().iter().map(|(benchmark, p)| {
        format!(
            "{{\"benchmark\": \"{}\", \"analyses\": {}, \"builds\": {}, \"shards\": {}, \
             \"matrix_seconds\": {:.3}, \"search_seconds\": {:.3}}}",
            benchmark.short_name(),
            p.analyses,
            p.builds,
            p.shards,
            p.matrix_seconds,
            p.search_seconds
        )
    }));
    let classify = json_rows(engine.classify_phase_stats().iter().map(|(benchmark, p)| {
        format!(
            "{{\"benchmark\": \"{}\", \"classifications\": {}, \
             \"stream_seconds\": {:.3}, \"sweep_seconds\": {:.3}, \
             \"replay_seconds\": {:.3}}}",
            benchmark.short_name(),
            p.classifications,
            p.stream_seconds,
            p.sweep_seconds,
            p.replay_seconds
        )
    }));
    let (cache, fanout) = (engine.cache_stats(), engine.fanout_stats());
    let json = format!(
        "{{\n  \"seed\": {},\n  \"target_branches\": {},\n  \"jobs\": {},\n  \
         \"total_seconds\": {total_seconds:.3},\n  \"experiments\": [\n{experiments}  ],\n  \
         \"oracle\": [\n{oracle}  ],\n  \"classify\": [\n{classify}  ],\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},\n  \
         \"threads\": {{\"busy_seconds\": {:.3}, \"fanout_wall_seconds\": {:.3}, \
         \"utilization\": {:.3}}}\n}}\n",
        cfg.workload.seed,
        cfg.workload.target_branches,
        engine.jobs(),
        cache.hits,
        cache.misses,
        cache.entries,
        fanout.busy_seconds,
        fanout.wall_seconds,
        fanout.utilization()
    );
    std::fs::write(path, json)
}

/// The rows of a JSON array, one per line at four spaces, comma-separated.
fn json_rows(rows: impl Iterator<Item = String>) -> String {
    let mut out = rows
        .map(|row| format!("    {row}"))
        .collect::<Vec<_>>()
        .join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}
