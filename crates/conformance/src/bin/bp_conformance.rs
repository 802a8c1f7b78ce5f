//! `bp-conformance` — run the verification subsystem.
//!
//! ```text
//! bp-conformance sweep                 all suites: differential, laws, goldens
//! bp-conformance sweep --budget 60s    fail if the sweep exceeds a time budget
//! bp-conformance diff FILE.bpt         replay one trace through every suite
//! bp-conformance laws                  metamorphic laws only
//! bp-conformance gen --out DIR         dump the adversarial corpus as .bpt
//! bp-conformance selftest              prove injected kernel bugs are caught
//! ```
//!
//! `sweep` exits non-zero on any kernel divergence (writing a minimized
//! `.bpt` reproducer), law violation, golden mismatch, or budget overrun.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bp_conformance::diff::{self, DiffConfig, Divergence, Kernels};
use bp_conformance::{all_laws, corpus, minimize, NamedTrace};
use bp_core::{Classification, Classifier, ClassifierConfig, OutcomeMatrix, SweepMatrix};
use bp_experiments::goldens::Goldens;
use bp_experiments::{Engine, ExperimentConfig, TraceSet};
use bp_trace::Trace;

fn usage() {
    eprintln!(
        "usage: bp-conformance <command> [options]\n\
         commands:\n\
         \x20 sweep    [--seed N] [--cases N] [--budget DUR] [--repro-dir DIR]\n\
         \x20          [--goldens FILE] [--skip-goldens]\n\
         \x20 diff     FILE.bpt...\n\
         \x20 laws     [--seed N] [--cases N]\n\
         \x20 gen      [--seed N] [--cases N] --out DIR\n\
         \x20 selftest"
    );
}

/// Parses `60s`, `500ms`, or a plain second count.
fn parse_duration(s: &str) -> Option<Duration> {
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.parse::<u64>().ok().map(Duration::from_millis);
    }
    if let Some(secs) = s.strip_suffix('s') {
        return secs.parse::<u64>().ok().map(Duration::from_secs);
    }
    s.parse::<u64>().ok().map(Duration::from_secs)
}

struct Options {
    seed: u64,
    cases: usize,
    budget: Option<Duration>,
    repro_dir: PathBuf,
    goldens: Option<PathBuf>,
    skip_goldens: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 0xC0F0,
            cases: 48,
            budget: None,
            repro_dir: PathBuf::from("target/conformance"),
            goldens: None,
            skip_goldens: false,
            out: None,
            files: Vec::new(),
        }
    }
}

fn parse_options(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--cases" => {
                opts.cases = value("--cases")?
                    .parse()
                    .map_err(|_| "--cases needs a count".to_owned())?;
            }
            "--budget" => {
                let v = value("--budget")?;
                opts.budget =
                    Some(parse_duration(&v).ok_or(format!("bad --budget duration: {v}"))?);
            }
            "--repro-dir" => opts.repro_dir = PathBuf::from(value("--repro-dir")?),
            "--goldens" => opts.goldens = Some(PathBuf::from(value("--goldens")?)),
            "--skip-goldens" => opts.skip_goldens = true,
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            other if !other.starts_with('-') => opts.files.push(PathBuf::from(other)),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    Ok(opts)
}

/// Writes a divergence's minimized reproducer and prints the report.
fn report_divergence(d: &Divergence, repro_dir: &Path) {
    eprintln!(
        "DIVERGENCE [{}] on case {}: {}",
        d.suite, d.case_name, d.detail
    );
    if let Err(e) = std::fs::create_dir_all(repro_dir) {
        eprintln!("error: cannot create {}: {e}", repro_dir.display());
        return;
    }
    let path = repro_dir.join(format!("{}-{}.bpt", d.suite, d.case_name));
    match std::fs::File::create(&path)
        .map_err(|e| e.to_string())
        .and_then(|mut f| bp_trace::io::write_trace(&mut f, &d.trace).map_err(|e| e.to_string()))
    {
        Ok(()) => eprintln!(
            "  minimized reproducer ({} records) written to {}",
            d.trace.records().len(),
            path.display()
        ),
        Err(e) => eprintln!("error: cannot write reproducer {}: {e}", path.display()),
    }
}

/// Runs the differential suites over a corpus. Returns the failure count.
fn run_differential(
    cases: &[NamedTrace],
    cfg: &DiffConfig,
    kernels: &Kernels,
    repro_dir: &Path,
) -> usize {
    let mut failures = 0;
    for case in cases {
        if let Some(d) = diff::run_case(&case.name, &case.trace, cfg, kernels) {
            report_divergence(&d, repro_dir);
            failures += 1;
        }
    }
    failures
}

/// Runs every metamorphic law over a corpus. Returns the violation count.
fn run_laws(cases: &[NamedTrace]) -> usize {
    let mut violations = 0;
    for law in all_laws() {
        for case in cases {
            if let Some(detail) = (law.check)(&case.trace) {
                eprintln!(
                    "LAW VIOLATION [{}] on case {}: {detail}",
                    law.name, case.name
                );
                violations += 1;
            }
        }
    }
    violations
}

/// Verifies the committed golden fingerprints at the quick target.
/// Returns the mismatch count.
fn run_goldens(goldens_path: Option<&Path>) -> usize {
    let path = goldens_path
        .map(Path::to_path_buf)
        .unwrap_or_else(bp_experiments::goldens::default_path);
    let committed = match Goldens::load(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("GOLDEN FAILURE: {e}");
            return 1;
        }
    };
    let cfg = ExperimentConfig::quick();
    if let Err(e) = committed.check_config(&cfg) {
        eprintln!("GOLDEN FAILURE: {e}");
        return 1;
    }
    let engine = Engine::with_available_parallelism(TraceSet::new(cfg.workload));
    let fresh = Goldens::capture(&cfg, &engine);
    let mismatches = committed.diff(&fresh);
    for m in &mismatches {
        eprintln!("GOLDEN MISMATCH: {m}");
    }
    mismatches.len()
}

fn cmd_sweep(opts: &Options) -> ExitCode {
    let started = Instant::now();
    let cases = corpus(opts.seed, opts.cases);
    let cfg = DiffConfig::default();
    let kernels = Kernels::default();

    let mut failures = run_differential(&cases, &cfg, &kernels, &opts.repro_dir);
    eprintln!(
        "[differential: {} cases x 7 suites, {} divergences, {:.1}s]",
        cases.len(),
        failures,
        started.elapsed().as_secs_f64()
    );

    let law_started = Instant::now();
    failures += run_laws(&cases);
    eprintln!(
        "[laws: {} laws x {} cases, {:.1}s]",
        all_laws().len(),
        cases.len(),
        law_started.elapsed().as_secs_f64()
    );

    if opts.skip_goldens {
        eprintln!("[goldens: skipped]");
    } else {
        let golden_started = Instant::now();
        failures += run_goldens(opts.goldens.as_deref());
        eprintln!(
            "[goldens: checked in {:.1}s]",
            golden_started.elapsed().as_secs_f64()
        );
    }

    let elapsed = started.elapsed();
    if let Some(budget) = opts.budget {
        if elapsed > budget {
            eprintln!(
                "BUDGET EXCEEDED: sweep took {:.1}s, budget {:.1}s",
                elapsed.as_secs_f64(),
                budget.as_secs_f64()
            );
            return ExitCode::FAILURE;
        }
    }
    if failures > 0 {
        eprintln!(
            "sweep FAILED: {failures} failure(s) in {:.1}s",
            elapsed.as_secs_f64()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "sweep OK: {} cases, {} laws, goldens {} ({:.1}s)",
        cases.len(),
        all_laws().len(),
        if opts.skip_goldens {
            "skipped"
        } else {
            "verified"
        },
        elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn cmd_diff(opts: &Options) -> ExitCode {
    if opts.files.is_empty() {
        eprintln!("error: diff needs at least one .bpt file");
        usage();
        return ExitCode::FAILURE;
    }
    let cfg = DiffConfig::default();
    let kernels = Kernels::default();
    let mut failures = 0;
    for path in &opts.files {
        let trace = match std::fs::File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|mut f| bp_trace::io::read_trace(&mut f).map_err(|e| e.to_string()))
        {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_owned());
        match diff::run_case(&name, &trace, &cfg, &kernels) {
            Some(d) => {
                report_divergence(&d, &opts.repro_dir);
                failures += 1;
            }
            None => println!(
                "{}: all suites agree ({} records)",
                path.display(),
                trace.records().len()
            ),
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_laws(opts: &Options) -> ExitCode {
    let cases = corpus(opts.seed, opts.cases);
    let violations = run_laws(&cases);
    if violations > 0 {
        eprintln!("laws FAILED: {violations} violation(s)");
        return ExitCode::FAILURE;
    }
    println!("laws OK: {} laws x {} cases", all_laws().len(), cases.len());
    ExitCode::SUCCESS
}

fn cmd_gen(opts: &Options) -> ExitCode {
    let Some(out) = &opts.out else {
        eprintln!("error: gen needs --out DIR");
        usage();
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let cases = corpus(opts.seed, opts.cases);
    for case in &cases {
        let path = out.join(format!("{}.bpt", case.name));
        let result = std::fs::File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|mut f| {
                bp_trace::io::write_trace(&mut f, &case.trace).map_err(|e| e.to_string())
            });
        if let Err(e) = result {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("wrote {} traces to {}", cases.len(), out.display());
    ExitCode::SUCCESS
}

// ---- self-test: deliberately broken kernels must be caught ----

/// Off-by-one in the final partial-word popcount: one extra "correct"
/// whenever the execution count does not fill its last 64-bit word.
fn buggy_tag_scorer(
    bm: &bp_core::BranchMatrix,
    cols: &[usize],
    init: bp_predictors::SaturatingCounter,
) -> u64 {
    let s = bp_core::score_tag_set(bm, cols, init);
    if !bm.executions().is_multiple_of(64) && cols.len() == 1 {
        s + 1
    } else {
        s
    }
}

/// Off-by-one in the replay loop bound: the final record is never fed
/// to the class predictors.
fn buggy_classify(trace: &Trace, cfg: &ClassifierConfig) -> Classification {
    let recs = trace.records();
    let truncated = Trace::from_records(recs[..recs.len().saturating_sub(1)].to_vec());
    Classifier::classify(&truncated, cfg)
}

/// Materializes the wrong sweep point when more than one window exists.
fn buggy_sweep(trace: &Trace, windows: &[usize], caps: &[usize], idx: usize) -> OutcomeMatrix {
    let sweep = SweepMatrix::build(trace, windows, caps);
    let wrong = if windows.len() > 1 { idx ^ 1 } else { idx };
    sweep.materialize(wrong.min(windows.len() - 1))
}

fn cmd_selftest() -> ExitCode {
    let cases = corpus(0xC0F0, 20);
    let cfg = DiffConfig::default();
    let clean = Kernels::default();

    // 1. The production kernels must be clean on the corpus.
    for case in &cases {
        if let Some(d) = diff::run_case(&case.name, &case.trace, &cfg, &clean) {
            eprintln!(
                "selftest FAILED: production kernels diverge on {}: {}",
                case.name, d.detail
            );
            return ExitCode::FAILURE;
        }
    }

    // 2. Each injected bug must be caught, and the reported reproducer
    //    must still exhibit the divergence after minimization and a
    //    round-trip through the .bpt encoding.
    let injections: [(&str, Kernels); 4] = [
        (
            "oracle off-by-one popcount",
            Kernels {
                tag_scorer: buggy_tag_scorer,
                ..Kernels::default()
            },
        ),
        (
            "classify drops final record",
            Kernels {
                classify: buggy_classify,
                ..Kernels::default()
            },
        ),
        (
            "sweep wrong materialization point",
            Kernels {
                sweep: buggy_sweep,
                ..Kernels::default()
            },
        ),
        (
            "sweep built with every cap one lower",
            Kernels {
                sweep: |trace, windows, caps, idx| {
                    let lower: Vec<usize> = caps.iter().map(|&c| (c - 1).max(1)).collect();
                    SweepMatrix::build(trace, windows, &lower).materialize(idx)
                },
                ..Kernels::default()
            },
        ),
    ];
    for (bug, kernels) in &injections {
        let caught = cases
            .iter()
            .find_map(|case| diff::run_case(&case.name, &case.trace, &cfg, kernels));
        let Some(d) = caught else {
            eprintln!("selftest FAILED: injected bug not caught: {bug}");
            return ExitCode::FAILURE;
        };
        // The minimized reproducer still diverges...
        let still = match d.suite {
            "oracle" => diff::diff_oracle(&d.trace, &cfg.oracle, kernels).is_some(),
            "classify" => diff::diff_classify(&d.trace, &cfg.classify, kernels).is_some(),
            _ => diff::diff_sweep(&d.trace, &cfg.windows, &cfg.caps, kernels).is_some(),
        };
        if !still {
            eprintln!("selftest FAILED: minimized reproducer lost the divergence: {bug}");
            return ExitCode::FAILURE;
        }
        // ...and survives .bpt serialization byte-exactly.
        let mut bytes = Vec::new();
        if let Err(e) = bp_trace::io::write_trace(&mut bytes, &d.trace) {
            eprintln!("selftest FAILED: cannot encode reproducer: {e}");
            return ExitCode::FAILURE;
        }
        let read_back = match bp_trace::io::read_trace(&mut bytes.as_slice()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("selftest FAILED: cannot decode reproducer: {e}");
                return ExitCode::FAILURE;
            }
        };
        if read_back.records() != d.trace.records() {
            eprintln!("selftest FAILED: .bpt round-trip altered the reproducer: {bug}");
            return ExitCode::FAILURE;
        }
        println!(
            "caught: {bug} [{}] on {} (minimized to {} records)",
            d.suite,
            d.case_name,
            d.trace.records().len()
        );
    }

    // 3. The minimizer must actually shrink a padded failing trace.
    let needle = bp_trace::BranchRecord::conditional(0xBAD0, false);
    let mut recs = vec![bp_trace::BranchRecord::conditional(0x100, true); 300];
    recs.push(needle);
    recs.extend(vec![bp_trace::BranchRecord::conditional(0x200, true); 300]);
    let padded = Trace::from_records(recs);
    let minimized = minimize(&padded, |t| {
        t.conditionals().any(|r| r.pc == 0xBAD0 && !r.taken)
    });
    if minimized.records().len() != 1 {
        eprintln!(
            "selftest FAILED: minimizer left {} records, expected 1",
            minimized.records().len()
        );
        return ExitCode::FAILURE;
    }

    println!("selftest OK: 4 injected bugs caught, reproducers minimized and round-tripped");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage();
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" {
        usage();
        return ExitCode::SUCCESS;
    }
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "sweep" => cmd_sweep(&opts),
        "diff" => cmd_diff(&opts),
        "laws" => cmd_laws(&opts),
        "gen" => cmd_gen(&opts),
        "selftest" => cmd_selftest(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::FAILURE
        }
    }
}
