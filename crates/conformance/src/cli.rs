//! The `bp-conformance` command line: run the verification subsystem.
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
//! `sweep` fails on any kernel divergence (writing a minimized `.bpt`
//! reproducer), law violation, golden mismatch, or budget overrun. Its
//! golden suite runs [`bp_experiments::repro::run`] at `--quick all` and
//! compares the output with the committed text
//! ([`bp_experiments::repro::check_quick_golden`]).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bp_core::{Classification, Classifier, ClassifierConfig, OutcomeMatrix, SweepMatrix};
use bp_experiments::repro;
use bp_trace::cli::{note, RunError};
use bp_trace::Trace;

use crate::diff::{self, DiffConfig, Divergence, Kernels};
use crate::{all_laws, corpus, minimize, NamedTrace};

/// The usage text `bp-conformance` prints with a command-line error or
/// `--help`.
pub fn usage() -> String {
    "usage: bp-conformance <command> [options]\n\
     commands:\n\
     \x20 sweep    [--seed N] [--cases N] [--budget DUR] [--repro-dir DIR]\n\
     \x20          [--skip-goldens]\n\
     \x20 diff     FILE.bpt...\n\
     \x20 laws     [--seed N] [--cases N]\n\
     \x20 gen      [--seed N] [--cases N] --out DIR\n\
     \x20 selftest"
        .to_owned()
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

/// A parsed `bp-conformance` command line: the command and the options
/// every command shares.
#[derive(Debug)]
pub struct Options {
    command: String,
    seed: u64,
    cases: usize,
    budget: Option<Duration>,
    repro_dir: PathBuf,
    skip_goldens: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

impl Options {
    /// Parses `bp-conformance`'s arguments (without the program name):
    /// the command, then its options and files.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        let mut args = args.into_iter();
        let Some(command) = args.next() else {
            return Err(RunError::Usage(String::new()));
        };
        if command == "--help" || command == "-h" {
            return Err(RunError::Help);
        }
        let mut opts = Options {
            command,
            seed: 0xC0F0,
            cases: 49,
            budget: None,
            repro_dir: PathBuf::from("target/conformance"),
            skip_goldens: false,
            out: None,
            files: Vec::new(),
        };
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| RunError::Usage(format!("{name} needs a value")))
            };
            let bad = |why: &str| RunError::Usage(why.to_owned());
            match arg.as_str() {
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|_| bad("--seed needs an unsigned integer"))?;
                }
                "--cases" => {
                    opts.cases = value("--cases")?
                        .parse()
                        .map_err(|_| bad("--cases needs a count"))?;
                }
                "--budget" => {
                    let v = value("--budget")?;
                    let why = || bad(&format!("bad --budget duration: {v}"));
                    opts.budget = Some(parse_duration(&v).ok_or_else(why)?);
                }
                "--repro-dir" => opts.repro_dir = PathBuf::from(value("--repro-dir")?),
                "--skip-goldens" => opts.skip_goldens = true,
                "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
                other if !other.starts_with('-') => opts.files.push(PathBuf::from(other)),
                other => return Err(bad(&format!("unknown option: {other}"))),
            }
        }
        Ok(opts)
    }
}

/// Runs the command, writing its report lines to `out`. Divergences, law
/// violations and golden mismatches are listed on stderr and fail the
/// run.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    match opts.command.as_str() {
        "sweep" => sweep(opts, out),
        "diff" => diff_files(opts, out),
        "laws" => laws(opts, out),
        "gen" => gen(opts, out),
        "selftest" => selftest(out),
        other => {
            note(format_args!("unknown command: {other}"));
            Err(RunError::Usage(String::new()))
        }
    }?;
    out.flush()?;
    Ok(())
}

/// Writes a divergence's minimized reproducer and prints the report.
fn report_divergence(d: &Divergence, repro_dir: &Path) {
    note(format_args!(
        "DIVERGENCE [{}] on case {}: {}",
        d.suite, d.case_name, d.detail
    ));
    if let Err(e) = std::fs::create_dir_all(repro_dir) {
        note(format_args!(
            "error: cannot create {}: {e}",
            repro_dir.display()
        ));
        return;
    }
    let path = repro_dir.join(format!("{}-{}.bpt", d.suite, d.case_name));
    match std::fs::File::create(&path)
        .map_err(|e| e.to_string())
        .and_then(|mut f| bp_trace::io::write_trace(&mut f, &d.trace).map_err(|e| e.to_string()))
    {
        Ok(()) => note(format_args!(
            "  minimized reproducer ({} records) written to {}",
            d.trace.records().len(),
            path.display()
        )),
        Err(e) => note(format_args!(
            "error: cannot write reproducer {}: {e}",
            path.display()
        )),
    }
}

/// Runs every metamorphic law over a corpus. Returns the violation count.
fn run_laws(cases: &[NamedTrace]) -> usize {
    let mut violations = 0;
    for law in all_laws() {
        for case in cases {
            if let Some(detail) = (law.check)(&case.trace) {
                note(format_args!(
                    "LAW VIOLATION [{}] on case {}: {detail}",
                    law.name, case.name
                ));
                violations += 1;
            }
        }
    }
    violations
}

/// Runs `repro --quick all` and compares its output with the committed
/// golden text. Returns the failure count, 0 or 1; a failure is one
/// `GOLDEN FAILURE` report naming the first line that differs.
fn run_goldens() -> usize {
    let mut output = Vec::new();
    let checked = repro::Options::parse(["--quick", "all"].map(String::from))
        .and_then(|opts| repro::run(&opts, &mut output))
        .map_err(|e| e.to_string())
        .and_then(|()| repro::check_quick_golden(&String::from_utf8_lossy(&output)));
    match checked {
        Ok(()) => 0,
        Err(why) => {
            note(format_args!("GOLDEN FAILURE: {why}"));
            1
        }
    }
}

fn sweep(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let started = Instant::now();
    let cases = corpus(opts.seed, opts.cases);
    let (cfg, kernels) = (DiffConfig::default(), Kernels::default());
    let mut failures = 0;
    for case in &cases {
        if let Some(d) = diff::run_case(&case.name, &case.trace, &cfg, &kernels) {
            report_divergence(&d, &opts.repro_dir);
            failures += 1;
        }
    }
    note(format_args!(
        "[differential: {} cases x 7 suites, {} divergences, {:.1}s]",
        cases.len(),
        failures,
        started.elapsed().as_secs_f64()
    ));

    let law_started = Instant::now();
    failures += run_laws(&cases);
    note(format_args!(
        "[laws: {} laws x {} cases, {:.1}s]",
        all_laws().len(),
        cases.len(),
        law_started.elapsed().as_secs_f64()
    ));

    if opts.skip_goldens {
        note("[goldens: skipped]");
    } else {
        let golden_started = Instant::now();
        failures += run_goldens();
        note(format_args!(
            "[goldens: checked in {:.1}s]",
            golden_started.elapsed().as_secs_f64()
        ));
    }

    let elapsed = started.elapsed();
    if let Some(budget) = opts.budget {
        if elapsed > budget {
            note(format_args!(
                "BUDGET EXCEEDED: sweep took {:.1}s, budget {:.1}s",
                elapsed.as_secs_f64(),
                budget.as_secs_f64()
            ));
            return Err(RunError::Failed(String::new()));
        }
    }
    if failures > 0 {
        note(format_args!(
            "sweep FAILED: {failures} failure(s) in {:.1}s",
            elapsed.as_secs_f64()
        ));
        return Err(RunError::Failed(String::new()));
    }
    writeln!(
        out,
        "sweep OK: {} cases, {} laws, goldens {} ({:.1}s)",
        cases.len(),
        all_laws().len(),
        if opts.skip_goldens {
            "skipped"
        } else {
            "verified"
        },
        elapsed.as_secs_f64()
    )?;
    Ok(())
}

fn diff_files(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    if opts.files.is_empty() {
        return Err(RunError::Usage(
            "diff needs at least one .bpt file".to_owned(),
        ));
    }
    let cfg = DiffConfig::default();
    let kernels = Kernels::default();
    let mut failures = 0;
    for path in &opts.files {
        let trace = std::fs::File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|mut f| bp_trace::io::read_trace(&mut f).map_err(|e| e.to_string()))
            .map_err(|e| RunError::Failed(format!("cannot read {}: {e}", path.display())))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_owned());
        match diff::run_case(&name, &trace, &cfg, &kernels) {
            Some(d) => {
                report_divergence(&d, &opts.repro_dir);
                failures += 1;
            }
            None => writeln!(
                out,
                "{}: all suites agree ({} records)",
                path.display(),
                trace.records().len()
            )?,
        }
    }
    if failures > 0 {
        return Err(RunError::Failed(String::new()));
    }
    Ok(())
}

fn laws(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let cases = corpus(opts.seed, opts.cases);
    let violations = run_laws(&cases);
    if violations > 0 {
        note(format_args!("laws FAILED: {violations} violation(s)"));
        return Err(RunError::Failed(String::new()));
    }
    writeln!(
        out,
        "laws OK: {} laws x {} cases",
        all_laws().len(),
        cases.len()
    )?;
    Ok(())
}

fn gen(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let Some(dir) = &opts.out else {
        return Err(RunError::Usage("gen needs --out DIR".to_owned()));
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| RunError::Failed(format!("cannot create {}: {e}", dir.display())))?;
    let cases = corpus(opts.seed, opts.cases);
    for case in &cases {
        let path = dir.join(format!("{}.bpt", case.name));
        std::fs::File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|mut f| {
                bp_trace::io::write_trace(&mut f, &case.trace).map_err(|e| e.to_string())
            })
            .map_err(|e| RunError::Failed(format!("cannot write {}: {e}", path.display())))?;
    }
    writeln!(out, "wrote {} traces to {}", cases.len(), dir.display())?;
    Ok(())
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

/// Proves the harness catches deliberately injected kernel bugs.
fn selftest(out: &mut dyn Write) -> Result<(), RunError> {
    let cases = corpus(0xC0F0, 20);
    let cfg = DiffConfig::default();
    let clean = Kernels::default();

    // 1. The production kernels must be clean on the corpus.
    for case in &cases {
        if let Some(d) = diff::run_case(&case.name, &case.trace, &cfg, &clean) {
            return Err(selftest_failed(format!(
                "production kernels diverge on {}: {}",
                case.name, d.detail
            )));
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
            return Err(selftest_failed(format!("injected bug not caught: {bug}")));
        };
        // The minimized reproducer still diverges...
        let still = match d.suite {
            "oracle" => diff::diff_oracle(&d.trace, &cfg.oracle, kernels).is_some(),
            "classify" => diff::diff_classify(&d.trace, &cfg.classify, kernels).is_some(),
            _ => diff::diff_sweep(&d.trace, &cfg.windows, &cfg.caps, kernels).is_some(),
        };
        if !still {
            return Err(selftest_failed(format!(
                "minimized reproducer lost the divergence: {bug}"
            )));
        }
        // ...and survives .bpt serialization byte-exactly.
        let mut bytes = Vec::new();
        bp_trace::io::write_trace(&mut bytes, &d.trace)
            .map_err(|e| selftest_failed(format!("cannot encode reproducer: {e}")))?;
        let read_back = bp_trace::io::read_trace(&mut bytes.as_slice())
            .map_err(|e| selftest_failed(format!("cannot decode reproducer: {e}")))?;
        if read_back.records() != d.trace.records() {
            return Err(selftest_failed(format!(
                ".bpt round-trip altered the reproducer: {bug}"
            )));
        }
        writeln!(
            out,
            "caught: {bug} [{}] on {} (minimized to {} records)",
            d.suite,
            d.case_name,
            d.trace.records().len()
        )?;
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
        return Err(selftest_failed(format!(
            "minimizer left {} records, expected 1",
            minimized.records().len()
        )));
    }

    writeln!(
        out,
        "selftest OK: 4 injected bugs caught, reproducers minimized and round-tripped"
    )?;
    Ok(())
}

/// Reports a failed self-test check on stderr; the failure is its own
/// report, so no `error:` line follows.
fn selftest_failed(why: String) -> RunError {
    note(format_args!("selftest FAILED: {why}"));
    RunError::Failed(String::new())
}
