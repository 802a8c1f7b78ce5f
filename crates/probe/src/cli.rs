//! The `bp-probe` command line: black-box capacity/aliasing probing of
//! the predictor zoo.
//!
//! ```text
//! bp-probe sweep padding                         both padding probes, default grid
//! bp-probe sweep history --grid 2..30            loop-trip capacity sweep
//! bp-probe sweep aliasing --jobs 4               PC-aliasing sweep, 4 workers
//! bp-probe sweep all --base random               every probe, fair-coin trigger
//! bp-probe sweep padding --assert 'gshare(16)=16' --assert 'pas(12,10,4)=12'
//! bp-probe sweep padding --assert-gt 'tage(4,32,12)=16'
//! ```
//!
//! [`run`] writes a deterministic report (accuracy tables, cliff tables,
//! ASCII curves) — identical for every `--jobs` value, so CI diffs it
//! and commits it as a golden. Timings and thread counts go to stderr.
//! `--assert LABEL=VALUE` turns a detected-cliff expectation into the
//! exit code: 0 when every assertion holds, 1 otherwise.
//! `--assert-gt LABEL=VALUE` instead requires every detected cliff for
//! LABEL to sit strictly beyond VALUE — the headroom form, e.g. "TAGE's
//! recovered history capacity exceeds gshare(16)'s".
//!
//! Flags that size memory are bounded where they are parsed, before
//! anything is allocated: every zoo table stays within 32 MiB
//! (`--gshare-bits` ≤ 24, `--pas-history` ≤ 20), and no probe trace may
//! exceed [`MAX_PROBE_RECORDS`] records, which bounds `--rounds` and
//! `--grid` together.

use std::io::Write;

use bp_experiments::cli::default_jobs;
use bp_trace::cli::{note, RunError};

use crate::{parse_grid, run_probes, BaseOutcomes, ProbeKind, ReportConfig, MAX_PROBE_RECORDS};

/// Largest `--gshare-bits`: a 2^24-counter PHT of 2-byte counters is
/// 32 MiB.
const MAX_GSHARE_BITS: u32 = 24;
/// Largest `--pas-history`: PAs's 16 PHTs of 2^20 two-byte counters are
/// 32 MiB.
const MAX_PAS_HISTORY: u32 = 20;

/// The usage text `bp-probe` prints with a command-line error or `--help`.
pub fn usage() -> String {
    format!(
        "usage: bp-probe sweep <padding|history|aliasing|all>\n       \
         [--rounds N] [--seed N] [--base pattern|random] [--grid A..B[:STEP]]\n       \
         [--jobs N] [--min-drop PP] [--gshare-bits N] [--pas-history N]\n       \
         [--assert LABEL=VALUE]... [--assert-gt LABEL=VALUE]...\n\
         bounds: --gshare-bits 1..={MAX_GSHARE_BITS} and --pas-history 1..={MAX_PAS_HISTORY} \
         (each zoo table at most 32 MiB);\n        \
         at most {MAX_PROBE_RECORDS} records per probe trace: rounds x (pads + 2) for \
         padding,\n        about max(rounds, 64 x (trip + 1)) for history, 2 x rounds \
         for aliasing"
    )
}

/// Parses a `LABEL=VALUE` cliff assertion given to `flag`.
fn assertion(flag: &str, spec: Option<String>) -> Result<(String, usize), RunError> {
    let spec = spec.ok_or_else(|| RunError::Usage(format!("{flag} needs LABEL=VALUE")))?;
    let (label, value) = spec
        .rsplit_once('=')
        .ok_or_else(|| RunError::Usage(format!("{flag} needs LABEL=VALUE")))?;
    let value = value
        .parse()
        .map_err(|_| RunError::Usage(format!("bad {flag} value in '{spec}'")))?;
    Ok((label.to_owned(), value))
}

/// A parsed `bp-probe sweep` command line.
#[derive(Debug)]
pub struct Options {
    kinds: Vec<ProbeKind>,
    cfg: ReportConfig,
    asserts: Vec<(String, usize)>,
    asserts_gt: Vec<(String, usize)>,
}

impl Options {
    /// Parses `bp-probe`'s arguments (without the program name). Every
    /// bound on memory is checked here, so a run never allocates past it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        let mut args = args.into_iter();
        match args.next().as_deref() {
            Some("sweep") => {}
            Some("--help" | "-h") => return Err(RunError::Help),
            other => {
                return Err(RunError::Usage(format!(
                    "expected the 'sweep' subcommand, got {other:?}"
                )))
            }
        }
        use ProbeKind::{Aliasing, HistoryLoop, PaddingGlobal, PaddingLocal};
        let kinds = match args.next().as_deref() {
            Some("padding") => vec![PaddingGlobal, PaddingLocal],
            Some("history") => vec![HistoryLoop],
            Some("aliasing") => vec![Aliasing],
            Some("all") => vec![PaddingGlobal, PaddingLocal, HistoryLoop, Aliasing],
            _ => {
                let why = "sweep needs a probe family: padding, history, aliasing, or all";
                return Err(RunError::Usage(why.into()));
            }
        };

        let mut cfg = ReportConfig::default();
        cfg.sweep.jobs = default_jobs();
        let mut grid_override: Option<Vec<usize>> = None;
        let mut asserts: Vec<(String, usize)> = Vec::new();
        let mut asserts_gt: Vec<(String, usize)> = Vec::new();
        let bad = |why: String| Err(RunError::Usage(why));
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cfg.sweep.rounds = n,
                    _ => return bad("--rounds needs a positive count".into()),
                },
                "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => cfg.sweep.seed = n,
                    None => return bad("--seed needs an unsigned integer".into()),
                },
                "--base" => match args.next().as_deref().and_then(BaseOutcomes::parse) {
                    Some(b) => cfg.sweep.base = b,
                    None => return bad("--base needs 'pattern' or 'random'".into()),
                },
                "--grid" => match args.next().map(|v| parse_grid(&v)) {
                    Some(Ok(grid)) => grid_override = Some(grid),
                    Some(Err(e)) => return bad(e),
                    None => return bad("--grid needs A..B or A..B:STEP".into()),
                },
                "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cfg.sweep.jobs = n,
                    _ => return bad("--jobs needs a positive thread count".into()),
                },
                "--min-drop" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(f) if f > 0.0 => cfg.sweep.min_drop = f,
                    _ => return bad("--min-drop needs a positive percentage-point value".into()),
                },
                "--gshare-bits" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if (1..=MAX_GSHARE_BITS).contains(&n) => cfg.zoo.gshare_bits = n,
                    _ => {
                        return bad(format!(
                            "--gshare-bits needs a history length in 1..={MAX_GSHARE_BITS}"
                        ))
                    }
                },
                "--pas-history" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if (1..=MAX_PAS_HISTORY).contains(&n) => {
                        cfg.zoo.pas_bits.0 = n;
                        cfg.zoo.if_pas_bits = n;
                    }
                    _ => {
                        return bad(format!(
                            "--pas-history needs a history length in 1..={MAX_PAS_HISTORY}"
                        ))
                    }
                },
                "--assert" => asserts.push(assertion("--assert", args.next())?),
                "--assert-gt" => asserts_gt.push(assertion("--assert-gt", args.next())?),
                "--help" | "-h" => return Err(RunError::Help),
                other => return bad(format!("unknown argument '{other}'")),
            }
        }
        if let Some(grid) = grid_override {
            if kinds.len() > 1 && kinds.contains(&ProbeKind::HistoryLoop) {
                return bad("--grid is ambiguous with 'all'; probe one family at a time".into());
            }
            for kind in &kinds {
                match kind {
                    ProbeKind::PaddingGlobal | ProbeKind::PaddingLocal => {
                        cfg.padding_grid = grid.clone();
                    }
                    ProbeKind::HistoryLoop => {
                        if grid.first() == Some(&0) {
                            return bad("history grid trips must be >= 1".into());
                        }
                        cfg.history_grid = grid.clone();
                    }
                    ProbeKind::Aliasing => {
                        if grid.last().is_some_and(|&k| k > 28) {
                            return bad("aliasing grid bits must be <= 28".into());
                        }
                        cfg.aliasing_grid = grid.clone();
                    }
                }
            }
        }

        let oversized = kinds.iter().find_map(|&kind| {
            cfg.grid(kind).iter().find_map(|&value| {
                let records = kind.records(value, cfg.sweep.rounds);
                (records > MAX_PROBE_RECORDS).then_some((kind, value, records))
            })
        });
        if let Some((kind, value, records)) = oversized {
            return bad(format!(
                "the {} probe at {}={value} would hold {records} records, over the \
                 {MAX_PROBE_RECORDS}-record cap (lower --rounds or --grid)",
                kind.param_family(),
                kind.param()
            ));
        }
        Ok(Options {
            kinds,
            cfg,
            asserts,
            asserts_gt,
        })
    }
}

/// Runs the requested probe families, writes the report to `out`, then
/// checks every `--assert`/`--assert-gt` on stderr. The run fails when
/// any assertion does.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let report = run_probes(&opts.kinds, &opts.cfg);
    out.write_all(report.render().as_bytes())?;
    out.flush()?;

    let mut failed = false;
    for (label, value) in &opts.asserts {
        match report.check_assertion(label, *value) {
            Ok(()) => note(format_args!("assert ok: {label} cliff at {value}")),
            Err(why) => {
                note(format_args!("assert FAILED: {why}"));
                failed = true;
            }
        }
    }
    for (label, value) in &opts.asserts_gt {
        match report.check_assertion_exceeds(label, *value) {
            Ok(()) => note(format_args!("assert ok: {label} cliff beyond {value}")),
            Err(why) => {
                note(format_args!("assert FAILED: {why}"));
                failed = true;
            }
        }
    }
    if failed {
        return Err(RunError::Failed(String::new()));
    }
    Ok(())
}
