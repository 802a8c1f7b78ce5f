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

use bp_trace::cli::{default_jobs, note, Flag, Flags, RunError, JOBS, SEED};

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

/// Reads a `LABEL=VALUE` cliff assertion.
fn assertion(spec: &str) -> Option<(String, usize)> {
    let (label, value) = spec.rsplit_once('=')?;
    Some((label.to_owned(), value.parse().ok()?))
}

/// A parsed `bp-probe sweep` command line.
#[derive(Debug)]
pub struct Options {
    kinds: Vec<ProbeKind>,
    cfg: ReportConfig,
    /// Each `--assert` (`false`), then each `--assert-gt` (`true`).
    asserts: Vec<(String, usize, bool)>,
}

impl Options {
    /// Parses `bp-probe`'s arguments (without the program name). Every
    /// bound on memory is checked here, so a run never allocates past it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        const FLAGS: &[Flag] = &[
            Flag::value("--rounds"),
            SEED,
            Flag::value("--base"),
            Flag::value("--grid"),
            JOBS,
            Flag::value("--min-drop"),
            Flag::value("--gshare-bits"),
            Flag::value("--pas-history"),
            Flag::value("--assert"),
            Flag::value("--assert-gt"),
        ];
        let flags = Flags::parse(args, FLAGS)?;
        let words = flags.words(2)?;
        let word = |i: usize| words.get(i).map(String::as_str);
        if word(0) != Some("sweep") {
            let why = format!("expected the 'sweep' subcommand, got {:?}", word(0));
            return Err(RunError::Usage(why));
        }
        use ProbeKind::{Aliasing, HistoryLoop, PaddingGlobal, PaddingLocal};
        let kinds = match word(1) {
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
        let sweep = &mut cfg.sweep;
        sweep.rounds = flags
            .value("--rounds", "a positive count", |&n| n >= 1)?
            .unwrap_or(sweep.rounds);
        sweep.seed = flags.seed()?.unwrap_or(sweep.seed);
        let base = flags.get("--base", "'pattern' or 'random'", BaseOutcomes::parse)?;
        sweep.base = base.unwrap_or(sweep.base);
        sweep.jobs = flags.jobs()?.unwrap_or_else(default_jobs);
        let min_drop = flags.value("--min-drop", "a positive percentage-point value", |&f| {
            f > 0.0
        })?;
        sweep.min_drop = min_drop.unwrap_or(sweep.min_drop);
        let history_length = |max: u32| format!("a history length in 1..={max}");
        let gshare_bits = flags.value("--gshare-bits", &history_length(MAX_GSHARE_BITS), |n| {
            (1..=MAX_GSHARE_BITS).contains(n)
        })?;
        cfg.zoo.gshare_bits = gshare_bits.unwrap_or(cfg.zoo.gshare_bits);
        let pas_history = flags.value("--pas-history", &history_length(MAX_PAS_HISTORY), |n| {
            (1..=MAX_PAS_HISTORY).contains(n)
        })?;
        if let Some(n) = pas_history {
            cfg.zoo.pas_bits.0 = n;
            cfg.zoo.if_pas_bits = n;
        }
        let mut asserts = Vec::new();
        for (flag, beyond) in [("--assert", false), ("--assert-gt", true)] {
            let specs = flags.all(flag, "LABEL=VALUE", assertion)?;
            asserts.extend(
                specs
                    .into_iter()
                    .map(|(label, value)| (label, value, beyond)),
            );
        }

        let grid_needs = format!("A..B or A..B:STEP with A <= B <= {MAX_PROBE_RECORDS}, STEP >= 1");
        if let Some(grid) = flags.get("--grid", &grid_needs, parse_grid)? {
            if kinds.len() > 1 && kinds.contains(&ProbeKind::HistoryLoop) {
                let why = "--grid is ambiguous with 'all'; probe one family at a time";
                return Err(RunError::Usage(why.into()));
            }
            for kind in &kinds {
                match kind {
                    ProbeKind::PaddingGlobal | ProbeKind::PaddingLocal => {
                        cfg.padding_grid = grid.clone();
                    }
                    ProbeKind::HistoryLoop => {
                        if grid.first() == Some(&0) {
                            return Err(RunError::Usage("history grid trips must be >= 1".into()));
                        }
                        cfg.history_grid = grid.clone();
                    }
                    ProbeKind::Aliasing => {
                        if grid.last().is_some_and(|&k| k > 28) {
                            return Err(RunError::Usage("aliasing grid bits must be <= 28".into()));
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
            return Err(RunError::Usage(format!(
                "the {} probe at {}={value} would hold {records} records, over the \
                 {MAX_PROBE_RECORDS}-record cap (lower --rounds or --grid)",
                kind.param_family(),
                kind.param()
            )));
        }
        Ok(Options {
            kinds,
            cfg,
            asserts,
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
    for (label, value, beyond) in &opts.asserts {
        match report.check_assertion(label, *value, *beyond) {
            Ok(()) => {
                let relation = if *beyond { "beyond" } else { "at" };
                note(format_args!("assert ok: {label} cliff {relation} {value}"));
            }
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
