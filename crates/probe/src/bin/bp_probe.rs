//! `bp-probe` — black-box capacity/aliasing probing of the predictor zoo.
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
//! Stdout is a deterministic report (accuracy tables, cliff tables,
//! ASCII curves) — identical for every `--jobs` value, so CI diffs it
//! and commits it as a golden. Timings and thread counts go to stderr.
//! A stdout that cannot be written is an `error:` line and exit 1.
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

use std::process::ExitCode;

use bp_experiments::cli::emit;
use bp_probe::{parse_grid, run_probes, BaseOutcomes, ProbeKind, ReportConfig, MAX_PROBE_RECORDS};

/// Largest `--gshare-bits`: a 2^24-counter PHT of 2-byte counters is
/// 32 MiB.
const MAX_GSHARE_BITS: u32 = 24;
/// Largest `--pas-history`: PAs's 16 PHTs of 2^20 two-byte counters are
/// 32 MiB.
const MAX_PAS_HISTORY: u32 = 20;

fn usage() {
    eprintln!(
        "usage: bp-probe sweep <padding|history|aliasing|all>\n       \
         [--rounds N] [--seed N] [--base pattern|random] [--grid A..B[:STEP]]\n       \
         [--jobs N] [--min-drop PP] [--gshare-bits N] [--pas-history N]\n       \
         [--assert LABEL=VALUE]... [--assert-gt LABEL=VALUE]...\n\
         bounds: --gshare-bits 1..={MAX_GSHARE_BITS} and --pas-history 1..={MAX_PAS_HISTORY} \
         (each zoo table at most 32 MiB);\n        \
         at most {MAX_PROBE_RECORDS} records per probe trace: rounds x (pads + 2) for \
         padding,\n        about max(rounds, 64 x (trip + 1)) for history, 2 x rounds \
         for aliasing"
    );
}

fn kinds_for(family: &str) -> Option<Vec<ProbeKind>> {
    match family {
        "padding" => Some(vec![ProbeKind::PaddingGlobal, ProbeKind::PaddingLocal]),
        "history" => Some(vec![ProbeKind::HistoryLoop]),
        "aliasing" => Some(vec![ProbeKind::Aliasing]),
        "all" => Some(vec![
            ProbeKind::PaddingGlobal,
            ProbeKind::PaddingLocal,
            ProbeKind::HistoryLoop,
            ProbeKind::Aliasing,
        ]),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("sweep") => {}
        Some("--help" | "-h") => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: expected the 'sweep' subcommand, got {other:?}");
            usage();
            return ExitCode::FAILURE;
        }
    }
    let Some(kinds) = args.next().as_deref().and_then(kinds_for) else {
        eprintln!("error: sweep needs a probe family: padding, history, aliasing, or all");
        usage();
        return ExitCode::FAILURE;
    };

    let mut cfg = ReportConfig::default();
    cfg.sweep.jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut grid_override: Option<Vec<usize>> = None;
    let mut asserts: Vec<(String, usize)> = Vec::new();
    let mut asserts_gt: Vec<(String, usize)> = Vec::new();
    macro_rules! bail {
        ($($msg:tt)*) => {{
            eprintln!("error: {}", format_args!($($msg)*));
            usage();
            return ExitCode::FAILURE;
        }};
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.sweep.rounds = n,
                _ => bail!("--rounds needs a positive count"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.sweep.seed = n,
                None => bail!("--seed needs an unsigned integer"),
            },
            "--base" => match args.next().as_deref().and_then(BaseOutcomes::parse) {
                Some(b) => cfg.sweep.base = b,
                None => bail!("--base needs 'pattern' or 'random'"),
            },
            "--grid" => match args.next().map(|v| parse_grid(&v)) {
                Some(Ok(grid)) => grid_override = Some(grid),
                Some(Err(e)) => bail!("{e}"),
                None => bail!("--grid needs A..B or A..B:STEP"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.sweep.jobs = n,
                _ => bail!("--jobs needs a positive thread count"),
            },
            "--min-drop" => match args.next().and_then(|v| v.parse().ok()) {
                Some(f) if f > 0.0 => cfg.sweep.min_drop = f,
                _ => bail!("--min-drop needs a positive percentage-point value"),
            },
            "--gshare-bits" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_GSHARE_BITS).contains(&n) => cfg.zoo.gshare_bits = n,
                _ => bail!("--gshare-bits needs a history length in 1..={MAX_GSHARE_BITS}"),
            },
            "--pas-history" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_PAS_HISTORY).contains(&n) => {
                    cfg.zoo.pas_bits.0 = n;
                    cfg.zoo.if_pas_bits = n;
                }
                _ => bail!("--pas-history needs a history length in 1..={MAX_PAS_HISTORY}"),
            },
            "--assert" => match args.next() {
                Some(spec) => match spec.rsplit_once('=') {
                    Some((label, value)) => match value.parse() {
                        Ok(v) => asserts.push((label.to_owned(), v)),
                        Err(_) => bail!("bad --assert value in '{spec}'"),
                    },
                    None => bail!("--assert needs LABEL=VALUE"),
                },
                None => bail!("--assert needs LABEL=VALUE"),
            },
            "--assert-gt" => match args.next() {
                Some(spec) => match spec.rsplit_once('=') {
                    Some((label, value)) => match value.parse() {
                        Ok(v) => asserts_gt.push((label.to_owned(), v)),
                        Err(_) => bail!("bad --assert-gt value in '{spec}'"),
                    },
                    None => bail!("--assert-gt needs LABEL=VALUE"),
                },
                None => bail!("--assert-gt needs LABEL=VALUE"),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => bail!("unknown argument '{other}'"),
        }
    }
    if let Some(grid) = grid_override {
        if kinds.len() > 1 && kinds.contains(&ProbeKind::HistoryLoop) {
            bail!("--grid is ambiguous with 'all'; probe one family at a time");
        }
        for kind in &kinds {
            match kind {
                ProbeKind::PaddingGlobal | ProbeKind::PaddingLocal => {
                    cfg.padding_grid = grid.clone();
                }
                ProbeKind::HistoryLoop => {
                    if grid.first() == Some(&0) {
                        bail!("history grid trips must be >= 1");
                    }
                    cfg.history_grid = grid.clone();
                }
                ProbeKind::Aliasing => {
                    if grid.last().is_some_and(|&k| k > 28) {
                        bail!("aliasing grid bits must be <= 28");
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
        bail!(
            "the {} probe at {}={value} would hold {records} records, over the \
             {MAX_PROBE_RECORDS}-record cap (lower --rounds or --grid)",
            kind.param_family(),
            kind.param()
        );
    }

    let report = run_probes(&kinds, &cfg);
    if let Err(code) = emit(&report.render()) {
        return code;
    }

    let mut failed = false;
    for (label, value) in &asserts {
        match report.check_assertion(label, *value) {
            Ok(()) => eprintln!("assert ok: {label} cliff at {value}"),
            Err(why) => {
                eprintln!("assert FAILED: {why}");
                failed = true;
            }
        }
    }
    for (label, value) in &asserts_gt {
        match report.check_assertion_exceeds(label, *value) {
            Ok(()) => eprintln!("assert ok: {label} cliff beyond {value}"),
            Err(why) => {
                eprintln!("assert FAILED: {why}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
