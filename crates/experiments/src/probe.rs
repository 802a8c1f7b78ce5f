//! The `probe` pipeline: a fast calibration dump of key predictor
//! accuracies per benchmark (no oracle analysis), for workload tuning.
//!
//! ```text
//! probe [--target N[k|m|b]] [--seed N] [--per-branch] [bench ...]
//! ```

use std::io::Write;

use bp_predictors::{
    simulate, simulate_per_branch, Gshare, GshareInterferenceFree, IdealStatic, Pas,
    PasInterferenceFree, Smith,
};
use bp_trace::{BranchProfile, TraceStats};
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::cli::{workload_flag, RunError};

/// The usage text `probe` prints with a command-line error.
pub fn usage() -> String {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    format!(
        "usage: probe [--target N[k|m|b]] [--seed N] [--per-branch] [bench ...]\nbenchmarks: {}",
        names.join(" ")
    )
}

/// A parsed `probe` command line: the workload, the benchmarks to probe
/// (all when none are named) and whether to print per-branch rows.
#[derive(Debug)]
pub struct Options {
    cfg: WorkloadConfig,
    picks: Vec<Benchmark>,
    per_branch: bool,
}

impl Options {
    /// Parses `probe`'s arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        let mut opts = Options {
            cfg: WorkloadConfig::default().with_target(150_000),
            picks: Vec::new(),
            per_branch: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if workload_flag(&arg, &mut args, &mut opts.cfg).map_err(RunError::Usage)? {
                continue;
            }
            match arg.as_str() {
                "--per-branch" => opts.per_branch = true,
                flag if flag.starts_with('-') => {
                    return Err(RunError::Usage(format!("unknown argument {flag}")))
                }
                name => opts
                    .picks
                    .push(name.parse().map_err(|e| RunError::Usage(format!("{e}")))?),
            }
        }
        if opts.picks.is_empty() {
            opts.picks = Benchmark::ALL.to_vec();
        }
        Ok(opts)
    }
}

/// Writes one summary row per benchmark under a header, or with
/// `--per-branch` one table per benchmark, each flushed to `out` as soon
/// as it is computed.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    if opts.per_branch {
        per_branch_rows(opts, out)
    } else {
        summary_rows(opts, out)
    }
}

/// Per-branch accuracies of gshare, IF-gshare and PAs, one table per
/// benchmark.
fn per_branch_rows(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    for b in &opts.picks {
        let trace = b.generate(&opts.cfg);
        let g = simulate_per_branch(&mut Gshare::new(16), &trace);
        let ig = simulate_per_branch(&mut GshareInterferenceFree::new(16), &trace);
        let p = simulate_per_branch(&mut Pas::default(), &trace);
        let mut rows: Vec<_> = g.iter().collect();
        rows.sort_by_key(|(pc, _)| *pc);
        let mut table = format!(
            "== {} per-branch (pc, execs, gshare%, IFgshare%, pas%)\n",
            b.name()
        );
        for (pc, sg) in rows {
            let sig = ig.get(pc).expect("every simulation sees every branch");
            let sp = p.get(pc).expect("every simulation sees every branch");
            table += &format!(
                "{pc:#x} {:>8} {:>7.2} {:>7.2} {:>7.2}\n",
                sg.predictions,
                sg.accuracy() * 100.0,
                sig.accuracy() * 100.0,
                sp.accuracy() * 100.0
            );
        }
        out.write_all(table.as_bytes())?;
        out.flush()?;
    }
    Ok(())
}

/// One summary row per benchmark under a header.
fn summary_rows(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    writeln!(
        out,
        "{:<9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6}",
        "bench", "smith", "gshare", "IFgsh", "pas", "IFpas", "static", "taken", "dyn", "static#"
    )?;
    out.flush()?;
    for b in &opts.picks {
        let trace = b.generate(&opts.cfg);
        let stats = TraceStats::of(&trace);
        let profile = BranchProfile::of(&trace);
        let acc = |x: f64| format!("{:.2}", x * 100.0);
        writeln!(
            out,
            "{:<9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6}",
            b.name(),
            acc(simulate(&mut Smith::default(), &trace).accuracy()),
            acc(simulate(&mut Gshare::new(16), &trace).accuracy()),
            acc(simulate(&mut GshareInterferenceFree::new(16), &trace).accuracy()),
            acc(simulate(&mut Pas::default(), &trace).accuracy()),
            acc(simulate(&mut PasInterferenceFree::new(12), &trace).accuracy()),
            acc(simulate(&mut IdealStatic::from_profile(&profile), &trace).accuracy()),
            format!("{:.2}", stats.taken_rate() * 100.0),
            stats.dynamic_conditional,
            stats.static_conditional,
        )?;
        out.flush()?;
    }
    Ok(())
}
