//! `probe` — fast calibration dump: key predictor accuracies per benchmark
//! (no oracle analysis), for workload tuning.
//!
//! ```text
//! probe [--target N[k|m|b]] [--seed N] [--per-branch] [bench ...]
//! ```

use std::process::ExitCode;

use bp_experiments::cli::workload_flag;
use bp_predictors::{
    simulate, Gshare, GshareInterferenceFree, IdealStatic, Pas, PasInterferenceFree, Smith,
};
use bp_trace::{BranchProfile, TraceStats};
use bp_workloads::{Benchmark, WorkloadConfig};

fn usage() {
    eprintln!("usage: probe [--target N[k|m|b]] [--seed N] [--per-branch] [bench ...]");
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    eprintln!("benchmarks: {}", names.join(" "));
}

/// The workload, the benchmarks to probe (all when none are named) and
/// whether to print per-branch rows.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(WorkloadConfig, Vec<Benchmark>, bool), String> {
    let mut cfg = WorkloadConfig::default().with_target(150_000);
    let mut picks: Vec<Benchmark> = Vec::new();
    let mut per_branch = false;
    while let Some(arg) = args.next() {
        if workload_flag(&arg, &mut args, &mut cfg)? {
            continue;
        }
        match arg.as_str() {
            "--per-branch" => per_branch = true,
            flag if flag.starts_with('-') => return Err(format!("unknown argument {flag}")),
            name => picks.push(name.parse().map_err(|e| format!("{e}"))?),
        }
    }
    if picks.is_empty() {
        picks = Benchmark::ALL.to_vec();
    }
    Ok((cfg, picks, per_branch))
}

fn main() -> ExitCode {
    let (cfg, picks, per_branch) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    if per_branch {
        use bp_predictors::simulate_per_branch;
        for b in &picks {
            let trace = b.generate(&cfg);
            let g = simulate_per_branch(&mut Gshare::new(16), &trace);
            let ig = simulate_per_branch(&mut GshareInterferenceFree::new(16), &trace);
            let p = simulate_per_branch(&mut Pas::default(), &trace);
            let mut rows: Vec<_> = g.iter().collect();
            rows.sort_by_key(|(pc, _)| *pc);
            println!(
                "== {} per-branch (pc, execs, gshare%, IFgshare%, pas%)",
                b.name()
            );
            for (pc, sg) in rows {
                let sig = ig.get(pc).unwrap();
                let sp = p.get(pc).unwrap();
                println!(
                    "{pc:#x} {:>8} {:>7.2} {:>7.2} {:>7.2}",
                    sg.predictions,
                    sg.accuracy() * 100.0,
                    sig.accuracy() * 100.0,
                    sp.accuracy() * 100.0
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "{:<9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6}",
        "bench", "smith", "gshare", "IFgsh", "pas", "IFpas", "static", "taken", "dyn", "static#"
    );
    for b in picks {
        let trace = b.generate(&cfg);
        let stats = TraceStats::of(&trace);
        let profile = BranchProfile::of(&trace);
        let acc = |x: f64| format!("{:.2}", x * 100.0);
        println!(
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
        );
    }
    ExitCode::SUCCESS
}
