//! Quickstart: generate a synthetic workload and race the classic
//! predictors on it.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark] [branches]
//! ```

// An example reports to its reader on stdout.
#![allow(clippy::print_stdout)]

use correlation_predictability::core::CostModel;
use correlation_predictability::predictors::{
    simulate, BackwardTaken, Gshare, Hybrid, IdealStatic, Pas, Predictor, Smith, StaticTaken,
};
use correlation_predictability::trace::BranchProfile;
use correlation_predictability::workloads::{Benchmark, WorkloadConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let benchmark: Benchmark = args
        .next()
        .map(|s| s.parse().expect("benchmark name (e.g. gcc, go, perl)"))
        .unwrap_or(Benchmark::Gcc);
    let target: usize = args
        .next()
        .map(|s| s.parse().expect("branch count"))
        .unwrap_or(200_000);

    let cfg = WorkloadConfig::default().with_target(target);
    println!("generating {benchmark} (~{target} conditional branches)...");
    let trace = benchmark.generate(&cfg);
    let profile = BranchProfile::of(&trace);
    println!(
        "{} dynamic conditional branches over {} static sites\n",
        profile.dynamic_count(),
        profile.static_count()
    );

    // Every predictor starts cold and is trained in trace order, exactly
    // like the paper's trace-driven simulator.
    let mut predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(StaticTaken),
        Box::new(BackwardTaken),
        Box::new(IdealStatic::from_profile(&profile)),
        Box::new(Smith::default()),
        Box::new(Gshare::default()),
        Box::new(Pas::default()),
        Box::new(Hybrid::new(Gshare::default(), Pas::default(), 12)),
    ];

    let cost = CostModel::default();
    println!(
        "{:<34} {:>8} {:>8} {:>9}",
        "predictor", "accuracy", "MPKB", "est. CPI"
    );
    for predictor in &mut predictors {
        let stats = simulate(predictor.as_mut(), &trace);
        println!(
            "{:<34} {:>7.2}% {:>8.1} {:>9.3}",
            predictor.name(),
            stats.accuracy_pct(),
            CostModel::mpkb(&stats),
            cost.cpi(&stats),
        );
    }
}
