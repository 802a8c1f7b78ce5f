//! Does the oracle's choice of correlated branches *generalize*?
//!
//! The paper's selective-history predictor is an oracle: it picks each
//! branch's most important correlated instances a posteriori, on the same
//! trace it is scored on. This example splits a workload trace in half,
//! lets the oracle choose tags on the **training** half, then runs the
//! *runtime* [`SelectivePredictor`] on the **test** half — measuring how
//! much of the oracle's advantage survives out-of-sample, with gshare as
//! the reference on both halves.
//!
//! ```text
//! cargo run --release --example selective_live [benchmark]
//! ```

// An example reports to its reader on stdout.
#![allow(clippy::print_stdout)]

use correlation_predictability::core::{OracleConfig, OracleSelector, SelectivePredictor};
use correlation_predictability::predictors::{simulate, Gshare};
use correlation_predictability::workloads::{Benchmark, WorkloadConfig};

fn main() {
    let benchmark: Benchmark = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("benchmark name"))
        .unwrap_or(Benchmark::Gcc);

    let cfg = WorkloadConfig::default().with_target(200_000);
    println!("generating {benchmark}...");
    let full = benchmark.generate(&cfg);
    let mid = full.len() / 2;
    let train = full.slice(0, mid);
    let test = full.slice(mid, full.len());

    let oracle_cfg = OracleConfig::default();
    println!("choosing correlated branches on the first half...");
    let oracle = OracleSelector::analyze(&train, &oracle_cfg);

    println!("\n{:<28} {:>9} {:>9}", "", "train", "test");
    for k in 1..=3 {
        // In-sample: the oracle's own score. Out-of-sample: a fresh
        // runtime selective predictor over the unseen half.
        let train_acc = oracle.accuracy(k);
        let mut live = SelectivePredictor::from_oracle(&oracle, k, &oracle_cfg);
        let test_acc = simulate(&mut live, &test).accuracy();
        println!(
            "{:<28} {:>8.2}% {:>8.2}%",
            format!("selective history ({k} tag)"),
            train_acc * 100.0,
            test_acc * 100.0
        );
    }
    let gshare_train = simulate(&mut Gshare::default(), &train).accuracy();
    let gshare_test = simulate(&mut Gshare::default(), &test).accuracy();
    println!(
        "{:<28} {:>8.2}% {:>8.2}%",
        "gshare (for reference)",
        gshare_train * 100.0,
        gshare_test * 100.0
    );
    println!(
        "\nIf the test column tracks the train column, the oracle's tag\n\
         choices reflect stable program structure rather than overfitting."
    );
}
