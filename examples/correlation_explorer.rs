//! Correlation explorer (paper §3): run the oracle selective-history
//! analysis on a benchmark and show, for the branches with the strongest
//! correlations, *which* prior branch instances predict them.
//!
//! ```text
//! cargo run --release --example correlation_explorer [benchmark]
//! ```

// An example reports to its reader on stdout.
#![allow(clippy::print_stdout)]

use correlation_predictability::core::{OracleConfig, OracleSelector};
use correlation_predictability::trace::TagScheme;
use correlation_predictability::workloads::{Benchmark, WorkloadConfig};

fn main() {
    let benchmark: Benchmark = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("benchmark name"))
        .unwrap_or(Benchmark::Gcc);

    let cfg = WorkloadConfig::default().with_target(120_000);
    println!("generating {benchmark}...");
    let trace = benchmark.generate(&cfg);

    let oracle_cfg = OracleConfig::default();
    println!(
        "oracle selective-history analysis (window {}, greedy search)...\n",
        oracle_cfg.window
    );
    let oracle = OracleSelector::analyze(&trace, &oracle_cfg);

    println!(
        "selective-history accuracy: 1 tag {:.2}%, 2 tags {:.2}%, 3 tags {:.2}%\n",
        oracle.accuracy(1) * 100.0,
        oracle.accuracy(2) * 100.0,
        oracle.accuracy(3) * 100.0
    );

    // Branches where adding correlated instances helps the most: the gap
    // between the 3-tag and 0-information view of the branch.
    let mut rows: Vec<_> = oracle
        .iter()
        .filter(|(_, sel)| sel.executions >= 500)
        .map(|(pc, sel)| {
            let acc = |k: usize| sel.best[k - 1].correct as f64 / sel.executions as f64;
            (pc, sel, acc(3) - acc(1))
        })
        .collect();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));

    println!("branches gaining most from multi-branch correlation:");
    for (pc, sel, gain) in rows.iter().take(8) {
        let acc = |k: usize| sel.best[k - 1].correct as f64 / sel.executions as f64 * 100.0;
        println!(
            "  branch {pc:#x} ({} execs): 1-tag {:.1}% -> 3-tag {:.1}% (+{:.1}pp)",
            sel.executions,
            acc(1),
            acc(3),
            gain * 100.0
        );
        for tag in &sel.best[2].tags {
            let scheme = match tag.scheme {
                TagScheme::Occurrence => "occurrence",
                TagScheme::Iteration => "iteration",
            };
            println!(
                "      correlated with {:#x} [{scheme} #{}]",
                tag.pc, tag.index
            );
        }
    }
}
