//! Per-address predictability classes (paper §4): classify every branch of
//! a benchmark as ideal-static / loop / repeating-pattern / non-repeating,
//! and show an exemplar of each class.
//!
//! ```text
//! cargo run --release --example classify_branches [benchmark]
//! ```

// An example reports to its reader on stdout.
#![allow(clippy::print_stdout)]

use correlation_predictability::core::{Classifier, ClassifierConfig, PaClass};
use correlation_predictability::trace::BranchProfile;
use correlation_predictability::workloads::{Benchmark, WorkloadConfig};

fn main() {
    let benchmark: Benchmark = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("benchmark name"))
        .unwrap_or(Benchmark::M88ksim);

    let cfg = WorkloadConfig::default().with_target(150_000);
    println!("generating {benchmark}...");
    let trace = benchmark.generate(&cfg);
    let profile = BranchProfile::of(&trace);

    let classification = Classifier::classify(&trace, &ClassifierConfig::default());
    let dist = classification.dynamic_distribution();

    println!("\nclass distribution (dynamically weighted):");
    for class in PaClass::ALL {
        println!("  {:<22} {:>5.1}%", class.label(), dist[&class] * 100.0);
    }
    println!(
        "  of the ideal-static class, {:.0}% of dynamic branches are >99% biased",
        classification.static_class_bias_fraction(&profile, 0.99) * 100.0
    );

    println!("\nexemplars (heaviest branch of each class):");
    for class in PaClass::ALL {
        let best = classification
            .iter()
            .filter(|(_, s)| s.class() == class)
            .max_by_key(|(_, s)| s.executions);
        match best {
            Some((pc, s)) => {
                let pct = |correct: u64| correct as f64 / s.executions as f64 * 100.0;
                println!(
                    "  {:<22} {pc:#x}: {} execs | static {:.1}% loop {:.1}% \
                     repeat {:.1}% (best k={}) pas {:.1}%",
                    class.label(),
                    s.executions,
                    pct(s.static_correct),
                    pct(s.loop_correct),
                    pct(s.repeating_correct()),
                    s.best_period,
                    pct(s.pas_correct),
                );
            }
            None => println!("  {:<22} (no branch in this class)", class.label()),
        }
    }
}
