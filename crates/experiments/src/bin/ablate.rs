//! `ablate` — accuracy side of the design ablations (DESIGN.md §5):
//! oracle search strategy, tagging schemes, counter configuration, and
//! trace-length sensitivity.
//!
//! ```text
//! ablate [--target N[k|m|b]] [--seed N]
//! ```

use std::process::ExitCode;

use bp_core::{OracleConfig, OracleSelector, OutcomeMatrix, SearchStrategy, TagCandidates};
use bp_experiments::cli::workload_flag;
use bp_predictors::{simulate, Gshare, SaturatingCounter};
use bp_trace::TagScheme;
use bp_workloads::{Benchmark, WorkloadConfig};

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<WorkloadConfig, String> {
    let mut cfg = WorkloadConfig::default().with_target(60_000);
    while let Some(arg) = args.next() {
        if !workload_flag(&arg, &mut args, &mut cfg)? {
            return Err(format!("unknown argument {arg}"));
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: ablate [--target N[k|m|b]] [--seed N]");
            return ExitCode::FAILURE;
        }
    };
    let pct = |x: f64| format!("{:.2}", x * 100.0);

    // ---- 1. Oracle search strategy: greedy vs exhaustive --------------
    println!("## Ablation 1: oracle subset search (3-tag selective accuracy %)");
    println!("{:<10} {:>8} {:>11}", "bench", "greedy", "exhaustive");
    for b in [Benchmark::Gcc, Benchmark::Go, Benchmark::Perl] {
        let trace = b.generate(&cfg);
        let base = OracleConfig {
            candidate_cap: 14,
            ..OracleConfig::default()
        };
        let cands = TagCandidates::collect(&trace, base.window, base.candidate_cap);
        let matrix = OutcomeMatrix::build(&trace, &cands, base.window);
        let greedy = OracleSelector::analyze_matrix(&matrix, &base);
        let exhaustive = OracleSelector::analyze_matrix(
            &matrix,
            &OracleConfig {
                search: SearchStrategy::Exhaustive { max_candidates: 14 },
                ..base
            },
        );
        println!(
            "{:<10} {:>8} {:>11}",
            b.name(),
            pct(greedy.accuracy(3)),
            pct(exhaustive.accuracy(3))
        );
    }

    // ---- 2. Tagging schemes (§3.2) -------------------------------------
    println!("\n## Ablation 2: instance tagging schemes (3-tag selective accuracy %)");
    println!(
        "{:<10} {:>11} {:>10} {:>6}",
        "bench", "occurrence", "iteration", "both"
    );
    for b in [Benchmark::M88ksim, Benchmark::Gcc, Benchmark::Xlisp] {
        let trace = b.generate(&cfg);
        let mut row = Vec::new();
        for schemes in [
            &[TagScheme::Occurrence][..],
            &[TagScheme::Iteration][..],
            &TagScheme::ALL[..],
        ] {
            let cands = TagCandidates::collect_with_schemes(&trace, 16, 32, schemes);
            let matrix = OutcomeMatrix::build(&trace, &cands, 16);
            let oracle = OracleSelector::analyze_matrix(&matrix, &OracleConfig::default());
            row.push(pct(oracle.accuracy(3)));
        }
        println!(
            "{:<10} {:>11} {:>10} {:>6}",
            b.name(),
            row[0],
            row[1],
            row[2]
        );
    }

    // ---- 3. Counter width / initialization -----------------------------
    println!("\n## Ablation 3: gshare counter configuration (accuracy %)");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>9} {:>9}",
        "bench", "1-bit", "2-bit", "3-bit", "2b-taken", "2b-ntaken"
    );
    for b in Benchmark::ALL {
        let trace = b.generate(&cfg);
        let mut cells = Vec::new();
        for counter in [
            SaturatingCounter::weakly_taken(1),
            SaturatingCounter::weakly_taken(2),
            SaturatingCounter::weakly_taken(3),
            SaturatingCounter::weakly_taken(2),
            SaturatingCounter::weakly_not_taken(2),
        ] {
            let mut p = Gshare::with_counter(16, counter);
            cells.push(pct(simulate(&mut p, &trace).accuracy()));
        }
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>9} {:>9}",
            b.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }

    // ---- 4. Hybrid selector sizing --------------------------------------
    println!("\n## Ablation 4: hybrid (gshare+PAs) selector table size (accuracy %)");
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "bench", "sel=4", "sel=8", "sel=12", "sel=16", "best-comp"
    );
    {
        use bp_predictors::{Hybrid, Pas};
        for b in [
            Benchmark::Gcc,
            Benchmark::Go,
            Benchmark::Xlisp,
            Benchmark::Perl,
        ] {
            let trace = b.generate(&cfg);
            let mut cells = Vec::new();
            for bits in [4u32, 8, 12, 16] {
                let mut h = Hybrid::new(Gshare::new(16), Pas::default(), bits);
                cells.push(pct(simulate(&mut h, &trace).accuracy()));
            }
            let best = simulate(&mut Gshare::new(16), &trace)
                .accuracy()
                .max(simulate(&mut Pas::default(), &trace).accuracy());
            println!(
                "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9}",
                b.name(),
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                pct(best)
            );
        }
    }

    // ---- 5. Trace-length sensitivity ------------------------------------
    println!("\n## Ablation 5: gshare accuracy vs trace length (%)");
    print!("{:<10}", "bench");
    let scales = [1usize, 2, 4];
    for s in scales {
        print!(" {:>9}", format!("x{s}"));
    }
    println!();
    for b in [Benchmark::Gcc, Benchmark::Go, Benchmark::Vortex] {
        print!("{:<10}", b.name());
        for s in scales {
            let t = b.generate(&cfg.with_target(cfg.target_branches * s));
            print!(
                " {:>9}",
                pct(simulate(&mut Gshare::default(), &t).accuracy())
            );
        }
        println!();
    }
    ExitCode::SUCCESS
}
