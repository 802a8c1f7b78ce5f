//! `ablate` — accuracy side of the design ablations (DESIGN.md §5):
//! oracle search strategy, tagging schemes, counter configuration, and
//! trace-length sensitivity.
//!
//! ```text
//! ablate [--target N[k|m|b]] [--seed N]
//! ```

use std::process::ExitCode;

use bp_core::{OracleConfig, OracleSelector, OutcomeMatrix, SearchStrategy, TagCandidates};
use bp_experiments::cli::{emit, workload_flag};
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
    run(&cfg).err().unwrap_or(ExitCode::SUCCESS)
}

/// Runs the five ablations, writing each section as soon as it is done.
fn run(cfg: &WorkloadConfig) -> Result<(), ExitCode> {
    let pct = |x: f64| format!("{:.2}", x * 100.0);
    let mut out = String::new();

    // ---- 1. Oracle search strategy: greedy vs exhaustive --------------
    out.push_str("## Ablation 1: oracle subset search (3-tag selective accuracy %)\n");
    out += &format!("{:<10} {:>8} {:>11}\n", "bench", "greedy", "exhaustive");
    for b in [Benchmark::Gcc, Benchmark::Go, Benchmark::Perl] {
        let trace = b.generate(cfg);
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
        out += &format!(
            "{:<10} {:>8} {:>11}\n",
            b.name(),
            pct(greedy.accuracy(3)),
            pct(exhaustive.accuracy(3))
        );
    }

    emit(&std::mem::take(&mut out))?;

    // ---- 2. Tagging schemes (§3.2) -------------------------------------
    out.push_str("\n## Ablation 2: instance tagging schemes (3-tag selective accuracy %)\n");
    out += &format!(
        "{:<10} {:>11} {:>10} {:>6}\n",
        "bench", "occurrence", "iteration", "both"
    );
    for b in [Benchmark::M88ksim, Benchmark::Gcc, Benchmark::Xlisp] {
        let trace = b.generate(cfg);
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
        out += &format!(
            "{:<10} {:>11} {:>10} {:>6}\n",
            b.name(),
            row[0],
            row[1],
            row[2]
        );
    }

    emit(&std::mem::take(&mut out))?;

    // ---- 3. Counter width / initialization -----------------------------
    out.push_str("\n## Ablation 3: gshare counter configuration (accuracy %)\n");
    out += &format!(
        "{:<10} {:>6} {:>6} {:>6} {:>9} {:>9}\n",
        "bench", "1-bit", "2-bit", "3-bit", "2b-taken", "2b-ntaken"
    );
    for b in Benchmark::ALL {
        let trace = b.generate(cfg);
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
        out += &format!(
            "{:<10} {:>6} {:>6} {:>6} {:>9} {:>9}\n",
            b.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }

    emit(&std::mem::take(&mut out))?;

    // ---- 4. Hybrid selector sizing --------------------------------------
    out.push_str("\n## Ablation 4: hybrid (gshare+PAs) selector table size (accuracy %)\n");
    out += &format!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9}\n",
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
            let trace = b.generate(cfg);
            let mut cells = Vec::new();
            for bits in [4u32, 8, 12, 16] {
                let mut h = Hybrid::new(Gshare::new(16), Pas::default(), bits);
                cells.push(pct(simulate(&mut h, &trace).accuracy()));
            }
            let best = simulate(&mut Gshare::new(16), &trace)
                .accuracy()
                .max(simulate(&mut Pas::default(), &trace).accuracy());
            out += &format!(
                "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9}\n",
                b.name(),
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                pct(best)
            );
        }
    }

    emit(&std::mem::take(&mut out))?;

    // ---- 5. Trace-length sensitivity ------------------------------------
    out.push_str("\n## Ablation 5: gshare accuracy vs trace length (%)\n");
    out += &format!("{:<10}", "bench");
    let scales = [1usize, 2, 4];
    for s in scales {
        out += &format!(" {:>9}", format!("x{s}"));
    }
    out.push('\n');
    for b in [Benchmark::Gcc, Benchmark::Go, Benchmark::Vortex] {
        out += &format!("{:<10}", b.name());
        for s in scales {
            let t = b.generate(&cfg.with_target(cfg.target_branches * s));
            out += &format!(
                " {:>9}",
                pct(simulate(&mut Gshare::default(), &t).accuracy())
            );
        }
        out.push('\n');
    }
    emit(&out)
}
