//! The `ablate` pipeline: the accuracy side of the design ablations
//! (DESIGN.md §5): oracle search strategy, tagging schemes, counter
//! configuration, hybrid selector sizing and trace-length sensitivity.
//!
//! ```text
//! ablate [--target N[k|m|b]] [--seed N]
//! ```

use std::io::Write;

use bp_core::{OracleConfig, OracleSelector, OutcomeMatrix, SearchStrategy, TagCandidates};
use bp_predictors::{simulate, Gshare, Hybrid, Pas, SaturatingCounter};
use bp_trace::cli::RunError;
use bp_trace::TagScheme;
use bp_workloads::{Benchmark, WorkloadConfig};

use crate::cli::workload_flag;

/// The usage text `ablate` prints with a command-line error or `--help`.
pub fn usage() -> String {
    "usage: ablate [--target N[k|m|b]] [--seed N]".to_owned()
}

/// A parsed `ablate` command line: the workload every ablation runs on.
#[derive(Debug)]
pub struct Options(WorkloadConfig);

impl Options {
    /// Parses `ablate`'s arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, RunError> {
        let mut cfg = WorkloadConfig::default().with_target(60_000);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(RunError::Help);
            }
            if !workload_flag(&arg, &mut args, &mut cfg).map_err(RunError::Usage)? {
                return Err(RunError::Usage(format!("unknown argument {arg}")));
            }
        }
        Ok(Options(cfg))
    }
}

/// Runs the five ablations, writing each section to `out` as soon as it
/// is done.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), RunError> {
    let cfg = &opts.0;
    let pct = |x: f64| format!("{:.2}", x * 100.0);
    let mut section = String::new();

    // ---- 1. Oracle search strategy: greedy vs exhaustive --------------
    section.push_str("## Ablation 1: oracle subset search (3-tag selective accuracy %)\n");
    section += &format!("{:<10} {:>8} {:>11}\n", "bench", "greedy", "exhaustive");
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
        section += &format!(
            "{:<10} {:>8} {:>11}\n",
            b.name(),
            pct(greedy.accuracy(3)),
            pct(exhaustive.accuracy(3))
        );
    }

    out.write_all(std::mem::take(&mut section).as_bytes())?;
    out.flush()?;

    // ---- 2. Tagging schemes (§3.2) -------------------------------------
    section.push_str("\n## Ablation 2: instance tagging schemes (3-tag selective accuracy %)\n");
    section += &format!(
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
        section += &format!(
            "{:<10} {:>11} {:>10} {:>6}\n",
            b.name(),
            row[0],
            row[1],
            row[2]
        );
    }

    out.write_all(std::mem::take(&mut section).as_bytes())?;
    out.flush()?;

    // ---- 3. Counter width / initialization -----------------------------
    section.push_str("\n## Ablation 3: gshare counter configuration (accuracy %)\n");
    section += &format!(
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
        section += &format!(
            "{:<10} {:>6} {:>6} {:>6} {:>9} {:>9}\n",
            b.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }

    out.write_all(std::mem::take(&mut section).as_bytes())?;
    out.flush()?;

    // ---- 4. Hybrid selector sizing --------------------------------------
    section.push_str("\n## Ablation 4: hybrid (gshare+PAs) selector table size (accuracy %)\n");
    section += &format!(
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9}\n",
        "bench", "sel=4", "sel=8", "sel=12", "sel=16", "best-comp"
    );
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
        section += &format!(
            "{:<10} {:>7} {:>7} {:>7} {:>7} {:>9}\n",
            b.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            pct(best)
        );
    }

    out.write_all(std::mem::take(&mut section).as_bytes())?;
    out.flush()?;

    // ---- 5. Trace-length sensitivity ------------------------------------
    section.push_str("\n## Ablation 5: gshare accuracy vs trace length (%)\n");
    section += &format!("{:<10}", "bench");
    let scales = [1usize, 2, 4];
    for s in scales {
        section += &format!(" {:>9}", format!("x{s}"));
    }
    section.push('\n');
    for b in [Benchmark::Gcc, Benchmark::Go, Benchmark::Vortex] {
        section += &format!("{:<10}", b.name());
        for s in scales {
            let t = b.generate(&cfg.with_target(cfg.target_branches * s));
            section += &format!(
                " {:>9}",
                pct(simulate(&mut Gshare::default(), &t).accuracy())
            );
        }
        section.push('\n');
    }
    out.write_all(section.as_bytes())?;
    out.flush()?;
    Ok(())
}
