//! Figure 5: 3-branch selective-history accuracy as a function of the
//! history length *n* (how far back correlated branches are searched),
//! swept from 8 to 32 in steps of 4.
//!
//! The paper's finding: windows shorter than 12 are limiting, gains flatten
//! past ~20 — the important correlated branches are close by.

use bp_workloads::Benchmark;

use crate::render::{pct, Table};
use crate::{Engine, ExperimentConfig};

/// The swept history lengths, matching the paper's x-axis.
pub const HISTORY_LENGTHS: [usize; 7] = [8, 12, 16, 20, 24, 28, 32];

/// One benchmark's accuracy series over [`HISTORY_LENGTHS`].
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// 3-tag selective accuracy per history length.
    pub accuracy: [f64; 7],
}

/// Full figure 5 result.
#[derive(Debug, Clone)]
pub struct Result {
    /// One row per benchmark, in [`Benchmark::ALL`] order.
    pub rows: Vec<Row>,
}

/// Runs the figure 5 experiment.
///
/// The whole sweep shares one incremental artifact per benchmark
/// ([`Engine::oracle_sweep`]): candidates and outcome matrix are built
/// once at the largest window and each shorter point is derived by
/// masking. The per-point candidate caps are derived once, up front, as a
/// pure function of the sweep spec — both tagging schemes can name up to
/// 2n instances per execution, so a cap below `2n + 16` drops candidates
/// on arbitrary tie-breaks and bends the curve downward. Point n=16 at
/// the default cap coincides with [`ExperimentConfig::default`]'s oracle
/// settings, so that entry is shared with figure 4, table 2, figure 8 and
/// `distance`: `repro` evaluates this figure before them
/// ([`crate::evaluation_order`]), and the sweep builds window 16 once.
pub fn run(cfg: &ExperimentConfig, engine: &Engine) -> Result {
    let caps: Vec<usize> = HISTORY_LENGTHS
        .iter()
        .map(|&n| cfg.oracle.candidate_cap.max(2 * n + 16))
        .collect();
    let rows = engine.for_each_benchmark(|benchmark| {
        let points = engine.oracle_sweep(benchmark, &HISTORY_LENGTHS, &caps, &cfg.oracle);
        let mut accuracy = [0f64; 7];
        for (slot, oracle) in accuracy.iter_mut().zip(&points) {
            *slot = oracle.accuracy(3);
        }
        Row {
            benchmark,
            accuracy,
        }
    });
    Result { rows }
}

impl std::fmt::Display for Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "Figure 5: 3-branch selective-history accuracy vs history length (accuracy %)",
            &[
                "benchmark",
                "n=8",
                "n=12",
                "n=16",
                "n=20",
                "n=24",
                "n=28",
                "n=32",
            ],
        );
        for row in &self.rows {
            let mut cells = vec![row.benchmark.short_name().to_owned()];
            cells.extend(row.accuracy.iter().map(|&a| pct(a)));
            t.row(cells);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workloads::WorkloadConfig;

    #[test]
    fn longer_windows_help_or_hold() {
        let cfg = ExperimentConfig {
            workload: WorkloadConfig::default().with_target(15_000),
            ..ExperimentConfig::default()
        };
        let r = run(&cfg, &crate::test_engine(&cfg));
        for row in &r.rows {
            // The oracle over a longer window sees a superset of candidate
            // tags; small non-monotonicities can appear through counter
            // warmup, but the end of the sweep should not be materially
            // below its start.
            assert!(row.accuracy[6] >= row.accuracy[0] - 0.01, "{:?}", row);
        }
    }
}
