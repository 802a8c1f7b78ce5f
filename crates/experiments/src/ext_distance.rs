//! Extension: where do the important correlated branches sit? (§3.6.2
//! quantified.) For the oracle's chosen 1-tag and 3-tag selective
//! histories, measure the distribution of distances from each branch to
//! its correlated instances.

use bp_core::{presence_stats, DistanceHistogram, OutcomeMatrix, TagCandidates};
use bp_workloads::Benchmark;

use crate::render::{pct, Table};
use crate::{Engine, ExperimentConfig};

/// One benchmark's distance profile.
#[derive(Debug, Clone)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Distances of the single most important instance per branch.
    pub one_tag: DistanceHistogram,
    /// Distances across the 3-tag selective histories.
    pub three_tag: DistanceHistogram,
    /// 3-tag selective accuracy with full (ternary) outcomes.
    pub full_accuracy: f64,
    /// 3-tag accuracy with directions discarded — §3.1's in-path
    /// correlation isolated.
    pub presence_accuracy: f64,
    /// Ideal-static accuracy, the floor both sit on.
    pub static_accuracy: f64,
}

/// Full extension result.
#[derive(Debug, Clone)]
pub struct Result {
    /// One row per benchmark, in [`Benchmark::ALL`] order.
    pub rows: Vec<Row>,
}

/// Runs the distance analysis.
pub fn run(cfg: &ExperimentConfig, engine: &Engine) -> Result {
    let rows = engine.for_each_benchmark(|benchmark| {
        let trace = engine.trace(benchmark);
        // The oracle selection comes from the shared cache (it is the same
        // analysis figure 4 and table 2 use); the presence-only re-scoring
        // reads only the chosen tags' columns, so only those are built.
        let oracle = engine.oracle(benchmark, &cfg.oracle);
        let chosen = TagCandidates::chosen(&oracle);
        let matrix = OutcomeMatrix::build(&trace, &chosen, cfg.oracle.window);
        let presence = presence_stats(&matrix, &oracle, 3, cfg.oracle.counter);
        let profile = engine.profile(benchmark);
        Row {
            benchmark,
            one_tag: DistanceHistogram::measure(&trace, &oracle, 1, cfg.oracle.window),
            three_tag: DistanceHistogram::measure(&trace, &oracle, 3, cfg.oracle.window),
            full_accuracy: oracle.accuracy(3),
            presence_accuracy: presence.total().accuracy(),
            static_accuracy: profile.ideal_static_accuracy(),
        }
    });
    Result { rows }
}

impl std::fmt::Display for Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "Extension: distance to (and information in) the oracle-chosen correlated branches",
            &[
                "benchmark",
                "1-tag mean",
                "1-tag ≤8 (%)",
                "3-tag mean",
                "3-tag ≤8 (%)",
                "not-in-path (%)",
                "ternary acc",
                "presence-only acc",
                "static acc",
            ],
        );
        for row in &self.rows {
            t.row(vec![
                row.benchmark.short_name().to_owned(),
                format!("{:.1}", row.one_tag.mean_distance()),
                pct(row.one_tag.fraction_within(8)),
                format!("{:.1}", row.three_tag.mean_distance()),
                pct(row.three_tag.fraction_within(8)),
                pct(row.three_tag.not_in_path_fraction()),
                pct(row.full_accuracy),
                pct(row.presence_accuracy),
                pct(row.static_accuracy),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlated_branches_are_close() {
        // The §3.6.2 claim itself: most chosen instances sit within half
        // the window.
        let cfg = ExperimentConfig::quick();
        let r = run(&cfg, &crate::test_engine(&cfg));
        assert_eq!(r.rows.len(), 8);
        let mut close = 0;
        for row in &r.rows {
            assert!(row.one_tag.total() > 0);
            if row.one_tag.fraction_within(cfg.oracle.window / 2) > 0.5 {
                close += 1;
            }
        }
        assert!(
            close >= 6,
            "only {close}/8 benchmarks have close correlation"
        );
        assert!(r.to_string().contains("1-tag mean"));
        for row in &r.rows {
            // Discarding directions can only lose information; knowing the
            // path can only add over a static prediction (both up to
            // counter-warmup noise).
            assert!(
                row.presence_accuracy <= row.full_accuracy + 0.01,
                "{:?}",
                row.benchmark
            );
            assert!(
                row.presence_accuracy >= row.static_accuracy - 0.03,
                "{:?}",
                row.benchmark
            );
        }
    }
}
