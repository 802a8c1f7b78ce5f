//! Figure 8: distribution of branches best predicted using global
//! correlation (the better of interference-free gshare and the 3-branch
//! selective history), the per-address class predictors of §4.1, or an
//! ideal static predictor — weighted by execution frequency.

use bp_core::{best_of, per_branch_max, Contender};

use crate::fig7::{Labels, Result, Row};
use crate::{Engine, ExperimentConfig};

const LABELS: Labels = Labels {
    title:
        "Figure 8: best of global correlation / per-address / ideal static (% of dynamic branches)",
    contenders: [
        ("global", "Global Best", "global"),
        ("per-address", "Per-Address Best", "per-address"),
    ],
};

/// Runs the figure 8 experiment. Its [`Result::means`] are global /
/// per-address / static, which the paper quotes as 38% / 22% / 40%.
pub fn run(cfg: &ExperimentConfig, engine: &Engine) -> Result {
    let rows = engine.for_each_benchmark(|benchmark| {
        let profile = engine.profile(benchmark);

        // Global contender: IF-gshare or 3-tag selective, per branch.
        let if_gshare = engine.if_gshare(benchmark, cfg.gshare_bits);
        let oracle = engine.oracle(benchmark, &cfg.oracle);
        let global = per_branch_max(&if_gshare, &oracle.selective_stats(3));

        // Per-address contender: best of loop/repeating/IF-PAs.
        let classification = engine.classification(benchmark, &cfg.classifier);
        let per_address = classification.best_per_address_stats();

        let dist = best_of(
            &[
                Contender::new("global", &global),
                Contender::new("per-address", &per_address),
            ],
            &profile,
            0.99,
        );
        Row { benchmark, dist }
    });
    Result {
        labels: &LABELS,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one() {
        let cfg = ExperimentConfig::quick();
        let r = run(&cfg, &crate::test_engine(&cfg));
        for row in &r.rows {
            let sum: f64 = row.dist.iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{:?}", row.benchmark);
        }
    }

    #[test]
    fn static_share_shrinks_vs_fig7() {
        // Figure 8's contenders are (interference-free) strengthenings of
        // figure 7's, so the ideal-static share should not grow materially
        // (paper: 55% -> 40%). Interference occasionally helps a branch by
        // accident, hence the small tolerance.
        let cfg = ExperimentConfig::quick();
        let engine = crate::test_engine(&cfg);
        let f7 = crate::fig7::run(&cfg, &engine);
        let f8 = run(&cfg, &engine);
        let (_, _, s7) = f7.means();
        let (_, _, s8) = f8.means();
        assert!(s8 <= s7 + 0.02, "fig8 static {s8} vs fig7 static {s7}");
    }
}
