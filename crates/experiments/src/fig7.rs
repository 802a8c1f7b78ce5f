//! Figure 7: distribution of branches best predicted by gshare, PAs, or an
//! ideal static predictor, weighted by execution frequency.

use bp_core::{best_of, BestOfDistribution, Contender, IDEAL_STATIC_NAME};
use bp_workloads::Benchmark;

use crate::render::{pct0, Table};
use crate::{Engine, ExperimentConfig};

/// One benchmark's best-of distribution.
#[derive(Debug, Clone)]
pub struct Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The distribution over the two contenders and the ideal static
    /// predictor.
    pub dist: BestOfDistribution,
}

/// The strings that tell one three-way best-of figure from another.
#[derive(Debug)]
pub struct Labels {
    /// The table's title.
    pub title: &'static str,
    /// Each contender's name in the distribution, its column heading and
    /// its word in the legend.
    pub contenders: [(&'static str, &'static str, &'static str); 2],
}

/// A three-way best-of figure: per benchmark, the share of dynamic
/// branches that each of two contenders or the ideal static predictor
/// predicts best. Figure 8 is this figure with stronger contenders.
#[derive(Debug, Clone)]
pub struct Result {
    /// The figure's title and contenders.
    pub labels: &'static Labels,
    /// One row per benchmark, in [`Benchmark::ALL`] order.
    pub rows: Vec<Row>,
}

const LABELS: Labels = Labels {
    title: "Figure 7: best of gshare / PAs / ideal static (% of dynamic branches)",
    contenders: [
        ("gshare", "Gshare Best", "gshare"),
        ("pas", "PAs Best", "PAs"),
    ],
};

/// Runs the figure 7 experiment.
pub fn run(cfg: &ExperimentConfig, engine: &Engine) -> Result {
    let rows = engine.for_each_benchmark(|benchmark| {
        let gshare = engine.gshare(benchmark, cfg.gshare_bits);
        let pas = engine.pas_default(benchmark);
        let profile = engine.profile(benchmark);
        let dist = best_of(
            &[
                Contender::new("gshare", &gshare),
                Contender::new("pas", &pas),
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

impl Result {
    /// Mean fractions across benchmarks: (first contender, second
    /// contender, ideal static). Figure 7's are gshare / PAs / static,
    /// which the paper quotes as 29% / 16% / 55%.
    pub fn means(&self) -> (f64, f64, f64) {
        let n = self.rows.len().max(1) as f64;
        let mean = |name: &str| -> f64 {
            self.rows.iter().map(|r| r.dist.fraction(name)).sum::<f64>() / n
        };
        let [(a, ..), (b, ..)] = self.labels.contenders;
        (mean(a), mean(b), mean(IDEAL_STATIC_NAME))
    }
}

impl std::fmt::Display for Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [(a, a_heading, a_word), (b, b_heading, b_word)] = self.labels.contenders;
        let mut t = Table::new(
            self.labels.title,
            &[
                "benchmark",
                a_heading,
                "Ideal Static Best",
                b_heading,
                ">99% biased (of static)",
            ],
        );
        for row in &self.rows {
            t.row(vec![
                row.benchmark.short_name().to_owned(),
                pct0(row.dist.fraction(a)),
                pct0(row.dist.fraction(IDEAL_STATIC_NAME)),
                pct0(row.dist.fraction(b)),
                pct0(row.dist.static_bias_fraction()),
            ]);
        }
        let (mean_a, mean_b, mean_static) = self.means();
        t.row(vec![
            "mean".to_owned(),
            pct0(mean_a),
            pct0(mean_static),
            pct0(mean_b),
            String::new(),
        ]);
        t.fmt(f)?;
        writeln!(
            f,
            "\n(G={a_word} best, S=ideal static best, P={b_word} best)"
        )?;
        for row in &self.rows {
            let segments = [
                ('G', row.dist.fraction(a)),
                ('S', row.dist.fraction(IDEAL_STATIC_NAME)),
                ('P', row.dist.fraction(b)),
            ];
            writeln!(
                f,
                "{}",
                crate::render::stacked_bar(row.benchmark.short_name(), &segments, 50)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one_per_benchmark() {
        let cfg = ExperimentConfig::quick();
        let r = run(&cfg, &crate::test_engine(&cfg));
        for row in &r.rows {
            let sum: f64 = row.dist.iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{:?}", row.benchmark);
        }
        let (g, p, s) = r.means();
        assert!((g + p + s - 1.0).abs() < 1e-9);
    }
}
