use bp_predictors::PerBranchStats;

/// The figure 9 curve: per-branch accuracy difference between two
/// predictors, as a function of the percentile of dynamic branches.
///
/// Each static branch contributes a point `(accuracy_a − accuracy_b)` in
/// percentage points, weighted by its dynamic execution count; the curve is
/// that distribution sorted ascending. The left tail shows branches where
/// `b` is much better, the right tail where `a` is much better, and the
/// areas on each side of zero quantify the accuracy lost by dropping either
/// predictor — the paper's argument for hybrids.
/// # Example
///
/// ```
/// use bp_core::PercentileCurve;
/// use bp_predictors::{PerBranchStats, PredictionStats};
///
/// let a: PerBranchStats = [(1u64, PredictionStats { predictions: 100, correct: 90 })]
///     .into_iter().collect();
/// let b: PerBranchStats = [(1u64, PredictionStats { predictions: 100, correct: 70 })]
///     .into_iter().collect();
/// let curve = PercentileCurve::accuracy_difference(&a, &b);
/// assert!((curve.value_at(50.0) - 20.0).abs() < 1e-9); // a is 20pp better
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PercentileCurve {
    /// `(diff_pp, dynamic_weight)` sorted ascending by diff.
    points: Vec<(f64, u64)>,
    total_weight: u64,
}

impl PercentileCurve {
    /// Builds the accuracy-difference curve of `a` minus `b`.
    ///
    /// Branches present in only one input are skipped (both predictors must
    /// have predicted a branch for the difference to mean anything); in the
    /// intended use both inputs come from full-trace runs and cover the
    /// same branches.
    pub fn accuracy_difference(a: &PerBranchStats, b: &PerBranchStats) -> Self {
        let mut points: Vec<(f64, u64)> = a
            .iter()
            .filter_map(|(pc, sa)| {
                b.get(pc).map(|sb| {
                    let diff = (sa.accuracy() - sb.accuracy()) * 100.0;
                    (diff, sa.predictions)
                })
            })
            .collect();
        points.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("accuracy diffs are finite"));
        let total_weight = points.iter().map(|p| p.1).sum();
        PercentileCurve {
            points,
            total_weight,
        }
    }

    /// The difference value at dynamic-branch percentile `p` (0–100): the
    /// smallest diff such that at least `p`% of the dynamic weight lies at
    /// or below it. Zero for an empty curve.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `0.0..=100.0`.
    pub fn value_at(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be 0..=100");
        if self.total_weight == 0 {
            return 0.0;
        }
        let threshold = (p / 100.0 * self.total_weight as f64).ceil() as u64;
        let mut acc = 0u64;
        for &(diff, w) in &self.points {
            acc += w;
            if acc >= threshold {
                return diff;
            }
        }
        self.points.last().map_or(0.0, |p| p.0)
    }

    /// Samples the curve at `steps + 1` evenly spaced percentiles
    /// (0, 100/steps, …, 100) — the series plotted in figure 9.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn sample(&self, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps > 0, "need at least one step");
        (0..=steps)
            .map(|i| {
                let p = 100.0 * i as f64 / steps as f64;
                (p, self.value_at(p))
            })
            .collect()
    }

    /// Dynamic-weighted mean of `max(0, −diff)`: the accuracy (in
    /// percentage points) lost by using only predictor `a` on the branches
    /// where `b` is better — the area of the "B better" region.
    pub fn loss_if_only_first(&self) -> f64 {
        self.weighted_mean(|d| (-d).max(0.0))
    }

    /// Dynamic-weighted mean of `max(0, diff)`: the accuracy lost by using
    /// only predictor `b`.
    pub fn loss_if_only_second(&self) -> f64 {
        self.weighted_mean(|d| d.max(0.0))
    }

    /// Fraction of dynamic weight where the difference is at or beyond
    /// `threshold` percentage points in `a`'s favor (positive threshold) or
    /// `b`'s favor (negative threshold).
    pub fn fraction_beyond(&self, threshold: f64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let w: u64 = self
            .points
            .iter()
            .filter(|&&(d, _)| {
                if threshold >= 0.0 {
                    d >= threshold
                } else {
                    d <= threshold
                }
            })
            .map(|&(_, w)| w)
            .sum();
        w as f64 / self.total_weight as f64
    }

    fn weighted_mean(&self, f: impl Fn(f64) -> f64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let sum: f64 = self.points.iter().map(|&(d, w)| f(d) * w as f64).sum();
        sum / self.total_weight as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::PredictionStats;

    fn stats_of(entries: &[(u64, u64, u64)]) -> PerBranchStats {
        entries
            .iter()
            .map(|&(pc, predictions, correct)| {
                (
                    pc,
                    PredictionStats {
                        predictions,
                        correct,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn curve_orders_and_samples() {
        // Branch 1: a 90%, b 50% -> diff +40 (weight 100)
        // Branch 2: a 50%, b 80% -> diff -30 (weight 100)
        // Branch 3: equal -> 0 (weight 200)
        let a = stats_of(&[(1, 100, 90), (2, 100, 50), (3, 200, 140)]);
        let b = stats_of(&[(1, 100, 50), (2, 100, 80), (3, 200, 140)]);
        let c = PercentileCurve::accuracy_difference(&a, &b);
        assert!((c.value_at(10.0) - -30.0).abs() < 1e-9);
        assert!((c.value_at(50.0) - 0.0).abs() < 1e-9);
        assert!((c.value_at(100.0) - 40.0).abs() < 1e-9);
        let samples = c.sample(20);
        assert_eq!(samples.len(), 21);
        assert!(samples.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
    }

    #[test]
    fn losses_are_one_sided_areas() {
        let a = stats_of(&[(1, 100, 90), (2, 100, 50)]);
        let b = stats_of(&[(1, 100, 50), (2, 100, 80)]);
        let c = PercentileCurve::accuracy_difference(&a, &b);
        // Only-a loses 30pp on half the weight; only-b loses 40pp on half.
        assert!((c.loss_if_only_first() - 15.0).abs() < 1e-9);
        assert!((c.loss_if_only_second() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_beyond_thresholds() {
        let a = stats_of(&[(1, 100, 90), (2, 100, 50), (3, 200, 100)]);
        let b = stats_of(&[(1, 100, 50), (2, 100, 80), (3, 200, 100)]);
        let c = PercentileCurve::accuracy_difference(&a, &b);
        assert!((c.fraction_beyond(40.0) - 0.25).abs() < 1e-12);
        assert!((c.fraction_beyond(-30.0) - 0.25).abs() < 1e-12);
        assert!((c.fraction_beyond(0.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn disjoint_branches_skipped() {
        let a = stats_of(&[(1, 10, 9)]);
        let b = stats_of(&[(2, 10, 9)]);
        let c = PercentileCurve::accuracy_difference(&a, &b);
        assert_eq!(c.value_at(50.0), 0.0);
        assert_eq!(c.loss_if_only_first(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        let c = PercentileCurve::default();
        let _ = c.value_at(101.0);
    }
}
