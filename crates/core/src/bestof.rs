use std::collections::HashMap;

use bp_predictors::{PerBranchStats, PredictionStats};
use bp_trace::BranchProfile;

/// A named per-branch stats block entered into a [`best_of`] comparison.
#[derive(Debug, Clone)]
pub struct Contender<'a> {
    /// Display name (e.g. `"gshare"`).
    pub name: &'a str,
    /// Per-branch results of that predictor over the trace.
    pub stats: &'a PerBranchStats,
}

impl<'a> Contender<'a> {
    /// Convenience constructor.
    pub fn new(name: &'a str, stats: &'a PerBranchStats) -> Self {
        Contender { name, stats }
    }
}

/// Result of a [`best_of`] comparison: what fraction of dynamic branches
/// each contender (or the ideal static baseline) predicted best.
///
/// This reproduces the figure 7/8 view: each *static* branch is assigned to
/// whichever predictor got the most of its executions right, then fractions
/// are weighted by the branch's dynamic execution count. Ideal static wins
/// ties (the paper does not classify branches "predicted at least as
/// accurately" by ideal static); among the dynamic contenders, the earlier
/// one in the input list wins ties.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BestOfDistribution {
    fractions: HashMap<String, f64>,
    static_bias_fraction: f64,
}

/// Name under which the ideal-static share is reported.
pub const IDEAL_STATIC_NAME: &str = "ideal-static";

impl BestOfDistribution {
    /// Fraction of dynamic branches for which `name` was best (use
    /// [`IDEAL_STATIC_NAME`] for the static share). Zero for unknown names.
    pub fn fraction(&self, name: &str) -> f64 {
        self.fractions.get(name).copied().unwrap_or(0.0)
    }

    /// Iterates `(name, fraction)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.fractions.iter().map(|(n, f)| (n.as_str(), *f))
    }

    /// Of the dynamic branches where ideal static was best, the fraction
    /// whose branch is biased above the threshold passed to [`best_of`] —
    /// the paper's "83% / 92% of these were more than 99% biased" numbers.
    pub fn static_bias_fraction(&self) -> f64 {
        self.static_bias_fraction
    }
}

/// Computes the figure 7/8 distribution: which contender best predicts each
/// branch, weighted by dynamic execution frequency, with the ideal static
/// predictor (from `profile`) as the tie-winning baseline.
///
/// `bias_threshold` (e.g. `0.99`) controls the
/// [`BestOfDistribution::static_bias_fraction`] statistic.
///
/// Branches appearing in `profile` but missing from a contender's stats are
/// treated as zero-correct for that contender.
/// # Example
///
/// ```
/// use bp_core::{best_of, Contender, IDEAL_STATIC_NAME};
/// use bp_predictors::{simulate_per_branch, Gshare, Pas};
/// use bp_trace::{BranchProfile, BranchRecord, Trace};
///
/// let trace: Trace = (0..500)
///     .map(|i| BranchRecord::conditional(0x40, i % 3 == 0))
///     .collect();
/// let g = simulate_per_branch(&mut Gshare::default(), &trace);
/// let p = simulate_per_branch(&mut Pas::default(), &trace);
/// let profile = BranchProfile::of(&trace);
/// let dist = best_of(
///     &[Contender::new("gshare", &g), Contender::new("pas", &p)],
///     &profile,
///     0.99,
/// );
/// let total = dist.fraction("gshare") + dist.fraction("pas")
///     + dist.fraction(IDEAL_STATIC_NAME);
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn best_of(
    contenders: &[Contender<'_>],
    profile: &BranchProfile,
    bias_threshold: f64,
) -> BestOfDistribution {
    let mut weights: HashMap<String, u64> = HashMap::new();
    let mut static_weight = 0u64;
    let mut static_biased_weight = 0u64;
    let total = profile.dynamic_count();

    for (pc, entry) in profile.iter() {
        let static_correct = entry.ideal_static_correct();
        let mut best_name: Option<&str> = None;
        let mut best_correct = static_correct;
        for contender in contenders {
            let correct = contender.stats.get(pc).map_or(0, |s| s.correct);
            // Strict '>' both against static and against earlier
            // contenders: static wins ties, then list order.
            if correct > best_correct {
                best_correct = correct;
                best_name = Some(contender.name);
            }
        }
        match best_name {
            Some(name) => {
                *weights.entry(name.to_owned()).or_insert(0) += entry.executions;
            }
            None => {
                static_weight += entry.executions;
                if entry.bias() > bias_threshold {
                    static_biased_weight += entry.executions;
                }
            }
        }
    }

    let mut fractions: HashMap<String, f64> = HashMap::new();
    if total > 0 {
        for contender in contenders {
            let w = weights.get(contender.name).copied().unwrap_or(0);
            fractions.insert(contender.name.to_owned(), w as f64 / total as f64);
        }
        fractions.insert(
            IDEAL_STATIC_NAME.to_owned(),
            static_weight as f64 / total as f64,
        );
    }
    BestOfDistribution {
        fractions,
        static_bias_fraction: if static_weight == 0 {
            0.0
        } else {
            static_biased_weight as f64 / static_weight as f64
        },
    }
}

/// The hypothetical combined predictor of Tables 2 and 3: for every branch,
/// use whichever of the two components predicted it better over the run
/// (an a-posteriori per-branch choice), and report the combined stats.
///
/// For Table 2, `a` is gshare and `b` the 1-tag selective-history stats
/// ("gshare w/ Corr"); for Table 3, `a` is PAs and `b` the loop predictor
/// restricted to loop-class branches ("PAs w/ Loop").
///
/// Branches present in only one input contribute that input's stats.
pub fn combined_correct(a: &PerBranchStats, b: &PerBranchStats) -> PredictionStats {
    let mut out = PredictionStats::default();
    for (pc, sa) in a.iter() {
        match b.get(pc) {
            Some(sb) => {
                debug_assert_eq!(
                    sa.predictions, sb.predictions,
                    "combined predictors must cover the same executions"
                );
                out.merge(PredictionStats {
                    predictions: sa.predictions,
                    correct: sa.correct.max(sb.correct),
                });
            }
            None => out.merge(*sa),
        }
    }
    for (pc, sb) in b.iter() {
        if a.get(pc).is_none() {
            out.merge(*sb);
        }
    }
    out
}

/// Per-branch max of two stats tables, kept in per-branch form: the result
/// of letting an oracle pick the better component for every branch.
///
/// Used to build figure 8's "global" contender (the better of
/// interference-free gshare and the 3-branch selective history per branch).
/// Branches present in only one input are carried through unchanged.
pub fn per_branch_max(a: &PerBranchStats, b: &PerBranchStats) -> PerBranchStats {
    let mut out = PerBranchStats::new();
    for (pc, sa) in a.iter() {
        let best = match b.get(pc) {
            Some(sb) => PredictionStats {
                predictions: sa.predictions,
                correct: sa.correct.max(sb.correct),
            },
            None => *sa,
        };
        out.insert(pc, best);
    }
    for (pc, sb) in b.iter() {
        if a.get(pc).is_none() {
            out.insert(pc, *sb);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{BranchRecord, Trace};

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

    fn profile_of(entries: &[(u64, usize, usize)]) -> BranchProfile {
        let mut recs = Vec::new();
        for &(pc, taken, not_taken) in entries {
            for _ in 0..taken {
                recs.push(BranchRecord::conditional(pc, true));
            }
            for _ in 0..not_taken {
                recs.push(BranchRecord::conditional(pc, false));
            }
        }
        BranchProfile::of(&Trace::from_records(recs))
    }

    #[test]
    fn combined_takes_per_branch_max() {
        let a = stats_of(&[(1, 10, 9), (2, 10, 2)]);
        let b = stats_of(&[(1, 10, 5), (2, 10, 8)]);
        let c = combined_correct(&a, &b);
        assert_eq!(c.predictions, 20);
        assert_eq!(c.correct, 17);
    }

    #[test]
    fn combined_handles_disjoint_branches() {
        let a = stats_of(&[(1, 10, 9)]);
        let b = stats_of(&[(2, 5, 4)]);
        let c = combined_correct(&a, &b);
        assert_eq!(c.predictions, 15);
        assert_eq!(c.correct, 13);
    }

    #[test]
    fn combined_at_least_each_component() {
        let a = stats_of(&[(1, 10, 9), (2, 10, 2), (3, 4, 4)]);
        let b = stats_of(&[(1, 10, 5), (2, 10, 8), (3, 4, 0)]);
        let c = combined_correct(&a, &b);
        let ta = a.total();
        let tb = b.total();
        assert!(c.correct >= ta.correct && c.correct >= tb.correct);
    }

    #[test]
    fn per_branch_max_keeps_per_branch_form() {
        let a = stats_of(&[(1, 10, 9), (2, 10, 2)]);
        let b = stats_of(&[(1, 10, 5), (3, 4, 4)]);
        let m = per_branch_max(&a, &b);
        assert_eq!(m.get(1).unwrap().correct, 9);
        assert_eq!(m.get(2).unwrap().correct, 2);
        assert_eq!(m.get(3).unwrap().correct, 4);
        assert_eq!(m.total().predictions, 24);
    }

    #[test]
    fn best_of_assigns_by_weighted_winner() {
        // Branch 1: 100 execs, 90 taken (static correct 90).
        // Branch 2: 50 execs, 25/25 (static correct 25).
        let profile = profile_of(&[(1, 90, 10), (2, 25, 25)]);
        // gshare: mediocre on 1, great on 2.
        let gshare = stats_of(&[(1, 100, 80), (2, 50, 45)]);
        // pas: slightly better than static on... nothing.
        let pas = stats_of(&[(1, 100, 85), (2, 50, 40)]);
        let dist = best_of(
            &[
                Contender::new("gshare", &gshare),
                Contender::new("pas", &pas),
            ],
            &profile,
            0.99,
        );
        // Branch 1 (weight 100): static best. Branch 2 (weight 50): gshare.
        assert!((dist.fraction(IDEAL_STATIC_NAME) - 100.0 / 150.0).abs() < 1e-12);
        assert!((dist.fraction("gshare") - 50.0 / 150.0).abs() < 1e-12);
        assert_eq!(dist.fraction("pas"), 0.0);
        assert_eq!(dist.fraction("unknown"), 0.0);
        let total: f64 = dist.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn static_wins_ties() {
        let profile = profile_of(&[(1, 8, 2)]);
        let tied = stats_of(&[(1, 10, 8)]); // equals static correct
        let dist = best_of(&[Contender::new("x", &tied)], &profile, 0.99);
        assert_eq!(dist.fraction("x"), 0.0);
        assert_eq!(dist.fraction(IDEAL_STATIC_NAME), 1.0);
    }

    #[test]
    fn earlier_contender_wins_ties() {
        let profile = profile_of(&[(1, 5, 5)]);
        let a = stats_of(&[(1, 10, 9)]);
        let b = stats_of(&[(1, 10, 9)]);
        let dist = best_of(
            &[Contender::new("first", &a), Contender::new("second", &b)],
            &profile,
            0.99,
        );
        assert_eq!(dist.fraction("first"), 1.0);
        assert_eq!(dist.fraction("second"), 0.0);
    }

    #[test]
    fn bias_fraction_of_static_class() {
        // Branch 1: 99.5% biased (200 execs). Branch 2: 60% biased (100).
        let profile = profile_of(&[(1, 199, 1), (2, 60, 40)]);
        let weak = stats_of(&[(1, 200, 0), (2, 100, 0)]);
        let dist = best_of(&[Contender::new("weak", &weak)], &profile, 0.99);
        assert_eq!(dist.fraction(IDEAL_STATIC_NAME), 1.0);
        assert!((dist.static_bias_fraction() - 200.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_yields_empty_distribution() {
        let profile = profile_of(&[]);
        let s = stats_of(&[]);
        let dist = best_of(&[Contender::new("x", &s)], &profile, 0.99);
        assert_eq!(dist.fraction("x"), 0.0);
        assert_eq!(dist.static_bias_fraction(), 0.0);
    }
}
