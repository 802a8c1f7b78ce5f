use bp_trace::{PathWindow, Trace};

use crate::oracle::OracleResult;

/// Distribution of distances from branches to their oracle-chosen
/// correlated instances — the quantity behind §3.6.2's finding that "the
/// most correlated branches are close together".
///
/// For every dynamic execution of every branch, each of the branch's
/// chosen tags resolves either at some distance `d` (the instance was the
/// `d`-th most recent branch) or to not-in-path. The histogram is weighted
/// by dynamic executions, so it answers: *how much history does a real
/// predictor need to reach the correlation the oracle found?*
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// `counts[d-1]` = tag resolutions at distance `d`.
    counts: Vec<u64>,
    /// Tag lookups that found the instance absent from the path.
    not_in_path: u64,
}

impl DistanceHistogram {
    /// Measures the distance distribution of the oracle's chosen `k`-tag
    /// selective histories over `trace`, using a window of `window`
    /// branches (use the oracle's own window).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `1..=`[`crate::MAX_SELECTIVE_TAGS`].
    pub fn measure(trace: &Trace, oracle: &OracleResult, k: usize, window: usize) -> Self {
        assert!(
            (1..=crate::MAX_SELECTIVE_TAGS).contains(&k),
            "selective history size must be 1..={}",
            crate::MAX_SELECTIVE_TAGS
        );
        let mut hist = DistanceHistogram {
            counts: vec![0; window],
            not_in_path: 0,
        };
        let mut path = PathWindow::new(window);
        for rec in trace.iter() {
            if rec.is_conditional() {
                if let Some(sel) = oracle.selection(rec.pc) {
                    for tag in &sel.best[k - 1].tags {
                        match path.distance(*tag) {
                            Some(d) => hist.counts[d - 1] += 1,
                            None => hist.not_in_path += 1,
                        }
                    }
                }
            }
            path.push(rec);
        }
        hist
    }

    /// Total tag resolutions (in-path + not-in-path).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.not_in_path
    }

    /// Fraction of resolutions where the instance was absent.
    pub fn not_in_path_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.not_in_path as f64 / t as f64
        }
    }

    /// Fraction of *in-path* resolutions at distance ≤ `d`.
    pub fn fraction_within(&self, d: usize) -> f64 {
        let in_path: u64 = self.counts.iter().sum();
        if in_path == 0 {
            return 0.0;
        }
        let within: u64 = self.counts.iter().take(d).sum();
        within as f64 / in_path as f64
    }

    /// Mean in-path distance; zero when nothing resolved in path.
    pub fn mean_distance(&self) -> f64 {
        let in_path: u64 = self.counts.iter().sum();
        if in_path == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        weighted as f64 / in_path as f64
    }

    /// The raw per-distance counts (`[0]` = distance 1).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleConfig, OracleSelector};
    use bp_trace::BranchRecord;

    /// Y at distance exactly 3 from X (two constant fillers between), X
    /// copies Y; every branch's best correlation is only a few branches
    /// back by construction.
    fn spaced_trace(n: usize) -> Trace {
        let mut recs = Vec::new();
        for i in 0..n {
            let y = i % 2 == 0;
            recs.push(BranchRecord::conditional(0x100, y));
            recs.push(BranchRecord::conditional(0x200, true));
            recs.push(BranchRecord::conditional(0x300, true));
            recs.push(BranchRecord::conditional(0x400, y));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn chosen_correlation_sits_at_the_constructed_distance() {
        let trace = spaced_trace(600);
        let cfg = OracleConfig::default();
        let oracle = OracleSelector::analyze(&trace, &cfg);
        let hist = DistanceHistogram::measure(&trace, &oracle, 1, cfg.window);
        assert!(hist.total() > 0);
        // X's chosen tag (most recent 0x100) resolves at distance 3 for
        // every X execution; other branches' best tags sit nearby too, so
        // nearly everything is within a handful of branches.
        assert!(
            hist.fraction_within(6) > 0.8,
            "within 6: {}",
            hist.fraction_within(6)
        );
        assert!(hist.mean_distance() >= 1.0);
        assert!(hist.mean_distance() < 8.0, "mean {}", hist.mean_distance());
        assert!(hist.not_in_path_fraction() < 0.2);
        assert_eq!(hist.counts().len(), cfg.window);
    }

    #[test]
    fn empty_trace_yields_empty_histogram() {
        let oracle = OracleSelector::analyze(&Trace::new(), &OracleConfig::default());
        let hist = DistanceHistogram::measure(&Trace::new(), &oracle, 1, 16);
        assert_eq!(hist.total(), 0);
        assert_eq!(hist.mean_distance(), 0.0);
        assert_eq!(hist.fraction_within(5), 0.0);
        assert_eq!(hist.not_in_path_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "selective history size")]
    fn zero_k_rejected() {
        let oracle = OracleSelector::analyze(&Trace::new(), &OracleConfig::default());
        let _ = DistanceHistogram::measure(&Trace::new(), &oracle, 0, 16);
    }
}
