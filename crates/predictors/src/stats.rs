use bp_trace::fx::FxHashMap;

use bp_trace::io::TraceIoError;
use bp_trace::{Pc, Trace, TraceSource};

use crate::{BranchSite, Predictor};

/// Prediction accuracy bookkeeping: how many predictions were made and how
/// many were correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Total predictions made.
    pub predictions: u64,
    /// Predictions that matched the outcome.
    pub correct: u64,
}

impl PredictionStats {
    /// Records one prediction result.
    #[inline]
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        if correct {
            self.correct += 1;
        }
    }

    /// Accuracy in `[0, 1]`; zero when no predictions were made.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Accuracy as a percentage, the unit the paper reports.
    pub fn accuracy_pct(&self) -> f64 {
        self.accuracy() * 100.0
    }

    /// Number of mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.predictions - self.correct
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: PredictionStats) {
        self.predictions += other.predictions;
        self.correct += other.correct;
    }
}

/// Per-static-branch prediction statistics, plus the overall total.
///
/// This is the raw material of the paper's per-branch analyses: the
/// hypothetical combined predictors of Tables 2 and 3 and the "best
/// predictor" distributions of Figures 6–8 all compare predictors *per
/// branch* using exactly these counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerBranchStats {
    per_branch: FxHashMap<Pc, PredictionStats>,
    total: PredictionStats,
}

impl PerBranchStats {
    /// Creates an empty stats table.
    pub fn new() -> Self {
        PerBranchStats::default()
    }

    /// Records one prediction result for the branch at `pc`.
    #[inline]
    pub fn record(&mut self, pc: Pc, correct: bool) {
        self.per_branch.entry(pc).or_default().record(correct);
        self.total.record(correct);
    }

    /// Overall statistics across all branches.
    pub fn total(&self) -> PredictionStats {
        self.total
    }

    /// Statistics for one branch, if it was predicted at least once.
    pub fn get(&self, pc: Pc) -> Option<&PredictionStats> {
        self.per_branch.get(&pc)
    }

    /// Iterates `(pc, stats)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &PredictionStats)> {
        self.per_branch.iter().map(|(pc, s)| (*pc, s))
    }

    /// Number of distinct static branches seen.
    pub fn static_count(&self) -> usize {
        self.per_branch.len()
    }

    /// Inserts (or accumulates into) the stats block for one branch.
    ///
    /// Lets analyses that compute per-branch correct counts without running
    /// a [`Predictor`] (e.g. the oracle selective-history evaluation)
    /// present their results in the common per-branch form.
    pub fn insert(&mut self, pc: Pc, stats: PredictionStats) {
        self.per_branch.entry(pc).or_default().merge(stats);
        self.total.merge(stats);
    }
}

impl FromIterator<(Pc, PredictionStats)> for PerBranchStats {
    fn from_iter<I: IntoIterator<Item = (Pc, PredictionStats)>>(iter: I) -> Self {
        let mut out = PerBranchStats::new();
        for (pc, stats) in iter {
            out.insert(pc, stats);
        }
        out
    }
}

/// Runs a predictor over every conditional branch of a trace, in order,
/// predicting before training — the paper's trace-driven simulation loop.
pub fn simulate<P: Predictor + ?Sized>(predictor: &mut P, trace: &Trace) -> PredictionStats {
    let mut stats = PredictionStats::default();
    for rec in trace.conditionals() {
        let pred = predictor.predict_update(BranchSite::from(rec), rec.taken);
        stats.record(pred == rec.taken);
    }
    stats
}

/// Like [`simulate`], additionally keeping per-static-branch accuracy.
pub fn simulate_per_branch<P: Predictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
) -> PerBranchStats {
    let mut stats = PerBranchStats::new();
    for rec in trace.conditionals() {
        let pred = predictor.predict_update(BranchSite::from(rec), rec.taken);
        stats.record(rec.pc, pred == rec.taken);
    }
    stats
}

/// Runs N predictors over one trace in a *single* pass, returning one
/// [`PerBranchStats`] per predictor (in input order).
///
/// Equivalent to calling [`simulate_per_branch`] once per predictor — each
/// predictor sees the identical record sequence and trains independently —
/// but the trace is decoded and iterated once instead of N times, keeping
/// the record stream hot in cache while the (much smaller) predictor state
/// tables absorb the working-set pressure. This is the entry point the
/// evaluation engine in `bp-experiments` uses to pre-warm its cache.
pub fn simulate_batch(predictors: &mut [Box<dyn Predictor>], trace: &Trace) -> Vec<PerBranchStats> {
    simulate_batch_source(predictors, trace).expect("in-memory traces cannot fail to scan")
}

/// As [`simulate_batch`], but consuming any [`TraceSource`] chunk by chunk,
/// so a disk-resident or regenerated trace simulates without ever being
/// materialized in memory. Record order — and therefore every predictor's
/// training sequence — is identical to the in-memory loop.
pub fn simulate_batch_source<T: TraceSource + ?Sized>(
    predictors: &mut [Box<dyn Predictor>],
    source: &T,
) -> Result<Vec<PerBranchStats>, TraceIoError> {
    let mut stats: Vec<PerBranchStats> = predictors.iter().map(|_| PerBranchStats::new()).collect();
    source.scan(&mut |chunk| {
        for rec in chunk.iter().filter(|r| r.is_conditional()) {
            let site = BranchSite::from(rec);
            for (predictor, stat) in predictors.iter_mut().zip(stats.iter_mut()) {
                let pred = predictor.predict_update(site, rec.taken);
                stat.record(rec.pc, pred == rec.taken);
            }
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::StaticTaken;
    use bp_trace::BranchRecord;

    #[test]
    fn stats_math() {
        let mut s = PredictionStats::default();
        assert_eq!(s.accuracy(), 0.0);
        s.record(true);
        s.record(true);
        s.record(false);
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 2);
        assert_eq!(s.mispredictions(), 1);
        assert!((s.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.accuracy_pct() - 66.666).abs() < 0.01);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PredictionStats {
            predictions: 10,
            correct: 7,
        };
        a.merge(PredictionStats {
            predictions: 5,
            correct: 5,
        });
        assert_eq!(a.predictions, 15);
        assert_eq!(a.correct, 12);
    }

    #[test]
    fn per_branch_totals_match() {
        let mut s = PerBranchStats::new();
        s.record(1, true);
        s.record(1, false);
        s.record(2, true);
        assert_eq!(s.total().predictions, 3);
        assert_eq!(s.total().correct, 2);
        assert_eq!(s.get(1).unwrap().predictions, 2);
        assert_eq!(s.get(2).unwrap().correct, 1);
        assert!(s.get(3).is_none());
        assert_eq!(s.static_count(), 2);
        let sum: u64 = s.iter().map(|(_, st)| st.predictions).sum();
        assert_eq!(sum, s.total().predictions);
    }

    #[test]
    fn simulate_static_taken() {
        let trace: Trace = [(1, true), (1, false), (2, true)]
            .iter()
            .map(|&(pc, t)| BranchRecord::conditional(pc, t))
            .collect();
        let mut p = StaticTaken;
        let s = simulate(&mut p, &trace);
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 2);
        let pb = simulate_per_branch(&mut StaticTaken, &trace);
        assert_eq!(pb.total(), s);
    }

    #[test]
    fn batch_source_matches_per_trace_simulation() {
        let mut recs = Vec::new();
        let mut x = 11u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            recs.push(BranchRecord::conditional(
                0x40 + (x >> 62),
                x >> 61 & 1 == 1,
            ));
        }
        let trace = Trace::from_records(recs);
        let mk = || -> Vec<Box<dyn Predictor>> {
            vec![Box::new(StaticTaken), Box::new(crate::Smith::new(4))]
        };
        let direct: Vec<_> = {
            let mut ps = mk();
            ps.iter_mut()
                .map(|p| simulate_per_branch(p.as_mut(), &trace))
                .collect()
        };
        let batched = simulate_batch(&mut mk(), &trace);
        let streamed = simulate_batch_source(&mut mk(), &trace).unwrap();
        assert_eq!(direct, batched);
        assert_eq!(direct, streamed);
    }

    #[test]
    fn simulate_skips_non_conditionals() {
        let trace = Trace::from_records(vec![BranchRecord {
            pc: 1,
            target: 2,
            taken: true,
            kind: bp_trace::BranchKind::Call,
        }]);
        let s = simulate(&mut StaticTaken, &trace);
        assert_eq!(s.predictions, 0);
    }
}
