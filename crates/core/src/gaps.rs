use bp_predictors::{BranchSite, Predictor};
use bp_trace::Trace;

use serde::{Deserialize, Serialize};

/// Distribution of gaps between consecutive mispredictions, plus accuracy
/// over trace deciles.
///
/// Two predictors with the same accuracy can cost very differently: evenly
/// scattered mispredictions keep a pipeline in a permanent stutter, while
/// *bursty* mispredictions (long clean runs, clustered misses) overlap
/// their penalties. The decile series doubles as a warmup curve — a
/// predictor still training shows a rising accuracy trend across deciles,
/// which is exactly the effect EXPERIMENTS.md blames for the reproduction's
/// compressed "w/ Corr" gains.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MispredictProfile {
    /// Gap lengths between consecutive mispredictions (first gap measured
    /// from trace start), in predictions.
    gaps: Vec<u64>,
    /// (correct, total) per trace decile.
    deciles: [(u64, u64); 10],
    total: u64,
    correct: u64,
}

impl MispredictProfile {
    /// Runs `predictor` over `trace` (predict-then-train, like
    /// [`bp_predictors::simulate`]) and records the misprediction
    /// structure.
    pub fn measure<P: Predictor + ?Sized>(predictor: &mut P, trace: &Trace) -> Self {
        let n = trace.conditional_count() as u64;
        let mut profile = MispredictProfile {
            total: n,
            ..MispredictProfile::default()
        };
        let mut since_last_miss = 0u64;
        for (index, rec) in trace.conditionals().enumerate() {
            let hit = predictor.predict_update(BranchSite::from(rec), rec.taken) == rec.taken;

            let decile = (index as u64 * 10).checked_div(n).unwrap_or(0).min(9) as usize;
            profile.deciles[decile].1 += 1;
            if hit {
                profile.deciles[decile].0 += 1;
                profile.correct += 1;
                since_last_miss += 1;
            } else {
                profile.gaps.push(since_last_miss);
                since_last_miss = 0;
            }
        }
        profile
    }

    /// Overall accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Number of mispredictions.
    pub fn mispredictions(&self) -> u64 {
        self.gaps.len() as u64
    }

    /// Mean clean run length between mispredictions (predictions per miss);
    /// zero with no mispredictions.
    pub fn mean_gap(&self) -> f64 {
        if self.gaps.is_empty() {
            0.0
        } else {
            self.gaps.iter().sum::<u64>() as f64 / self.gaps.len() as f64
        }
    }

    /// Fraction of mispredictions arriving within `burst` predictions of
    /// the previous one — the burstiness measure.
    pub fn burst_fraction(&self, burst: u64) -> f64 {
        if self.gaps.is_empty() {
            return 0.0;
        }
        self.gaps.iter().filter(|&&g| g < burst).count() as f64 / self.gaps.len() as f64
    }

    /// Accuracy within decile `d` (0..=9) of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `d > 9`.
    pub fn decile_accuracy(&self, d: usize) -> f64 {
        let (correct, total) = self.deciles[d];
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Accuracy of the last decile minus the first — positive values mean
    /// the predictor was still warming up early in the trace.
    pub fn warmup_gain(&self) -> f64 {
        self.decile_accuracy(9) - self.decile_accuracy(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::{Gshare, Smith, StaticTaken};
    use bp_trace::BranchRecord;

    #[test]
    fn decile_counts_cover_the_trace() {
        let trace: Trace = (0..1000)
            .map(|i| BranchRecord::conditional(0x10 + (i % 7) * 4, i % 3 != 0))
            .collect();
        let p = MispredictProfile::measure(&mut Gshare::new(8), &trace);
        let total: u64 = (0..10).map(|d| p.deciles[d].1).sum();
        assert_eq!(total, 1000);
        let correct: u64 = (0..10).map(|d| p.deciles[d].0).sum();
        assert_eq!(correct, p.correct);
        assert!((p.accuracy() - correct as f64 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_visible_for_learnable_pattern() {
        // A period-63 LFSR stream: 63 distinct history contexts to train,
        // so the first decile (~200 branches) pays heavily and the tail is
        // near-perfect.
        let mut lfsr = 0x2Au8;
        let trace: Trace = (0..2000)
            .map(|_| {
                let bit = lfsr & 1 != 0;
                lfsr >>= 1;
                if bit {
                    lfsr ^= 0x30;
                }
                BranchRecord::conditional(0x40, bit)
            })
            .collect();
        let p = MispredictProfile::measure(&mut Gshare::new(12), &trace);
        assert!(p.warmup_gain() > 0.1, "warmup gain {}", p.warmup_gain());
        assert!(
            p.decile_accuracy(9) > 0.95,
            "late accuracy {}",
            p.decile_accuracy(9)
        );
    }

    #[test]
    fn gaps_reflect_miss_spacing() {
        // StaticTaken on a strict 4-periodic branch (TTTN): one miss every
        // 4 predictions, gap always 3.
        let trace: Trace = (0..400)
            .map(|i| BranchRecord::conditional(0x10, i % 4 != 3))
            .collect();
        let p = MispredictProfile::measure(&mut StaticTaken, &trace);
        assert_eq!(p.mispredictions(), 100);
        assert!((p.mean_gap() - 3.0).abs() < 0.01);
        assert_eq!(p.burst_fraction(3), 0.0);
        assert_eq!(p.burst_fraction(4), 1.0);
    }

    #[test]
    fn perfect_prediction_has_no_gaps() {
        let trace: Trace = (0..100)
            .map(|_| BranchRecord::conditional(0x10, true))
            .collect();
        // Warm a Smith counter first? Initial weakly-taken already predicts
        // taken, so zero misses.
        let p = MispredictProfile::measure(&mut Smith::default(), &trace);
        assert_eq!(p.mispredictions(), 0);
        assert_eq!(p.mean_gap(), 0.0);
        assert_eq!(p.burst_fraction(10), 0.0);
        assert_eq!(p.warmup_gain(), 0.0);
    }
}
