use bp_predictors::PredictionStats;

/// A simple pipeline cost model: translates prediction accuracy into the
/// performance terms the paper's introduction argues in ("pipeline flushes
/// due to branch mispredictions…").
///
/// The model is deliberately first-order — `CPI = base + penalty ×
/// mispredictions/instruction` — which is the standard back-of-envelope
/// used to compare predictors, not a microarchitectural simulator.
///
/// # Example
///
/// ```
/// use bp_core::CostModel;
/// use bp_predictors::PredictionStats;
///
/// let model = CostModel::default(); // 12-cycle flush, 0.2 branches/instr
/// let gshare = PredictionStats { predictions: 1000, correct: 920 };
/// let hybrid = PredictionStats { predictions: 1000, correct: 960 };
/// assert_eq!(CostModel::mpkb(&gshare), 80.0);
/// // Halving mispredictions buys a measurable speedup:
/// assert!(model.speedup(&hybrid, &gshare) > 1.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Pipeline flush penalty per misprediction, in cycles.
    pub mispredict_penalty: f64,
    /// Conditional branches per instruction (SPECint-class integer code
    /// runs around one branch in five instructions).
    pub branch_density: f64,
    /// CPI with perfect branch prediction.
    pub base_cpi: f64,
}

impl Default for CostModel {
    /// A mid-1990s deep pipeline: 12-cycle flush, 0.2 branches per
    /// instruction, base CPI 1.0.
    fn default() -> Self {
        CostModel {
            mispredict_penalty: 12.0,
            branch_density: 0.2,
            base_cpi: 1.0,
        }
    }
}

impl CostModel {
    /// Mispredictions per thousand branches — model-free, comparable
    /// across predictors on the same trace.
    pub fn mpkb(stats: &PredictionStats) -> f64 {
        if stats.predictions == 0 {
            0.0
        } else {
            stats.mispredictions() as f64 * 1000.0 / stats.predictions as f64
        }
    }

    /// Mispredictions per thousand instructions, via the model's branch
    /// density.
    pub fn mpki(&self, stats: &PredictionStats) -> f64 {
        Self::mpkb(stats) * self.branch_density
    }

    /// Estimated cycles per instruction under this predictor.
    pub fn cpi(&self, stats: &PredictionStats) -> f64 {
        self.base_cpi + self.mispredict_penalty * self.mpki(stats) / 1000.0
    }

    /// Speedup of predictor `a` over predictor `b` (> 1 means `a` is
    /// faster).
    pub fn speedup(&self, a: &PredictionStats, b: &PredictionStats) -> f64 {
        self.cpi(b) / self.cpi(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(predictions: u64, correct: u64) -> PredictionStats {
        PredictionStats {
            predictions,
            correct,
        }
    }

    #[test]
    fn mpkb_and_mpki() {
        let s = stats(10_000, 9_500);
        assert_eq!(CostModel::mpkb(&s), 50.0);
        let m = CostModel::default();
        assert!((m.mpki(&s) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cpi_grows_with_misses() {
        let m = CostModel::default();
        let good = stats(1000, 990);
        let bad = stats(1000, 900);
        assert!(m.cpi(&bad) > m.cpi(&good));
        assert!(m.cpi(&good) > m.base_cpi);
        // Perfect prediction collapses to the base CPI.
        assert!((m.cpi(&stats(1000, 1000)) - m.base_cpi).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_reciprocal() {
        let m = CostModel::default();
        let a = stats(1000, 980);
        let b = stats(1000, 920);
        let s = m.speedup(&a, &b);
        assert!(s > 1.0);
        assert!((m.speedup(&b, &a) - 1.0 / s).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let m = CostModel::default();
        let empty = stats(0, 0);
        assert_eq!(CostModel::mpkb(&empty), 0.0);
        assert!((m.cpi(&empty) - m.base_cpi).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_sanity() {
        // go at 84% vs a hybrid at 90%: the model should say the hybrid
        // is several percent faster — the magnitude that justified hybrid
        // hardware.
        let m = CostModel::default();
        let gshare = stats(100_000, 84_000);
        let hybrid = stats(100_000, 90_000);
        let s = m.speedup(&hybrid, &gshare);
        assert!(s > 1.05 && s < 1.25, "speedup {s}");
    }
}
