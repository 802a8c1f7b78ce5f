use bp_trace::fx::FxHashMap;
use bp_trace::Pc;

use crate::history::ShiftHistory;
use crate::{BranchSite, Predictor};

/// Weight saturation ceiling (8-bit signed weights, per Jiménez & Lin).
const WEIGHT_MAX: i16 = 127;
/// Weight saturation floor.
const WEIGHT_MIN: i16 = -128;

/// Jiménez & Lin's perceptron predictor: one signed weight vector per
/// static branch, dotted with the global history (±1 per outcome) plus a
/// bias term; the sign of the sum is the prediction.
///
/// Training is threshold-gated: weights move only on a misprediction or
/// while the output magnitude is at most `⌊1.93·h + 14⌋`, the margin that
/// makes the online update converge (the paper's empirically optimal
/// threshold). Weights saturate at the signed 8-bit range `[-128, 127]`
/// like hardware weights.
///
/// Weight vectors live in an unbounded per-PC map — the interference-free
/// idealization this workspace uses for every per-address structure — so
/// what the experiments measure is the scheme's intrinsic linear
/// separability, not table aliasing.
///
/// With `history_bits == 0` only the bias weight remains and the predictor
/// degenerates to a per-PC signed bias counter (threshold 14, saturating
/// at the 8-bit range), a collapse the conformance metamorphic laws pin.
#[derive(Debug, Clone)]
pub struct Perceptron {
    history: ShiftHistory,
    weights: FxHashMap<Pc, Vec<i16>>,
    threshold: i32,
}

impl Perceptron {
    /// Creates a perceptron observing `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` exceeds 64.
    pub fn new(history_bits: u32) -> Self {
        Perceptron {
            history: ShiftHistory::new(history_bits),
            weights: FxHashMap::default(),
            // ⌊1.93·h + 14⌋ in integer arithmetic.
            threshold: (193 * history_bits as i32 + 1400) / 100,
        }
    }

    /// History length in branches.
    pub fn history_bits(&self) -> u32 {
        self.history.len()
    }

    /// The training threshold `⌊1.93·h + 14⌋`.
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// The perceptron output for `pc` under the current history: bias plus
    /// the weighted history bits (+w for taken, −w for not-taken).
    /// Untrained branches output 0, which predicts taken.
    fn output(&self, pc: Pc) -> i32 {
        self.weights
            .get(&pc)
            .map_or(0, |w| dot(w, self.history.value()))
    }
}

/// `w[0] + Σ ±w[i+1]`, the sign taken from history bit `i` (+ when set):
/// the ±1 dot product, with no data-dependent branch per history bit
/// (outcomes are close to random, so such a branch mispredicts often).
#[inline]
fn dot(w: &[i16], hist: u64) -> i32 {
    let mut y = i32::from(w[0]);
    for (i, &wi) in w[1..].iter().enumerate() {
        let x = ((hist >> i) & 1) as i32 * 2 - 1;
        y += x * i32::from(wi);
    }
    y
}

impl Default for Perceptron {
    /// 32 bits of global history — the modern-zoo reference geometry.
    fn default() -> Self {
        Perceptron::new(32)
    }
}

impl Predictor for Perceptron {
    fn name(&self) -> String {
        format!("perceptron({})", self.history.len())
    }

    fn predict(&self, site: BranchSite) -> bool {
        self.output(site.pc) >= 0
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        self.predict_update(site, taken);
    }

    fn predict_update(&mut self, site: BranchSite, taken: bool) -> bool {
        // An untrained branch outputs 0 ≤ threshold, so it always trains:
        // materializing its zero vector up front creates exactly the
        // vectors a separate predict-then-update would.
        let len = self.history.len() as usize + 1;
        let w = self.weights.entry(site.pc).or_insert_with(|| vec![0; len]);
        let hist = self.history.value();
        let y = dot(w, hist);
        let prediction = y >= 0;
        if prediction != taken || y.abs() <= self.threshold {
            let t: i16 = if taken { 1 } else { -1 };
            w[0] = (w[0] + t).clamp(WEIGHT_MIN, WEIGHT_MAX);
            for (i, wi) in w[1..].iter_mut().enumerate() {
                // Agreeing bit ⇒ strengthen, disagreeing ⇒ weaken.
                let x = ((hist >> i) & 1) as i16 * 2 - 1;
                *wi = (*wi + t * x).clamp(WEIGHT_MIN, WEIGHT_MAX);
            }
        }
        self.history.push(taken);
        prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Smith};
    use bp_trace::{BranchRecord, Trace};

    #[test]
    fn names_and_threshold() {
        assert_eq!(Perceptron::default().name(), "perceptron(32)");
        assert_eq!(Perceptron::new(0).name(), "perceptron(0)");
        assert_eq!(Perceptron::new(0).threshold(), 14);
        assert_eq!(Perceptron::new(32).threshold(), 75);
        assert_eq!(Perceptron::default().history_bits(), 32);
    }

    #[test]
    fn learns_linearly_separable_correlation() {
        // Branch B copies branch A: one strong weight suffices.
        let mut recs = Vec::new();
        let mut flip = false;
        for _ in 0..500 {
            flip = !flip;
            recs.push(BranchRecord::conditional(0x100, flip));
            recs.push(BranchRecord::conditional(0x200, flip));
        }
        let stats = simulate(&mut Perceptron::new(8), &Trace::from_records(recs));
        assert!(stats.accuracy() > 0.95, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn learns_long_loop_exit() {
        // A trip-24 loop exit is linearly separable: the not-taken bit's
        // distance uniquely marks the exit iteration, within 32 history
        // bits but beyond a bimodal counter's hysteresis.
        let mut recs = Vec::new();
        for _ in 0..200 {
            for _ in 0..24 {
                recs.push(BranchRecord::conditional(0x40, true));
            }
            recs.push(BranchRecord::conditional(0x40, false));
        }
        let trace = Trace::from_records(recs);
        let perceptron = simulate(&mut Perceptron::default(), &trace);
        let smith = simulate(&mut Smith::new(12), &trace);
        assert!(
            perceptron.correct > smith.correct,
            "perceptron {} vs smith {}",
            perceptron.correct,
            smith.correct
        );
        assert!(
            perceptron.accuracy() > 0.95,
            "accuracy {}",
            perceptron.accuracy()
        );
    }

    #[test]
    fn weights_stay_in_range_and_threshold_gates_training() {
        // Uniform taken: every weight reinforces together, so the output
        // crosses the threshold long before any weight could saturate —
        // after that, training must stop entirely.
        let mut p = Perceptron::new(4);
        let site = BranchSite::new(0x40, 0x80);
        for _ in 0..1000 {
            p.update(site, true);
        }
        let w = p.weights[&0x40].clone();
        assert!(w.iter().all(|&wi| (WEIGHT_MIN..=WEIGHT_MAX).contains(&wi)));
        assert!(p.output(0x40) > p.threshold());
        p.update(site, true);
        assert_eq!(p.weights[&0x40], w, "gated update must not move weights");

        // Pseudo-random outcomes keep the output small and updates
        // frequent; weights must still respect the saturation range.
        let mut p = Perceptron::new(8);
        let mut x = 0x9E37_79B9u32;
        for _ in 0..5000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            p.update(site, x & (1 << 16) != 0);
        }
        let w = &p.weights[&0x40];
        assert!(w.iter().all(|&wi| (WEIGHT_MIN..=WEIGHT_MAX).contains(&wi)));
    }

    #[test]
    fn zero_history_is_per_pc_bias() {
        // With no history the output is the bias alone; two branches with
        // opposite biases are both learned, independently.
        let mut recs = Vec::new();
        for _ in 0..100 {
            recs.push(BranchRecord::conditional(0x100, true));
            recs.push(BranchRecord::conditional(0x200, false));
        }
        let stats = simulate(&mut Perceptron::new(0), &Trace::from_records(recs));
        assert!(stats.accuracy() > 0.97, "accuracy {}", stats.accuracy());
    }
}
