use bp_trace::fx::FxHashMap;
use bp_trace::Pc;

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
/// Weight vectors are unbounded per PC — the interference-free
/// idealization this workspace uses for every per-address structure — so
/// what the experiments measure is the scheme's intrinsic linear
/// separability, not table aliasing.
///
/// With `history_bits == 0` only the bias weight remains and the predictor
/// degenerates to a per-PC signed bias counter (threshold 14, saturating
/// at the 8-bit range), a collapse the conformance metamorphic laws pin.
///
/// # Layout
///
/// Every branch's row (the bias, then one weight per history bit, newest
/// first) lives in one row-major `Vec<i16>`; a PC → row map finds it with
/// one probe per step, and rows never move once appended. The history is
/// kept as ±1 signs in a ring of `2h` slots, each outcome written at both
/// copies, so the newest-first window is always the contiguous slice
/// `signs[head..head + h]` and a step never shifts it. A row holds at
/// most 65 weights in `[-128, 127]`, so `|y| ≤ 65 · 128 = 8320` and the
/// dot product sums exactly in `i16` lanes, each product a sign flip.
#[derive(Debug, Clone)]
pub struct Perceptron {
    history_bits: u32,
    /// Offset of each trained branch's row in `weights`.
    rows: FxHashMap<Pc, usize>,
    /// Rows of `history_bits + 1` weights, in first-execution order.
    weights: Vec<i16>,
    /// The history ring, twice over: `+1` taken, `-1` not taken.
    signs: Vec<i16>,
    /// Ring slot of the newest outcome.
    head: usize,
    threshold: i32,
}

impl Perceptron {
    /// Creates a perceptron observing `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` exceeds 64.
    pub fn new(history_bits: u32) -> Self {
        assert!(history_bits <= 64, "history length must be 0..=64");
        Perceptron {
            history_bits,
            rows: FxHashMap::default(),
            weights: Vec::new(),
            // The history starts all not-taken.
            signs: vec![-1; 2 * history_bits as usize],
            head: 0,
            // ⌊1.93·h + 14⌋ in integer arithmetic.
            threshold: (193 * history_bits as i32 + 1400) / 100,
        }
    }

    /// History length in branches.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The training threshold `⌊1.93·h + 14⌋`.
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Weights per row: the bias plus one per history bit.
    fn row_len(&self) -> usize {
        self.history_bits as usize + 1
    }

    /// `pc`'s weight row, if the branch has trained.
    fn row(&self, pc: Pc) -> Option<&[i16]> {
        let n = self.row_len();
        self.rows
            .get(&pc)
            .map(|&start| &self.weights[start..start + n])
    }

    /// The perceptron output for `pc` under the current history: bias plus
    /// the weighted history bits (+w for taken, −w for not-taken).
    /// Untrained branches output 0, which predicts taken.
    fn output(&self, pc: Pc) -> i16 {
        let window = &self.signs[self.head..self.head + self.history_bits as usize];
        self.row(pc).map_or(0, |w| dot(w, window))
    }

    /// Shifts `taken` in as the newest outcome.
    fn push(&mut self, taken: bool) {
        let h = self.history_bits as usize;
        if h == 0 {
            return;
        }
        self.head = self.head.checked_sub(1).unwrap_or(h - 1);
        let sign = if taken { 1 } else { -1 };
        self.signs[self.head] = sign;
        self.signs[self.head + h] = sign;
    }
}

/// `w[0] + Σ w[i+1]·x[i]` over ±1 signs `x`: exact in `i16`, since
/// `|w| ≤ 128` over at most 65 terms bounds every partial sum by 8320.
#[inline]
fn dot(w: &[i16], x: &[i16]) -> i16 {
    w[1..].iter().zip(x).map(|(&wi, &xi)| wi * xi).sum::<i16>() + w[0]
}

/// One training step toward outcome `t` (±1): the bias moves by `t`, each
/// history weight by `t·x`, all clamped to the 8-bit range.
#[inline]
fn train(w: &mut [i16], x: &[i16], t: i16) {
    w[0] = (w[0] + t).clamp(WEIGHT_MIN, WEIGHT_MAX);
    for (wi, &xi) in w[1..].iter_mut().zip(x) {
        *wi = (*wi + t * xi).clamp(WEIGHT_MIN, WEIGHT_MAX);
    }
}

impl Default for Perceptron {
    /// 32 bits of global history — the modern-zoo reference geometry.
    fn default() -> Self {
        Perceptron::new(32)
    }
}

impl Predictor for Perceptron {
    fn name(&self) -> String {
        format!("perceptron({})", self.history_bits)
    }

    fn predict(&self, site: BranchSite) -> bool {
        self.output(site.pc) >= 0
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        self.predict_update(site, taken);
    }

    fn predict_update(&mut self, site: BranchSite, taken: bool) -> bool {
        // An untrained branch outputs 0 ≤ threshold, so it always trains:
        // appending its zero row up front creates exactly the rows a
        // separate predict-then-update would.
        let n = self.row_len();
        let end = self.weights.len();
        let start = *self.rows.entry(site.pc).or_insert(end);
        if start == end {
            self.weights.resize(end + n, 0);
        }
        let w = &mut self.weights[start..start + n];
        let x = &self.signs[self.head..self.head + n - 1];
        let y = dot(w, x);
        let prediction = y >= 0;
        if prediction != taken || i32::from(y).abs() <= self.threshold {
            train(w, x, if taken { 1 } else { -1 });
        }
        self.push(taken);
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
        let w = p.row(0x40).unwrap().to_vec();
        assert!(w.iter().all(|&wi| (WEIGHT_MIN..=WEIGHT_MAX).contains(&wi)));
        assert!(i32::from(p.output(0x40)) > p.threshold());
        p.update(site, true);
        assert_eq!(
            p.row(0x40).unwrap(),
            w,
            "gated update must not move weights"
        );

        // Pseudo-random outcomes keep the output small and updates
        // frequent; weights must still respect the saturation range.
        let mut p = Perceptron::new(8);
        let mut x = 0x9E37_79B9u32;
        for _ in 0..5000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            p.update(site, x & (1 << 16) != 0);
        }
        let w = p.row(0x40).unwrap();
        assert!(w.iter().all(|&wi| (WEIGHT_MIN..=WEIGHT_MAX).contains(&wi)));
    }

    #[test]
    fn dot_is_exact_at_the_i16_bound() {
        // 65 weights at the floor against all-taken signs: the largest
        // magnitude a row can produce, -8320.
        let x = [1i16; 64];
        assert_eq!(dot(&[WEIGHT_MIN; 65], &x), -8320);
        assert_eq!(dot(&[WEIGHT_MAX; 65], &x), 65 * 127);
        assert_eq!(dot(&[WEIGHT_MIN; 65], &[-1; 64]), 64 * 128 - 128);
        let mut w = [WEIGHT_MIN; 65];
        train(&mut w, &x, -1);
        assert_eq!(w, [WEIGHT_MIN; 65], "training clamps at the floor");
        let mut w = [WEIGHT_MAX; 65];
        train(&mut w, &x, 1);
        assert_eq!(w, [WEIGHT_MAX; 65], "training clamps at the ceiling");
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
