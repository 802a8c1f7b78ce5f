//! The perceptron's row-major, sign-vector kernel against the kernel it
//! replaced: a per-PC map of weight vectors dotted with the packed
//! history one bit at a time. The reference below is that kernel,
//! copied into this test as the oracle; every prediction must agree,
//! step by step, and so must the trained state seen through `predict`.

use proptest::prelude::*;

use bp_predictors::{BranchSite, Perceptron, Predictor, ShiftHistory};
use bp_trace::fx::FxHashMap;
use bp_trace::{BranchRecord, Pc, Trace};

/// The bit-by-bit perceptron, as the library implemented it before the
/// sign-vector kernel.
struct Reference {
    history: ShiftHistory,
    weights: FxHashMap<Pc, Vec<i16>>,
    threshold: i32,
}

impl Reference {
    fn new(history_bits: u32) -> Self {
        Reference {
            history: ShiftHistory::new(history_bits),
            weights: FxHashMap::default(),
            threshold: (193 * history_bits as i32 + 1400) / 100,
        }
    }

    fn output(&self, pc: Pc) -> i32 {
        self.weights
            .get(&pc)
            .map_or(0, |w| dot(w, self.history.value()))
    }

    fn predict_update(&mut self, pc: Pc, taken: bool) -> (bool, i32) {
        let len = self.history.len() as usize + 1;
        let w = self.weights.entry(pc).or_insert_with(|| vec![0; len]);
        let hist = self.history.value();
        let y = dot(w, hist);
        let prediction = y >= 0;
        if prediction != taken || y.abs() <= self.threshold {
            let t: i16 = if taken { 1 } else { -1 };
            w[0] = (w[0] + t).clamp(-128, 127);
            for (i, wi) in w[1..].iter_mut().enumerate() {
                let x = ((hist >> i) & 1) as i16 * 2 - 1;
                *wi = (*wi + t * x).clamp(-128, 127);
            }
        }
        self.history.push(taken);
        (prediction, y)
    }
}

fn dot(w: &[i16], hist: u64) -> i32 {
    let mut y = i32::from(w[0]);
    for (i, &wi) in w[1..].iter().enumerate() {
        let x = ((hist >> i) & 1) as i32 * 2 - 1;
        y += x * i32::from(wi);
    }
    y
}

/// Drives both kernels over `trace` and returns the first disagreement
/// as `(step, what)`, with the largest reference output magnitude.
fn compare(history_bits: u32, trace: &Trace) -> (Option<(usize, &'static str)>, i32) {
    let mut kernel = Perceptron::new(history_bits);
    let mut reference = Reference::new(history_bits);
    let mut peak = 0;
    for (step, rec) in trace.conditionals().enumerate() {
        let (want, y) = reference.predict_update(rec.pc, rec.taken);
        peak = peak.max(y.abs());
        if kernel.predict_update(BranchSite::from(rec), rec.taken) != want {
            return (Some((step, "step")), peak);
        }
    }
    for rec in trace.conditionals() {
        if kernel.predict(BranchSite::from(rec)) != (reference.output(rec.pc) >= 0) {
            return (Some((trace.conditional_count(), "final predict")), peak);
        }
    }
    (None, peak)
}

const HISTORY_BITS: [u32; 12] = [0, 1, 2, 7, 15, 16, 17, 31, 32, 33, 63, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sign_vector_kernel_matches_the_bit_by_bit_reference(
        trace in bp_trace::testgen::arb_trace(300, 0x4000, 0..3000)
    ) {
        for h in HISTORY_BITS {
            prop_assert_eq!(compare(h, &trace).0, None, "history bits {}", h);
        }
    }
}

/// h = 64 through long all-taken and all-not-taken runs: taken runs of
/// 48 against not-taken runs of 96 drive the row into the clamp at both
/// ends. Gated training can never fill a row with one clamp value, so
/// the output stays far below the 8320 bound: the update that would
/// saturate the last weight needs every sign to oppose the outcome, and
/// that history already outputs the outcome at full confidence. The
/// bound itself is pinned by the kernel's `dot_is_exact_at_the_i16_bound`
/// unit test.
#[test]
fn saturating_runs_at_full_history_match_the_reference() {
    let mut recs = Vec::new();
    for _ in 0..300 {
        recs.extend(std::iter::repeat_n(
            BranchRecord::conditional(0x40, true),
            48,
        ));
        recs.extend(std::iter::repeat_n(
            BranchRecord::conditional(0x40, false),
            96,
        ));
    }
    for taken in [true, false] {
        recs.extend(std::iter::repeat_n(
            BranchRecord::conditional(0x80, taken),
            20_000,
        ));
    }
    let trace = Trace::from_records(recs);
    let (divergence, peak) = compare(64, &trace);
    assert_eq!(divergence, None);

    let mut reference = Reference::new(64);
    for rec in trace.conditionals().take(300 * 144) {
        reference.predict_update(rec.pc, rec.taken);
    }
    let row = &reference.weights[&0x40];
    assert!(row.contains(&-128) && row.contains(&127), "{row:?}");
    assert!((500..8320).contains(&peak), "peak output {peak}");
}
