/// An *n*-bit saturating up/down counter — the second-level state element of
/// every two-level predictor (Smith '81; Yeh & Patt).
///
/// The counter predicts taken when its most significant bit is set. Training
/// increments on taken and decrements on not-taken, saturating at the ends.
/// Width is parameterized (the paper uses 2-bit throughout; the counter
/// ablation bench varies it).
///
/// # Example
///
/// ```
/// use bp_predictors::SaturatingCounter;
///
/// let mut c = SaturatingCounter::two_bit();
/// assert!(c.predict_taken()); // initialized weakly taken
/// c.train(false);
/// c.train(false);
/// assert!(!c.predict_taken()); // driven to not-taken
/// c.train(false); // saturates at 0
/// assert_eq!(c.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates a counter of `bits` width starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=7` or `initial` exceeds the maximum
    /// value for the width.
    pub fn new(bits: u8, initial: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        let max = (1u8 << bits) - 1;
        assert!(initial <= max, "initial value {initial} exceeds {max}");
        SaturatingCounter {
            value: initial,
            max,
        }
    }

    /// The conventional 2-bit counter initialized weakly taken (value 2).
    pub fn two_bit() -> Self {
        SaturatingCounter::new(2, 2)
    }

    /// A counter of `bits` width initialized weakly taken — the smallest
    /// value that still predicts taken.
    pub fn weakly_taken(bits: u8) -> Self {
        let threshold = 1u8 << (bits - 1);
        SaturatingCounter::new(bits, threshold)
    }

    /// A counter of `bits` width initialized weakly not-taken — the largest
    /// value that still predicts not-taken.
    pub fn weakly_not_taken(bits: u8) -> Self {
        let threshold = 1u8 << (bits - 1);
        SaturatingCounter::new(bits, threshold - 1)
    }

    /// Current raw value.
    #[inline]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Largest representable value for this width.
    #[inline]
    pub fn max_value(&self) -> u8 {
        self.max
    }

    /// Predicts taken when the most significant bit is set.
    #[inline]
    pub fn predict_taken(&self) -> bool {
        self.value > self.max / 2
    }

    /// Trains toward the outcome: increment on taken, decrement on
    /// not-taken, saturating.
    #[inline]
    pub fn train(&mut self, taken: bool) {
        if taken {
            if self.value < self.max {
                self.value += 1;
            }
        } else if self.value > 0 {
            self.value -= 1;
        }
    }

    /// `true` when the counter is at either saturation point (a "strong"
    /// state).
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == 0 || self.value == self.max
    }

    /// Runs `n` consecutive predict-then-train steps against the *same*
    /// outcome, returning how many of the `n` predictions were correct.
    ///
    /// Exactly equivalent to `n` [`SaturatingCounter::predict_taken`] /
    /// [`SaturatingCounter::train`] pairs, but O(1): against a uniform
    /// outcome the counter moves monotonically, so the number of
    /// mispredictions is just the number of steps the value needs to cross
    /// the predict threshold. This is the state-jump behind the oracle
    /// kernel's word-wise fast path (bp-core), where whole 64-execution
    /// words of a single pattern often share one outcome.
    #[inline]
    pub fn train_run(&mut self, n: u64, taken: bool) -> u64 {
        if n == 0 {
            return 0;
        }
        let threshold = self.max / 2;
        let wrong = if taken {
            u64::from((threshold + 1).saturating_sub(self.value)).min(n)
        } else {
            u64::from(self.value.saturating_sub(threshold)).min(n)
        };
        // Enough steps to saturate; value and max are both < 128, so the
        // intermediate sum fits in u8.
        let step = n.min(u64::from(self.max)) as u8;
        self.value = if taken {
            (self.value + step).min(self.max)
        } else {
            self.value.saturating_sub(step)
        };
        n - wrong
    }
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        SaturatingCounter::two_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SaturatingCounter::two_bit();
        assert_eq!(c.value(), 2);
        assert!(c.predict_taken());
        c.train(true);
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
        c.train(true); // saturate high
        assert_eq!(c.value(), 3);
        c.train(false);
        c.train(false);
        assert_eq!(c.value(), 1);
        assert!(!c.predict_taken());
        c.train(false);
        c.train(false); // saturate low
        assert_eq!(c.value(), 0);
        assert!(c.is_saturated());
    }

    #[test]
    fn one_bit_counter_flips_immediately() {
        let mut c = SaturatingCounter::new(1, 1);
        assert!(c.predict_taken());
        c.train(false);
        assert!(!c.predict_taken());
        c.train(true);
        assert!(c.predict_taken());
    }

    #[test]
    fn three_bit_hysteresis() {
        let mut c = SaturatingCounter::weakly_taken(3);
        assert_eq!(c.value(), 4);
        assert!(c.predict_taken());
        c.train(false);
        assert!(!c.predict_taken()); // 3 < 4 threshold
        let w = SaturatingCounter::weakly_not_taken(3);
        assert_eq!(w.value(), 3);
        assert!(!w.predict_taken());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = SaturatingCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_initial_rejected() {
        let _ = SaturatingCounter::new(2, 4);
    }

    #[test]
    fn default_is_two_bit_weakly_taken() {
        let c = SaturatingCounter::default();
        assert_eq!(c.value(), 2);
        assert_eq!(c.max_value(), 3);
    }

    #[test]
    fn train_run_matches_stepwise_replay_exhaustively() {
        // Every width, every starting value, both outcomes, run lengths
        // crossing all saturation distances: the jump must agree with the
        // per-step loop in both correct count and final state.
        for bits in 1..=7u8 {
            let max = (1u16 << bits) - 1;
            for initial in 0..=max as u8 {
                for taken in [false, true] {
                    for n in 0..=(2 * max as u64 + 3) {
                        let mut jumped = SaturatingCounter::new(bits, initial);
                        let got = jumped.train_run(n, taken);
                        let mut stepped = SaturatingCounter::new(bits, initial);
                        let mut correct = 0u64;
                        for _ in 0..n {
                            if stepped.predict_taken() == taken {
                                correct += 1;
                            }
                            stepped.train(taken);
                        }
                        assert_eq!(got, correct, "bits={bits} v={initial} taken={taken} n={n}");
                        assert_eq!(
                            jumped, stepped,
                            "bits={bits} v={initial} taken={taken} n={n}"
                        );
                    }
                }
            }
        }
    }
}
