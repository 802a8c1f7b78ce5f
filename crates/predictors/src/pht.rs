use bp_trace::fx::FxHashMap;

use crate::counter::SaturatingCounter;

/// A fixed-size pattern history table: `2^index_bits` saturating counters.
///
/// Indexing wraps via masking, so any `u64` index is accepted — the aliasing
/// that masking introduces is exactly the PHT interference the paper
/// discusses (§2.2, §3.3).
#[derive(Debug, Clone)]
pub struct PatternHistoryTable {
    counters: Vec<SaturatingCounter>,
    mask: u64,
}

impl PatternHistoryTable {
    /// Creates a table of `2^index_bits` copies of `init`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=28` (2^28 counters ≈ 256 MiB is
    /// the sanity ceiling).
    pub fn new(index_bits: u32, init: SaturatingCounter) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "PHT index width must be 1..=28 bits"
        );
        PatternHistoryTable {
            counters: vec![init; 1 << index_bits],
            mask: (1u64 << index_bits) - 1,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Always `false`: a PHT has at least two counters.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The counter selected by `index` (masked).
    #[inline]
    pub fn counter(&self, index: u64) -> &SaturatingCounter {
        &self.counters[(index & self.mask) as usize]
    }

    /// Mutable access to the counter selected by `index` (masked).
    #[inline]
    pub fn counter_mut(&mut self, index: u64) -> &mut SaturatingCounter {
        &mut self.counters[(index & self.mask) as usize]
    }

    /// Convenience: the prediction of the selected counter.
    #[inline]
    pub fn predict(&self, index: u64) -> bool {
        self.counter(index).predict_taken()
    }

    /// Convenience: trains the selected counter.
    #[inline]
    pub fn train(&mut self, index: u64, taken: bool) {
        self.counter_mut(index).train(taken);
    }
}

/// An unbounded counter store keyed by `(branch, pattern)` — the
/// *interference-free* PHT idealization: one logical table per static
/// branch, no aliasing, no capacity limit (the "prohibitively large" but
/// analytically clean structure of §2.2).
#[derive(Debug, Clone, Default)]
pub struct KeyedCounters {
    counters: FxHashMap<(u64, u64), SaturatingCounter>,
    init: SaturatingCounter,
}

impl KeyedCounters {
    /// Creates an empty store whose counters start as `init`.
    pub fn new(init: SaturatingCounter) -> Self {
        KeyedCounters {
            counters: FxHashMap::default(),
            init,
        }
    }

    /// Number of materialized counters (those actually touched).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when no counter has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Prediction of the counter for `(key, pattern)`; untouched counters
    /// predict from the initial value.
    #[inline]
    pub fn predict(&self, key: u64, pattern: u64) -> bool {
        self.counters
            .get(&(key, pattern))
            .unwrap_or(&self.init)
            .predict_taken()
    }

    /// Predicts from the counter for `(key, pattern)`, then trains it with
    /// `taken` — one map probe for the whole simulation step. The counter
    /// materializes on first touch; the returned prediction is what
    /// [`KeyedCounters::predict`] would have answered.
    #[inline]
    pub fn predict_train(&mut self, key: u64, pattern: u64, taken: bool) -> bool {
        let counter = self.counters.entry((key, pattern)).or_insert(self.init);
        let prediction = counter.predict_taken();
        counter.train(taken);
        prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pht_masks_index() {
        let mut pht = PatternHistoryTable::new(2, SaturatingCounter::two_bit());
        assert_eq!(pht.len(), 4);
        assert!(!pht.is_empty());
        pht.train(5, false); // aliases with index 1
        pht.train(1, false);
        assert!(!pht.predict(1));
        assert!(!pht.predict(5));
        assert!(pht.predict(0)); // untouched, init weakly taken
    }

    #[test]
    #[should_panic(expected = "index width")]
    fn pht_rejects_huge_width() {
        let _ = PatternHistoryTable::new(29, SaturatingCounter::two_bit());
    }

    #[test]
    fn keyed_counters_no_interference() {
        let mut kc = KeyedCounters::new(SaturatingCounter::two_bit());
        assert!(kc.is_empty());
        assert!(
            kc.predict_train(1, 7, false),
            "untouched counter predicts from init"
        );
        assert!(!kc.predict_train(1, 7, false));
        // Same pattern, different branch: untouched.
        assert!(!kc.predict(1, 7));
        assert!(kc.predict(2, 7));
        assert!(kc.predict(1, 8));
        assert_eq!(kc.len(), 1);
    }
}
