use bp_trace::fx::FxHashMap;

use crate::counter::SaturatingCounter;
use crate::pht::{KeyedCounters, PatternHistoryTable};
use crate::{BranchSite, Predictor};
use bp_trace::Pc;

/// PAs — the per-address two-level adaptive predictor of Yeh & Patt: each
/// branch keeps its own history register (in a branch history table indexed
/// by address bits), and the history pattern selects a counter in one of
/// several address-selected pattern history tables.
///
/// Captures self-history predictability (§4): loops with trip counts within
/// the history length, repeating patterns, and input-structured
/// ("non-repeating") patterns. Both first-level (BHT) and second-level (PHT)
/// structures are finite, so distinct branches can interfere in both.
///
/// # Example
///
/// ```
/// use bp_predictors::{simulate, Pas};
/// use bp_trace::{BranchRecord, Trace};
///
/// // A short loop: taken 6 times, not-taken once — self-history nails it.
/// let trace: Trace = (0..700)
///     .map(|i| BranchRecord::conditional(0x20, i % 7 != 6))
///     .collect();
/// let stats = simulate(&mut Pas::default(), &trace);
/// assert!(stats.accuracy() > 0.95);
/// ```
#[derive(Debug, Clone)]
pub struct Pas {
    history_bits: u32,
    bht_bits: u32,
    table_select_bits: u32,
    bht: Vec<u64>,
    tables: Vec<PatternHistoryTable>,
}

impl Pas {
    /// Creates a PAs with `history_bits` of per-address history, a
    /// `2^bht_bits`-entry branch history table, and `2^table_select_bits`
    /// PHTs of `2^history_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is not in `1..=28`, `bht_bits` exceeds 24,
    /// or `table_select_bits` exceeds 12.
    pub fn new(history_bits: u32, bht_bits: u32, table_select_bits: u32) -> Self {
        Pas::with_counter(
            history_bits,
            bht_bits,
            table_select_bits,
            SaturatingCounter::two_bit(),
        )
    }

    /// As [`Pas::new`] with a custom counter.
    pub fn with_counter(
        history_bits: u32,
        bht_bits: u32,
        table_select_bits: u32,
        init: SaturatingCounter,
    ) -> Self {
        assert!(bht_bits <= 24, "BHT at most 2^24 entries");
        assert!(table_select_bits <= 12, "at most 4096 PHTs");
        let tables = (0..(1usize << table_select_bits))
            .map(|_| PatternHistoryTable::new(history_bits, init))
            .collect();
        Pas {
            history_bits,
            bht_bits,
            table_select_bits,
            bht: vec![0; 1 << bht_bits],
            tables,
        }
    }

    /// Per-address history length.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    #[inline]
    fn bht_index(&self, site: BranchSite) -> usize {
        ((site.pc >> 2) & ((1u64 << self.bht_bits) - 1)) as usize
    }

    #[inline]
    fn table_index(&self, site: BranchSite) -> usize {
        ((site.pc >> 2) & ((1u64 << self.table_select_bits) - 1)) as usize
    }

    #[inline]
    fn history_mask(&self) -> u64 {
        (1u64 << self.history_bits) - 1
    }
}

impl Default for Pas {
    /// PAs(12) with a 1024-entry BHT and 16 PHTs — the workspace reference
    /// configuration (see DESIGN.md §7).
    fn default() -> Self {
        Pas::new(12, 10, 4)
    }
}

impl Predictor for Pas {
    fn name(&self) -> String {
        format!(
            "pas({},{},{})",
            self.history_bits, self.bht_bits, self.table_select_bits
        )
    }

    fn predict(&self, site: BranchSite) -> bool {
        let hist = self.bht[self.bht_index(site)];
        self.tables[self.table_index(site)].predict(hist)
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let bi = self.bht_index(site);
        let ti = self.table_index(site);
        let hist = self.bht[bi];
        self.tables[ti].train(hist, taken);
        self.bht[bi] = ((hist << 1) | u64::from(taken)) & self.history_mask();
    }
}

/// Interference-free PAs: exact per-branch history registers (an unbounded
/// "very large BTB", §4.1.3) and one logical PHT per branch.
///
/// Used by the paper as the class predictor for *non-repeating patterns*,
/// and in Table 3 to separate interference effects from PAs's intrinsic
/// limits (it still cannot predict the exit of a loop longer than its
/// history).
#[derive(Debug, Clone)]
pub struct PasInterferenceFree {
    history_bits: u32,
    histories: FxHashMap<Pc, u64>,
    counters: KeyedCounters,
}

impl PasInterferenceFree {
    /// Creates an interference-free PAs with `history_bits` of exact
    /// per-branch history.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is not in `1..=63`.
    pub fn new(history_bits: u32) -> Self {
        PasInterferenceFree::with_counter(history_bits, SaturatingCounter::two_bit())
    }

    /// As [`PasInterferenceFree::new`] with a custom counter.
    pub fn with_counter(history_bits: u32, init: SaturatingCounter) -> Self {
        assert!(
            (1..=63).contains(&history_bits),
            "history length must be 1..=63"
        );
        PasInterferenceFree {
            history_bits,
            histories: FxHashMap::default(),
            counters: KeyedCounters::new(init),
        }
    }

    /// Per-address history length.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.history_bits) - 1
    }
}

impl Default for PasInterferenceFree {
    /// 12 bits of exact per-branch history.
    fn default() -> Self {
        PasInterferenceFree::new(12)
    }
}

impl Predictor for PasInterferenceFree {
    fn name(&self) -> String {
        format!("if-pas({})", self.history_bits)
    }

    fn predict(&self, site: BranchSite) -> bool {
        let hist = self.histories.get(&site.pc).copied().unwrap_or(0);
        self.counters.predict(site.pc, hist)
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        self.predict_update(site, taken);
    }

    fn predict_update(&mut self, site: BranchSite, taken: bool) -> bool {
        let mask = self.mask();
        let entry = self.histories.entry(site.pc).or_insert(0);
        let hist = *entry;
        *entry = ((hist << 1) | u64::from(taken)) & mask;
        self.counters.predict_train(site.pc, hist, taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use bp_trace::{BranchRecord, Trace};

    /// A loop branch: taken `trip` times, then not-taken, repeated.
    fn loop_trace(pc: Pc, trip: usize, loops: usize) -> Trace {
        let mut recs = Vec::new();
        for _ in 0..loops {
            for _ in 0..trip {
                recs.push(BranchRecord::conditional(pc, true));
            }
            recs.push(BranchRecord::conditional(pc, false));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn pas_predicts_short_loop_exits() {
        // Trip count 6 < 12-bit history: the all-ones-run pattern before the
        // exit is distinguishable and learnable.
        let trace = loop_trace(0x40, 6, 300);
        let stats = simulate(&mut Pas::default(), &trace);
        assert!(stats.accuracy() > 0.97, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn pas_cannot_predict_long_loop_exits() {
        // Trip count 40 >> 12-bit history: the history is all-ones both
        // mid-loop and at the exit; the exit is systematically missed.
        let trace = loop_trace(0x40, 40, 100);
        let stats = simulate(&mut PasInterferenceFree::new(12), &trace);
        // One unavoidable miss per 41 branches ≈ 2.4% floor.
        assert!(stats.accuracy() < 0.99);
        assert!(stats.accuracy() > 0.9);
    }

    #[test]
    fn if_pas_beats_aliased_pas_under_pressure() {
        // 32 branches with strong but *random* per-branch biases hammer an
        // 8-entry BHT and a single shared PHT: the shared history register
        // and counters see a scrambled mix of unrelated branches, while the
        // interference-free version keeps clean per-branch state.
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut recs = Vec::new();
        let mut order: Vec<u64> = (0..32).collect();
        for _ in 0..250 {
            // Shuffled order per round: no phase information survives in
            // the shared history registers.
            order.shuffle(&mut rng);
            for &j in &order {
                let pc = 0x1000 + j * 4;
                // Opposite biases for branches that alias in the 8-entry
                // BHT (j and j+8 share an entry): aliasing is destructive.
                let bias = if (j / 8) % 2 == 0 { 0.95 } else { 0.05 };
                recs.push(BranchRecord::conditional(pc, rng.gen_bool(bias)));
            }
        }
        let trace = Trace::from_records(recs);
        let cramped = simulate(&mut Pas::new(4, 3, 1), &trace);
        let ideal = simulate(&mut PasInterferenceFree::new(4), &trace);
        assert!(
            ideal.correct > cramped.correct,
            "if-pas {} vs pas {}",
            ideal.correct,
            cramped.correct
        );
        assert!(ideal.accuracy() > 0.85);
    }

    #[test]
    fn names() {
        assert_eq!(Pas::default().name(), "pas(12,10,4)");
        assert_eq!(PasInterferenceFree::default().name(), "if-pas(12)");
        assert_eq!(Pas::default().history_bits(), 12);
        assert_eq!(PasInterferenceFree::default().history_bits(), 12);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn if_pas_rejects_zero_history() {
        let _ = PasInterferenceFree::new(0);
    }
}
