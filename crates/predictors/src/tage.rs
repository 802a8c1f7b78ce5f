use crate::counter::SaturatingCounter;
use crate::history::ShiftHistory;
use crate::pht::PatternHistoryTable;
use crate::{BranchSite, Predictor};

/// Per-table geometry shared by every [`Tage`] built through [`Tage::new`]:
/// `2^10` entries per tagged table.
const INDEX_BITS: u32 = 10;
/// Tag width of every tagged entry (partial tags, as in the original TAGE).
const TAG_BITS: u32 = 8;
/// Shortest tagged history length; table `i` observes
/// `MIN_HISTORY << i` outcomes.
const MIN_HISTORY: u32 = 4;
/// Width of the tagged prediction counters (3-bit, per Seznec & Michaud).
const CTR_BITS: u8 = 3;
/// Saturation ceiling of the per-entry useful counters.
const USEFUL_MAX: u8 = 3;
/// Updates between useful-counter aging passes (each pass halves every
/// useful counter, so stale providers eventually become replaceable).
const AGING_PERIOD: u64 = 1 << 18;
/// Sanity ceiling on the tagged-table count (geometric doubling from
/// [`MIN_HISTORY`] exceeds the 64-bit history register beyond this).
const MAX_TABLES: usize = 8;

/// One tagged entry: a partial tag, a prediction counter, and a useful
/// counter that arbitrates replacement.
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    tag: u64,
    ctr: SaturatingCounter,
    useful: u8,
}

/// A table's view of the global history folded down to `WIDTH` bits (the
/// XOR of consecutive `WIDTH`-bit chunks of its newest `history_bits`
/// outcomes), kept incrementally as in Seznec's TAGE: a circular shift
/// register instead of a refold per lookup.
#[derive(Debug, Clone, Copy)]
struct FoldedHistory<const WIDTH: u32> {
    value: u64,
    /// Where the outcome leaving the table's window sits after the
    /// rotation: `history_bits % WIDTH`, precomputed once.
    out_shift: u32,
}

impl<const WIDTH: u32> FoldedHistory<WIDTH> {
    fn new(history_bits: u32) -> Self {
        FoldedHistory {
            value: 0,
            out_shift: history_bits % WIDTH,
        }
    }

    /// Shifts `taken` in and `outgoing` (the outcome `history_bits - 1`
    /// pushes old, about to leave the window) out. Every chunk moves up
    /// one bit, so the fold rotates left within its width; the newest
    /// outcome enters at bit 0 and the oldest, rotated to bit
    /// `history_bits % WIDTH`, is cancelled there.
    #[inline]
    fn push(&mut self, taken: bool, outgoing: bool) {
        let mask = (1u64 << WIDTH) - 1;
        let rotated = ((self.value << 1) | (self.value >> (WIDTH - 1))) & mask;
        self.value = rotated ^ u64::from(taken) ^ (u64::from(outgoing) << self.out_shift);
    }
}

/// One tagged component table observing a fixed global-history length.
#[derive(Debug, Clone)]
struct TaggedTable {
    history_bits: u32,
    entries: Vec<TagEntry>,
    /// The history folded to the index width.
    index_fold: FoldedHistory<INDEX_BITS>,
    /// The history folded to the tag width, and to one bit less — two
    /// differently-folded hashes, so index aliases rarely share a tag.
    tag_fold: FoldedHistory<TAG_BITS>,
    tag_fold_short: FoldedHistory<{ TAG_BITS - 1 }>,
}

impl TaggedTable {
    fn new(history_bits: u32) -> Self {
        TaggedTable {
            history_bits,
            entries: vec![
                TagEntry {
                    tag: 0,
                    ctr: SaturatingCounter::weakly_not_taken(CTR_BITS),
                    useful: 0,
                };
                1 << INDEX_BITS
            ],
            index_fold: FoldedHistory::new(history_bits),
            tag_fold: FoldedHistory::new(history_bits),
            tag_fold_short: FoldedHistory::new(history_bits),
        }
    }

    /// Advances every fold by one outcome; `history` is the global
    /// history *before* `taken` is pushed.
    #[inline]
    fn push(&mut self, history: u64, taken: bool) {
        let outgoing = (history >> (self.history_bits - 1)) & 1 == 1;
        self.index_fold.push(taken, outgoing);
        self.tag_fold.push(taken, outgoing);
        self.tag_fold_short.push(taken, outgoing);
    }

    /// Entry index for `pc` under the current history.
    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((self.index_fold.value ^ pc ^ (pc >> INDEX_BITS)) & ((1u64 << INDEX_BITS) - 1)) as usize
    }

    /// Partial tag for `pc` under the current history.
    #[inline]
    fn tag(&self, pc: u64) -> u64 {
        (pc ^ self.tag_fold.value ^ (self.tag_fold_short.value << 1)) & ((1u64 << TAG_BITS) - 1)
    }
}

/// A TAGE-style predictor: a bimodal base table plus `N` tagged tables
/// observing geometrically increasing global-history lengths (Seznec &
/// Michaud's TAgged GEometric predictor, the reference design of the
/// modern zoo — see Mittal's survey, arXiv:1804.00261).
///
/// Prediction comes from the *provider* — the matching tagged entry with
/// the longest history — with the next-longest match (or the base table)
/// as the *alternate*. On an overall misprediction a new entry is
/// allocated in a longer table whose slot is not useful; per-entry useful
/// counters are incremented when the provider beats the alternate,
/// decremented when it loses, and periodically aged so dead entries free
/// up.
///
/// With zero tagged tables the predictor **is** its bimodal base —
/// exactly [`crate::Smith`] with the same index width, a collapse the
/// conformance metamorphic laws pin.
#[derive(Debug, Clone)]
pub struct Tage {
    base: PatternHistoryTable,
    base_bits: u32,
    tables: Vec<TaggedTable>,
    history: ShiftHistory,
    tick: u64,
}

/// A provider/alternate pair located during the table scan:
/// `(table index, entry index)`.
type Slot = (usize, usize);

impl Tage {
    /// Creates a TAGE with `tables` tagged tables of history lengths
    /// `MIN_HISTORY << i` (4, 8, 16, 32, 64 for the first five) over a
    /// bimodal base of `2^base_bits` two-bit counters.
    ///
    /// `tables == 0` degenerates to the bare bimodal base.
    ///
    /// # Panics
    ///
    /// Panics if `base_bits` is not in `1..=28` or the longest history
    /// would exceed 64 bits (`tables > 5`).
    pub fn new(tables: u32, base_bits: u32) -> Self {
        let histories: Vec<u32> = (0..tables).map(|i| MIN_HISTORY << i).collect();
        Tage::with_histories(base_bits, &histories)
    }

    /// As [`Tage::new`] with explicit per-table history lengths (strictly
    /// ascending, each `1..=64`).
    ///
    /// # Panics
    ///
    /// Panics on a non-ascending or out-of-range history list, more than
    /// 8 tables, or `base_bits` outside `1..=28`.
    pub fn with_histories(base_bits: u32, histories: &[u32]) -> Self {
        assert!(
            histories.len() <= MAX_TABLES,
            "at most {MAX_TABLES} tagged tables"
        );
        assert!(
            histories.windows(2).all(|w| w[0] < w[1]),
            "history lengths must be strictly ascending"
        );
        assert!(
            histories.iter().all(|&h| (1..=64).contains(&h)),
            "history lengths must be 1..=64"
        );
        Tage {
            base: PatternHistoryTable::new(base_bits, SaturatingCounter::two_bit()),
            base_bits,
            tables: histories.iter().map(|&h| TaggedTable::new(h)).collect(),
            history: ShiftHistory::new(64),
            tick: 0,
        }
    }

    /// Longest tagged history length, 0 with no tagged tables.
    pub fn max_history(&self) -> u32 {
        self.tables.last().map_or(0, |t| t.history_bits)
    }

    /// Number of tagged tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Scans every tagged table for `pc`, returning the provider (longest
    /// matching) and alternate (next longest) slots.
    fn find(&self, pc: u64) -> (Option<Slot>, Option<Slot>) {
        let mut provider = None;
        let mut alt = None;
        for (t, table) in self.tables.iter().enumerate() {
            let idx = table.index(pc);
            if table.entries[idx].tag == table.tag(pc) {
                alt = provider;
                provider = Some((t, idx));
            }
        }
        (provider, alt)
    }

    fn slot_prediction(&self, slot: Option<Slot>, pc: u64) -> bool {
        match slot {
            Some((t, i)) => self.tables[t].entries[i].ctr.predict_taken(),
            None => self.base.predict(pc),
        }
    }
}

impl Default for Tage {
    /// Four tagged tables (histories 4/8/16/32) over a 4096-entry base —
    /// the modern-zoo reference geometry.
    fn default() -> Self {
        Tage::new(4, 12)
    }
}

impl Predictor for Tage {
    fn name(&self) -> String {
        format!(
            "tage({},{},{})",
            self.tables.len(),
            self.max_history(),
            self.base_bits
        )
    }

    fn predict(&self, site: BranchSite) -> bool {
        let pc = site.pc >> 2;
        let (provider, _) = self.find(pc);
        self.slot_prediction(provider, pc)
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        self.predict_update(site, taken);
    }

    fn predict_update(&mut self, site: BranchSite, taken: bool) -> bool {
        let pc = site.pc >> 2;
        let (provider, alt) = self.find(pc);
        let pred = self.slot_prediction(provider, pc);
        let alt_pred = self.slot_prediction(alt, pc);

        match provider {
            Some((t, i)) => {
                // The useful counter tracks whether the provider earns its
                // slot: only when it actually disagrees with the alternate
                // does its correctness carry information.
                if pred != alt_pred {
                    let e = &mut self.tables[t].entries[i];
                    if pred == taken {
                        e.useful = (e.useful + 1).min(USEFUL_MAX);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                self.tables[t].entries[i].ctr.train(taken);
            }
            None => self.base.train(pc, taken),
        }

        // Allocate a longer-history entry on a misprediction, taking the
        // first not-useful slot above the provider; if every candidate is
        // useful, decay them all instead (deterministic — no LFSR — so
        // simulations replay bit-exactly).
        if pred != taken {
            let start = provider.map_or(0, |(t, _)| t + 1);
            let mut allocated = false;
            for table in &mut self.tables[start..] {
                let (idx, tag) = (table.index(pc), table.tag(pc));
                let e = &mut table.entries[idx];
                if e.useful == 0 {
                    e.tag = tag;
                    e.ctr = if taken {
                        SaturatingCounter::weakly_taken(CTR_BITS)
                    } else {
                        SaturatingCounter::weakly_not_taken(CTR_BITS)
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for table in &mut self.tables[start..] {
                    let idx = table.index(pc);
                    let e = &mut table.entries[idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        self.tick += 1;
        if self.tick >= AGING_PERIOD {
            self.tick = 0;
            for table in &mut self.tables {
                for e in &mut table.entries {
                    e.useful >>= 1;
                }
            }
        }
        let history = self.history.value();
        for table in &mut self.tables {
            table.push(history, taken);
        }
        self.history.push(taken);
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, simulate_per_branch, Gshare, Smith};
    use bp_trace::{BranchRecord, Trace};

    /// A loop of trip `t`: `t` taken then one not-taken, repeated.
    fn loop_trace(trip: usize, exits: usize) -> Trace {
        let mut recs = Vec::new();
        for _ in 0..exits {
            for _ in 0..trip {
                recs.push(BranchRecord::conditional(0x40, true));
            }
            recs.push(BranchRecord::conditional(0x40, false));
        }
        Trace::from_records(recs)
    }

    /// The from-scratch fold the registers must track: the XOR of
    /// consecutive `bits`-wide chunks of the newest `history_bits`
    /// outcomes of `history`.
    fn fold(history: u64, history_bits: u32, bits: u32) -> u64 {
        let mut v = history & (u64::MAX >> (64 - history_bits));
        let mut out = 0;
        while v != 0 {
            out ^= v & ((1u64 << bits) - 1);
            v >>= bits;
        }
        out
    }

    #[test]
    fn folded_registers_track_the_reference_fold() {
        for history_bits in [1, 4, 7, 8, 10, 27, 32, 64] {
            let mut table = TaggedTable::new(history_bits);
            let mut history = ShiftHistory::new(64);
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for step in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Long all-taken / all-not-taken runs exercise the
                // outgoing bit as hard as random ones.
                let taken = if step % 100 < 70 {
                    x & 1 == 1
                } else {
                    step % 200 < 100
                };
                table.push(history.value(), taken);
                history.push(taken);
                let h = history.value();
                let folds = [
                    (table.index_fold.value, INDEX_BITS),
                    (table.tag_fold.value, TAG_BITS),
                    (table.tag_fold_short.value, TAG_BITS - 1),
                ];
                for (register, width) in folds {
                    assert_eq!(
                        register,
                        fold(h, history_bits, width),
                        "history {history_bits}, width {width}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn names_and_geometry() {
        assert_eq!(Tage::default().name(), "tage(4,32,12)");
        assert_eq!(Tage::new(0, 10).name(), "tage(0,0,10)");
        assert_eq!(Tage::default().max_history(), 32);
        assert_eq!(Tage::default().table_count(), 4);
        assert_eq!(Tage::with_histories(8, &[3, 9, 27]).max_history(), 27);
    }

    #[test]
    fn zero_tables_is_exactly_bimodal() {
        let trace = loop_trace(5, 100);
        let tage = simulate_per_branch(&mut Tage::new(0, 8), &trace);
        let smith = simulate_per_branch(&mut Smith::new(8), &trace);
        assert_eq!(tage, smith);
    }

    #[test]
    fn captures_long_loop_exits_bimodal_misses() {
        // Trip 20 exceeds any counter's hysteresis: bimodal mispredicts
        // every exit, TAGE's 32-bit-history table sees the previous exit.
        let trace = loop_trace(20, 200);
        let tage = simulate(&mut Tage::default(), &trace);
        let smith = simulate(&mut Smith::new(12), &trace);
        assert!(
            tage.correct > smith.correct + 100,
            "tage {} vs smith {}",
            tage.correct,
            smith.correct
        );
        assert!(tage.accuracy() > 0.98, "accuracy {}", tage.accuracy());
    }

    #[test]
    fn beats_gshare_past_its_history_window() {
        // Trip 24 loop: the exit is 24 outcomes back, outside gshare(16)'s
        // window once the body saturates it, inside TAGE's 32-bit table.
        let trace = loop_trace(24, 150);
        let tage = simulate(&mut Tage::default(), &trace);
        let gshare = simulate(&mut Gshare::new(16), &trace);
        assert!(
            tage.correct > gshare.correct,
            "tage {} vs gshare {}",
            tage.correct,
            gshare.correct
        );
    }

    #[test]
    fn aging_halves_useful_counters() {
        let mut tage = Tage::new(1, 4);
        // Force a useful counter up, then push past the aging period.
        let site = BranchSite::new(0x40, 0x80);
        for i in 0..(AGING_PERIOD + 10) {
            let taken = i % 3 != 0;
            tage.update(site, taken);
        }
        let max_useful = tage
            .tables
            .iter()
            .flat_map(|t| t.entries.iter())
            .map(|e| e.useful)
            .max()
            .unwrap();
        assert!(max_useful <= USEFUL_MAX);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_histories_rejected() {
        let _ = Tage::with_histories(8, &[8, 8]);
    }

    #[test]
    #[should_panic(expected = "tagged tables")]
    fn too_many_tables_rejected() {
        let _ = Tage::with_histories(8, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }
}
