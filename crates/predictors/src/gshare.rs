use crate::counter::SaturatingCounter;
use crate::history::ShiftHistory;
use crate::pht::{KeyedCounters, PatternHistoryTable};
use crate::{BranchSite, Predictor};

/// McFarling's gshare: a global two-level predictor that XORs the global
/// branch history with the branch address to index one shared pattern
/// history table (paper figure 3).
///
/// The XOR spreads (history, branch) pairs over the PHT, improving
/// utilization relative to GAs — but the table is still shared, so distinct
/// branches/histories alias. That *interference*, together with training
/// time, is exactly what the paper blames for gshare failing to exploit
/// correlation it theoretically captures (§3.6.3).
#[derive(Debug, Clone)]
pub struct Gshare {
    history: ShiftHistory,
    pht: PatternHistoryTable,
}

impl Gshare {
    /// Creates a gshare with `history_bits` of global history and a PHT of
    /// `2^history_bits` two-bit counters (the standard sizing).
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is not in `1..=28`.
    pub fn new(history_bits: u32) -> Self {
        Gshare::with_counter(history_bits, SaturatingCounter::two_bit())
    }

    /// As [`Gshare::new`] with a custom counter.
    pub fn with_counter(history_bits: u32, init: SaturatingCounter) -> Self {
        Gshare::with_geometry(history_bits, history_bits, init)
    }

    /// A gshare whose history length and PHT size are chosen
    /// independently: `history_bits` of global history XORed into a
    /// `2^table_bits`-entry counter table.
    ///
    /// With `history_bits = 0` the XOR contributes nothing and the
    /// predictor degenerates to a per-address bimodal table — exactly
    /// [`crate::Smith`] with `table_bits` of PC index, a collapse the
    /// conformance metamorphic laws pin.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` exceeds 64 or `table_bits` is not in
    /// `1..=28`.
    pub fn with_geometry(history_bits: u32, table_bits: u32, init: SaturatingCounter) -> Self {
        Gshare {
            history: ShiftHistory::new(history_bits),
            pht: PatternHistoryTable::new(table_bits, init),
        }
    }

    /// History length in branches.
    pub fn history_bits(&self) -> u32 {
        self.history.len()
    }

    #[inline]
    fn index(&self, site: BranchSite) -> u64 {
        self.history.value() ^ (site.pc >> 2)
    }
}

impl Default for Gshare {
    /// The paper's reference configuration: 16 bits of history.
    fn default() -> Self {
        Gshare::new(16)
    }
}

impl Predictor for Gshare {
    fn name(&self) -> String {
        format!("gshare({})", self.history.len())
    }

    fn predict(&self, site: BranchSite) -> bool {
        self.pht.predict(self.index(site))
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let idx = self.index(site);
        self.pht.train(idx, taken);
        self.history.push(taken);
    }
}

/// Interference-free gshare: same global history, but one logical PHT per
/// static branch (unbounded keyed counters), eliminating aliasing entirely.
///
/// This is the idealization used throughout §3.6 to separate interference
/// effects from intrinsic correlation capture.
#[derive(Debug, Clone)]
pub struct GshareInterferenceFree {
    history: ShiftHistory,
    counters: KeyedCounters,
}

impl GshareInterferenceFree {
    /// Creates an interference-free gshare observing `history_bits` of
    /// global history.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is not in `1..=64`.
    pub fn new(history_bits: u32) -> Self {
        GshareInterferenceFree::with_counter(history_bits, SaturatingCounter::two_bit())
    }

    /// As [`GshareInterferenceFree::new`] with a custom counter.
    pub fn with_counter(history_bits: u32, init: SaturatingCounter) -> Self {
        GshareInterferenceFree {
            history: ShiftHistory::new(history_bits),
            counters: KeyedCounters::new(init),
        }
    }

    /// History length in branches.
    pub fn history_bits(&self) -> u32 {
        self.history.len()
    }
}

impl Default for GshareInterferenceFree {
    /// 16 bits of history, matching the paper's experiments.
    fn default() -> Self {
        GshareInterferenceFree::new(16)
    }
}

impl Predictor for GshareInterferenceFree {
    fn name(&self) -> String {
        format!("if-gshare({})", self.history.len())
    }

    fn predict(&self, site: BranchSite) -> bool {
        self.counters.predict(site.pc, self.history.value())
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        self.predict_update(site, taken);
    }

    fn predict_update(&mut self, site: BranchSite, taken: bool) -> bool {
        let prediction = self
            .counters
            .predict_train(site.pc, self.history.value(), taken);
        self.history.push(taken);
        prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use bp_trace::{BranchRecord, Trace};

    /// Two perfectly correlated branches: the second repeats the first.
    fn correlated_trace(n: usize) -> Trace {
        let mut recs = Vec::new();
        let mut flip = false;
        for _ in 0..n {
            flip = !flip;
            recs.push(BranchRecord::conditional(0x100, flip));
            recs.push(BranchRecord::conditional(0x200, flip));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn gshare_exploits_correlation() {
        let trace = correlated_trace(500);
        let stats = simulate(&mut Gshare::new(8), &trace);
        // Both the alternation and the copy are in-history; near-perfect.
        assert!(stats.accuracy() > 0.95, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn if_gshare_at_least_as_good_on_correlation() {
        let trace = correlated_trace(500);
        let g = simulate(&mut Gshare::new(8), &trace);
        let ifg = simulate(&mut GshareInterferenceFree::new(8), &trace);
        assert!(ifg.correct >= g.correct);
    }

    #[test]
    fn interference_hurts_small_gshare() {
        // Many branches with conflicting biases hammering a 16-entry PHT.
        let mut recs = Vec::new();
        for i in 0..2000u64 {
            let pc = 0x1000 + (i % 64) * 4;
            recs.push(BranchRecord::conditional(pc, i % 64 < 32));
        }
        let trace = Trace::from_records(recs);
        let small = simulate(&mut Gshare::new(4), &trace);
        let iff = simulate(&mut GshareInterferenceFree::new(4), &trace);
        assert!(iff.correct > small.correct);
    }

    #[test]
    fn names() {
        assert_eq!(Gshare::default().name(), "gshare(16)");
        assert_eq!(GshareInterferenceFree::default().name(), "if-gshare(16)");
        assert_eq!(Gshare::default().history_bits(), 16);
        assert_eq!(GshareInterferenceFree::default().history_bits(), 16);
    }
}
