use bp_trace::fx::FxHashMap;

use crate::counter::SaturatingCounter;
use crate::history::ShiftHistory;
use crate::pht::PatternHistoryTable;
use crate::{BranchSite, Predictor};
use bp_trace::Pc;

/// Per-prediction interference classification, in the style of Talcott et
/// al. \[9\] and Young et al. \[12\] (paper §2.2): a prediction *interferes*
/// when the PHT counter it reads was last trained by a different
/// (branch, history) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterferenceStats {
    /// Predictions whose counter was last touched by the same
    /// (branch, history) pair — no interference.
    pub clean: u64,
    /// Interfering predictions that were correct anyway, where the
    /// interference-free twin was also correct — neutral aliasing.
    pub neutral: u64,
    /// Interfering predictions that went wrong while the
    /// interference-free twin was right — destructive aliasing.
    pub destructive: u64,
    /// Interfering predictions that went right while the
    /// interference-free twin was wrong — constructive aliasing.
    pub constructive: u64,
}

impl InterferenceStats {
    /// Total predictions classified.
    pub fn total(&self) -> u64 {
        self.clean + self.neutral + self.destructive + self.constructive
    }

    /// Fraction of predictions that hit an interfered counter.
    pub fn interference_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.neutral + self.destructive + self.constructive) as f64 / t as f64
        }
    }

    /// Net accuracy cost of interference in predictions
    /// (destructive − constructive); positive means aliasing hurts.
    pub fn net_destruction(&self) -> i64 {
        self.destructive as i64 - self.constructive as i64
    }
}

/// A gshare instrumented to classify every prediction's aliasing status.
///
/// Runs the real (shared-PHT) gshare and, in parallel, a shadow
/// interference-free twin over the same history; each prediction is binned
/// as clean / neutral / destructive / constructive. This quantifies the
/// §3.3 observation that uncorrelated history bits cost accuracy *through
/// interference* — the mechanism separating gshare from IF-gshare in
/// figure 4 and table 2.
#[derive(Debug, Clone)]
pub struct InterferenceGshare {
    history: ShiftHistory,
    pht: PatternHistoryTable,
    /// Who last trained each PHT slot.
    last_writer: Vec<Option<(Pc, u64)>>,
    /// The interference-free shadow twin.
    shadow: FxHashMap<(Pc, u64), SaturatingCounter>,
    init: SaturatingCounter,
    stats: InterferenceStats,
}

impl InterferenceGshare {
    /// Creates an instrumented gshare with `history_bits` of history and a
    /// `2^history_bits` PHT.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is not in `1..=28`.
    pub fn new(history_bits: u32) -> Self {
        let init = SaturatingCounter::two_bit();
        InterferenceGshare {
            history: ShiftHistory::new(history_bits),
            pht: PatternHistoryTable::new(history_bits, init),
            last_writer: vec![None; 1 << history_bits],
            shadow: FxHashMap::default(),
            init,
            stats: InterferenceStats::default(),
        }
    }

    /// The interference classification accumulated so far.
    pub fn stats(&self) -> InterferenceStats {
        self.stats
    }

    #[inline]
    fn index(&self, site: BranchSite) -> u64 {
        (self.history.value() ^ (site.pc >> 2)) & ((self.last_writer.len() as u64) - 1)
    }
}

impl Predictor for InterferenceGshare {
    fn name(&self) -> String {
        format!("interference-gshare({})", self.history.len())
    }

    fn predict(&self, site: BranchSite) -> bool {
        self.pht.predict(self.index(site))
    }

    fn update(&mut self, site: BranchSite, taken: bool) {
        let idx = self.index(site);
        let me = (site.pc, self.history.value());

        let shared_pred = self.pht.predict(idx);
        let shadow_counter = self.shadow.entry(me).or_insert(self.init);
        let shadow_pred = shadow_counter.predict_taken();

        match self.last_writer[idx as usize] {
            Some(writer) if writer != me => {
                // Interfered access: classify against the shadow twin.
                if shared_pred == taken {
                    if shadow_pred == taken {
                        self.stats.neutral += 1;
                    } else {
                        self.stats.constructive += 1;
                    }
                } else if shadow_pred == taken {
                    self.stats.destructive += 1;
                } else {
                    self.stats.neutral += 1;
                }
            }
            _ => self.stats.clean += 1,
        }

        shadow_counter.train(taken);
        self.pht.train(idx, taken);
        self.last_writer[idx as usize] = Some(me);
        self.history.push(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use bp_trace::{BranchRecord, Trace};

    #[test]
    fn single_branch_is_interference_free() {
        let trace: Trace = (0..500)
            .map(|i| BranchRecord::conditional(0x40, i % 2 == 0))
            .collect();
        let mut p = InterferenceGshare::new(8);
        let _ = simulate(&mut p, &trace);
        let s = p.stats();
        assert_eq!(s.total(), 500);
        assert_eq!(s.interference_rate(), 0.0);
        assert_eq!(s.net_destruction(), 0);
    }

    #[test]
    fn colliding_opposite_branches_show_destruction() {
        // Two branches forced into the same PHT slots with opposite
        // directions: heavy destructive aliasing.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut recs = Vec::new();
        for _ in 0..4000 {
            let j = rng.gen_range(0..32u64);
            let bias = if j % 2 == 0 { 0.95 } else { 0.05 };
            recs.push(BranchRecord::conditional(0x100 + j * 4, rng.gen_bool(bias)));
        }
        let trace = Trace::from_records(recs);
        let mut p = InterferenceGshare::new(4);
        let _ = simulate(&mut p, &trace);
        let s = p.stats();
        assert!(s.interference_rate() > 0.5, "{s:?}");
        assert!(s.destructive > 0, "{s:?}");
        assert!(s.net_destruction() > 0, "{s:?}");
    }

    #[test]
    fn predictions_match_plain_gshare() {
        // The instrumentation must not change predictor behavior.
        let trace: Trace = (0..2000)
            .map(|i| BranchRecord::conditional(0x40 + (i % 9) * 4, i % 3 != 1))
            .collect();
        let plain = simulate(&mut crate::Gshare::new(8), &trace);
        let instrumented = simulate(&mut InterferenceGshare::new(8), &trace);
        assert_eq!(plain, instrumented);
    }

    #[test]
    fn stats_partition_all_predictions() {
        let trace: Trace = (0..3000)
            .map(|i| BranchRecord::conditional(0x40 + (i % 17) * 4, i % 5 != 2))
            .collect();
        let mut p = InterferenceGshare::new(6);
        let r = simulate(&mut p, &trace);
        assert_eq!(p.stats().total(), r.predictions);
    }
}
