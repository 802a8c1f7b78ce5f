use crate::fx::FxHashMap;

use crate::record::Pc;
use crate::trace::Trace;

/// Per-static-branch execution profile entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Dynamic executions of the branch.
    pub executions: u64,
    /// How many of those were taken.
    pub taken: u64,
}

impl ProfileEntry {
    /// Taken rate in `[0, 1]`; zero when never executed.
    pub fn taken_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.taken as f64 / self.executions as f64
        }
    }

    /// Bias towards the predominant direction, in `[0.5, 1]` for an
    /// executed branch.
    pub fn bias(&self) -> f64 {
        let r = self.taken_rate();
        r.max(1.0 - r)
    }

    /// The predominant direction over the whole run (`true` = taken).
    /// Ties (exactly 50% taken) report taken.
    pub fn majority_direction(&self) -> bool {
        self.taken * 2 >= self.executions
    }

    /// Dynamic executions an ideal static predictor (predict the majority
    /// direction throughout) gets right — the paper's "ideal static"
    /// baseline (§4.1).
    pub fn ideal_static_correct(&self) -> u64 {
        self.taken.max(self.executions - self.taken)
    }
}

/// Per-branch profile of a whole trace: execution and taken counts for every
/// static conditional branch.
///
/// This is what "ideal static" prediction, bias classification ("more than
/// 99% biased"), and dynamic-frequency weighting are computed from.
///
/// # Example
///
/// ```
/// use bp_trace::{BranchProfile, BranchRecord, Trace};
///
/// let trace: Trace = (0..100)
///     .map(|i| BranchRecord::conditional(0x8, i % 10 != 0)) // 90% taken
///     .collect();
/// let profile = BranchProfile::of(&trace);
/// assert_eq!(profile.get(0x8).unwrap().taken, 90);
/// assert!((profile.ideal_static_accuracy() - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchProfile {
    entries: FxHashMap<Pc, ProfileEntry>,
    total_dynamic: u64,
}

impl BranchProfile {
    /// Builds the profile of a trace in one pass.
    pub fn of(trace: &Trace) -> Self {
        let mut entries: FxHashMap<Pc, ProfileEntry> = FxHashMap::default();
        let mut total = 0u64;
        for rec in trace.conditionals() {
            let e = entries.entry(rec.pc).or_default();
            e.executions += 1;
            if rec.taken {
                e.taken += 1;
            }
            total += 1;
        }
        BranchProfile {
            entries,
            total_dynamic: total,
        }
    }

    /// Assembles a profile from already-aggregated parts (used by
    /// `BranchStreams::profile`, which derives the counts by popcount).
    pub(crate) fn from_parts(entries: FxHashMap<Pc, ProfileEntry>, total_dynamic: u64) -> Self {
        BranchProfile {
            entries,
            total_dynamic,
        }
    }

    /// Profile entry for a branch, if it executed.
    pub fn get(&self, pc: Pc) -> Option<&ProfileEntry> {
        self.entries.get(&pc)
    }

    /// Number of static conditional branches.
    pub fn static_count(&self) -> usize {
        self.entries.len()
    }

    /// Total dynamic conditional executions.
    pub fn dynamic_count(&self) -> u64 {
        self.total_dynamic
    }

    /// Iterates over `(pc, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &ProfileEntry)> {
        self.entries.iter().map(|(pc, e)| (*pc, e))
    }

    /// Total correct predictions of the ideal static predictor across the
    /// whole trace.
    pub fn ideal_static_correct(&self) -> u64 {
        self.entries
            .values()
            .map(|e| e.ideal_static_correct())
            .sum()
    }

    /// Ideal-static prediction accuracy in `[0, 1]`; zero for an empty
    /// trace.
    pub fn ideal_static_accuracy(&self) -> f64 {
        if self.total_dynamic == 0 {
            0.0
        } else {
            self.ideal_static_correct() as f64 / self.total_dynamic as f64
        }
    }

    /// Fraction of *dynamic* branches whose static branch is biased more
    /// than `threshold` (e.g. `0.99` for the paper's "more than 99% biased").
    pub fn dynamic_fraction_biased_above(&self, threshold: f64) -> f64 {
        if self.total_dynamic == 0 {
            return 0.0;
        }
        let biased: u64 = self
            .entries
            .values()
            .filter(|e| e.bias() > threshold)
            .map(|e| e.executions)
            .sum();
        biased as f64 / self.total_dynamic as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    fn trace_of(outcomes: &[(Pc, bool)]) -> Trace {
        outcomes
            .iter()
            .map(|&(pc, taken)| BranchRecord::conditional(pc, taken))
            .collect()
    }

    #[test]
    fn entry_math() {
        let e = ProfileEntry {
            executions: 10,
            taken: 7,
        };
        assert!((e.taken_rate() - 0.7).abs() < 1e-12);
        assert!((e.bias() - 0.7).abs() < 1e-12);
        assert!(e.majority_direction());
        assert_eq!(e.ideal_static_correct(), 7);

        let n = ProfileEntry {
            executions: 10,
            taken: 3,
        };
        assert!(!n.majority_direction());
        assert_eq!(n.ideal_static_correct(), 7);
    }

    #[test]
    fn tie_prefers_taken() {
        let e = ProfileEntry {
            executions: 4,
            taken: 2,
        };
        assert!(e.majority_direction());
        assert_eq!(e.ideal_static_correct(), 2);
    }

    #[test]
    fn profile_counts() {
        let t = trace_of(&[(1, true), (1, true), (1, false), (2, false)]);
        let p = BranchProfile::of(&t);
        assert_eq!(p.static_count(), 2);
        assert_eq!(p.dynamic_count(), 4);
        assert_eq!(p.get(1).unwrap().taken, 2);
        assert_eq!(p.get(2).unwrap().taken, 0);
        assert!(p.get(3).is_none());
        // Ideal static: branch 1 -> 2 correct (taken), branch 2 -> 1 correct.
        assert_eq!(p.ideal_static_correct(), 3);
        assert!((p.ideal_static_accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bias_fraction() {
        // Branch 1: 100% biased, 3 execs. Branch 2: 50%, 2 execs.
        let t = trace_of(&[(1, true), (1, true), (1, true), (2, true), (2, false)]);
        let p = BranchProfile::of(&t);
        assert!((p.dynamic_fraction_biased_above(0.99) - 0.6).abs() < 1e-12);
        assert!((p.dynamic_fraction_biased_above(0.4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile() {
        let p = BranchProfile::of(&Trace::new());
        assert_eq!(p.static_count(), 0);
        assert_eq!(p.ideal_static_accuracy(), 0.0);
        assert_eq!(p.dynamic_fraction_biased_above(0.5), 0.0);
    }
}
