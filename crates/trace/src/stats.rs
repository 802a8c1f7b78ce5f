use std::collections::HashSet;

use crate::trace::Trace;

/// Aggregate statistics of a trace — the numbers behind the paper's Table 1.
///
/// # Example
///
/// ```
/// use bp_trace::{BranchRecord, Trace, TraceStats};
///
/// let trace: Trace = (0..10)
///     .map(|i| BranchRecord::conditional(0x40, i % 2 == 0))
///     .collect();
/// let stats = TraceStats::of(&trace);
/// assert_eq!(stats.dynamic_conditional, 10);
/// assert_eq!(stats.taken, 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Dynamic conditional branch executions.
    pub dynamic_conditional: u64,
    /// Distinct static conditional branch sites.
    pub static_conditional: u64,
    /// Dynamic conditional branches that were taken.
    pub taken: u64,
    /// Dynamic backward conditional branches (loop back-edges).
    pub backward: u64,
    /// Dynamic records of any non-conditional kind (calls/returns/jumps).
    pub other_transfers: u64,
}

impl TraceStats {
    /// Computes statistics over a trace in one pass.
    pub fn of(trace: &Trace) -> Self {
        let mut stats = TraceStats::default();
        let mut pcs = HashSet::new();
        for rec in trace.iter() {
            if rec.is_conditional() {
                stats.dynamic_conditional += 1;
                pcs.insert(rec.pc);
                if rec.taken {
                    stats.taken += 1;
                }
                if rec.is_backward() {
                    stats.backward += 1;
                }
            } else {
                stats.other_transfers += 1;
            }
        }
        stats.static_conditional = pcs.len() as u64;
        stats
    }

    /// Fraction of dynamic conditional branches that were taken, in
    /// `[0, 1]`; zero for an empty trace.
    pub fn taken_rate(&self) -> f64 {
        if self.dynamic_conditional == 0 {
            0.0
        } else {
            self.taken as f64 / self.dynamic_conditional as f64
        }
    }

    /// Mean dynamic executions per static conditional branch; zero for an
    /// empty trace.
    pub fn executions_per_static(&self) -> f64 {
        if self.static_conditional == 0 {
            0.0
        } else {
            self.dynamic_conditional as f64 / self.static_conditional as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchKind, BranchRecord};

    #[test]
    fn empty_trace() {
        let s = TraceStats::of(&Trace::new());
        assert_eq!(s, TraceStats::default());
        assert_eq!(s.taken_rate(), 0.0);
        assert_eq!(s.executions_per_static(), 0.0);
    }

    #[test]
    fn counts_all_fields() {
        let t = Trace::from_records(vec![
            BranchRecord::conditional(8, true),
            BranchRecord::conditional(8, false),
            BranchRecord::conditional(16, true).with_target(0),
            BranchRecord {
                pc: 20,
                target: 100,
                taken: true,
                kind: BranchKind::Call,
            },
        ]);
        let s = TraceStats::of(&t);
        assert_eq!(s.dynamic_conditional, 3);
        assert_eq!(s.static_conditional, 2);
        assert_eq!(s.taken, 2);
        assert_eq!(s.backward, 1);
        assert_eq!(s.other_transfers, 1);
        assert!((s.taken_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.executions_per_static() - 1.5).abs() < 1e-12);
    }
}
