/// A branch instruction address.
///
/// Synthetic workloads assign stable, unique `Pc` values to every static
/// branch site; real traces would use instruction addresses. The alias keeps
/// signatures readable and makes it easy to widen later.
pub type Pc = u64;

/// The kind of a control-transfer instruction.
///
/// The analyses in the paper concern conditional branches only, but the
/// trace format carries calls, returns, and unconditional jumps too so the
/// path (and in-path correlation across subroutine boundaries, §3.1) is
/// fully represented by workloads that want it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BranchKind {
    /// A conditional direct branch; the only kind predictors are scored on.
    #[default]
    Conditional,
    /// A subroutine call.
    Call,
    /// A subroutine return.
    Return,
    /// An unconditional direct jump.
    Jump,
}

impl BranchKind {
    /// Returns `true` for [`BranchKind::Conditional`].
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }
}

/// One dynamic branch execution in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub pc: Pc,
    /// Address the branch transfers to when taken.
    pub target: Pc,
    /// Outcome: `true` if the branch was taken.
    pub taken: bool,
    /// What kind of control transfer this is.
    pub kind: BranchKind,
}

impl BranchRecord {
    /// Creates a conditional branch record.
    ///
    /// The target defaults to `pc + 4` (a forward branch); use
    /// [`BranchRecord::with_target`] to mark backward (loop) branches.
    #[inline]
    pub fn conditional(pc: Pc, taken: bool) -> Self {
        BranchRecord {
            pc,
            target: pc.wrapping_add(4),
            taken,
            kind: BranchKind::Conditional,
        }
    }

    /// Returns a copy of `self` with the given target address.
    #[inline]
    pub fn with_target(mut self, target: Pc) -> Self {
        self.target = target;
        self
    }

    /// A branch is *backward* when its taken-target does not lie after the
    /// branch itself. Backward conditional branches close loops; the §3.2
    /// "iteration" tagging scheme counts them to identify which loop
    /// iteration a prior branch instance belongs to.
    #[inline]
    pub fn is_backward(&self) -> bool {
        self.target <= self.pc
    }

    /// `true` when this record participates in prediction accuracy
    /// accounting (i.e. it is a conditional branch).
    #[inline]
    pub fn is_conditional(&self) -> bool {
        self.kind.is_conditional()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_constructor_defaults_forward() {
        let r = BranchRecord::conditional(100, true);
        assert_eq!(r.pc, 100);
        assert_eq!(r.target, 104);
        assert!(r.taken);
        assert!(!r.is_backward());
        assert!(r.is_conditional());
    }

    #[test]
    fn backward_detection() {
        let fwd = BranchRecord::conditional(100, true).with_target(200);
        let bwd = BranchRecord::conditional(100, true).with_target(40);
        let self_loop = BranchRecord::conditional(100, true).with_target(100);
        assert!(!fwd.is_backward());
        assert!(bwd.is_backward());
        assert!(self_loop.is_backward());
    }

    #[test]
    fn kind_is_conditional() {
        assert!(BranchKind::Conditional.is_conditional());
        assert!(!BranchKind::Call.is_conditional());
        assert!(!BranchKind::Return.is_conditional());
        assert!(!BranchKind::Jump.is_conditional());
    }

    #[test]
    fn wrapping_pc_does_not_panic() {
        let r = BranchRecord::conditional(Pc::MAX, false);
        // Wraps to 3; the record is still well-formed.
        assert_eq!(r.target, 3);
    }
}
