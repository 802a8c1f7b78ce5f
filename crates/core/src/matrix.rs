use bp_trace::fx::FxHashMap;
use bp_trace::io::TraceIoError;
use bp_trace::{BranchStreams, InstanceTag, Pc, TagOutcome, Trace, TraceSource, Words};

use crate::candidates::TagCandidates;
use crate::sweep::pack_planes;

/// For one static branch: the ternary outcome of every candidate tag at
/// every dynamic execution, stored as packed bit-planes.
///
/// Each candidate column holds two `u64` planes over the branch's
/// executions — an **in-path** plane (bit set when the tag resolved inside
/// the window) and a **direction** plane (bit set when that resolved
/// instance was taken; always a subset of the in-path plane). The branch's
/// own outcomes are a third plane. The ternary digit of §3.4
/// (0 = taken, 1 = not-taken, 2 = not-in-path) is recovered from the two
/// column planes, and the oracle scoring kernel consumes whole 64-execution
/// words of them at a time (see `oracle.rs`), which is why the planes —
/// not a byte-per-digit array — are the storage of record. Selective-
/// history tag sets are scored by replaying these planes through small
/// counter tables; no further trace passes are needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchMatrix {
    tags: Vec<InstanceTag>,
    executions: usize,
    /// One in-path plane per candidate column, `words()` u64s each.
    /// Planes are [`Words`] — owned while building, zero-copy views when
    /// re-opened from a `.bps` artifact; the kernels only see `&[u64]`.
    inpath: Vec<Words>,
    /// One direction plane per candidate column; `dir[c] ⊆ inpath[c]`.
    dir: Vec<Words>,
    /// The branch's own outcome plane.
    taken: Words,
}

#[inline]
fn get_bit(plane: &[u64], i: usize) -> bool {
    plane[i / 64] >> (i % 64) & 1 == 1
}

impl BranchMatrix {
    /// Assembles a matrix from packed planes, taken by move: owned `Vec`s
    /// from the builder and sweep materialization, or [`Words`] views into
    /// a mapped `.bps` artifact (whose store validated extents and padding).
    ///
    /// Each column's planes must hold `executions.div_ceil(64)` words, with
    /// `dir` a subset of `inpath` and no bits set at or beyond
    /// `executions`.
    pub(crate) fn from_planes<P: Into<Words>>(
        tags: Vec<InstanceTag>,
        executions: usize,
        inpath: Vec<P>,
        dir: Vec<P>,
        taken: impl Into<Words>,
    ) -> Self {
        let m = BranchMatrix {
            tags,
            executions,
            inpath: inpath.into_iter().map(Into::into).collect(),
            dir: dir.into_iter().map(Into::into).collect(),
            taken: taken.into(),
        };
        let words = m.words();
        debug_assert_eq!(m.inpath.len(), m.tags.len());
        debug_assert_eq!(m.dir.len(), m.tags.len());
        debug_assert_eq!(m.taken.len(), words);
        // Shapes only: a mapped plane's bits are file content, not checked.
        debug_assert!(m.inpath.iter().all(|p| p.len() == words));
        m
    }

    /// The candidate tags (columns), most-visible first.
    pub fn tags(&self) -> &[InstanceTag] {
        &self.tags
    }

    /// Number of dynamic executions (rows).
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// Words per plane (`executions` packed 64 to a `u64`, rounded up).
    #[inline]
    pub fn words(&self) -> usize {
        self.executions.div_ceil(64)
    }

    /// The branch outcome at execution `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn taken(&self, e: usize) -> bool {
        assert!(e < self.executions, "execution out of range");
        get_bit(&self.taken, e)
    }

    /// The branch's outcome plane, one bit per execution.
    #[inline]
    pub fn taken_plane(&self) -> &[u64] {
        &self.taken
    }

    /// Column `c`'s in-path plane: bit `e` set when the tag resolved inside
    /// the window at execution `e`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn inpath_plane(&self, c: usize) -> &[u64] {
        assert!(c < self.tags.len(), "candidate column out of range");
        &self.inpath[c]
    }

    /// Column `c`'s direction plane: bit `e` set when the resolved instance
    /// was taken (a subset of [`BranchMatrix::inpath_plane`]).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn dir_plane(&self, c: usize) -> &[u64] {
        assert!(c < self.tags.len(), "candidate column out of range");
        &self.dir[c]
    }

    /// The tag outcome of candidate column `c` at execution `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` or `c` is out of range.
    pub fn outcome(&self, e: usize, c: usize) -> TagOutcome {
        assert!(e < self.executions, "execution out of range");
        if !get_bit(self.inpath_plane(c), e) {
            TagOutcome::NotInPath
        } else if get_bit(self.dir_plane(c), e) {
            TagOutcome::Taken
        } else {
            TagOutcome::NotTaken
        }
    }
}

/// Candidate tag outcomes for every static branch of a trace, computed in a
/// single streaming pass.
///
/// This is the workhorse behind the oracle selective-history analysis
/// (§3.4): one pass over the trace with a [`bp_trace::PathWindow`]
/// resolves, for every dynamic branch, the taken / not-taken /
/// not-in-path status of each of its candidate correlated instances. All subsequent subset-search passes run
/// over this compact matrix instead of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeMatrix {
    branches: FxHashMap<Pc, BranchMatrix>,
    window: usize,
}

impl OutcomeMatrix {
    /// Builds the matrix for `trace` using `candidates` and a path window
    /// of `window` branches (use the same window length the candidates were
    /// collected with).
    pub fn build(trace: &Trace, candidates: &TagCandidates, window: usize) -> Self {
        OutcomeMatrix::build_from_source_sharded(trace, candidates, window, 1)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`OutcomeMatrix::build`], consuming any [`TraceSource`] in one
    /// streaming scan folded on the calling thread: the sweep builder's
    /// second pass at one window, whose planes move into the matrix.
    /// Working memory is the packed planes themselves (~2 bits per
    /// candidate per execution); the raw records never accumulate.
    /// `_shards` does not change the scan, and the matrix is identical for
    /// every value.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    pub fn build_from_source_sharded<T: TraceSource + Sync + ?Sized>(
        source: &T,
        candidates: &TagCandidates,
        window: usize,
        _shards: usize,
    ) -> Result<Self, TraceIoError> {
        let columns: Vec<(Pc, &[InstanceTag])> = candidates.iter().collect();
        let (planes, _) = pack_planes(source, &[window], &columns)?;
        let branches = planes
            .into_iter()
            .map(|(pc, sb)| (pc, sb.into_matrix()))
            .collect();
        Ok(OutcomeMatrix { branches, window })
    }

    /// Assembles a matrix from per-branch parts (the sweep artifact's
    /// materialization path and the `.bps` re-open path).
    pub(crate) fn from_parts(branches: FxHashMap<Pc, BranchMatrix>, window: usize) -> Self {
        OutcomeMatrix { branches, window }
    }

    /// The window length the matrix was built with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The matrix of one branch, if it executed.
    pub fn branch(&self, pc: Pc) -> Option<&BranchMatrix> {
        self.branches.get(&pc)
    }

    /// Iterates `(pc, matrix)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &BranchMatrix)> {
        self.branches.iter().map(|(pc, m)| (*pc, m))
    }

    /// Number of static branches covered.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Total dynamic executions covered (sum of rows over all branches).
    pub fn dynamic_count(&self) -> u64 {
        self.branches.values().map(|m| m.executions() as u64).sum()
    }

    /// Every branch's own outcome plane as packed streams. They equal
    /// [`BranchStreams::of`] on the trace when the matrix lists every
    /// conditional branch the trace executes, as a build from candidates
    /// collected on that trace does: pass 1 ranks each executed branch,
    /// candidate columns or not. Owned planes are copied; planes viewing
    /// a `.bps` file stay views.
    pub fn streams(&self) -> BranchStreams {
        BranchStreams::from_planes(
            self.branches
                .iter()
                .map(|(&pc, m)| (pc, m.taken.clone(), m.executions)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{BranchRecord, TagScheme};

    /// 0x200 copies 0x100's outcome exactly.
    fn copy_trace(n: usize) -> Trace {
        let mut recs = Vec::new();
        for i in 0..n {
            let dir = i % 3 == 0;
            recs.push(BranchRecord::conditional(0x100, dir));
            recs.push(BranchRecord::conditional(0x200, dir));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn matrix_shape_matches_trace() {
        let trace = copy_trace(20);
        let cands = TagCandidates::collect(&trace, 8, 16);
        let m = OutcomeMatrix::build(&trace, &cands, 8);
        assert_eq!(m.branch_count(), 2);
        assert_eq!(m.dynamic_count(), 40);
        assert_eq!(m.window(), 8);
        let bm = m.branch(0x200).unwrap();
        assert_eq!(bm.executions(), 20);
        assert_eq!(bm.tags().len(), cands.tags(0x200).len());
        assert_eq!(bm.words(), 1);
        assert_eq!(bm.taken_plane().len(), 1);
    }

    #[test]
    fn perfect_correlation_visible_in_matrix() {
        let trace = copy_trace(30);
        let cands = TagCandidates::collect(&trace, 8, 16);
        let m = OutcomeMatrix::build(&trace, &cands, 8);
        let bm = m.branch(0x200).unwrap();
        let col = bm
            .tags()
            .iter()
            .position(|t| *t == InstanceTag::occurrence(0x100, 0))
            .expect("most recent 0x100 must be a candidate");
        for e in 0..bm.executions() {
            let tag_outcome = bm.outcome(e, col);
            let expect = TagOutcome::from_taken(bm.taken(e));
            assert_eq!(tag_outcome, expect, "execution {e}");
        }
        // A perfectly correlated column's planes coincide with the outcome
        // plane: always in path, direction equals the branch outcome.
        assert_eq!(bm.dir_plane(col), bm.taken_plane());
        let tail = bm.executions() % 64;
        let full = if tail == 0 { !0u64 } else { (1u64 << tail) - 1 };
        assert_eq!(bm.inpath_plane(col), &[full]);
    }

    #[test]
    fn source_build_matches_reference() {
        let trace = copy_trace(300);
        let cands = TagCandidates::collect(&trace, 8, 16);
        let want = crate::reference::outcome_matrix(&trace, 8, 16, &TagScheme::ALL);
        let got =
            OutcomeMatrix::build_from_source_sharded(&trace, &cands, 8, 1).expect("in-memory scan");
        assert_eq!(got, want);
    }

    #[test]
    fn early_executions_report_not_in_path() {
        let trace = copy_trace(5);
        let cands = TagCandidates::collect(&trace, 8, 16);
        let m = OutcomeMatrix::build(&trace, &cands, 8);
        let bm = m.branch(0x100).unwrap();
        // The very first execution of 0x100 has an empty window: every
        // candidate must be not-in-path.
        for c in 0..bm.tags().len() {
            assert_eq!(bm.outcome(0, c), TagOutcome::NotInPath);
            assert_eq!(bm.inpath_plane(c)[0] & 1, 0);
        }
    }

    #[test]
    fn planes_span_word_boundaries() {
        let trace = copy_trace(100); // 100 executions -> 2 words per plane
        let cands = TagCandidates::collect(&trace, 8, 16);
        let m = OutcomeMatrix::build(&trace, &cands, 8);
        let bm = m.branch(0x200).unwrap();
        assert_eq!(bm.words(), 2);
        for c in 0..bm.tags().len() {
            assert_eq!(bm.inpath_plane(c).len(), 2);
            // dir is a subset of inpath everywhere.
            for w in 0..2 {
                assert_eq!(bm.dir_plane(c)[w] & !bm.inpath_plane(c)[w], 0);
            }
        }
        // Bits past 64 land in the second word and read back correctly.
        for e in [63, 64, 65, 99] {
            assert_eq!(bm.taken(e), e % 3 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_out_of_range_panics() {
        let trace = copy_trace(3);
        let cands = TagCandidates::collect(&trace, 8, 2);
        let m = OutcomeMatrix::build(&trace, &cands, 8);
        let bm = m.branch(0x200).unwrap();
        let _ = bm.outcome(0, 99);
    }
}
