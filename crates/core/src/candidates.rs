use std::collections::HashMap;

use bp_trace::io::TraceIoError;
use bp_trace::{InstanceTag, Pc, TagScheme, Trace, TraceSource};

use crate::oracle::{OracleResult, MAX_SELECTIVE_TAGS};
use crate::sweep::rank_candidates;

/// The candidate correlated-branch instances considered for each static
/// branch.
///
/// For every dynamic execution of a branch *X*, the instances visible in the
/// path window (under both tagging schemes of §3.2) are potential correlated
/// branches. A tag can only carry information when it is actually in the
/// path, so candidates are ranked by how often they were visible across
/// *X*'s executions and the list is capped — the paper's oracle has
/// unspecified scope, and an explicit visibility-ranked cap keeps the search
/// tractable while retaining every frequently-available instance (see
/// DESIGN.md §2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagCandidates {
    per_branch: HashMap<Pc, Vec<InstanceTag>>,
}

impl TagCandidates {
    /// Scans `trace` with a path window of `window` branches and keeps, for
    /// each static branch, the `cap` most-often-visible candidate tags.
    ///
    /// Ties in visibility break deterministically (by tag order) so results
    /// are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero.
    pub fn collect(trace: &Trace, window: usize, cap: usize) -> Self {
        TagCandidates::collect_with_schemes(trace, window, cap, &TagScheme::ALL)
    }

    /// As [`TagCandidates::collect`], restricted to the given tagging
    /// schemes — the §3.2 ablation: the paper argues both schemes are
    /// needed because each fails to name some instances.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero, or `schemes` is empty.
    pub fn collect_with_schemes(
        trace: &Trace,
        window: usize,
        cap: usize,
        schemes: &[TagScheme],
    ) -> Self {
        TagCandidates::collect_from_source_sharded(trace, window, cap, schemes, 1)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`TagCandidates::collect_with_schemes`], consuming any
    /// [`TraceSource`] in one streaming scan split over `shards` per-PC
    /// shards: the sweep builder's first pass at one window, so the
    /// result is identical for every shard count.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cap` is zero, or `schemes` is empty.
    pub fn collect_from_source_sharded<T: TraceSource + Sync + ?Sized>(
        source: &T,
        window: usize,
        cap: usize,
        schemes: &[TagScheme],
        shards: usize,
    ) -> Result<Self, TraceIoError> {
        assert!(cap > 0, "candidate cap must be positive");
        assert!(!schemes.is_empty(), "need at least one tagging scheme");
        // One window needs one visibility count per tag.
        let ranked = rank_candidates::<1, _>(source, &[window], &[cap], schemes, shards)?;
        Ok(TagCandidates {
            per_branch: ranked
                .into_iter()
                .map(|(pc, (tags, _))| (pc, tags))
                .collect(),
        })
    }

    /// The tags `oracle` chose for each branch it analysed: the union of
    /// the branch's best 1-, 2- and 3-tag sets, which for the greedy search
    /// (each set extends the one before) is just the 3-tag set. A matrix
    /// built from these holds exactly the columns that re-scoring the
    /// chosen sets reads (e.g. [`crate::presence_stats`]), with the same
    /// planes the full candidate matrix has for them. Branches with nothing
    /// chosen keep an empty list, so every analysed branch stays covered.
    pub fn chosen(oracle: &OracleResult) -> Self {
        let per_branch = oracle
            .iter()
            .map(|(pc, sel)| {
                let mut tags = Vec::with_capacity(MAX_SELECTIVE_TAGS);
                for tag in sel.best.iter().rev().flat_map(|set| &set.tags) {
                    if !tags.contains(tag) {
                        tags.push(*tag);
                    }
                }
                (pc, tags)
            })
            .collect();
        TagCandidates { per_branch }
    }

    /// Candidate tags for `pc`, most-visible first; empty if the branch
    /// never executed.
    pub fn tags(&self, pc: Pc) -> &[InstanceTag] {
        self.per_branch.get(&pc).map_or(&[], Vec::as_slice)
    }

    /// Number of static branches with candidate lists.
    pub fn branch_count(&self) -> usize {
        self.per_branch.len()
    }

    /// Iterates `(pc, candidate tags)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &[InstanceTag])> {
        self.per_branch.iter().map(|(pc, v)| (*pc, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{BranchRecord, TagScheme};

    fn pair_trace(n: usize) -> Trace {
        let mut recs = Vec::new();
        for i in 0..n {
            recs.push(BranchRecord::conditional(0x100, i % 2 == 0));
            recs.push(BranchRecord::conditional(0x200, i % 2 == 0));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn first_branch_of_pair_sees_prior_instances() {
        let c = TagCandidates::collect(&pair_trace(50), 8, 16);
        assert_eq!(c.branch_count(), 2);
        // 0x200 always has the most recent 0x100 visible.
        let tags = c.tags(0x200);
        assert!(tags.contains(&InstanceTag::occurrence(0x100, 0)));
        // Both schemes are represented.
        assert!(tags.iter().any(|t| t.scheme == TagScheme::Iteration));
    }

    #[test]
    fn cap_limits_list_and_keeps_most_visible() {
        let full = TagCandidates::collect(&pair_trace(50), 8, 64);
        let capped = TagCandidates::collect(&pair_trace(50), 8, 2);
        assert!(full.tags(0x200).len() > 2);
        assert_eq!(capped.tags(0x200).len(), 2);
        // The capped list is a prefix of the full ranking.
        assert_eq!(&full.tags(0x200)[..2], capped.tags(0x200));
    }

    #[test]
    fn sharded_collection_is_identical_for_every_shard_count() {
        let trace = pair_trace(200);
        let want = crate::reference::outcome_matrix(&trace, 8, 6, &TagScheme::ALL);
        let want = TagCandidates {
            per_branch: want
                .iter()
                .map(|(pc, bm)| (pc, bm.tags().to_vec()))
                .collect(),
        };
        for shards in [1, 2, 7, 64] {
            let sharded =
                TagCandidates::collect_from_source_sharded(&trace, 8, 6, &TagScheme::ALL, shards)
                    .expect("in-memory scan");
            assert_eq!(sharded, want, "{shards} shards");
        }
    }

    #[test]
    fn unknown_branch_has_no_tags() {
        let c = TagCandidates::collect(&pair_trace(5), 8, 4);
        assert!(c.tags(0xdead).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = TagCandidates::collect(&pair_trace(40), 16, 8);
        let b = TagCandidates::collect(&pair_trace(40), 16, 8);
        assert_eq!(a.tags(0x100), b.tags(0x100));
        assert_eq!(a.tags(0x200), b.tags(0x200));
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn zero_cap_rejected() {
        let _ = TagCandidates::collect(&Trace::new(), 8, 0);
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn window_beyond_the_path_window_is_rejected_before_allocating() {
        let _ = TagCandidates::collect(&Trace::new(), usize::MAX, 4);
    }

    #[test]
    #[should_panic(expected = "scheme")]
    fn empty_schemes_rejected() {
        let _ = TagCandidates::collect_with_schemes(&Trace::new(), 8, 4, &[]);
    }

    #[test]
    fn scheme_restriction_filters_tags() {
        let trace = pair_trace(30);
        let occ = TagCandidates::collect_with_schemes(&trace, 8, 32, &[TagScheme::Occurrence]);
        let iter = TagCandidates::collect_with_schemes(&trace, 8, 32, &[TagScheme::Iteration]);
        assert!(occ
            .tags(0x200)
            .iter()
            .all(|t| t.scheme == TagScheme::Occurrence));
        assert!(iter
            .tags(0x200)
            .iter()
            .all(|t| t.scheme == TagScheme::Iteration));
        assert!(!occ.tags(0x200).is_empty());
        assert!(!iter.tags(0x200).is_empty());
        // Both-schemes collection is the union, pre-cap.
        let both = TagCandidates::collect_with_schemes(&trace, 8, 64, &TagScheme::ALL);
        for t in occ.tags(0x200) {
            assert!(both.tags(0x200).contains(t));
        }
    }
}
