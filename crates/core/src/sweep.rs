//! Incremental window sweeps: build the candidate + outcome-matrix
//! artifact once at the maximum window and derive every shorter window by
//! masking, instead of re-scanning the trace per sweep point.
//!
//! The figure 5 history-length sweep evaluates the §3.4 oracle at seven
//! window lengths. Naively that is seven candidate-collection passes and
//! seven matrix builds over the same trace. But window visibility nests:
//! an instance visible at distance *d* (see [`PathWindow::distance`]) is
//! visible in exactly the windows of length ≥ *d*, with the same tag,
//! outcome and distance — occurrence indices count only more-recent
//! same-pc entries, and iteration collisions resolve to the most recent
//! instance, so neither naming depends on how far back the window extends.
//! One max-window scan therefore determines every sub-window's candidate
//! counts, ranked candidate lists, and matrix digits; the derived matrices
//! are equal *by construction* to the ones [`OutcomeMatrix::build`] would
//! produce (the unit tests assert plane-level equality).
//!
//! [`SweepMatrix::build`] makes two passes: one to bucket per-tag
//! visibility counts by distance (ranking + cap per window), one to pack
//! bit-planes for the union of every window's capped candidate list, with
//! each set in-path bit annotated — in three side bit-planes — with the
//! index of the smallest window that sees it. [`SweepMatrix::materialize`]
//! then assembles any sweep point's [`OutcomeMatrix`] with a word-wise
//! bucket-threshold mask, no trace access needed.

use bp_trace::fx::FxHashMap;
use bp_trace::io::TraceIoError;
use bp_trace::{par_map, InstanceTag, PathWindow, Pc, Trace, TraceSource};

use crate::matrix::{BranchMatrix, OutcomeMatrix};

/// Most sweep points one artifact supports: bucket indices are packed into
/// [`BUCKET_BITS`] bit-planes.
pub const MAX_SWEEP_WINDOWS: usize = 8;
const BUCKET_BITS: usize = 3;

/// Per-branch piece of the sweep artifact: packed planes for the union of
/// every window's candidate columns, plus each window's ranked column list.
#[derive(Debug, Clone)]
struct SweepBranch {
    executions: usize,
    taken: Vec<u64>,
    /// Union candidate tags; column order is fixed but arbitrary.
    tags: Vec<InstanceTag>,
    /// Per union column: in-path plane at the maximum window.
    inpath: Vec<Vec<u64>>,
    /// Per union column: direction plane (subset of `inpath`).
    dir: Vec<Vec<u64>>,
    /// Per union column: bucket-index bit-planes — for every set in-path
    /// bit, the index (in `windows`) of the smallest window containing the
    /// instance, one binary digit per plane.
    buckets: [Vec<Vec<u64>>; BUCKET_BITS],
    /// Per window: the capped visibility-ranked candidate list, as indices
    /// into `tags`.
    ranked: Vec<Vec<u32>>,
}

/// The shared artifact of a multi-window oracle sweep over one trace.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    windows: Vec<usize>,
    branches: FxHashMap<Pc, SweepBranch>,
}

impl SweepMatrix {
    /// Scans `trace` once at the largest window in `windows` and records
    /// everything needed to materialize each sweep point's candidates and
    /// outcome matrix. `caps[i]` is the per-branch candidate cap for
    /// `windows[i]` (rank by visibility, truncate) — per-window caps let a
    /// sweep reproduce exactly the candidate lists a caller would have
    /// built point-by-point, while still packing one shared artifact for
    /// the union of every window's capped list.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, unsorted, non-unique, longer than
    /// [`MAX_SWEEP_WINDOWS`], or contains zero, or if `caps` has a
    /// different length than `windows` or contains zero.
    pub fn build(trace: &Trace, windows: &[usize], caps: &[usize]) -> Self {
        SweepMatrix::build_from_source(trace, windows, caps)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`SweepMatrix::build`], consuming any [`TraceSource`] — two
    /// streaming scans (visibility bucketing, then plane packing) instead
    /// of two in-memory passes, with identical output.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    ///
    /// # Panics
    ///
    /// As [`SweepMatrix::build`].
    pub fn build_from_source<T: TraceSource + ?Sized>(
        source: &T,
        windows: &[usize],
        caps: &[usize],
    ) -> Result<Self, TraceIoError> {
        assert!(!windows.is_empty(), "need at least one sweep window");
        assert!(
            windows.len() <= MAX_SWEEP_WINDOWS,
            "at most {MAX_SWEEP_WINDOWS} sweep windows per artifact"
        );
        assert!(
            windows.windows(2).all(|p| p[0] < p[1]),
            "sweep windows must be strictly ascending"
        );
        assert!(windows[0] > 0, "sweep windows must be positive");
        assert_eq!(
            caps.len(),
            windows.len(),
            "one candidate cap per sweep window"
        );
        assert!(
            caps.iter().all(|&c| c > 0),
            "candidate caps must be positive"
        );
        let max_window = *windows.last().expect("windows is non-empty");
        // `bucket_of[d]`: index of the smallest window that sees distance d.
        let bucket_of: Vec<u8> = (0..=max_window)
            .map(|d| windows.partition_point(|&w| w < d) as u8)
            .collect();

        // Pass 1: per-branch, per-tag visibility counts bucketed by the
        // smallest window that sees the instance.
        let mut counts: FxHashMap<Pc, FxHashMap<InstanceTag, [u64; MAX_SWEEP_WINDOWS]>> =
            FxHashMap::default();
        let mut path = PathWindow::new(max_window);
        let mut visible = Vec::new();
        source.scan(&mut |chunk| {
            for rec in chunk {
                if rec.is_conditional() {
                    path.visible_tags_with_distance(&mut visible);
                    let branch_counts = counts.entry(rec.pc).or_default();
                    for &(tag, _, d) in &visible {
                        let b = usize::from(bucket_of[d]);
                        branch_counts.entry(tag).or_insert([0; MAX_SWEEP_WINDOWS])[b] += 1;
                    }
                }
                path.push(rec);
            }
        })?;

        // Rank + cap per window; the union of the capped lists is the
        // column set worth packing planes for. Each branch keeps its
        // tag -> union column map beside its planes for pass 2.
        let mut builders: FxHashMap<Pc, (SweepBranch, FxHashMap<InstanceTag, u32>)> = counts
            .into_iter()
            .map(|(pc, tag_counts)| {
                let mut union: Vec<InstanceTag> = Vec::new();
                let mut union_index: FxHashMap<InstanceTag, u32> = FxHashMap::default();
                let mut ranked = Vec::with_capacity(windows.len());
                for i in 0..windows.len() {
                    // Visibility within window i = buckets 0..=i summed.
                    let mut list: Vec<(InstanceTag, u64)> = tag_counts
                        .iter()
                        .filter_map(|(tag, buckets)| {
                            let count: u64 = buckets[..=i].iter().sum();
                            (count > 0).then_some((*tag, count))
                        })
                        .collect();
                    list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    list.truncate(caps[i]);
                    let cols = list
                        .into_iter()
                        .map(|(tag, _)| {
                            *union_index.entry(tag).or_insert_with(|| {
                                union.push(tag);
                                (union.len() - 1) as u32
                            })
                        })
                        .collect();
                    ranked.push(cols);
                }
                let n = union.len();
                let sb = SweepBranch {
                    executions: 0,
                    taken: Vec::new(),
                    tags: union,
                    inpath: vec![Vec::new(); n],
                    dir: vec![Vec::new(); n],
                    buckets: std::array::from_fn(|_| vec![Vec::new(); n]),
                    ranked,
                };
                (pc, (sb, union_index))
            })
            .collect();

        // Pass 2: pack the planes for the union columns, one map probe per
        // execution.
        let mut path = PathWindow::new(max_window);
        source.scan(&mut |chunk| {
            for rec in chunk {
                if rec.is_conditional() {
                    if let Some((sb, columns)) = builders.get_mut(&rec.pc) {
                        path.visible_tags_with_distance(&mut visible);
                        sb.push_execution(rec.taken, &bucket_of, columns, &visible);
                    }
                }
                path.push(rec);
            }
        })?;

        Ok(SweepMatrix {
            windows: windows.to_vec(),
            branches: builders.into_iter().map(|(pc, (sb, _))| (pc, sb)).collect(),
        })
    }

    /// The sweep windows, ascending: sweep point `i` is `windows()[i]`, the
    /// window [`SweepMatrix::materialize`]`(i)` assembles.
    pub fn windows(&self) -> &[usize] {
        &self.windows
    }

    /// Assembles sweep point `idx`'s outcome matrix: per branch, the capped
    /// candidate columns ranked for `windows[idx]`, with planes masked to
    /// instances the sub-window sees. Equal to [`OutcomeMatrix::build`] on
    /// that window's [`crate::TagCandidates`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn materialize(&self, idx: usize) -> OutcomeMatrix {
        assert!(idx < self.windows.len(), "sweep point out of range");
        let branches = self
            .branches
            .iter()
            .map(|(pc, sb)| (*pc, sb.materialize(idx)))
            .collect();
        OutcomeMatrix::from_parts(branches, self.windows[idx])
    }

    /// As [`SweepMatrix::materialize`], assembling branch planes on up to
    /// `jobs` threads. The per-branch masking is pure and the merge is
    /// keyed by PC, so the matrix is identical to the serial replay for
    /// every `jobs` value.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn materialize_parallel(&self, idx: usize, jobs: usize) -> OutcomeMatrix {
        assert!(idx < self.windows.len(), "sweep point out of range");
        let branches: Vec<(&Pc, &SweepBranch)> = self.branches.iter().collect();
        let (planes, _) = par_map(
            &branches,
            jobs,
            || (),
            |_, &(pc, sb)| (*pc, sb.materialize(idx)),
        );
        OutcomeMatrix::from_parts(planes.into_iter().collect(), self.windows[idx])
    }
}

impl SweepBranch {
    fn push_execution(
        &mut self,
        taken: bool,
        bucket_of: &[u8],
        columns: &FxHashMap<InstanceTag, u32>,
        visible: &[(InstanceTag, bool, usize)],
    ) {
        let e = self.executions;
        self.executions += 1;
        let (word, bit) = (e / 64, e % 64);
        if bit == 0 {
            self.taken.push(0);
            for plane in self.inpath.iter_mut().chain(self.dir.iter_mut()) {
                plane.push(0);
            }
            for planes in &mut self.buckets {
                for plane in planes.iter_mut() {
                    plane.push(0);
                }
            }
        }
        if taken {
            self.taken[word] |= 1 << bit;
        }
        for &(tag, tag_taken, d) in visible {
            let Some(&c) = columns.get(&tag) else {
                continue;
            };
            let c = c as usize;
            self.inpath[c][word] |= 1 << bit;
            if tag_taken {
                self.dir[c][word] |= 1 << bit;
            }
            let b = bucket_of[d];
            for (k, planes) in self.buckets.iter_mut().enumerate() {
                if b >> k & 1 == 1 {
                    planes[c][word] |= 1 << bit;
                }
            }
        }
    }

    fn materialize(&self, idx: usize) -> BranchMatrix {
        let words = self.executions.div_ceil(64);
        let cols = &self.ranked[idx];
        let mut inpath = Vec::with_capacity(cols.len());
        let mut dir = Vec::with_capacity(cols.len());
        for &c in cols {
            let c = c as usize;
            let mut ip_plane = Vec::with_capacity(words);
            let mut d_plane = Vec::with_capacity(words);
            for w in 0..words {
                // Word-wise bucket-index <= idx comparator over the three
                // bucket bit-planes: a bit survives when its instance is
                // seen by a window no longer than this sweep point's.
                let mut gt = 0u64;
                let mut eq = !0u64;
                for k in (0..BUCKET_BITS).rev() {
                    let bk = self.buckets[k][c][w];
                    let tk = if idx >> k & 1 == 1 { !0u64 } else { 0 };
                    gt |= eq & bk & !tk;
                    eq &= !(bk ^ tk);
                }
                let ip = self.inpath[c][w] & !gt;
                ip_plane.push(ip);
                d_plane.push(self.dir[c][w] & ip);
            }
            inpath.push(ip_plane);
            dir.push(d_plane);
        }
        let tags = cols.iter().map(|&c| self.tags[c as usize]).collect();
        BranchMatrix::from_planes(tags, self.executions, inpath, dir, self.taken.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::TagCandidates;
    use bp_trace::{BranchRecord, Recorder};

    /// A trace with loops, calls and correlated branches so all tag
    /// schemes, distances and collision cases occur.
    fn mixed_trace(n: usize) -> Trace {
        let mut rec = Recorder::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (state >> 33) & 1 == 1;
            let b = (state >> 34) & 1 == 1;
            let c = (state >> 35) & 1 == 1;
            rec.cond(0x100, a);
            if a {
                rec.call(0x110, 0x1000);
                rec.cond(0x1010, b);
                rec.ret(0x1020);
            }
            rec.cond(0x200, b);
            rec.cond(0x300, a && b);
            rec.cond(0x400, a ^ c);
            rec.loop_back(0x500, true);
        }
        rec.into_trace()
    }

    const WINDOWS: [usize; 4] = [4, 8, 12, 16];

    #[test]
    fn materialized_points_equal_direct_builds() {
        let trace = mixed_trace(300);
        let caps = [20; 4];
        let sweep = SweepMatrix::build(&trace, &WINDOWS, &caps);
        for (i, &n) in WINDOWS.iter().enumerate() {
            let derived = sweep.materialize(i);
            let cands = TagCandidates::collect(&trace, n, caps[i]);
            let direct = OutcomeMatrix::build(&trace, &cands, n);
            assert_eq!(derived.window(), direct.window());
            assert_eq!(derived.branch_count(), direct.branch_count());
            for (pc, want) in direct.iter() {
                let got = derived.branch(pc).expect("branch present");
                assert_eq!(got.tags(), want.tags(), "window {n} branch {pc:#x}");
                assert_eq!(got.executions(), want.executions());
                assert_eq!(got.taken_plane(), want.taken_plane());
                for c in 0..want.tags().len() {
                    assert_eq!(
                        got.inpath_plane(c),
                        want.inpath_plane(c),
                        "window {n} branch {pc:#x} col {c} in-path"
                    );
                    assert_eq!(
                        got.dir_plane(c),
                        want.dir_plane(c),
                        "window {n} branch {pc:#x} col {c} dir"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_materialization_is_identical_for_every_jobs_count() {
        let trace = mixed_trace(200);
        let sweep = SweepMatrix::build(&trace, &WINDOWS, &[12; 4]);
        for (i, _) in WINDOWS.iter().enumerate() {
            let serial = sweep.materialize(i);
            for jobs in [1, 2, 7, 64] {
                assert_eq!(
                    sweep.materialize_parallel(i, jobs),
                    serial,
                    "point {i} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn single_window_sweep_degenerates_to_direct_build() {
        let trace = mixed_trace(100);
        let sweep = SweepMatrix::build(&trace, &[16], &[12]);
        let derived = sweep.materialize(0);
        let cands = TagCandidates::collect(&trace, 16, 12);
        let direct = OutcomeMatrix::build(&trace, &cands, 16);
        assert_eq!(derived.branch_count(), direct.branch_count());
        assert_eq!(derived.dynamic_count(), direct.dynamic_count());
    }

    #[test]
    fn per_window_caps_match_direct_collections() {
        // Tight, varying caps exercise both the per-window re-ranking
        // (short windows rank nearby instances highest, long windows may
        // promote others) and per-point truncation: each materialized
        // point must reproduce exactly the candidate list a direct build
        // at that window's own cap would produce.
        let trace = mixed_trace(200);
        let caps = [2, 3, 5, 8];
        let sweep = SweepMatrix::build(&trace, &WINDOWS, &caps);
        for (i, &n) in WINDOWS.iter().enumerate() {
            let derived = sweep.materialize(i);
            let cands = TagCandidates::collect(&trace, n, caps[i]);
            for (pc, tags) in cands.iter() {
                let got = derived.branch(pc).expect("branch present");
                assert_eq!(got.tags(), tags, "window {n} branch {pc:#x}");
            }
        }
    }

    #[test]
    fn branch_with_no_candidates_is_retained() {
        // A lone branch never has anything in its window... the sweep must
        // still carry it (zero columns) like the direct build does.
        let trace = Trace::from_records(vec![BranchRecord::conditional(0x42, true)]);
        let sweep = SweepMatrix::build(&trace, &[8, 16], &[4, 4]);
        let m = sweep.materialize(1);
        let bm = m.branch(0x42).expect("branch retained");
        assert_eq!(bm.tags().len(), 0);
        assert_eq!(bm.executions(), 1);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_windows_rejected() {
        let _ = SweepMatrix::build(&Trace::new(), &[16, 8], &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_windows_rejected() {
        let _ = SweepMatrix::build(&Trace::new(), &[1, 2, 3, 4, 5, 6, 7, 8, 9], &[4; 9]);
    }

    #[test]
    #[should_panic(expected = "one candidate cap per sweep window")]
    fn mismatched_caps_rejected() {
        let _ = SweepMatrix::build(&Trace::new(), &[8, 16], &[4]);
    }
}
