//! Incremental window sweeps: build the candidate + outcome-matrix
//! artifact once at the maximum window and derive every shorter window by
//! masking, instead of re-scanning the trace per sweep point. Its two
//! passes are the crate's only candidate and matrix builder: a
//! one-window build is a one-point sweep.
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
//! counts, ranked candidate lists, and matrix digits; each materialized
//! point equals the per-record `reference::outcome_matrix` at that window
//! (the unit and property tests assert plane-level equality).
//!
//! Pass 1 ([`rank_candidates`]) buckets per-tag visibility counts by the
//! smallest window that sees the instance, then ranks and caps each
//! window's list. Pass 2 ([`pack_planes`]) packs bit-planes for given
//! per-branch column lists, annotating each set in-path bit with its
//! bucket index in ⌈log2(windows)⌉ side bit-planes — none for one window,
//! whose planes then move straight into a [`BranchMatrix`]. Each pass is
//! one per-shard step on [`scan_shards`]. [`SweepMatrix::materialize`]
//! assembles any sweep point's [`OutcomeMatrix`] with a word-wise
//! bucket-threshold mask, no trace access needed.

use bp_trace::fx::FxHashMap;
use bp_trace::io::TraceIoError;
use bp_trace::{
    par_map, scan_shards, shard_of, InstanceTag, PathWindow, Pc, TagScheme, Trace, TraceSource,
    MAX_SHARDS,
};

use crate::matrix::{BranchMatrix, OutcomeMatrix};

/// Most sweep points one artifact supports: bucket indices are packed into
/// at most three bit-planes.
pub const MAX_SWEEP_WINDOWS: usize = 8;
const BUCKET_BITS: usize = 3;

/// Per-branch piece of the sweep artifact: packed planes for the union of
/// every window's candidate columns, plus each window's ranked column list.
#[derive(Debug, Clone)]
pub(crate) struct SweepBranch {
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
    /// instance, one binary digit per plane. Only the first
    /// [`bucket_bits`]`(windows)` entries hold planes.
    buckets: [Vec<Vec<u64>>; BUCKET_BITS],
    /// Per window: the capped visibility-ranked candidate list, as indices
    /// into `tags` (empty until pass 1's lists are attached).
    ranked: Vec<Vec<u32>>,
}

/// The shared artifact of a multi-window oracle sweep over one trace.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    windows: Vec<usize>,
    branches: FxHashMap<Pc, SweepBranch>,
}

impl SweepMatrix {
    /// Scans `trace` at the largest window in `windows` and records
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
        SweepMatrix::build_from_source(trace, windows, caps, 1)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`SweepMatrix::build`], consuming any [`TraceSource`] in two
    /// streaming scans (visibility bucketing, then plane packing), each
    /// split over `shards` per-PC shards — identical output for every
    /// shard count.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    ///
    /// # Panics
    ///
    /// As [`SweepMatrix::build`].
    pub fn build_from_source<T: TraceSource + Sync + ?Sized>(
        source: &T,
        windows: &[usize],
        caps: &[usize],
        shards: usize,
    ) -> Result<Self, TraceIoError> {
        let mut ranked = rank_candidates::<MAX_SWEEP_WINDOWS, _>(
            source,
            windows,
            caps,
            &TagScheme::ALL,
            shards,
        )?;
        let columns: Vec<(Pc, &[InstanceTag])> = ranked
            .iter()
            .map(|(pc, (tags, _))| (*pc, &tags[..]))
            .collect();
        let mut branches = pack_planes(source, windows, &columns, shards)?;
        for (pc, sb) in &mut branches {
            sb.ranked = ranked.remove(pc).expect("pass 2 packs pass 1's branches").1;
        }
        Ok(SweepMatrix {
            windows: windows.to_vec(),
            branches,
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

/// Bucket bit-planes a `windows`-point artifact packs: ⌈log2(windows)⌉,
/// so none for one window.
fn bucket_bits(windows: usize) -> usize {
    windows.next_power_of_two().trailing_zeros() as usize
}

/// Checks `windows` and returns an empty path window as long as the
/// largest one, and the distance → bucket table: `bucket_of[d]` is the
/// index of the smallest window that sees an instance at distance `d`.
fn window_buckets(windows: &[usize]) -> (PathWindow, Vec<u8>) {
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
    let max_window = *windows.last().expect("windows is non-empty");
    // The window checks its length before the table is sized by it.
    let path = PathWindow::new(max_window);
    let bucket_of = (0..=max_window)
        .map(|d| windows.partition_point(|&w| w < d) as u8)
        .collect();
    (path, bucket_of)
}

/// Pass 1's result for one branch: the union candidate tags, and per
/// window its capped list as indices into them.
pub(crate) type Ranked = (Vec<InstanceTag>, Vec<Vec<u32>>);

/// Pass 1: per executed branch, the union of every window's capped
/// candidate list (the first window's list first, so with one window the
/// union is that list), and per window its list as indices into the
/// union. Visibility is counted once at the largest window, in `B`
/// buckets by the smallest window that sees each instance (so `B` must
/// cover `windows`); window `i` then ranks the `schemes` tags by buckets
/// `0..=i` summed (count desc, tag asc) and keeps `caps[i]`.
///
/// # Panics
///
/// As [`SweepMatrix::build`].
pub(crate) fn rank_candidates<const B: usize, T: TraceSource + Sync + ?Sized>(
    source: &T,
    windows: &[usize],
    caps: &[usize],
    schemes: &[TagScheme],
    shards: usize,
) -> Result<FxHashMap<Pc, Ranked>, TraceIoError> {
    let (path, bucket_of) = window_buckets(windows);
    assert!(windows.len() <= B, "one count bucket per window");
    assert_eq!(
        caps.len(),
        windows.len(),
        "one candidate cap per sweep window"
    );
    assert!(
        caps.iter().all(|&c| c > 0),
        "candidate caps must be positive"
    );
    let shards = shards.min(MAX_SHARDS);
    let parts = scan_shards(
        source,
        shards,
        |shard| (shard, path.clone(), Vec::new(), FxHashMap::default()),
        |(shard, path, visible, counts), chunk| {
            for rec in chunk {
                if rec.is_conditional() && shard_of(rec.pc, shards) == *shard {
                    path.visible_tags_with_distance(visible);
                    let branch_counts: &mut FxHashMap<InstanceTag, [u64; B]> =
                        counts.entry(rec.pc).or_default();
                    // Every scheme is counted: filtering by `schemes` at
                    // ranking leaves the same lists, and costs less here.
                    for &(tag, _, d) in visible.iter() {
                        let b = if B == 1 { 0 } else { usize::from(bucket_of[d]) };
                        branch_counts.entry(tag).or_insert([0; B])[b] += 1;
                    }
                }
                path.push(rec);
            }
        },
    )?;
    let rank = |tag_counts: FxHashMap<InstanceTag, [u64; B]>| {
        let mut union: Vec<InstanceTag> = Vec::new();
        let mut union_index: FxHashMap<InstanceTag, u32> = FxHashMap::default();
        let mut ranked = Vec::with_capacity(caps.len());
        for (i, &cap) in caps.iter().enumerate() {
            // Visibility within window i = buckets 0..=i summed.
            let mut list: Vec<(InstanceTag, u64)> = tag_counts
                .iter()
                .filter(|(tag, _)| schemes.contains(&tag.scheme))
                .filter_map(|(tag, buckets)| {
                    let count: u64 = buckets[..=i].iter().sum();
                    (count > 0).then_some((*tag, count))
                })
                .collect();
            list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            list.truncate(cap);
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
        (union, ranked)
    };
    Ok(parts
        .into_iter()
        .flat_map(|(_, _, _, counts)| counts)
        .map(|(pc, tag_counts)| (pc, rank(tag_counts)))
        .collect())
}

/// Pass 2: packs each listed branch's planes for its `columns` (distinct
/// tags), resolved at the largest of `windows`, with [`bucket_bits`]
/// bucket planes. A listed branch that never executes keeps zero
/// executions. `ranked` is left empty for the caller to attach.
///
/// # Panics
///
/// As [`SweepMatrix::build`], for `windows`.
pub(crate) fn pack_planes<T: TraceSource + Sync + ?Sized>(
    source: &T,
    windows: &[usize],
    columns: &[(Pc, &[InstanceTag])],
    shards: usize,
) -> Result<FxHashMap<Pc, SweepBranch>, TraceIoError> {
    let (path, bucket_of) = window_buckets(windows);
    let bits = bucket_bits(windows.len());
    let shards = shards.min(MAX_SHARDS);
    let parts = scan_shards(
        source,
        shards,
        |shard| {
            // Each branch keeps its tag -> column map beside its planes:
            // one map probe per execution.
            let builders: FxHashMap<Pc, (SweepBranch, FxHashMap<InstanceTag, u32>)> = columns
                .iter()
                .filter(|&&(pc, _)| shard_of(pc, shards) == shard)
                .map(|&(pc, tags)| {
                    let index = (0..).zip(tags).map(|(c, tag)| (*tag, c)).collect();
                    (pc, (SweepBranch::new(tags.to_vec(), bits), index))
                })
                .collect();
            (path.clone(), Vec::new(), builders)
        },
        |(path, visible, builders), chunk| {
            for rec in chunk {
                if rec.is_conditional() {
                    if let Some((sb, index)) = builders.get_mut(&rec.pc) {
                        path.visible_tags_with_distance(visible);
                        sb.push_execution(rec.taken, &bucket_of, index, visible);
                    }
                }
                path.push(rec);
            }
        },
    )?;
    Ok(parts
        .into_iter()
        .flat_map(|(_, _, builders)| builders.into_iter().map(|(pc, (sb, _))| (pc, sb)))
        .collect())
}

impl SweepBranch {
    fn new(tags: Vec<InstanceTag>, bucket_bits: usize) -> Self {
        let n = tags.len();
        SweepBranch {
            executions: 0,
            taken: Vec::new(),
            tags,
            inpath: vec![Vec::new(); n],
            dir: vec![Vec::new(); n],
            buckets: std::array::from_fn(|k| vec![Vec::new(); if k < bucket_bits { n } else { 0 }]),
            ranked: Vec::new(),
        }
    }

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
            // Bucket 0 sets no bit: a one-window build, whose only bucket
            // it is, touches no bucket plane.
            let mut b = bucket_of[d];
            for planes in &mut self.buckets {
                if b == 0 {
                    break;
                }
                if b & 1 == 1 {
                    planes[c][word] |= 1 << bit;
                }
                b >>= 1;
            }
        }
    }

    /// A one-window build's planes as its matrix, moved, not copied.
    pub(crate) fn into_matrix(self) -> BranchMatrix {
        debug_assert!(self.buckets.iter().all(Vec::is_empty), "a one-window build");
        BranchMatrix::from_planes(
            self.tags,
            self.executions,
            self.inpath,
            self.dir,
            self.taken,
        )
    }

    fn materialize(&self, idx: usize) -> BranchMatrix {
        let bits = bucket_bits(self.ranked.len());
        let words = self.executions.div_ceil(64);
        let cols = &self.ranked[idx];
        let mut inpath = Vec::with_capacity(cols.len());
        let mut dir = Vec::with_capacity(cols.len());
        for &c in cols {
            let c = c as usize;
            let mut ip_plane = Vec::with_capacity(words);
            let mut d_plane = Vec::with_capacity(words);
            for w in 0..words {
                // Word-wise bucket-index <= idx comparator over the bucket
                // bit-planes: a bit survives when its instance is seen by
                // a window no longer than this sweep point's.
                let mut gt = 0u64;
                let mut eq = !0u64;
                for k in (0..bits).rev() {
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
    use crate::reference;
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
            let direct = reference::outcome_matrix(&trace, n, caps[i], &TagScheme::ALL);
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
        let direct = reference::outcome_matrix(&trace, 16, 12, &TagScheme::ALL);
        assert_eq!(sweep.materialize(0), direct);
        // One window packs no bucket planes.
        assert!(sweep
            .branches
            .values()
            .all(|sb| sb.buckets.iter().all(Vec::is_empty)));
        let cands = TagCandidates::collect(&trace, 16, 12);
        assert_eq!(OutcomeMatrix::build(&trace, &cands, 16), direct);
    }

    #[test]
    fn bucket_planes_are_the_ceiling_log2_of_the_window_count() {
        let trace = mixed_trace(50);
        for (windows, bits) in [
            (&[16][..], 0),
            (&[8, 16], 1),
            (&[4, 8, 12], 2),
            (&WINDOWS, 2),
        ] {
            assert_eq!(bucket_bits(windows.len()), bits);
            let sweep = SweepMatrix::build(&trace, windows, &vec![6; windows.len()]);
            for sb in sweep.branches.values() {
                let n = sb.tags.len();
                for (k, planes) in sb.buckets.iter().enumerate() {
                    assert_eq!(planes.len(), if k < bits { n } else { 0 }, "{windows:?}");
                }
            }
        }
        assert_eq!(bucket_bits(7), 3);
        assert_eq!(bucket_bits(MAX_SWEEP_WINDOWS), BUCKET_BITS);
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
            let direct = reference::outcome_matrix(&trace, n, caps[i], &TagScheme::ALL);
            for (pc, want) in direct.iter() {
                let got = derived.branch(pc).expect("branch present");
                assert_eq!(got.tags(), want.tags(), "window {n} branch {pc:#x}");
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
