//! The path window: the last *n* conditional branches, with every
//! visible prior instance named under both §3.2 tagging schemes.
//!
//! Two namers share the §3.2 rule. [`PathWindow`] keeps a live window and
//! names a prior branch by its pc, for callers that key by
//! [`InstanceTag`]. [`WindowNamer`] names a stored window — the last *n*
//! records as [`WindowSymbol`]s, each a caller-chosen id with the
//! outcome and direction — in one O(n) pass, for the candidate/matrix
//! builder in `bp-core`. A window's names are a pure function of those
//! *n* symbols: an occurrence index counts later same-pc entries, an
//! iteration index counts later backward entries, and both kinds of entry
//! are inside the window. So the builder names each distinct window once
//! and finds a tag's slot by direct indexing on (id, scheme, index),
//! never by hashing the tag.

use std::collections::VecDeque;

use crate::record::{BranchRecord, Pc};
use crate::tag::{InstanceTag, TagScheme};

/// One prior conditional branch held in a [`PathWindow`], with its names in
/// the present path kept current by [`PathWindow::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEntry {
    /// Static address of the branch.
    pub pc: Pc,
    /// Its outcome.
    pub taken: bool,
    /// Whether it was a backward branch (loop back-edge).
    pub backward: bool,
    /// Total backward branches pushed up to and including this entry.
    backward_through: u64,
    /// More recent entries with the same pc: the [`TagScheme::Occurrence`]
    /// index.
    occurrence: u16,
    /// A more recent entry with the same pc has the same backward count, so
    /// that entry owns the [`TagScheme::Iteration`] name both would have.
    shadowed: bool,
}

/// One conditional record as a stored window keeps it: the caller's id for
/// its pc, its outcome, and whether it was a backward branch, packed in a
/// `u32`. The id stands for the pc, so a caller keeps one id per pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSymbol(u32);

impl WindowSymbol {
    /// Largest id a symbol holds: ids take 30 bits.
    pub const MAX_ID: u32 = (1 << 30) - 1;

    /// The symbol of a record with pc id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds [`WindowSymbol::MAX_ID`].
    #[inline]
    pub fn new(id: u32, taken: bool, backward: bool) -> Self {
        assert!(id <= Self::MAX_ID, "window symbol ids take 30 bits");
        WindowSymbol(id << 2 | u32::from(taken) << 1 | u32::from(backward))
    }

    /// The symbol's pc id.
    #[inline]
    pub fn id(self) -> u32 {
        self.0 >> 2
    }

    /// The record's outcome.
    #[inline]
    pub fn taken(self) -> bool {
        self.0 & 2 != 0
    }

    /// Whether the record was a backward branch.
    #[inline]
    pub fn backward(self) -> bool {
        self.0 & 1 != 0
    }

    /// The packed bits: id, outcome, direction.
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }
}

/// One visible window entry as [`WindowNamer::name`] reports it: a prior
/// instance named by its symbol's id and its index under each tagging
/// scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisibleId {
    /// The id of the entry's symbol.
    pub id: u32,
    /// Its [`TagScheme::Occurrence`] index.
    pub occurrence: u16,
    /// Its [`TagScheme::Iteration`] index, or `None` when a more recent
    /// instance of the same branch owns that name.
    pub iteration: Option<u16>,
    /// The instance's outcome.
    pub taken: bool,
    /// Its [`PathWindow::distance`] (1 = most recent).
    pub distance: usize,
}

/// Names stored windows of [`WindowSymbol`]s under both §3.2 schemes, in
/// one most-recent-first pass per window.
///
/// A window of symbols with ids standing for pcs names exactly as a
/// [`PathWindow`] holding the same records does: entry `v` stands for the
/// [`PathWindow::visible_tags`] pairs `((pc, v.occurrence), v.taken)`
/// under [`TagScheme::Occurrence`] and, when `v.iteration` is `Some(i)`,
/// `((pc, i), v.taken)` under [`TagScheme::Iteration`], in the same order,
/// both at [`PathWindow::distance`] `v.distance`. Because occurrence
/// indices count only more-recent same-pc entries and iteration
/// collisions resolve to the most recent instance, an instance named here
/// at distance *d* has the same names in every window of length ≥ *d*,
/// and is in no shorter one: one pass over the longest window names every
/// shorter one (the incremental window sweeps in `bp-core` rely on this).
///
/// The namer keeps a scratch mark per id it has met, reused across
/// windows, so a pass allocates only when it meets a larger id.
///
/// # Example
///
/// ```
/// use bp_trace::{WindowNamer, WindowSymbol};
///
/// // pc ids 0, 1, 0, oldest first; id 1 is a backward branch.
/// let window = [
///     WindowSymbol::new(0, true, false),
///     WindowSymbol::new(1, true, true),
///     WindowSymbol::new(0, false, false),
/// ];
/// let mut names = Vec::new();
/// WindowNamer::default().name(&window, |v| names.push((v.id, v.occurrence, v.iteration)));
/// // Most recent first: id 0's second instance is occurrence 0, iteration
/// // 0; the back-edge before it makes the first one iteration 1.
/// assert_eq!(names, [(0, 0, Some(0)), (1, 0, Some(0)), (0, 1, Some(1))]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WindowNamer {
    /// Per id: the pass that last met it, the instances of it that pass
    /// met, and the iteration index of the most recent one.
    marks: Vec<Mark>,
    pass: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    pass: u32,
    occurrences: u32,
    iteration: u32,
}

impl WindowNamer {
    /// Reports every instance in `window` (oldest symbol first), most
    /// recent first, as its [`VisibleId`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is longer than [`PathWindow::MAX_CAPACITY`].
    #[inline]
    pub fn name(&mut self, window: &[WindowSymbol], mut emit: impl FnMut(VisibleId)) {
        assert!(
            window.len() <= PathWindow::MAX_CAPACITY,
            "a window names at most {} instances",
            PathWindow::MAX_CAPACITY
        );
        self.pass = self.pass.wrapping_add(1);
        if self.pass == 0 {
            self.marks.fill(Mark::default());
            self.pass = 1;
        }
        let pass = self.pass;
        // Backward entries more recent than the one being named.
        let mut backward = 0u32;
        for (back, &s) in window.iter().rev().enumerate() {
            let id = s.id() as usize;
            if id >= self.marks.len() {
                self.marks.resize(id + 1, Mark::default());
            }
            let mark = &mut self.marks[id];
            // The nearest more recent instance holds the largest
            // iteration index of the later ones, so it alone can collide.
            let (occurrence, shadowed) = if mark.pass == pass {
                (mark.occurrences, mark.iteration == backward)
            } else {
                (0, false)
            };
            // Both counts are below the window length, so they fit `u16`.
            emit(VisibleId {
                id: s.id(),
                occurrence: occurrence as u16,
                iteration: (!shadowed).then_some(backward as u16),
                taken: s.taken(),
                distance: back + 1,
            });
            *mark = Mark {
                pass,
                occurrences: occurrence + 1,
                iteration: backward,
            };
            backward += u32::from(s.backward());
        }
    }
}

/// Sliding window over the last *n* conditional branches — the "path leading
/// up to the current branch" of paper §3.1/§3.2.
///
/// The window names every visible prior branch instance under both tagging
/// schemes ([`TagScheme::Occurrence`] and [`TagScheme::Iteration`]) so the
/// oracle correlation analysis can treat the two namings as distinct
/// candidate correlated branches, exactly as the paper does.
///
/// Only *conditional* branches enter the window: the first-level history of
/// a two-level predictor records conditional outcomes, and those are the
/// instances whose directions can correlate. (Calls/returns influence the
/// path only through the conditionals executed inside them.)
///
/// Naming is incremental: [`PathWindow::push`] updates every entry's
/// occurrence index and iteration shadowing in one pass over the window, so
/// every query is a single most-recent-first pass that allocates nothing.
///
/// Usage order matters: query the window for the context of a branch
/// *before* pushing that branch's own record.
///
/// # Example
///
/// ```
/// use bp_trace::{BranchRecord, InstanceTag, PathWindow};
///
/// let mut w = PathWindow::new(16);
/// w.push(&BranchRecord::conditional(0x10, true));
/// w.push(&BranchRecord::conditional(0x10, false));
/// // Most recent instance of 0x10 was not taken:
/// assert_eq!(w.lookup(InstanceTag::occurrence(0x10, 0)), Some(false));
/// // The one before it was taken:
/// assert_eq!(w.lookup(InstanceTag::occurrence(0x10, 1)), Some(true));
/// // No third instance in the path:
/// assert_eq!(w.lookup(InstanceTag::occurrence(0x10, 2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct PathWindow {
    capacity: usize,
    entries: VecDeque<WindowEntry>,
    backward_total: u64,
}

impl PathWindow {
    /// Largest window: 65,536 entries, the most a `u16` instance index can
    /// name (an occurrence or iteration index never exceeds the window
    /// length minus one).
    pub const MAX_CAPACITY: usize = 1 << 16;

    /// Creates a window holding up to `capacity` prior conditional branches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`PathWindow::MAX_CAPACITY`]
    /// ("path window capacity must be at most 65536").
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "path window capacity must be positive");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "path window capacity must be at most {}",
            Self::MAX_CAPACITY
        );
        PathWindow {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            backward_total: 0,
        }
    }

    /// Maximum number of prior branches examined (the paper's *n*).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of prior branches currently visible (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no branch has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets all history (the backward-branch clock keeps running).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Pushes a record. Non-conditional records are ignored.
    ///
    /// This is where the §3.2 naming rule lives: every older instance of
    /// the same branch moves one occurrence further back, and one with the
    /// same backward count as the new entry (no back-edge executed between
    /// them) loses its iteration name to it — the most recent instance
    /// wins. [`WindowNamer`] applies the same rule to a stored window.
    pub fn push(&mut self, rec: &BranchRecord) {
        if !rec.is_conditional() {
            return;
        }
        if rec.is_backward() {
            self.backward_total += 1;
        }
        // Evict first, so occurrence indices stay below the capacity.
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        let backward_through = self.backward_total;
        for e in self.entries.iter_mut().filter(|e| e.pc == rec.pc) {
            e.occurrence += 1;
            e.shadowed |= e.backward_through == backward_through;
        }
        self.entries.push_back(WindowEntry {
            pc: rec.pc,
            taken: rec.taken,
            backward: rec.is_backward(),
            backward_through,
            occurrence: 0,
            shadowed: false,
        });
    }

    /// Backward branches executed strictly after `entry`, i.e. between the
    /// entry and the present — the [`TagScheme::Iteration`] index. Every one
    /// of them is a later entry, so it is below the capacity and fits `u16`.
    #[inline]
    fn backwards_since(&self, entry: &WindowEntry) -> u16 {
        (self.backward_total - entry.backward_through) as u16
    }

    /// The visible instance `tag` names, as its distance (1 = most recent)
    /// and entry.
    fn find(&self, tag: InstanceTag) -> Option<(usize, &WindowEntry)> {
        let index_matches = |e: &WindowEntry| match tag.scheme {
            TagScheme::Occurrence => e.occurrence == tag.index,
            TagScheme::Iteration => !e.shadowed && self.backwards_since(e) == tag.index,
        };
        self.entries
            .iter()
            .rev()
            .enumerate()
            .find(|(_, e)| e.pc == tag.pc && index_matches(e))
            .map(|(back, e)| (back + 1, e))
    }

    /// Looks up the outcome of a single tagged instance, or `None` when the
    /// instance is not in the path.
    ///
    /// For bulk queries prefer [`PathWindow::visible_tags`], which costs one
    /// window scan for all tags.
    pub fn lookup(&self, tag: InstanceTag) -> Option<bool> {
        self.find(tag).map(|(_, e)| e.taken)
    }

    /// The distance, in branches, from the present to the tagged instance:
    /// 1 for the most recently pushed branch, up to `capacity` for the
    /// oldest visible one. `None` when the instance is not in the path.
    ///
    /// This is the §3.6.2 quantity — how far back a correlated branch
    /// sits, and hence how much history a real predictor would need to
    /// reach it.
    pub fn distance(&self, tag: InstanceTag) -> Option<usize> {
        self.find(tag).map(|(distance, _)| distance)
    }

    /// Appends every visible `(tag, outcome)` pair — both schemes — to
    /// `out`, clearing it first.
    ///
    /// Under [`TagScheme::Iteration`] two instances of the same static
    /// branch can collide on the same backward-branch count (no back-edge
    /// executed between them); the **most recent** instance wins, so each
    /// tag appears at most once in `out`.
    pub fn visible_tags(&self, out: &mut Vec<(InstanceTag, bool)>) {
        out.clear();
        for e in self.entries.iter().rev() {
            out.push((InstanceTag::occurrence(e.pc, e.occurrence), e.taken));
            if !e.shadowed {
                let index = self.backwards_since(e);
                out.push((InstanceTag::iteration(e.pc, index), e.taken));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd(pc: Pc, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, taken)
    }

    fn bwd(pc: Pc, taken: bool) -> BranchRecord {
        BranchRecord::conditional(pc, taken).with_target(pc.saturating_sub(32))
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = PathWindow::new(0);
    }

    #[test]
    fn largest_capacity_is_accepted() {
        let w = PathWindow::new(PathWindow::MAX_CAPACITY);
        assert_eq!(w.capacity(), 65_536);
    }

    #[test]
    #[should_panic(expected = "path window capacity must be at most 65536")]
    fn capacity_beyond_u16_names_panics() {
        let _ = PathWindow::new(65_537);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut w = PathWindow::new(2);
        w.push(&fwd(1, true));
        w.push(&fwd(2, true));
        w.push(&fwd(3, true));
        assert_eq!(w.len(), 2);
        assert_eq!(w.lookup(InstanceTag::occurrence(1, 0)), None);
        assert_eq!(w.lookup(InstanceTag::occurrence(3, 0)), Some(true));
    }

    #[test]
    fn non_conditionals_ignored() {
        let mut w = PathWindow::new(4);
        w.push(&BranchRecord {
            pc: 9,
            target: 100,
            taken: true,
            kind: crate::BranchKind::Call,
        });
        assert!(w.is_empty());
    }

    #[test]
    fn occurrence_indexing_counts_from_most_recent() {
        let mut w = PathWindow::new(8);
        w.push(&fwd(5, true)); // will be occurrence 2
        w.push(&fwd(5, false)); // occurrence 1
        w.push(&fwd(5, true)); // occurrence 0
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 0)), Some(true));
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 1)), Some(false));
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 2)), Some(true));
        assert_eq!(w.lookup(InstanceTag::occurrence(5, 3)), None);
    }

    #[test]
    fn iteration_indexing_counts_back_edges() {
        let mut w = PathWindow::new(8);
        // Loop body branch at 10, back-edge at 20, two iterations.
        w.push(&fwd(10, true)); // iter 0: body
        w.push(&bwd(20, true)); // iter 0: back-edge
        w.push(&fwd(10, false)); // iter 1: body
        w.push(&bwd(20, true)); // iter 1: back-edge
                                // Body branch of the previous iteration: 2 back-edges since it
                                // (its own iteration's back-edge plus the next one)... count the
                                // back-edges executed after each instance:
                                //   pc=10 taken=true  -> back-edges after it: 2
                                //   pc=10 taken=false -> back-edges after it: 1
        assert_eq!(w.lookup(InstanceTag::iteration(10, 1)), Some(false));
        assert_eq!(w.lookup(InstanceTag::iteration(10, 2)), Some(true));
        assert_eq!(w.lookup(InstanceTag::iteration(10, 0)), None);
    }

    #[test]
    fn iteration_collision_keeps_most_recent() {
        let mut w = PathWindow::new(8);
        // Two instances of pc=7 with no back-edge between them: both have
        // zero backward branches since.
        w.push(&fwd(7, true));
        w.push(&fwd(7, false));
        let mut tags = Vec::new();
        w.visible_tags(&mut tags);
        let iter_hits: Vec<_> = tags
            .iter()
            .filter(|(t, _)| t.scheme == TagScheme::Iteration && t.pc == 7)
            .collect();
        assert_eq!(iter_hits.len(), 1);
        assert!(!iter_hits[0].1); // most recent outcome
        assert_eq!(w.lookup(InstanceTag::iteration(7, 0)), Some(false));
    }

    #[test]
    fn visible_tags_matches_lookup() {
        let mut w = PathWindow::new(6);
        for (i, rec) in [fwd(1, true), bwd(2, true), fwd(1, false), fwd(3, true)]
            .iter()
            .enumerate()
        {
            let _ = i;
            w.push(rec);
        }
        let mut tags = Vec::new();
        w.visible_tags(&mut tags);
        assert!(!tags.is_empty());
        for (tag, outcome) in &tags {
            assert_eq!(w.lookup(*tag), Some(*outcome), "tag {tag:?}");
        }
        // No duplicate tags.
        let mut seen = std::collections::HashSet::new();
        for (tag, _) in &tags {
            assert!(seen.insert(*tag), "duplicate tag {tag:?}");
        }
    }

    #[test]
    fn distance_counts_from_most_recent() {
        let mut w = PathWindow::new(8);
        w.push(&fwd(5, true)); // distance 3
        w.push(&bwd(6, true)); // distance 2
        w.push(&fwd(5, false)); // distance 1
        assert_eq!(w.distance(InstanceTag::occurrence(5, 0)), Some(1));
        assert_eq!(w.distance(InstanceTag::occurrence(5, 1)), Some(3));
        assert_eq!(w.distance(InstanceTag::occurrence(6, 0)), Some(2));
        assert_eq!(w.distance(InstanceTag::occurrence(5, 2)), None);
        // Iteration scheme: pc=5 oldest instance has 1 back-edge since it.
        assert_eq!(w.distance(InstanceTag::iteration(5, 1)), Some(3));
        assert_eq!(w.distance(InstanceTag::iteration(5, 0)), Some(1));
        // Distance agrees with lookup presence.
        let mut tags = Vec::new();
        w.visible_tags(&mut tags);
        for (tag, _) in tags {
            assert!(w.distance(tag).is_some(), "{tag:?}");
        }
    }

    /// Names `recs`' conditionals, oldest first, as a stored window with
    /// each pc as its id, expanded into `(tag, outcome, distance)`.
    fn stored_tags(recs: &[BranchRecord]) -> Vec<(InstanceTag, bool, usize)> {
        let window: Vec<WindowSymbol> = recs
            .iter()
            .filter(|rec| rec.is_conditional())
            .map(|rec| WindowSymbol::new(rec.pc as u32, rec.taken, rec.is_backward()))
            .collect();
        let mut out = Vec::new();
        WindowNamer::default().name(&window, |v| {
            let pc = Pc::from(v.id);
            out.push((
                InstanceTag::occurrence(pc, v.occurrence),
                v.taken,
                v.distance,
            ));
            if let Some(i) = v.iteration {
                out.push((InstanceTag::iteration(pc, i), v.taken, v.distance));
            }
        });
        out
    }

    #[test]
    fn stored_window_naming_agrees_with_tag_scan_and_distance() {
        let recs = [fwd(1, true), bwd(2, true), fwd(1, false), fwd(3, true)];
        let mut w = PathWindow::new(6);
        for rec in &recs {
            w.push(rec);
        }
        let mut plain = Vec::new();
        w.visible_tags(&mut plain);
        let stored = stored_tags(&recs);
        // Same tags and outcomes in the same order; distances match
        // distance().
        assert_eq!(plain.len(), stored.len());
        for ((tag, taken), (stag, staken, d)) in plain.iter().zip(&stored) {
            assert_eq!((tag, taken), (stag, staken));
            assert_eq!(w.distance(*tag), Some(*d), "{tag:?}");
        }
    }

    #[test]
    fn symbols_round_trip_their_fields() {
        for id in [0, 1, 12_345, WindowSymbol::MAX_ID] {
            for (taken, backward) in [(false, false), (true, false), (false, true), (true, true)] {
                let s = WindowSymbol::new(id, taken, backward);
                assert_eq!((s.id(), s.taken(), s.backward()), (id, taken, backward));
            }
        }
    }

    #[test]
    #[should_panic(expected = "30 bits")]
    fn symbol_ids_past_30_bits_panic() {
        let _ = WindowSymbol::new(WindowSymbol::MAX_ID + 1, false, false);
    }

    #[test]
    fn a_namer_reused_across_windows_names_each_afresh() {
        // Marks left by one window (id 7 twice, id 3) must not leak into
        // the next, whatever their ids.
        let mut namer = WindowNamer::default();
        let mut first = Vec::new();
        let window = [
            WindowSymbol::new(7, true, false),
            WindowSymbol::new(3, false, true),
            WindowSymbol::new(7, false, false),
        ];
        namer.name(&window, |v| first.push(v));
        let mut again = Vec::new();
        namer.name(&window, |v| again.push(v));
        assert_eq!(first, again);
        let mut lone = Vec::new();
        namer.name(&[WindowSymbol::new(7, true, false)], |v| lone.push(v));
        assert_eq!(
            lone,
            [VisibleId {
                id: 7,
                occurrence: 0,
                iteration: Some(0),
                taken: true,
                distance: 1,
            }]
        );
    }

    #[test]
    fn sub_window_visible_set_is_distance_filter_of_max_window() {
        // The property the incremental window sweep rests on: the visible
        // set of a short window equals the long window's set filtered to
        // distance <= short capacity.
        let recs = [
            fwd(1, true),
            bwd(2, true),
            fwd(1, false),
            fwd(3, true),
            bwd(2, false),
            fwd(1, true),
            fwd(4, false),
        ];
        for short_cap in 1..=recs.len() {
            let mut short = PathWindow::new(short_cap);
            for rec in &recs {
                short.push(rec);
            }
            let mut short_tags = Vec::new();
            short.visible_tags(&mut short_tags);
            let filtered: Vec<_> = stored_tags(&recs)
                .into_iter()
                .filter(|(_, _, d)| *d <= short_cap)
                .map(|(t, o, _)| (t, o))
                .collect();
            assert_eq!(filtered, short_tags, "cap {short_cap}");
        }
    }

    #[test]
    fn clear_keeps_backward_clock_monotonic() {
        let mut w = PathWindow::new(4);
        w.push(&bwd(2, true));
        w.clear();
        assert!(w.is_empty());
        w.push(&fwd(1, true));
        // Entry pushed after clear must still compute a sane iteration index.
        assert_eq!(w.lookup(InstanceTag::iteration(1, 0)), Some(true));
    }
}
