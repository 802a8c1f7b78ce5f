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
//! one fold over one [`TraceSource::scan`], on the calling thread.
//! [`SweepMatrix::materialize`] assembles any sweep point's
//! [`OutcomeMatrix`] with a word-wise bucket-threshold mask, no trace
//! access needed.
//!
//! Each pass names a path window once, not once per execution. A window's
//! visible tags, outcomes, distances and both §3.2 names are a pure
//! function of its last n (pc, taken, backward) records, and loop-shaped
//! programs keep coming back to a few paths: at window 16, go's 1M
//! executions follow 18,708 distinct paths of n + 1 records (1.9%). So
//! each pass steps a window-context automaton ([`PathScan`]): a record
//! costs one probe of a (pc, context, outcome, direction) → context step
//! table and a ring write, with no [`PathWindow::push`]. A context is a
//! path — an execution and the n records before it — interned by its
//! exact symbol sequence ([`WindowSymbol`]: dense pc id, outcome,
//! direction) and stored as its last symbol and the context it was first
//! reached from. A context whose last branch the pass builds is one of
//! that branch's *paths*, whose window is named by one O(n)
//! [`WindowNamer`] pass: pass 1 counts a path's executions and names its
//! window when it folds, adding that count to every tag it sees; pass 2
//! names it when it is met and writes its row (below). Only steps the
//! automaton has not taken intern a pc or a path. The automaton is
//! capped (32Ki contexts and steps); at the cap it folds every path into
//! its branch and restarts from the current path, which leaves every
//! output unchanged. When the scan ends, the branches finish one at a
//! time: a branch's last paths fold, it is ranked (pass 1) or its planes
//! take their last word (pass 2), and its state is dropped before the
//! next branch's paths fold.
//!
//! Neither pass hashes a visible tag: a named instance arrives as (prior
//! id, scheme, index), and a per-branch slot table finds its count in
//! pass 1 or its column in pass 2 by direct indexing. The tables grow
//! with the (branch, tag) pairs a build sees, never with the window. Ids
//! are per scan and never leave a pass: ranking sorts by tag, so no list
//! depends on interning order.
//!
//! Pass 2 packs by transposing rows. A path's row is its bit of every
//! candidate column in every plane (in-path, direction, then a sweep's
//! bucket digits), eight columns to a byte, written once when the path
//! is met; a path that sees no candidate has none. Each execution copies
//! its path's row into its slot of the branch's tile, the current
//! 64-execution word. When the word fills, or the branch finishes, each
//! (plane, byte) of 64 slots is bit-transposed into eight columns' plane
//! words, so the planes receive whole words; an all-zero byte group is
//! skipped. A fold only drops the rows: every execution's copy is in the
//! tile already.

use bp_trace::fx::FxHashMap;
use bp_trace::io::TraceIoError;
use bp_trace::{
    par_map, BranchRecord, InstanceTag, PathWindow, Pc, TagScheme, Trace, TraceSource, WindowNamer,
    WindowSymbol,
};

use crate::matrix::{BranchMatrix, OutcomeMatrix};
use crate::simd::transpose_rows;

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
        SweepMatrix::build_from_source(trace, windows, caps)
            .expect("in-memory traces cannot fail to scan")
    }

    /// As [`SweepMatrix::build`], consuming any [`TraceSource`] in two
    /// streaming scans (visibility bucketing, then plane packing), each
    /// folded on the calling thread.
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
    ) -> Result<Self, TraceIoError> {
        let (mut ranked, _) =
            rank_candidates::<MAX_SWEEP_WINDOWS, _>(source, windows, caps, &TagScheme::ALL)?;
        let columns: Vec<(Pc, &[InstanceTag])> = ranked
            .iter()
            .map(|(pc, (tags, _))| (*pc, &tags[..]))
            .collect();
        let (mut branches, _) = pack_planes(source, windows, &columns)?;
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

    /// Number of static branches covered, the same at every sweep point.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
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
        self.materialize_parallel(idx, 1)
    }

    /// As [`SweepMatrix::materialize`], assembling branch planes on up to
    /// `jobs` threads. The per-branch masking is pure and the merge is
    /// keyed by PC, so the matrix is the same for every `jobs` value.
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

/// Checks `windows` and returns the largest one, and the distance →
/// bucket table: `bucket_of[d]` is the index of the smallest window that
/// sees an instance at distance `d`.
fn window_buckets(windows: &[usize]) -> (usize, Vec<u8>) {
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
    // The window is checked before the table is sized by it.
    assert!(
        max_window <= PathWindow::MAX_CAPACITY,
        "path window capacity must be at most {}",
        PathWindow::MAX_CAPACITY
    );
    let bucket_of = (0..=max_window)
        .map(|d| windows.partition_point(|&w| w < d) as u8)
        .collect();
    (max_window, bucket_of)
}

/// Pass 1's result for one branch: the union candidate tags, and per
/// window its capped list as indices into them.
pub(crate) type Ranked = (Vec<InstanceTag>, Vec<Vec<u32>>);

/// Most contexts the automaton adds to the path it restarted from
/// before it folds. The crate's unit tests fold at 256, so that their
/// builds over a few hundred records, property tests included, cross it.
const MAX_CONTEXTS: usize = if cfg!(test) { 1 << 8 } else { 1 << 15 };

/// Most steps the automaton holds before it folds.
const MAX_STEPS: usize = MAX_CONTEXTS;

/// Multiplier of the automaton's hashes: odd, with well-mixed bits.
const HASH_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A symbol's term in a context hash: never 0, so a shorter path's hash
/// is not a longer one's with a leading zero term.
#[inline]
fn weight(s: WindowSymbol) -> u64 {
    u64::from(s.bits()) + 1
}

/// Where `hash` starts its probe in a `mask + 1`-entry table.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash.wrapping_mul(HASH_BASE) >> 32) as usize & mask
}

/// The first empty slot on `hash`'s probe sequence in an open-addressed
/// index of `1 + entry` values, 0 for empty.
fn vacant(index: &[u32], hash: u64) -> usize {
    let mask = index.len() - 1;
    let mut slot = slot_of(hash, mask);
    while index[slot] != 0 {
        slot = (slot + 1) & mask;
    }
    slot
}

/// Whether an open-addressed table of `size` slots holding `len` entries
/// must grow: it stays at most 3/4 full.
#[inline]
fn crowded(len: usize, size: usize) -> bool {
    4 * len > 3 * size
}

/// The last `span` symbols a scan has met, oldest first, in a mirrored
/// buffer so that they are always one slice.
struct Ring {
    span: usize,
    buf: Vec<WindowSymbol>,
    /// Where the next symbol goes, in `0..span`.
    next: usize,
    len: usize,
}

impl Ring {
    fn new(span: usize) -> Self {
        Ring {
            span,
            buf: vec![WindowSymbol::new(0, false, false); 2 * span],
            next: 0,
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, s: WindowSymbol) {
        self.buf[self.next] = s;
        self.buf[self.next + self.span] = s;
        self.next += 1;
        if self.next == self.span {
            self.next = 0;
        }
        self.len += usize::from(self.len < self.span);
    }

    /// The symbols, oldest first.
    #[inline]
    fn symbols(&self) -> &[WindowSymbol] {
        let end = self.next + self.span;
        &self.buf[end - self.len..end]
    }
}

/// A context as [`Contexts`] stores it.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The context it was first reached from, whose last `len − 1`
    /// symbols are its first.
    pred: u32,
    /// Its last symbol.
    last: WindowSymbol,
    /// Σ weight(s_i) · HASH_BASE^(len − 1 − i) over its symbols, wrapping.
    hash: u64,
}

/// The contexts of one scan's window-context automaton. A context is a
/// path: the last `span` = n + 1 conditional records, that is an
/// execution and the n-record window before it, so its last symbol names
/// the executing branch, outcome and direction, and the rest name its
/// visible instances. Contexts are interned by their exact symbol
/// sequence. Each is stored as its last symbol and the context it was
/// first reached from, so it costs 16 bytes whatever the window.
///
/// Contexts are numbered as they are met, and a path shorter than `span`
/// is met only at the trace's start or as a prefix of the path a fold
/// restarts from, each one longer than the last. So context `k` is
/// `min(k, span)` symbols long, the empty path being context 0.
struct Contexts {
    span: usize,
    nodes: Vec<Node>,
    /// Contexts the last restart made: the path and its prefixes.
    base: usize,
    /// Open-addressed contexts by hash: 1 + context, 0 for empty.
    index: Vec<u32>,
    /// HASH_BASE^(span − 1): a full path's oldest term is its weight
    /// times this.
    oldest: u64,
}

impl Contexts {
    /// An automaton holding only the empty path, context 0.
    fn new(span: usize) -> Self {
        let mut contexts = Contexts {
            span,
            nodes: Vec::new(),
            base: 0,
            index: vec![0; 16],
            oldest: HASH_BASE.wrapping_pow((span - 1) as u32),
        };
        contexts.restart(&[]);
        contexts
    }

    /// Contexts added since the last restart.
    fn added(&self) -> usize {
        self.nodes.len() - self.base
    }

    /// Context `k`'s length.
    #[inline]
    fn len(&self, k: u32) -> usize {
        (k as usize).min(self.span)
    }

    /// Context `k`'s last symbol.
    #[inline]
    fn last(&self, k: u32) -> WindowSymbol {
        self.nodes[k as usize].last
    }

    /// The context after `c`, whose path is `path`, on symbol `s`, and
    /// whether it is new.
    fn next(&mut self, c: u32, path: &[WindowSymbol], s: WindowSymbol) -> (u32, bool) {
        debug_assert_eq!(path.len(), self.len(c));
        let mut hash = self.nodes[c as usize].hash;
        let mut kept = path;
        if path.len() == self.span {
            hash = hash.wrapping_sub(weight(path[0]).wrapping_mul(self.oldest));
            kept = &path[1..];
        }
        let hash = hash.wrapping_mul(HASH_BASE).wrapping_add(weight(s));
        let mask = self.index.len() - 1;
        let mut slot = slot_of(hash, mask);
        while let Some(k) = self.index[slot].checked_sub(1) {
            if self.nodes[k as usize].hash == hash && self.is(k, kept, s) {
                return (k, false);
            }
            slot = (slot + 1) & mask;
        }
        (self.add(c, s, hash, slot), true)
    }

    /// Whether context `k`'s path is `kept` followed by `s`.
    fn is(&self, k: u32, kept: &[WindowSymbol], s: WindowSymbol) -> bool {
        if self.last(k) != s || self.len(k) != kept.len() + 1 {
            return false;
        }
        let mut at = self.nodes[k as usize].pred;
        for &want in kept.iter().rev() {
            let node = self.nodes[at as usize];
            if node.last != want {
                return false;
            }
            at = node.pred;
        }
        true
    }

    /// Adds a context at index slot `slot`.
    fn add(&mut self, pred: u32, last: WindowSymbol, hash: u64, slot: usize) -> u32 {
        let k = self.nodes.len() as u32;
        self.nodes.push(Node { pred, last, hash });
        self.index[slot] = k + 1;
        if crowded(self.nodes.len(), self.index.len()) {
            let size = 2 * self.index.len();
            self.index.clear();
            self.index.resize(size, 0);
            for (k, node) in (1..).zip(&self.nodes) {
                let slot = vacant(&self.index, node.hash);
                self.index[slot] = k;
            }
        }
        k
    }

    /// Context `c`'s path but its last symbol — the window its execution
    /// saw — oldest first, into `out`.
    fn window(&self, c: u32, out: &mut Vec<WindowSymbol>) {
        out.clear();
        let mut at = self.nodes[c as usize].pred;
        for _ in 1..self.len(c) {
            let node = self.nodes[at as usize];
            out.push(node.last);
            at = node.pred;
        }
        out.reverse();
    }

    /// Forgets every context and holds only `path` and its prefixes;
    /// returns `path`'s context.
    fn restart(&mut self, path: &[WindowSymbol]) -> u32 {
        self.nodes.clear();
        self.index.fill(0);
        // The empty path's last symbol is never read.
        let root = vacant(&self.index, 0);
        let mut c = self.add(0, WindowSymbol::new(0, false, false), 0, root);
        let mut hash = 0u64;
        for &s in path {
            hash = hash.wrapping_mul(HASH_BASE).wrapping_add(weight(s));
            c = self.add(c, s, hash, vacant(&self.index, hash));
        }
        self.base = self.nodes.len();
        c
    }
}

/// One automaton step: from a context, on a pc with its outcome and
/// direction (`from` = context << 2 | outcome << 1 | backward), to the
/// next context. `to` is [`NO_STEP`] in an empty slot.
#[derive(Debug, Clone, Copy)]
struct Step {
    pc: Pc,
    from: u32,
    to: u32,
}

const NO_STEP: u32 = u32::MAX;

/// The automaton's steps, open-addressed by (pc, from).
struct Steps {
    slots: Vec<Step>,
    len: usize,
}

impl Steps {
    const EMPTY: Step = Step {
        pc: 0,
        from: 0,
        to: NO_STEP,
    };

    fn new() -> Self {
        Steps {
            slots: vec![Steps::EMPTY; 64],
            len: 0,
        }
    }

    #[inline]
    fn home(pc: Pc, from: u32, mask: usize) -> usize {
        slot_of(pc.wrapping_mul(HASH_BASE) ^ u64::from(from), mask)
    }

    #[inline]
    fn get(&self, pc: Pc, from: u32) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut at = Steps::home(pc, from, mask);
        loop {
            let step = self.slots[at];
            if step.to == NO_STEP {
                return None;
            }
            if step.pc == pc && step.from == from {
                return Some(step.to);
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds a step not yet held.
    fn insert(&mut self, step: Step) {
        self.len += 1;
        if crowded(self.len, self.slots.len()) {
            let size = 2 * self.slots.len();
            let old = std::mem::replace(&mut self.slots, vec![Steps::EMPTY; size]);
            for step in old.into_iter().filter(|s| s.to != NO_STEP) {
                self.place(step);
            }
        }
        self.place(step);
    }

    fn place(&mut self, step: Step) {
        let mask = self.slots.len() - 1;
        let mut at = Steps::home(step.pc, step.from, mask);
        while self.slots[at].to != NO_STEP {
            at = (at + 1) & mask;
        }
        self.slots[at] = step;
    }

    fn clear(&mut self) {
        self.slots.fill(Steps::EMPTY);
        self.len = 0;
    }
}

/// What one pass does with the paths of the branches it builds: each is
/// a context whose last symbol is the branch's — the window before an
/// execution, and the execution's outcome and direction.
trait PathPass {
    /// A built branch's state.
    type Branch;
    /// A path's state until the next fold.
    type Path: Default;
    /// A branch's result.
    type Done;

    /// The state of a pc met for the first time, if the pass builds it.
    fn adopt(&self, pc: Pc) -> Option<Self::Branch>;

    /// A path met for the first time since the last fold, after `window`.
    fn meet(
        &self,
        branch: &mut Self::Branch,
        window: &[WindowSymbol],
        namer: &mut WindowNamer,
    ) -> Self::Path;

    /// One execution on a path, with its outcome.
    fn visit(&self, branch: &mut Self::Branch, path: &mut Self::Path, taken: bool);

    /// Folds a path into its branch before the automaton forgets it. The
    /// path a fold restarted from may have no executions.
    fn fold(
        &self,
        branch: &mut Self::Branch,
        window: &[WindowSymbol],
        namer: &mut WindowNamer,
        path: Self::Path,
    );

    /// A branch's pc and result, once every path has folded into it;
    /// `pcs` names the scan's ids.
    fn finish(&self, branch: Self::Branch, pcs: &[Pc]) -> (Pc, Self::Done);
}

/// The state index of the branch `s` names, if `built` (per id, 1 + the
/// index; 0 for not built) builds it.
#[inline]
fn branch_of(built: &[u32], s: WindowSymbol) -> Option<usize> {
    let b = built.get(s.id() as usize)?;
    b.checked_sub(1).map(|b| b as usize)
}

/// A pass's scan, shared by both passes: a window-context automaton over
/// every conditional record, with pass `P`'s work on the paths of the
/// branches it builds.
///
/// A record costs one probe of `steps`, keyed by (pc, context, outcome,
/// direction), and a ring write. Only a step not taken since the last
/// fold interns the pc to a dense id and the path it leads to to a
/// context, which, if new and built, the pass meets. A window is
/// therefore named once per path and fold, never per execution. When the
/// contexts or steps reach their caps the scan folds: every path is
/// folded into its branch, and the automaton restarts from the current
/// path alone. Nothing a pass computes depends on when folds happen.
struct PathScan<P: PathPass> {
    ids: FxHashMap<Pc, u32>,
    /// Per id: its pc.
    pcs: Vec<Pc>,
    /// Per id: 1 + the index of its state in `branches` (0: not built).
    built: Vec<u32>,
    branches: Vec<P::Branch>,
    ring: Ring,
    contexts: Contexts,
    steps: Steps,
    /// The current context.
    at: u32,
    /// Per context: its path state, met if its last branch is built.
    paths: Vec<P::Path>,
    namer: WindowNamer,
    /// Scratch for a context's window.
    window: Vec<WindowSymbol>,
    /// Folds forced by the caps.
    folds: usize,
}

impl<P: PathPass> PathScan<P> {
    /// A scan of the `window` records before each execution.
    fn new(window: usize) -> Self {
        PathScan {
            ids: FxHashMap::default(),
            pcs: Vec::new(),
            built: Vec::new(),
            branches: Vec::new(),
            ring: Ring::new(window + 1),
            contexts: Contexts::new(window + 1),
            steps: Steps::new(),
            at: 0,
            paths: vec![P::Path::default()],
            namer: WindowNamer::default(),
            window: Vec::new(),
            folds: 0,
        }
    }

    /// `pc`'s id, and whether this call assigned it (not built yet).
    #[inline]
    fn id(&mut self, pc: Pc) -> (u32, bool) {
        let next = u32::try_from(self.pcs.len()).expect("fewer than 2^32 static branches");
        let id = *self.ids.entry(pc).or_insert(next);
        let new = id == next;
        if new {
            self.pcs.push(pc);
            self.built.push(0);
        }
        (id, new)
    }

    /// Makes `state` the pass's state for `pc`.
    fn build(&mut self, pc: Pc, state: P::Branch) {
        let (id, _) = self.id(pc);
        self.attach(id, state);
    }

    fn attach(&mut self, id: u32, state: P::Branch) {
        self.branches.push(state);
        self.built[id as usize] = self.branches.len() as u32;
    }

    /// Runs one chunk: every conditional record steps the automaton, and
    /// a built branch's execution visits its path.
    fn step(&mut self, chunk: &[BranchRecord], pass: &P) {
        for rec in chunk.iter().filter(|rec| rec.is_conditional()) {
            let from = self.at << 2 | u32::from(rec.taken) << 1 | u32::from(rec.is_backward());
            let at = match self.steps.get(rec.pc, from) {
                Some(at) => {
                    self.ring.push(self.contexts.last(at));
                    at
                }
                None => self.learn(rec, from, pass),
            };
            self.at = at;
            if let Some(b) = branch_of(&self.built, self.contexts.last(at)) {
                let path = &mut self.paths[at as usize];
                pass.visit(&mut self.branches[b], path, rec.taken);
            }
        }
    }

    /// Takes a step for the first time since the last fold: interns the
    /// path it leads to, meeting it if it is new and built, and moves the
    /// ring along.
    #[inline(never)]
    fn learn(&mut self, rec: &BranchRecord, mut from: u32, pass: &P) -> u32 {
        if self.contexts.added() >= MAX_CONTEXTS || self.steps.len >= MAX_STEPS {
            self.fold(pass);
            self.folds += 1;
            from = self.at << 2 | from & 3;
        }
        let (id, new) = self.id(rec.pc);
        if new {
            if let Some(state) = pass.adopt(rec.pc) {
                self.attach(id, state);
            }
        }
        let s = WindowSymbol::new(id, rec.taken, rec.is_backward());
        let (to, created) = self.contexts.next(self.at, self.ring.symbols(), s);
        self.ring.push(s);
        if created {
            self.meet(pass);
        }
        self.steps.insert(Step {
            pc: rec.pc,
            from,
            to,
        });
        to
    }

    /// Gives the newest context, the ring's path, its path state: met if
    /// the pass builds the path's last branch.
    fn meet(&mut self, pass: &P) {
        let path = match self.ring.symbols().split_last() {
            Some((&s, window)) => match branch_of(&self.built, s) {
                Some(b) => pass.meet(&mut self.branches[b], window, &mut self.namer),
                None => P::Path::default(),
            },
            None => P::Path::default(),
        };
        self.paths.push(path);
    }

    /// Folds every path into its branch and restarts the automaton from
    /// the current path, the ring's.
    fn fold(&mut self, pass: &P) {
        self.fold_paths(pass);
        self.steps.clear();
        self.at = self.contexts.restart(self.ring.symbols());
        // Only the current path can be met again: its prefixes are shorter
        // than any path a step leads to.
        self.paths.resize_with(self.at as usize, P::Path::default);
        self.meet(pass);
    }

    fn fold_paths(&mut self, pass: &P) {
        let paths = std::mem::take(&mut self.paths);
        // Context 0, the empty path, has no branch.
        for (c, path) in (1..).zip(paths.into_iter().skip(1)) {
            if let Some(b) = branch_of(&self.built, self.contexts.last(c)) {
                self.contexts.window(c, &mut self.window);
                pass.fold(&mut self.branches[b], &self.window, &mut self.namer, path);
            }
        }
    }

    /// Every built branch's result, and the folds the caps forced. The
    /// paths left since the last cap fold are folded and finished one
    /// branch at a time: a branch's remaining paths fold into it, the pass
    /// finishes it, and its state is dropped before the next branch's
    /// paths fold. A cap fold during the scan folds every branch's paths,
    /// and those counts stay until their branch finishes here.
    fn finish(mut self, pass: &P) -> (FxHashMap<Pc, P::Done>, usize) {
        let mut paths = std::mem::take(&mut self.paths);
        // (branch, context) for every context but the empty path, in
        // branch order.
        let mut pending: Vec<(u32, u32)> = (1..paths.len() as u32)
            .filter_map(|c| {
                let b = branch_of(&self.built, self.contexts.last(c))?;
                Some((b as u32, c))
            })
            .collect();
        pending.sort_unstable();
        let mut pending = pending.into_iter().peekable();
        let mut done = FxHashMap::with_capacity_and_hasher(self.branches.len(), Default::default());
        for (b, mut branch) in (0..).zip(std::mem::take(&mut self.branches)) {
            while let Some((_, c)) = pending.next_if(|&(of, _)| of == b) {
                self.contexts.window(c, &mut self.window);
                let path = std::mem::take(&mut paths[c as usize]);
                pass.fold(&mut branch, &self.window, &mut self.namer, path);
            }
            let (pc, result) = pass.finish(branch, &self.pcs);
            done.insert(pc, result);
        }
        (done, self.folds)
    }
}

/// [`SlotTable`] block index of each tagging scheme.
const OCC: usize = TagScheme::Occurrence as usize;
const ITER: usize = TagScheme::Iteration as usize;

/// A per-branch direct index from a visible instance — (prior id,
/// scheme, index) — to a dense slot: a count in pass 1, a column in
/// pass 2. It grows only with what the branch sees, like the tag map it
/// replaces: `pair_of` with the priors seen (see [`PairIndex`]), and each
/// (prior, scheme) block to the largest index seen. Occurrence indices
/// visible at one execution form a prefix, so only iteration blocks can
/// have gaps. Nothing is sized by the window.
#[derive(Debug, Default)]
struct SlotTable {
    /// Prior id → pair number.
    pair_of: PairIndex,
    /// Per pair: its prior id, and per scheme its block of `slots`.
    pairs: Vec<(u32, [Block; 2])>,
    /// Block storage: 1 + slot (0: index never seen).
    slots: Vec<u32>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Block {
    start: u32,
    len: u32,
}

/// One past the largest instance index.
const INDEX_LIMIT: u32 = 1 << 16;

/// Most direct [`PairIndex`] entries per pair a branch has seen.
const DENSE_PER_PAIR: usize = 32;

/// A branch's prior id → pair number, sized by the pairs the branch has
/// seen. Ids below `dense.len()` are indexed directly. `dense` grows to
/// cover an id only while it keeps within [`DENSE_PER_PAIR`] entries per
/// pair, so a prior past it (a branch that sees few priors among many
/// ids) waits in `open` until `dense` has grown past it.
#[derive(Debug, Default)]
struct PairIndex {
    /// Per id: 1 + its pair number (0: never seen).
    dense: Vec<u32>,
    /// Priors at or past `dense.len()`: `(1 + id, pair)` entries, 0 for
    /// empty, probed linearly from [`home`]; empty, or at most half full.
    open: Vec<(u32, u32)>,
    /// Priors in `open`.
    held: usize,
}

impl PairIndex {
    #[inline]
    fn get(&self, id: u32) -> Option<usize> {
        match self.dense.get(id as usize) {
            Some(&p) => p.checked_sub(1).map(|p| p as usize),
            None if self.held == 0 => None,
            None => self.get_open(id),
        }
    }

    #[cold]
    #[inline(never)]
    fn get_open(&self, id: u32) -> Option<usize> {
        let mask = self.open.len() - 1;
        let mut at = home(id, mask);
        loop {
            let (key, pair) = self.open[at];
            if key == id + 1 {
                return Some(pair as usize);
            }
            if key == 0 {
                return None;
            }
            at = (at + 1) & mask;
        }
    }

    /// Enters prior `id`, new, as pair `pair`, the branch's `pair + 1`st.
    fn insert(&mut self, id: u32, pair: usize) {
        let i = id as usize;
        let limit = DENSE_PER_PAIR * (pair + 1);
        if i >= self.dense.len() && i < limit {
            self.dense.resize((i + 1).next_power_of_two().min(limit), 0);
            // Take over the open priors the longer `dense` covers. Each
            // went to `open` past its own, lower limit, so none regrows it.
            let open = std::mem::take(&mut self.open);
            self.held = 0;
            for (key, p) in open.into_iter().filter(|&(key, _)| key != 0) {
                self.enter(key - 1, p as usize);
            }
        }
        self.enter(id, pair);
    }

    /// Enters prior `id` as `pair` at its place in `dense` or `open`.
    fn enter(&mut self, id: u32, pair: usize) {
        if let Some(slot) = self.dense.get_mut(id as usize) {
            *slot = pair as u32 + 1;
            return;
        }
        self.held += 1;
        if 2 * self.held > self.open.len() {
            let size = 4 * self.held.next_power_of_two();
            let open = std::mem::replace(&mut self.open, vec![(0, 0); size]);
            for (key, p) in open.into_iter().filter(|&(key, _)| key != 0) {
                place(&mut self.open, key - 1, p as usize);
            }
        }
        place(&mut self.open, id, pair);
    }
}

/// Where prior `id` starts its probe in a `mask + 1`-entry open index.
#[inline]
fn home(id: u32, mask: usize) -> usize {
    (id.wrapping_mul(0x9E37_79B9) >> 16) as usize & mask
}

/// Enters prior `id` as `pair` in an open index with a free entry.
fn place(index: &mut [(u32, u32)], id: u32, pair: usize) {
    let mask = index.len() - 1;
    let mut at = home(id, mask);
    while index[at].0 != 0 {
        at = (at + 1) & mask;
    }
    index[at] = (id + 1, pair as u32);
}

impl SlotTable {
    /// The pair number of prior `id`, if the branch has seen it.
    #[inline]
    fn pair(&self, id: u32) -> Option<usize> {
        self.pair_of.get(id)
    }

    #[inline]
    fn get(&self, pair: usize, scheme: usize, index: u16) -> Option<u32> {
        let b = self.pairs[pair].1[scheme];
        let index = u32::from(index);
        if index >= b.len {
            return None;
        }
        self.slots[(b.start + index) as usize].checked_sub(1)
    }

    /// Prior `id`'s pair number, adding the pair if new.
    #[inline]
    fn pair_or_insert(&mut self, id: u32) -> usize {
        match self.pair(id) {
            Some(pair) => pair,
            None => self.insert_pair(id),
        }
    }

    #[cold]
    fn insert_pair(&mut self, id: u32) -> usize {
        let pair = self.pairs.len();
        self.pairs.push((id, [Block::default(); 2]));
        self.pair_of.insert(id, pair);
        pair
    }

    /// Makes `slot` the slot at (pair, scheme, index), which has none.
    #[cold]
    fn insert(&mut self, pair: usize, scheme: usize, index: u16, slot: u32) {
        let index = u32::from(index);
        if index >= self.pairs[pair].1[scheme].len {
            self.grow(pair, scheme, index + 1);
        }
        let at = (self.pairs[pair].1[scheme].start + index) as usize;
        debug_assert_eq!(self.slots[at], 0, "one slot per instance");
        self.slots[at] = slot + 1;
    }

    /// Extends a block to at least `len` entries: in place when it ends
    /// `slots`, else by moving it to the end at twice its length or more,
    /// so a block that grows one index at a time moves O(log len) times.
    fn grow(&mut self, pair: usize, scheme: usize, len: u32) {
        let b = &mut self.pairs[pair].1[scheme];
        let (start, end) = (b.start as usize, (b.start + b.len) as usize);
        if end == self.slots.len() {
            self.slots.resize(start + len as usize, 0);
            b.len = len;
        } else {
            let len = len.max(2 * b.len).min(INDEX_LIMIT);
            let moved = self.slots.len();
            self.slots.extend_from_within(start..end);
            self.slots.resize(moved + len as usize, 0);
            *b = Block {
                start: u32::try_from(moved).expect("under 2^32 slots per branch"),
                len,
            };
        }
    }

    /// Every filled slot, as (prior id, scheme, index, slot).
    fn iter(&self) -> impl Iterator<Item = (u32, TagScheme, u16, u32)> + '_ {
        self.pairs.iter().flat_map(move |&(id, blocks)| {
            TagScheme::ALL
                .into_iter()
                .zip(blocks)
                .flat_map(move |(scheme, b)| {
                    let block = &self.slots[b.start as usize..(b.start + b.len) as usize];
                    block.iter().enumerate().filter_map(move |(index, &s)| {
                        Some((id, scheme, index as u16, s.checked_sub(1)?))
                    })
                })
        })
    }
}

/// One branch's pass-1 state: per distinct visible tag, its visibility
/// counts by bucket, found through the branch's slot table.
struct TagCounts<const B: usize> {
    pc: Pc,
    table: SlotTable,
    counts: Vec<[u64; B]>,
}

impl<const B: usize> TagCounts<B> {
    fn new(pc: Pc) -> Self {
        TagCounts {
            pc,
            table: SlotTable::default(),
            counts: Vec::new(),
        }
    }

    /// Counts every tag visible in `window`, `executions` times, in its
    /// `bucket_of` bucket.
    fn observe(
        &mut self,
        window: &[WindowSymbol],
        namer: &mut WindowNamer,
        executions: u64,
        bucket_of: &[u8],
    ) {
        let TagCounts { table, counts, .. } = self;
        namer.name(window, |v| {
            let b = if B == 1 {
                0
            } else {
                usize::from(bucket_of[v.distance])
            };
            let pair = table.pair_or_insert(v.id);
            let mut count = |scheme, index| {
                let slot = table.get(pair, scheme, index).unwrap_or_else(|| {
                    let slot = u32::try_from(counts.len()).expect("under 2^32 tags per branch");
                    table.insert(pair, scheme, index, slot);
                    counts.push([0; B]);
                    slot
                });
                counts[slot as usize][b] += executions;
            };
            count(OCC, v.occurrence);
            if let Some(index) = v.iteration {
                count(ITER, index);
            }
        });
    }

    /// The union of every window's capped list, ranked from these counts
    /// (see [`rank_candidates`]); `pcs` names the prior ids.
    fn rank(&self, pcs: &[Pc], caps: &[usize], schemes: &[TagScheme]) -> (Pc, Ranked) {
        let tags: Vec<(InstanceTag, &[u64; B])> = self
            .table
            .iter()
            .filter(|(_, scheme, _, _)| schemes.contains(scheme))
            .map(|(id, scheme, index, slot)| {
                let pc = pcs[id as usize];
                (
                    InstanceTag { pc, index, scheme },
                    &self.counts[slot as usize],
                )
            })
            .collect();
        let order = |a: &(InstanceTag, u64), b: &(InstanceTag, u64)| {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
        };
        let mut union: Vec<InstanceTag> = Vec::new();
        let mut union_index: FxHashMap<InstanceTag, u32> = FxHashMap::default();
        let mut ranked = Vec::with_capacity(caps.len());
        for (i, &cap) in caps.iter().enumerate() {
            // Visibility within window i = buckets 0..=i summed.
            let mut list: Vec<(InstanceTag, u64)> = tags
                .iter()
                .filter_map(|(tag, buckets)| {
                    let count: u64 = buckets[..=i].iter().sum();
                    (count > 0).then_some((*tag, count))
                })
                .collect();
            // The order is total (tags are distinct), so selecting the
            // first `cap` before sorting keeps exactly the same list.
            if list.len() > cap {
                list.select_nth_unstable_by(cap - 1, order);
                list.truncate(cap);
            }
            list.sort_unstable_by(order);
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
        (self.pc, (union, ranked))
    }
}

/// Pass 1's work on every branch's paths: a path counts its executions,
/// a fold counts each tag its window names that many times, and a
/// finished branch ranks its tags.
struct Rank<'a, const B: usize> {
    bucket_of: &'a [u8],
    caps: &'a [usize],
    schemes: &'a [TagScheme],
}

impl<const B: usize> PathPass for Rank<'_, B> {
    type Branch = TagCounts<B>;
    type Path = u64;
    type Done = Ranked;

    fn adopt(&self, pc: Pc) -> Option<TagCounts<B>> {
        Some(TagCounts::new(pc))
    }

    fn meet(&self, _: &mut TagCounts<B>, _: &[WindowSymbol], _: &mut WindowNamer) -> u64 {
        0
    }

    #[inline]
    fn visit(&self, _: &mut TagCounts<B>, executions: &mut u64, _: bool) {
        *executions += 1;
    }

    fn fold(
        &self,
        counts: &mut TagCounts<B>,
        window: &[WindowSymbol],
        namer: &mut WindowNamer,
        executions: u64,
    ) {
        if executions > 0 {
            counts.observe(window, namer, executions, self.bucket_of);
        }
    }

    fn finish(&self, counts: TagCounts<B>, pcs: &[Pc]) -> (Pc, Ranked) {
        counts.rank(pcs, self.caps, self.schemes)
    }
}

/// Pass 1: per executed branch, the union of every window's capped
/// candidate list (the first window's list first, so with one window the
/// union is that list), and per window its list as indices into the
/// union; and the folds the automaton's caps forced. Visibility is counted
/// once at the largest window, in `B` buckets by the smallest window that
/// sees each instance (so `B` must cover `windows`); window `i` then ranks
/// the `schemes` tags by buckets `0..=i` summed (count desc, tag asc) and
/// keeps `caps[i]`.
///
/// Each path counts its executions, and its window is named once, when
/// the path is folded: each visible instance adds that count through the
/// branch's [`SlotTable`], found by its prior's dense id, so no visible
/// tag costs a hash probe. Each branch is ranked once its last paths
/// fold, and its counts are dropped before the next branch's paths fold.
///
/// # Panics
///
/// As [`SweepMatrix::build`].
pub(crate) fn rank_candidates<const B: usize, T: TraceSource + ?Sized>(
    source: &T,
    windows: &[usize],
    caps: &[usize],
    schemes: &[TagScheme],
) -> Result<(FxHashMap<Pc, Ranked>, usize), TraceIoError> {
    let (window, bucket_of) = window_buckets(windows);
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
    // Every scheme is counted: filtering by `schemes` at ranking leaves the
    // same lists, and costs less here.
    let pass = Rank::<B> {
        bucket_of: &bucket_of,
        caps,
        schemes,
    };
    let mut scan = PathScan::new(window);
    source.scan(&mut |chunk| scan.step(chunk, &pass))?;
    Ok(scan.finish(&pass))
}

/// One branch's pass-2 state: its slot table over column numbers, the
/// rows of the paths met since the last fold, and a tile holding the
/// current 64 executions' rows, which leaves for the planes one whole
/// word per column and plane when the 64th execution lands or the branch
/// finishes.
///
/// A path's *row* holds its bit of every column in every plane —
/// in-path, direction, then a sweep's bucket digits — eight columns to a
/// byte: byte `p * groups + g` holds plane `p`'s bits of columns `8g` to
/// `8g + 7`. The row is written once, when the path is met, and a path
/// that sees no candidate has none. An execution copies its path's row
/// into its slot of the tile, which keeps each (plane, group)'s 64 slots
/// together, so a full word bit-transposes group by group
/// ([`transpose_rows`]) into eight columns' plane words. A group no
/// execution set is skipped.
struct PlaneBuilder {
    pc: Pc,
    sb: SweepBranch,
    table: SlotTable,
    /// Planes per column: in-path, direction, then the bucket planes.
    planes: usize,
    /// Row bytes per plane: ⌈columns / 8⌉.
    groups: usize,
    /// The rows of the paths met since the last fold, `planes × groups`
    /// bytes each.
    rows: Vec<u8>,
    /// Per row byte, the current word's 64 executions' copies of it, in
    /// execution order; zero where no row set a bit.
    tile: Vec<u8>,
    taken: u64,
}

/// Where a path's row starts in its [`PlaneBuilder`]'s rows; `None` for
/// a path that sees no candidate.
type PathRow = Option<u32>;

impl PlaneBuilder {
    /// A builder for `tags`, naming their priors by `ids`.
    fn new(pc: Pc, tags: &[InstanceTag], bits: usize, mut ids: impl FnMut(Pc) -> u32) -> Self {
        let mut table = SlotTable::default();
        for (c, tag) in (0..).zip(tags) {
            let pair = table.pair_or_insert(ids(tag.pc));
            table.insert(pair, tag.scheme as usize, tag.index, c);
        }
        let (planes, groups) = (2 + bits, tags.len().div_ceil(8));
        PlaneBuilder {
            pc,
            sb: SweepBranch::new(tags.to_vec(), bits),
            table,
            planes,
            groups,
            rows: Vec::new(),
            tile: vec![0; 64 * planes * groups],
            taken: 0,
        }
    }

    /// Writes the row of the path whose window is `window`, if it sees a
    /// candidate.
    fn row(
        &mut self,
        window: &[WindowSymbol],
        namer: &mut WindowNamer,
        bucket_of: &[u8],
    ) -> PathRow {
        if self.groups == 0 {
            return None;
        }
        let (start, groups) = (self.rows.len(), self.groups);
        let bits = self.planes - 2;
        self.rows.resize(start + self.planes * groups, 0);
        let (table, row) = (&self.table, &mut self.rows[start..]);
        let mut seen = false;
        namer.name(window, |v| {
            let Some(pair) = table.pair(v.id) else {
                return;
            };
            // Branch-free: whether the instance was taken, and its bucket
            // digits, are data, not control flow.
            let taken = u8::from(v.taken).wrapping_neg();
            let bucket = bucket_of[v.distance];
            let mut set = |c: u32| {
                let (g, bit) = (c as usize / 8, 1u8 << (c % 8));
                row[g] |= bit;
                row[groups + g] |= bit & taken;
                for k in 0..bits {
                    row[(2 + k) * groups + g] |= bit & (bucket >> k & 1).wrapping_neg();
                }
                seen = true;
            };
            if let Some(c) = table.get(pair, OCC, v.occurrence) {
                set(c);
            }
            if let Some(c) = v.iteration.and_then(|i| table.get(pair, ITER, i)) {
                set(c);
            }
        });
        if !seen {
            self.rows.truncate(start);
            return None;
        }
        let end = u32::try_from(self.rows.len()).expect("under 2^32 row bytes per fold");
        Some(end - (self.planes * groups) as u32)
    }

    /// Adds an execution with outcome `taken` on the path with `row`.
    #[inline]
    fn push_execution(&mut self, taken: bool, row: PathRow) {
        let e = self.sb.executions;
        self.sb.executions += 1;
        let slot = e % 64;
        self.taken |= u64::from(taken) << slot;
        if let Some(start) = row {
            let start = start as usize;
            let row = &self.rows[start..start + self.planes * self.groups];
            for (slots, &byte) in self.tile.chunks_exact_mut(64).zip(row) {
                slots[slot] = byte;
            }
        }
        if slot == 63 {
            self.flush();
        }
    }

    /// Transposes the tile into one word of every plane and clears it.
    fn flush(&mut self) {
        let sb = &mut self.sb;
        sb.taken.push(std::mem::take(&mut self.taken));
        if self.groups == 0 {
            return;
        }
        let planes = [&mut sb.inpath, &mut sb.dir]
            .into_iter()
            .chain(&mut sb.buckets)
            .take(self.planes);
        for (plane, tile) in planes.zip(self.tile.chunks_exact_mut(64 * self.groups)) {
            for (columns, slots) in plane.chunks_mut(8).zip(tile.chunks_exact_mut(64)) {
                let slots: &mut [u8; 64] = slots.try_into().expect("64 slots per row byte");
                let words = if slots.iter().fold(0, |any, &b| any | b) == 0 {
                    [0; 8]
                } else {
                    let words = transpose_rows(slots);
                    slots.fill(0);
                    words
                };
                for (column, word) in columns.iter_mut().zip(words) {
                    column.push(word);
                }
            }
        }
    }

    /// The branch's planes, with a partly filled last word flushed.
    fn finish(mut self) -> (Pc, SweepBranch) {
        if !self.sb.executions.is_multiple_of(64) {
            self.flush();
        }
        (self.pc, self.sb)
    }
}

/// Pass 2's work on the listed branches' paths: a path writes its row
/// when met, each execution copies it into the tile, a fold drops the
/// rows (every execution's copy is in the tile already), and a finished
/// branch flushes its last word into its planes.
struct Pack<'a> {
    bucket_of: &'a [u8],
}

impl PathPass for Pack<'_> {
    type Branch = PlaneBuilder;
    type Path = PathRow;
    type Done = SweepBranch;

    fn adopt(&self, _: Pc) -> Option<PlaneBuilder> {
        None
    }

    fn meet(
        &self,
        builder: &mut PlaneBuilder,
        window: &[WindowSymbol],
        namer: &mut WindowNamer,
    ) -> PathRow {
        builder.row(window, namer, self.bucket_of)
    }

    #[inline]
    fn visit(&self, builder: &mut PlaneBuilder, row: &mut PathRow, taken: bool) {
        builder.push_execution(taken, *row);
    }

    fn fold(
        &self,
        builder: &mut PlaneBuilder,
        _: &[WindowSymbol],
        _: &mut WindowNamer,
        _: PathRow,
    ) {
        builder.rows.clear();
    }

    fn finish(&self, builder: PlaneBuilder, _: &[Pc]) -> (Pc, SweepBranch) {
        builder.finish()
    }
}

/// Pass 2: packs each listed branch's planes for its `columns` (distinct
/// tags), resolved at the largest of `windows`, with [`bucket_bits`]
/// bucket planes, and counts the folds the automaton's caps forced. A
/// listed branch that never executes keeps zero executions. `ranked` is
/// left empty for the caller to attach.
///
/// The scan interns the listed branches and their candidates' priors
/// before it starts, so a column is found by direct indexing on (prior
/// id, scheme, index) when a path is met and its row written, and each
/// execution copies that row into its branch's tile.
///
/// # Panics
///
/// As [`SweepMatrix::build`], for `windows`.
pub(crate) fn pack_planes<T: TraceSource + ?Sized>(
    source: &T,
    windows: &[usize],
    columns: &[(Pc, &[InstanceTag])],
) -> Result<(FxHashMap<Pc, SweepBranch>, usize), TraceIoError> {
    let (window, bucket_of) = window_buckets(windows);
    let bits = bucket_bits(windows.len());
    let pass = Pack {
        bucket_of: &bucket_of,
    };
    let mut scan = PathScan::new(window);
    for &(pc, tags) in columns {
        let builder = PlaneBuilder::new(pc, tags, bits, |prior| scan.id(prior).0);
        scan.build(pc, builder);
    }
    source.scan(&mut |chunk| scan.step(chunk, &pass))?;
    Ok(scan.finish(&pass))
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
    use bp_trace::{BranchRecord, BranchStreams, Recorder};

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
            for jobs in [2, 7, 64] {
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
    fn pair_index_finds_every_prior_within_its_size_bound() {
        // Priors met in a scattered order: far ids first go to `open`,
        // then move to `dense` as the branch sees more priors.
        let mut index = PairIndex::default();
        let mut x = 7u32;
        let mut ids = Vec::new();
        for pair in 0..300 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let id = if pair % 3 == 0 {
                x % 100_000
            } else {
                x % 2_000
            };
            if ids.contains(&id) {
                continue;
            }
            index.insert(id, ids.len());
            ids.push(id);
            assert!(index.dense.len() <= DENSE_PER_PAIR * ids.len());
            assert!(index.open.is_empty() || 2 * index.held <= index.open.len());
        }
        assert!(index.held > 0, "some priors stay open");
        for (pair, &id) in ids.iter().enumerate() {
            assert_eq!(index.get(id), Some(pair), "prior {id}");
        }
        assert_eq!(index.get(100_001), None);
        assert_eq!(index.get(1_999).is_some(), ids.contains(&1_999));
    }

    #[test]
    fn widest_window_with_sparse_iteration_indices_matches_reference() {
        // A loop nest between two straight-line branches: at the exit the
        // entry branch is hundreds of back-edges away, so iteration blocks
        // hold a few far-apart indices. The whole trace fits the window.
        let mut rec = Recorder::new();
        rec.cond(0x10, true);
        for i in 0..24u64 {
            for j in 0..i % 5 + 1 {
                rec.cond(0x20, (i + j) % 3 == 0);
                rec.loop_back(0x30, j < i % 5);
            }
            if i % 4 == 0 {
                rec.call(0x38, 0x800);
                rec.cond(0x810, i % 8 == 0);
                rec.ret(0x818);
            }
            rec.cond(0x40, i % 2 == 0);
            rec.loop_back(0x50, i < 23);
        }
        rec.cond(0x60, false);
        rec.cond(0x10, false);
        let trace = rec.into_trace();
        let widest = PathWindow::MAX_CAPACITY;
        let direct = reference::outcome_matrix(&trace, widest, 24, &TagScheme::ALL);
        assert!(
            direct
                .iter()
                .flat_map(|(_, bm)| bm.tags())
                .any(|t| t.scheme == TagScheme::Iteration && t.index >= 64),
            "far iteration indices among the candidates"
        );
        let cands = TagCandidates::collect(&trace, widest, 24);
        assert_eq!(OutcomeMatrix::build(&trace, &cands, widest), direct);

        let windows = [16, 1024, widest];
        let caps = [8, 16, 24];
        let sweep = SweepMatrix::build(&trace, &windows, &caps);
        for (i, (&n, &cap)) in windows.iter().zip(&caps).enumerate() {
            let want = reference::outcome_matrix(&trace, n, cap, &TagScheme::ALL);
            assert_eq!(sweep.materialize(i), want, "window {n}");
        }
    }

    /// `records` conditionals at random among `pcs` sites, with random
    /// outcomes and every tenth site a back-edge: nearly every path of a
    /// few dozen records is new.
    fn random_trace(records: usize, pcs: u64) -> Trace {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let records = (0..records).map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let site = (state >> 33) % pcs;
            let rec = BranchRecord::conditional(0x4000 + site * 4, state >> 20 & 1 == 1);
            if site % 10 == 9 {
                rec.with_target(0x4000)
            } else {
                rec
            }
        });
        Trace::from_records(records.collect())
    }

    /// Asserts that a one-window build at the largest window (the two
    /// passes `TagCandidates` and `OutcomeMatrix` wrap) and a sweep over
    /// all three equal the reference, and returns the folds the caps
    /// forced in the one-window build.
    fn builds_match_reference(trace: &Trace, windows: [usize; 3], caps: [usize; 3]) -> usize {
        let want: Vec<OutcomeMatrix> = windows
            .iter()
            .zip(&caps)
            .map(|(&n, &cap)| reference::outcome_matrix(trace, n, cap, &TagScheme::ALL))
            .collect();
        let (n, cap) = (windows[2], caps[2]);
        let (ranked, rank_folds) =
            rank_candidates::<1, _>(trace, &[n], &[cap], &TagScheme::ALL).expect("in-memory scan");
        let columns: Vec<(Pc, &[InstanceTag])> = ranked
            .iter()
            .map(|(pc, (tags, _))| (*pc, &tags[..]))
            .collect();
        let (planes, pack_folds) = pack_planes(trace, &[n], &columns).expect("in-memory scan");
        let matrix = OutcomeMatrix::from_parts(
            planes
                .into_iter()
                .map(|(pc, sb)| (pc, sb.into_matrix()))
                .collect(),
            n,
        );
        assert_eq!(matrix, want[2], "window {n}");
        let sweep = SweepMatrix::build(trace, &windows, &caps);
        for (i, want) in want.iter().enumerate() {
            assert_eq!(&sweep.materialize(i), want, "point {i}");
        }
        rank_folds + pack_folds
    }

    #[test]
    fn builds_that_cross_the_automaton_cap_match_reference() {
        // Nearly every path is new, so the automaton reaches its context
        // cap several times in each pass.
        let trace = random_trace(6 * MAX_CONTEXTS, 300);
        let folds = builds_match_reference(&trace, [16, 40, 64], [4, 6, 8]);
        assert!(folds >= 8, "folded {folds} times");
    }

    #[test]
    fn unique_windows_at_window_1024_match_reference() {
        // No path repeats: every execution meets a new path, and the
        // automaton folds with the window's 1025 prefixes beyond its cap.
        let trace = random_trace(1_500, 300);
        let folds = builds_match_reference(&trace, [16, 64, 1024], [4, 6, 8]);
        assert!(folds > 0, "folded {folds} times");
    }

    #[test]
    fn rows_of_every_width_pack_as_the_reference_does() {
        // A branch that runs once, first, with an empty window and so no
        // column; then rounds of random fillers among 120 sites, each
        // round ending in three branches that run 192, 129 and 127 times
        // (≡ 0, 1 and 63 mod 64). Each sees far more than 65 distinct
        // tags, so a cap is its column count, and row widths cross every
        // byte boundary; at cap 1 some paths see no candidate.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut records = vec![BranchRecord::conditional(0x900, true)];
        for round in 0..192 {
            for _ in 0..6 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let site = (state >> 33) % 120;
                records.push(BranchRecord::conditional(
                    0x4000 + site * 4,
                    state >> 20 & 1 == 1,
                ));
            }
            records.push(BranchRecord::conditional(0x100, state >> 21 & 1 == 1));
            if round < 129 {
                records.push(BranchRecord::conditional(0x200, state >> 22 & 1 == 1));
            }
            if round < 127 {
                records.push(BranchRecord::conditional(0x300, state >> 23 & 1 == 1));
            }
        }
        let trace = Trace::from_records(records);
        for cap in [1, 7, 8, 9, 16, 17, 63, 64, 65] {
            let want = reference::outcome_matrix(&trace, 64, cap, &TagScheme::ALL);
            for (pc, executions) in [(0x100, 192), (0x200, 129), (0x300, 127)] {
                let bm = want.branch(pc).expect("the branch ran");
                assert_eq!((bm.executions(), bm.tags().len()), (executions, cap));
            }
            let first = want.branch(0x900).expect("the first branch ran");
            assert_eq!((first.executions(), first.tags().len()), (1, 0));
            if cap == 1 {
                let bm = want.branch(0x100).expect("the branch ran");
                let seen: u32 = bm.inpath_plane(0).iter().map(|w| w.count_ones()).sum();
                assert!(
                    (seen as usize) < bm.executions(),
                    "a path sees no candidate"
                );
            }
            let folds = builds_match_reference(&trace, [16, 40, 64], [cap; 3]);
            assert!(folds > 0, "folded {folds} times");
        }
    }

    #[test]
    fn the_automaton_interns_each_path_once() {
        // Two alternating loops: paths repeat, so the contexts stop
        // growing, and a path reached from two contexts is one context.
        let mut contexts = Contexts::new(3);
        let s = |id| WindowSymbol::new(id, true, false);
        let mut ring = Ring::new(3);
        let mut at = 0;
        let mut seen = Vec::new();
        for round in 0..4 {
            for id in [1, 2, 1, 3] {
                let (next, created) = contexts.next(at, ring.symbols(), s(id));
                ring.push(s(id));
                at = next;
                if round > 1 {
                    assert!(!created, "round {round} meets only known paths");
                }
                seen.push(at);
            }
        }
        // The empty path, three prefixes, and the four rotations of 1 2 1 3
        // seen as three-symbol paths.
        assert_eq!(contexts.nodes.len(), 1 + 2 + 4);
        let mut window = Vec::new();
        contexts.window(at, &mut window);
        assert_eq!(window, [s(2), s(1)]);
        assert_eq!(contexts.last(at), s(3));
        // A restart keeps the current path's symbols, as a new context.
        let restarted = contexts.restart(ring.symbols());
        contexts.window(restarted, &mut window);
        assert_eq!(window, [s(2), s(1)]);
        assert_eq!((restarted, contexts.nodes.len()), (3, 4));
    }

    #[test]
    fn a_one_window_matrix_holds_every_branchs_stream() {
        // `mixed_trace` records calls and returns, which enter neither
        // structure. In the second trace the first branch executes once,
        // after an empty window: it has no candidate column, yet pass 2
        // packs its outcome plane.
        let mut once = Recorder::new();
        once.cond(0x900, true);
        for i in 0..100 {
            once.cond(0x100, i % 3 == 0);
            once.cond(0x200, i % 2 == 0);
        }
        for trace in [mixed_trace(300), once.into_trace()] {
            let candidates = TagCandidates::collect(&trace, 1, 8);
            let matrix = OutcomeMatrix::build(&trace, &candidates, 1);
            assert_eq!(matrix.streams(), BranchStreams::of(&trace));
            if let Some(first) = matrix.branch(0x900) {
                assert_eq!((first.executions(), first.tags().len()), (1, 0));
            }
        }
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
