use std::collections::HashMap;

use bp_predictors::{PerBranchStats, PredictionStats, SaturatingCounter};
use bp_trace::{par_map, InstanceTag, Pc, Trace};

use crate::candidates::TagCandidates;
use crate::matrix::{BranchMatrix, OutcomeMatrix};

/// Largest selective-history size the paper studies (1, 2 or 3 branches).
pub const MAX_SELECTIVE_TAGS: usize = 3;

/// How the oracle searches for the best tag subset per branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Forward selection: fix the best single tag, then the best partner,
    /// then the best third. Linear in candidates per size step.
    Greedy,
    /// Try every subset of sizes 2 and 3 when a branch has at most
    /// `max_candidates` candidates (falling back to greedy above that).
    /// The paper's "oracle mechanism" is unspecified; exhaustive search is
    /// the reference the greedy approximation is ablated against.
    Exhaustive {
        /// Candidate-list size above which the search falls back to greedy.
        max_candidates: usize,
    },
}

/// Configuration of the §3.4 oracle selective-history analysis.
///
/// `Hash`/`Eq` cover every field, so the config doubles as its own
/// memoization fingerprint in the evaluation-engine cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OracleConfig {
    /// Path-window length *n* — how many prior branches are examined
    /// (the paper uses 16 by default, 8–32 in the figure 5 sweep).
    pub window: usize,
    /// Maximum candidate tags retained per branch (visibility-ranked).
    pub candidate_cap: usize,
    /// Counter used in the selective pattern tables.
    pub counter: SaturatingCounter,
    /// Subset search strategy.
    pub search: SearchStrategy,
}

impl Default for OracleConfig {
    /// Window 16, 48 candidates (both schemes can name up to 2×16 = 32
    /// instances per execution, plus headroom for cross-execution variety),
    /// 2-bit counters, greedy search.
    fn default() -> Self {
        OracleConfig {
            window: 16,
            candidate_cap: 48,
            counter: SaturatingCounter::two_bit(),
            search: SearchStrategy::Greedy,
        }
    }
}

/// A scored tag set: the chosen correlated instances and how many of the
/// branch's executions the selective-history predictor built on them got
/// right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagSetScore {
    /// The chosen instance tags (possibly fewer than requested when the
    /// branch has few candidates or a smaller set scores higher).
    pub tags: Vec<InstanceTag>,
    /// Correct predictions over the branch's executions.
    pub correct: u64,
}

/// Per-branch oracle outcome: the best selective histories of sizes 1..=3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchSelection {
    /// Dynamic executions of the branch.
    pub executions: u64,
    /// `best[k-1]` is the best selective history using at most `k` tags.
    pub best: [TagSetScore; MAX_SELECTIVE_TAGS],
}

/// Result of the oracle selective-history analysis over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleResult {
    per_branch: HashMap<Pc, BranchSelection>,
}

impl OracleResult {
    /// The selection for one branch, if it executed.
    pub fn selection(&self, pc: Pc) -> Option<&BranchSelection> {
        self.per_branch.get(&pc)
    }

    /// Iterates `(pc, selection)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &BranchSelection)> {
        self.per_branch.iter().map(|(pc, s)| (*pc, s))
    }

    /// Per-branch stats of the `k`-tag selective-history predictor
    /// (`k` in 1..=3) — comparable with any
    /// [`bp_predictors::simulate_per_branch`] result.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `1..=`[`MAX_SELECTIVE_TAGS`].
    pub fn selective_stats(&self, k: usize) -> PerBranchStats {
        assert!(
            (1..=MAX_SELECTIVE_TAGS).contains(&k),
            "selective history size must be 1..={MAX_SELECTIVE_TAGS}"
        );
        self.per_branch
            .iter()
            .map(|(pc, sel)| {
                (
                    *pc,
                    PredictionStats {
                        predictions: sel.executions,
                        correct: sel.best[k - 1].correct,
                    },
                )
            })
            .collect()
    }

    /// Overall accuracy of the `k`-tag selective-history predictor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `1..=`[`MAX_SELECTIVE_TAGS`].
    pub fn accuracy(&self, k: usize) -> f64 {
        self.selective_stats(k).total().accuracy()
    }

    /// Number of static branches analyzed.
    pub fn branch_count(&self) -> usize {
        self.per_branch.len()
    }
}

impl FromIterator<(Pc, BranchSelection)> for OracleResult {
    /// Assembles a result from per-branch selections — the merge step of
    /// [`OracleSelector::analyze_matrix_parallel`].
    fn from_iter<I: IntoIterator<Item = (Pc, BranchSelection)>>(iter: I) -> Self {
        OracleResult {
            per_branch: iter.into_iter().collect(),
        }
    }
}

/// The §3.4 oracle: for every static branch, finds the 1, 2 and 3 most
/// important prior branch instances and scores the selective-history
/// predictor built on them.
///
/// "Most important" means the set whose 3-outcome-per-tag
/// (taken / not-taken / not-in-path) pattern table, driven by adaptive
/// counters, yields the most correct predictions for that branch — an
/// a-posteriori per-branch choice, which is what makes it an oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleSelector;

impl OracleSelector {
    /// Runs the full analysis: candidate collection, outcome-matrix
    /// construction, and subset search.
    pub fn analyze(trace: &Trace, cfg: &OracleConfig) -> OracleResult {
        let candidates = TagCandidates::collect(trace, cfg.window, cfg.candidate_cap);
        let matrix = OutcomeMatrix::build(trace, &candidates, cfg.window);
        Self::analyze_matrix(&matrix, cfg)
    }

    /// Runs the subset search over a pre-built matrix (lets callers reuse a
    /// matrix across strategies, e.g. for the greedy-vs-exhaustive
    /// ablation).
    pub fn analyze_matrix(matrix: &OutcomeMatrix, cfg: &OracleConfig) -> OracleResult {
        Self::analyze_matrix_parallel(matrix, cfg, 1)
    }

    /// Runs the subset search for a single branch — the unit of work
    /// [`OracleSelector::analyze_matrix_parallel`] spreads over threads.
    /// Collect `(pc, selection)` pairs back into an [`OracleResult`] via
    /// `FromIterator`.
    pub fn select_branch(bm: &BranchMatrix, cfg: &OracleConfig) -> BranchSelection {
        select_for_branch(bm, cfg)
    }

    /// As [`OracleSelector::analyze_matrix`], searching branches on up to
    /// `jobs` threads. [`OracleSelector::select_branch`] is pure per
    /// branch and the merge is keyed by PC, so the result is the same for
    /// every `jobs` value. Branches go out in PC order, the order a
    /// reopened `.bps` matrix stores their planes in.
    pub fn analyze_matrix_parallel(
        matrix: &OutcomeMatrix,
        cfg: &OracleConfig,
        jobs: usize,
    ) -> OracleResult {
        let mut branches: Vec<(Pc, &BranchMatrix)> = matrix.iter().collect();
        branches.sort_unstable_by_key(|&(pc, _)| pc);
        par_map(
            &branches,
            jobs,
            || (),
            |_, &(pc, bm)| (pc, Self::select_branch(bm, cfg)),
        )
        .0
        .into_iter()
        .collect()
    }
}

/// Largest selective pattern table: `3^MAX_SELECTIVE_TAGS` counters. Small
/// enough to live on the stack for every scoring call.
pub(crate) const MAX_PATTERNS: usize = 27;

/// Valid-bit mask of a plane's final word.
#[inline]
pub(crate) fn tail_mask(executions: usize) -> u64 {
    match executions % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

/// One column's per-word ternary-outcome masks, indexed by digit:
/// `[taken, not-taken, not-in-path]`. The planes carry no bits past the
/// last execution, so only the complemented terms need `valid` masking.
#[inline]
pub(crate) fn ternary_masks(ip: u64, dir: u64, valid: u64) -> [u64; 3] {
    [ip & dir, ip & !dir & valid, !ip & valid]
}

/// Replays one pattern's executions within one 64-execution word: `m`
/// masks the executions selecting this counter, `t` is the branch-outcome
/// word.
///
/// Counters of different patterns are independent, so a word can be
/// processed pattern-by-pattern; within a pattern the executions run in
/// trace order (LSB first). When the masked outcomes are uniform — by far
/// the common case for strongly biased branches — the whole run collapses
/// into one O(1) [`SaturatingCounter::train_run`] jump; mixed words fall
/// back to bit-serial replay.
#[inline]
pub(crate) fn tally_word(slot: &mut SaturatingCounter, m: u64, t: u64, correct: &mut u64) {
    if m == 0 {
        return;
    }
    let tm = t & m;
    if tm == 0 {
        *correct += slot.train_run(u64::from(m.count_ones()), false);
    } else if tm == m {
        *correct += slot.train_run(u64::from(m.count_ones()), true);
    } else {
        let mut rem = m;
        while rem != 0 {
            let b = rem.trailing_zeros();
            rem &= rem - 1;
            let taken = tm >> b & 1 == 1;
            if slot.predict_taken() == taken {
                *correct += 1;
            }
            slot.train(taken);
        }
    }
}

/// Scores the selective-history predictor for one tag set (given as column
/// indices into the branch matrix): a table of `3^cols` counters, pattern
/// selected by the tags' ternary outcomes, predicted by the counter's high
/// bit, trained with the branch outcome.
///
/// This is the innermost loop of the whole oracle analysis. It walks the
/// packed bit-planes a 64-execution word at a time: each word is split into
/// per-pattern masks with a handful of AND/ANDNOT ops, and every mask is
/// replayed through its counter via [`tally_word`]'s uniform-run jump.
/// Exactly equivalent to the digit-at-a-time reference scorer
/// (`crate::reference`), which the property tests hold it to. On an AVX2
/// host every plane, however short, takes the vector scorer.
#[doc(hidden)]
pub fn score_tag_set(bm: &BranchMatrix, cols: &[usize], init: SaturatingCounter) -> u64 {
    if crate::simd::avx2_available() {
        return crate::simd::score_tag_set_avx2(bm, cols, init);
    }
    score_tag_set_scalar(bm, cols, init)
}

/// The portable word-at-a-time scorer — the fallback path of
/// [`score_tag_set`] and the reference side of the conformance SIMD
/// differential suite.
#[doc(hidden)]
pub fn score_tag_set_scalar(bm: &BranchMatrix, cols: &[usize], init: SaturatingCounter) -> u64 {
    let words = bm.words();
    let taken = bm.taken_plane();
    let tail = tail_mask(bm.executions());
    let valid_at = |w: usize| if w + 1 == words { tail } else { !0 };
    let mut correct = 0u64;
    match *cols {
        [] => {
            let mut counter = init;
            for (w, &t) in taken.iter().enumerate() {
                tally_word(&mut counter, valid_at(w), t, &mut correct);
            }
        }
        [a] => {
            let (ipa, da) = (bm.inpath_plane(a), bm.dir_plane(a));
            let mut counters = [init; 3];
            for w in 0..words {
                let t = taken[w];
                let ma = ternary_masks(ipa[w], da[w], valid_at(w));
                for (slot, &m) in counters.iter_mut().zip(&ma) {
                    tally_word(slot, m, t, &mut correct);
                }
            }
        }
        [a, b] => {
            let (ipa, da) = (bm.inpath_plane(a), bm.dir_plane(a));
            let (ipb, db) = (bm.inpath_plane(b), bm.dir_plane(b));
            let mut counters = [init; 9];
            for w in 0..words {
                let t = taken[w];
                let valid = valid_at(w);
                let ma = ternary_masks(ipa[w], da[w], valid);
                let mb = ternary_masks(ipb[w], db[w], valid);
                for (i, &ma) in ma.iter().enumerate() {
                    if ma == 0 {
                        continue;
                    }
                    for (j, &mb) in mb.iter().enumerate() {
                        tally_word(&mut counters[i * 3 + j], ma & mb, t, &mut correct);
                    }
                }
            }
        }
        [a, b, c] => {
            let (ipa, da) = (bm.inpath_plane(a), bm.dir_plane(a));
            let (ipb, db) = (bm.inpath_plane(b), bm.dir_plane(b));
            let (ipc, dc) = (bm.inpath_plane(c), bm.dir_plane(c));
            let mut counters = [init; MAX_PATTERNS];
            for w in 0..words {
                let t = taken[w];
                let valid = valid_at(w);
                let ma = ternary_masks(ipa[w], da[w], valid);
                let mb = ternary_masks(ipb[w], db[w], valid);
                let mc = ternary_masks(ipc[w], dc[w], valid);
                for (i, &ma) in ma.iter().enumerate() {
                    if ma == 0 {
                        continue;
                    }
                    for (j, &mb) in mb.iter().enumerate() {
                        let mab = ma & mb;
                        if mab == 0 {
                            continue;
                        }
                        for (k, &mc) in mc.iter().enumerate() {
                            let slot = &mut counters[(i * 3 + j) * 3 + k];
                            tally_word(slot, mab & mc, t, &mut correct);
                        }
                    }
                }
            }
        }
        _ => unreachable!("selective histories use at most {MAX_SELECTIVE_TAGS} tags"),
    }
    correct
}

/// Scores a tag set using only *presence* information: each tag
/// contributes in-path / not-in-path (a `2^k` pattern), with the
/// direction of the correlated branch discarded.
///
/// This isolates §3.1's **in-path correlation** — what knowing merely
/// *that* a branch was on the path (figure 2) predicts, as opposed to
/// which way it went. Same word-wise plane walk as [`score_tag_set`], over
/// in-path planes only.
#[doc(hidden)]
pub fn score_columns_presence(bm: &BranchMatrix, cols: &[usize], init: SaturatingCounter) -> u64 {
    debug_assert!(cols.len() <= MAX_SELECTIVE_TAGS);
    let words = bm.words();
    let taken = bm.taken_plane();
    let tail = tail_mask(bm.executions());
    let mut counters = [init; 1 << MAX_SELECTIVE_TAGS];
    let mut correct = 0u64;
    let n_patterns = 1usize << cols.len();
    for (w, &t) in taken.iter().enumerate() {
        let valid = if w + 1 == words { tail } else { !0 };
        // Pattern index composes in-path bits MSB-first over `cols`.
        for (p, slot) in counters.iter_mut().enumerate().take(n_patterns) {
            let mut m = valid;
            for (i, &c) in cols.iter().enumerate() {
                let ip = bm.inpath_plane(c)[w];
                m &= if p >> (cols.len() - 1 - i) & 1 == 1 {
                    ip
                } else {
                    !ip
                };
            }
            tally_word(slot, m, t, &mut correct);
        }
    }
    correct
}

/// Per-branch stats of a *presence-only* selective history: the oracle's
/// chosen `k`-tag sets re-scored with direction information removed
/// (§3.1's in-path correlation, isolated).
///
/// The gap between [`OracleResult::selective_stats`] and this is the value
/// of knowing the correlated branches' *directions*; the gap between this
/// and ideal static is the value of knowing they were *on the path* at
/// all.
///
/// Branches whose chosen tags are missing from `matrix` (i.e. a matrix
/// built with a different configuration) fall back to the degenerate
/// single-counter score.
///
/// # Panics
///
/// Panics if `k` is not in `1..=`[`MAX_SELECTIVE_TAGS`].
pub fn presence_stats(
    matrix: &OutcomeMatrix,
    oracle: &OracleResult,
    k: usize,
    init: SaturatingCounter,
) -> PerBranchStats {
    assert!(
        (1..=MAX_SELECTIVE_TAGS).contains(&k),
        "selective history size must be 1..={MAX_SELECTIVE_TAGS}"
    );
    let mut out = PerBranchStats::new();
    for (pc, sel) in oracle.iter() {
        let Some(bm) = matrix.branch(pc) else {
            continue;
        };
        let cols: Vec<usize> = sel.best[k - 1]
            .tags
            .iter()
            .filter_map(|tag| bm.tags().iter().position(|t| t == tag))
            .collect();
        let correct = score_columns_presence(bm, &cols, init);
        out.insert(
            pc,
            PredictionStats {
                predictions: sel.executions,
                correct,
            },
        );
    }
    out
}

fn select_for_branch(bm: &BranchMatrix, cfg: &OracleConfig) -> BranchSelection {
    let n_cands = bm.tags().len();
    let executions = bm.executions() as u64;

    // Size 1: always exhaustive (linear).
    let mut best1_cols: Vec<usize> = Vec::new();
    let mut best1 = score_tag_set(bm, &[], cfg.counter);
    for c in 0..n_cands {
        let s = score_tag_set(bm, &[c], cfg.counter);
        if s > best1 {
            best1 = s;
            best1_cols = vec![c];
        }
    }

    let exhaustive = match cfg.search {
        SearchStrategy::Exhaustive { max_candidates } => n_cands <= max_candidates,
        SearchStrategy::Greedy => false,
    };

    let (best2_cols, best2) = if exhaustive {
        best_exhaustive(bm, n_cands, 2, cfg.counter)
    } else {
        best_greedy_step(bm, &best1_cols, best1, n_cands, cfg.counter)
    };
    let (best2_cols, best2) = keep_better((best1_cols.clone(), best1), (best2_cols, best2));

    let (best3_cols, best3) = if exhaustive {
        best_exhaustive(bm, n_cands, 3, cfg.counter)
    } else {
        best_greedy_step(bm, &best2_cols, best2, n_cands, cfg.counter)
    };
    let (best3_cols, best3) = keep_better((best2_cols.clone(), best2), (best3_cols, best3));

    let to_score = |cols: &[usize], correct: u64| TagSetScore {
        tags: cols.iter().map(|&c| bm.tags()[c]).collect(),
        correct,
    };
    BranchSelection {
        executions,
        best: [
            to_score(&best1_cols, best1),
            to_score(&best2_cols, best2),
            to_score(&best3_cols, best3),
        ],
    }
}

/// Greedy forward step: extend `base` with the single column that improves
/// its score most.
fn best_greedy_step(
    bm: &BranchMatrix,
    base: &[usize],
    base_score: u64,
    n_cands: usize,
    init: SaturatingCounter,
) -> (Vec<usize>, u64) {
    let mut best_cols = base.to_vec();
    let mut best = base_score;
    let mut trial = base.to_vec();
    trial.push(0);
    for c in 0..n_cands {
        if base.contains(&c) {
            continue;
        }
        *trial.last_mut().expect("trial set is non-empty") = c;
        let s = score_tag_set(bm, &trial, init);
        if s > best {
            best = s;
            best_cols = trial.clone();
        }
    }
    (best_cols, best)
}

/// Exhaustive search over all subsets of exactly `size` columns.
fn best_exhaustive(
    bm: &BranchMatrix,
    n_cands: usize,
    size: usize,
    init: SaturatingCounter,
) -> (Vec<usize>, u64) {
    let mut best_cols: Vec<usize> = Vec::new();
    let mut best = 0u64;
    let mut combo = vec![0usize; size];
    if n_cands < size {
        return (Vec::new(), 0);
    }
    // Iterative k-combination enumeration.
    for (i, slot) in combo.iter_mut().enumerate() {
        *slot = i;
    }
    loop {
        let s = score_tag_set(bm, &combo, init);
        if s > best {
            best = s;
            best_cols = combo.clone();
        }
        // Advance to the next combination.
        let mut i = size;
        loop {
            if i == 0 {
                return (best_cols, best);
            }
            i -= 1;
            if combo[i] < n_cands - (size - i) {
                combo[i] += 1;
                for j in i + 1..size {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Picks the higher-scoring of two scored sets; the smaller set wins ties
/// (adding an uninformative tag cannot beat leaving it out).
fn keep_better(a: (Vec<usize>, u64), b: (Vec<usize>, u64)) -> (Vec<usize>, u64) {
    if b.1 > a.1 {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{BranchRecord, TagScheme};

    /// X (0x300) = Y (0x100) AND Z (0x200); Y and Z pseudo-random.
    fn and_trace(n: usize) -> Trace {
        let mut recs = Vec::new();
        let mut state = 0x12345678u64;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 33) & 1 == 1;
            let z = (state >> 34) & 1 == 1;
            recs.push(BranchRecord::conditional(0x100, y));
            recs.push(BranchRecord::conditional(0x200, z));
            recs.push(BranchRecord::conditional(0x300, y && z));
        }
        Trace::from_records(recs)
    }

    #[test]
    fn one_tag_captures_half_of_and_correlation() {
        let oracle = OracleSelector::analyze(&and_trace(800), &OracleConfig::default());
        let sel = oracle.selection(0x300).expect("0x300 analyzed");
        // One tag (Y or Z): when that tag is not-taken X is not-taken
        // (100%); when taken, X follows the other ~50/50 branch, and the
        // counter settles on not-taken (P(taken)=0.5... biased play). The
        // 1-tag accuracy must clearly beat the 75% static floor... at least
        // exceed it.
        let acc1 = sel.best[0].correct as f64 / sel.executions as f64;
        assert!(acc1 > 0.70, "1-tag accuracy {acc1}");
    }

    #[test]
    fn two_tags_nail_the_and() {
        let oracle = OracleSelector::analyze(&and_trace(800), &OracleConfig::default());
        let sel = oracle.selection(0x300).expect("0x300 analyzed");
        let acc2 = sel.best[1].correct as f64 / sel.executions as f64;
        // Y and Z together determine X exactly; only counter warmup misses.
        assert!(acc2 > 0.97, "2-tag accuracy {acc2}");
        // And the chosen tags are recent instances of Y and Z.
        let pcs: Vec<Pc> = sel.best[1].tags.iter().map(|t| t.pc).collect();
        assert!(pcs.contains(&0x100) && pcs.contains(&0x200), "tags {pcs:?}");
    }

    #[test]
    fn scores_monotone_in_k() {
        let oracle = OracleSelector::analyze(&and_trace(500), &OracleConfig::default());
        for (_, sel) in oracle.iter() {
            assert!(sel.best[1].correct >= sel.best[0].correct);
            assert!(sel.best[2].correct >= sel.best[1].correct);
        }
        assert!(oracle.accuracy(3) >= oracle.accuracy(1));
    }

    #[test]
    fn exhaustive_at_least_matches_greedy() {
        let trace = and_trace(400);
        let cfg_g = OracleConfig::default();
        let cfg_e = OracleConfig {
            search: SearchStrategy::Exhaustive { max_candidates: 24 },
            candidate_cap: 16,
            ..OracleConfig::default()
        };
        let cands = TagCandidates::collect(&trace, 16, 16);
        let matrix = OutcomeMatrix::build(&trace, &cands, 16);
        let greedy = OracleSelector::analyze_matrix(&matrix, &cfg_g);
        let exhaustive = OracleSelector::analyze_matrix(&matrix, &cfg_e);
        for (pc, g) in greedy.iter() {
            let e = exhaustive.selection(pc).unwrap();
            assert!(e.best[2].correct >= g.best[2].correct, "branch {pc:#x}");
        }
    }

    #[test]
    fn parallel_analysis_is_identical_for_every_jobs_count() {
        let trace = and_trace(400);
        let cfg = OracleConfig::default();
        let cands = TagCandidates::collect(&trace, cfg.window, cfg.candidate_cap);
        let matrix = OutcomeMatrix::build(&trace, &cands, cfg.window);
        let serial = OracleSelector::analyze_matrix(&matrix, &cfg);
        for jobs in [2, 7, 64] {
            let par = OracleSelector::analyze_matrix_parallel(&matrix, &cfg, jobs);
            assert_eq!(par.branch_count(), serial.branch_count(), "jobs {jobs}");
            for (pc, s) in serial.iter() {
                let p = par.selection(pc).expect("branch present");
                assert_eq!(p.executions, s.executions, "jobs {jobs} pc {pc:#x}");
                for k in 0..MAX_SELECTIVE_TAGS {
                    assert_eq!(p.best[k], s.best[k], "jobs {jobs} pc {pc:#x} k {k}");
                }
            }
        }
    }

    #[test]
    fn selective_stats_totals() {
        let oracle = OracleSelector::analyze(&and_trace(300), &OracleConfig::default());
        let stats = oracle.selective_stats(2);
        assert_eq!(stats.total().predictions, 900);
        assert_eq!(stats.static_count(), 3);
        assert_eq!(oracle.branch_count(), 3);
    }

    #[test]
    #[should_panic(expected = "selective history size")]
    fn zero_k_rejected() {
        let oracle = OracleSelector::analyze(&and_trace(10), &OracleConfig::default());
        let _ = oracle.selective_stats(0);
    }

    #[test]
    fn presence_only_loses_direction_information() {
        // X copies Y, and Y is always in the path: presence carries no
        // information, direction carries everything.
        let trace = and_trace(600);
        let cfg = OracleConfig::default();
        let cands = crate::TagCandidates::collect(&trace, cfg.window, cfg.candidate_cap);
        let matrix = OutcomeMatrix::build(&trace, &cands, cfg.window);
        let oracle = OracleSelector::analyze_matrix(&matrix, &cfg);
        let full = oracle.selective_stats(2);
        let presence = presence_stats(&matrix, &oracle, 2, cfg.counter);
        // Same coverage...
        assert_eq!(full.total().predictions, presence.total().predictions);
        // ...but the AND branch needs directions.
        let x_full = full.get(0x300).unwrap();
        let x_presence = presence.get(0x300).unwrap();
        assert!(
            x_full.correct > x_presence.correct,
            "full {} vs presence {}",
            x_full.correct,
            x_presence.correct
        );
    }

    /// A seeded trace of calls, a loop with a data-dependent trip count and
    /// correlated branches, so both tag schemes, iteration collisions and
    /// not-in-path outcomes all occur.
    fn mixed_loop_call_trace(seed: u64, n: usize) -> Trace {
        let mut rec = bp_trace::Recorder::new();
        let mut state = seed;
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
            let trips = 1 + (state >> 40) % 3;
            for t in 0..trips {
                rec.cond(0x300, c ^ (t == 0));
                rec.loop_back(0x3f0, t + 1 < trips);
            }
            rec.cond(0x400, a ^ c);
        }
        rec.into_trace()
    }

    #[test]
    fn chosen_tag_matrix_rescores_like_the_full_matrix() {
        let greedy = OracleConfig::default();
        // Exhaustive sets need not nest, so the chosen lists are unions.
        let exhaustive = OracleConfig {
            candidate_cap: 12,
            search: SearchStrategy::Exhaustive { max_candidates: 12 },
            ..greedy
        };
        for seed in [1, 7, 0x9e37_79b9] {
            let trace = mixed_loop_call_trace(seed, 300);
            for cfg in [greedy, exhaustive] {
                let cands = TagCandidates::collect(&trace, cfg.window, cfg.candidate_cap);
                let full = OutcomeMatrix::build(&trace, &cands, cfg.window);
                let oracle = OracleSelector::analyze_matrix(&full, &cfg);
                let chosen =
                    OutcomeMatrix::build(&trace, &TagCandidates::chosen(&oracle), cfg.window);
                assert_eq!(chosen.branch_count(), full.branch_count());
                if cfg.search == SearchStrategy::Greedy {
                    assert!(chosen
                        .iter()
                        .all(|(_, bm)| bm.tags().len() <= MAX_SELECTIVE_TAGS));
                }
                for k in 1..=MAX_SELECTIVE_TAGS {
                    assert_eq!(
                        presence_stats(&chosen, &oracle, k, cfg.counter),
                        presence_stats(&full, &oracle, k, cfg.counter),
                        "seed {seed} {:?} k={k}",
                        cfg.search
                    );
                }
            }
        }
    }

    #[test]
    fn presence_captures_in_path_correlation() {
        // Figure 2 in its purest form: control routes to subroutine A or B
        // via a *call* (not a conditional branch), so no prior branch's
        // direction encodes the condition — only which branch was on the
        // path. Branch X at the join repeats the condition; the back-edge
        // lets the iteration scheme name "V executed this iteration".
        use bp_trace::Recorder;
        let mut rec = Recorder::new();
        let mut state = 3u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let cond = (state >> 39) & 1 == 1;
            let noise = state & 4 != 0;
            if cond {
                rec.call(0x50, 0x1000);
                rec.cond(0x200, noise); // branch V, direction pure noise
                rec.ret(0x1010);
            } else {
                rec.call(0x50, 0x2000);
                rec.cond(0x250, noise); // branch W, direction pure noise
                rec.ret(0x2010);
            }
            rec.cond(0x300, cond); // X: decided by *which* path ran
            rec.loop_back(0x310, true);
        }
        let trace = rec.into_trace();
        let cfg = OracleConfig::default();
        let cands = crate::TagCandidates::collect(&trace, cfg.window, cfg.candidate_cap);
        let matrix = OutcomeMatrix::build(&trace, &cands, cfg.window);
        let oracle = OracleSelector::analyze_matrix(&matrix, &cfg);

        // The ternary oracle finds the in-path tag (score ≈ perfect)...
        let sel = oracle.selection(0x300).unwrap();
        let full_acc = sel.best[0].correct as f64 / sel.executions as f64;
        assert!(full_acc > 0.95, "full accuracy {full_acc}");
        // ...and presence alone preserves it: the chosen tag's direction
        // carries no information, its presence carries all of it.
        let presence = presence_stats(&matrix, &oracle, 1, cfg.counter);
        let x = presence.get(0x300).unwrap();
        assert!(x.accuracy() > 0.95, "presence accuracy {}", x.accuracy());
    }

    #[test]
    fn iteration_tags_useful_for_loop_carried_correlation() {
        // A 3-iteration loop: the branch in iteration i copies what a
        // header branch decided in that same iteration... construct: header
        // H decides d, then body branch B repeats d, with a back-edge
        // between iterations.
        let mut recs = Vec::new();
        let mut state = 7u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let d = (state >> 40) & 1 == 1;
            recs.push(BranchRecord::conditional(0x100, d));
            recs.push(BranchRecord::conditional(0x200, d));
            recs.push(BranchRecord::conditional(0x300, true).with_target(0x100));
            // back-edge
        }
        let trace = Trace::from_records(recs);
        let oracle = OracleSelector::analyze(&trace, &OracleConfig::default());
        let sel = oracle.selection(0x200).unwrap();
        let acc = sel.best[0].correct as f64 / sel.executions as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        // Both tagging schemes can name the header; just verify the scheme
        // field is populated sanely.
        assert!(sel.best[0]
            .tags
            .iter()
            .all(|t| matches!(t.scheme, TagScheme::Occurrence | TagScheme::Iteration)));
    }
}
