//! Reference candidate/matrix builder, byte-matrix oracle scorer and
//! per-record classifier.
//!
//! The production kernels work over packed bit-planes: the candidate and
//! matrix builder in `sweep.rs`, the oracle in `oracle.rs`, the §4.1
//! per-address classification in `classify.rs`. This module keeps plain
//! implementations of each as executable specifications — candidates
//! ranked and resolved one record at a time at exactly the requested
//! window ([`outcome_matrix`]), ternary digits expanded to one byte each,
//! class predictors stepped one execution at a time through their real
//! `bp_predictors` state machines: the property tests assert exact
//! agreement on random traces, and the `oracle_kernel` /
//! `classify_kernel` Criterion benches measure the speedups against them.
//!
//! Always compiled so the `bp-conformance` differential runners can link
//! it directly, but hidden from docs: it is not part of the crate's
//! supported API surface.

use std::collections::HashMap;

use bp_predictors::{
    simulate_per_branch, BlockPattern, LoopPredictor, PasInterferenceFree, SaturatingCounter,
};
use bp_trace::{BranchProfile, InstanceTag, PathWindow, Pc, TagScheme, Trace};

use crate::classify::{BranchClassScores, Classification, ClassifierConfig};
use crate::matrix::{BranchMatrix, OutcomeMatrix};
use crate::oracle::{
    BranchSelection, OracleConfig, SearchStrategy, TagSetScore, MAX_SELECTIVE_TAGS,
};

/// Per-record candidate ranking and matrix build — the specification of
/// the sweep builder's two passes. For every conditional record it counts
/// the `schemes` tags [`PathWindow::visible_tags`] names at exactly
/// `window` (never a larger window filtered by distance), ranks each
/// branch's tags by (count desc, tag asc) and keeps `cap`; a second scan
/// then resolves every candidate at every execution with
/// [`PathWindow::lookup`]. [`crate::OutcomeMatrix::build`] on
/// [`crate::TagCandidates::collect_with_schemes`], and every
/// [`crate::SweepMatrix`] point, must equal it plane for plane.
///
/// # Panics
///
/// Panics if `window` is zero or above [`PathWindow::MAX_CAPACITY`].
pub fn outcome_matrix(
    trace: &Trace,
    window: usize,
    cap: usize,
    schemes: &[TagScheme],
) -> OutcomeMatrix {
    let mut counts: HashMap<Pc, HashMap<InstanceTag, u64>> = HashMap::new();
    let mut path = PathWindow::new(window);
    let mut visible = Vec::new();
    for rec in trace.records() {
        if rec.is_conditional() {
            path.visible_tags(&mut visible);
            let branch = counts.entry(rec.pc).or_default();
            for (tag, _) in &visible {
                if schemes.contains(&tag.scheme) {
                    *branch.entry(*tag).or_default() += 1;
                }
            }
        }
        path.push(rec);
    }

    // Per branch: its candidates, then one row per execution — the branch
    // outcome and each candidate's resolved outcome (None: not in path).
    type Rows = Vec<(bool, Vec<Option<bool>>)>;
    let mut rows: HashMap<Pc, (Vec<InstanceTag>, Rows)> = counts
        .into_iter()
        .map(|(pc, tag_counts)| {
            let mut ranked: Vec<(InstanceTag, u64)> = tag_counts.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let tags = ranked.into_iter().take(cap).map(|(tag, _)| tag).collect();
            (pc, (tags, Vec::new()))
        })
        .collect();
    let mut path = PathWindow::new(window);
    for rec in trace.records() {
        if rec.is_conditional() {
            let (tags, rows) = rows.get_mut(&rec.pc).expect("counted above");
            let row = tags.iter().map(|&tag| path.lookup(tag)).collect();
            rows.push((rec.taken, row));
        }
        path.push(rec);
    }

    // Execution e is bit e % 64 of word e / 64.
    let pack = |bits: Vec<bool>| -> Vec<u64> {
        let word = |w: &[bool]| w.iter().rev().fold(0, |acc, &b| acc << 1 | u64::from(b));
        bits.chunks(64).map(word).collect()
    };
    let branches = rows
        .into_iter()
        .map(|(pc, (tags, rows))| {
            let column = |c: usize, want: fn(Option<bool>) -> bool| {
                pack(rows.iter().map(|(_, row)| want(row[c])).collect())
            };
            let inpath = (0..tags.len())
                .map(|c| column(c, |o| o.is_some()))
                .collect();
            let dir = (0..tags.len())
                .map(|c| column(c, |o| o == Some(true)))
                .collect();
            let taken = pack(rows.iter().map(|&(taken, _)| taken).collect());
            (
                pc,
                BranchMatrix::from_planes(tags, rows.len(), inpath, dir, taken),
            )
        })
        .collect();
    OutcomeMatrix::from_parts(branches, window)
}

/// Per-record §4 classification — the pre-bit-parallel implementation,
/// simulating each class predictor over the interleaved trace. The
/// bit-parallel kernel ([`crate::Classifier::classify`]) must agree
/// score-for-score.
pub fn classify(trace: &Trace, cfg: &ClassifierConfig) -> Classification {
    assert!(
        (1..=64).contains(&cfg.max_period),
        "max fixed-pattern period must be 1..=64"
    );
    let profile = BranchProfile::of(trace);
    let loop_stats = simulate_per_branch(&mut LoopPredictor::new(), trace);
    let block_stats = simulate_per_branch(&mut BlockPattern::new(), trace);
    let pas_stats = simulate_per_branch(&mut PasInterferenceFree::new(cfg.pas_history_bits), trace);
    let fixed = sweep_fixed_patterns(trace, cfg.max_period);

    let per_branch = profile
        .iter()
        .map(|(pc, entry)| {
            let (fixed_correct, best_period) = fixed.get(&pc).map_or((0, 1), |f| f.best());
            let scores = BranchClassScores {
                executions: entry.executions,
                static_correct: entry.ideal_static_correct(),
                loop_correct: loop_stats.get(pc).map_or(0, |s| s.correct),
                fixed_correct,
                best_period,
                block_correct: block_stats.get(pc).map_or(0, |s| s.correct),
                pas_correct: pas_stats.get(pc).map_or(0, |s| s.correct),
            };
            (pc, scores)
        })
        .collect();
    Classification::from_parts(per_branch, profile.dynamic_count())
}

#[derive(Debug, Clone)]
struct FixedSweep {
    /// correct[k-1] = correct predictions of the k-ago predictor.
    correct: Vec<u64>,
}

impl FixedSweep {
    fn best(&self) -> (u64, u32) {
        let mut best = 0u64;
        let mut best_k = 1u32;
        for (i, &c) in self.correct.iter().enumerate() {
            if c > best {
                best = c;
                best_k = i as u32 + 1;
            }
        }
        (best, best_k)
    }
}

/// Evaluates all k-ago predictors (k = 1..=max) for every branch in one
/// trace pass, using a per-branch outcome ring. Insufficient history
/// predicts taken, matching [`bp_predictors::KthAgo`].
fn sweep_fixed_patterns(trace: &Trace, max_period: u32) -> HashMap<Pc, FixedSweep> {
    struct Ring {
        bits: u64,
        len: u32,
    }
    let mut rings: HashMap<Pc, (Ring, FixedSweep)> = HashMap::new();
    for rec in trace.conditionals() {
        let (ring, sweep) = rings.entry(rec.pc).or_insert_with(|| {
            (
                Ring { bits: 0, len: 0 },
                FixedSweep {
                    correct: vec![0; max_period as usize],
                },
            )
        });
        for k in 1..=max_period {
            let pred = if ring.len >= k {
                (ring.bits >> (k - 1)) & 1 == 1
            } else {
                true
            };
            if pred == rec.taken {
                sweep.correct[(k - 1) as usize] += 1;
            }
        }
        ring.bits = (ring.bits << 1) | u64::from(rec.taken);
        if ring.len < 64 {
            ring.len += 1;
        }
    }
    rings.into_iter().map(|(pc, (_, s))| (pc, s)).collect()
}

const MAX_PATTERNS: usize = 27;

/// Column-major byte expansion of one branch's outcome matrix: ternary
/// digit per (candidate, execution), plus the branch's own outcomes.
pub struct ColumnView {
    /// `tags × executions` digits; column `c` at `[c * rows .. (c+1) * rows]`.
    columns: Vec<u8>,
    taken: Vec<bool>,
}

impl ColumnView {
    /// Expands `bm`'s bit-planes into bytes.
    pub fn new(bm: &BranchMatrix) -> Self {
        let rows = bm.executions();
        let mut columns = vec![0u8; bm.tags().len() * rows];
        for c in 0..bm.tags().len() {
            for e in 0..rows {
                columns[c * rows + e] = bm.outcome(e, c).digit() as u8;
            }
        }
        ColumnView {
            columns,
            taken: (0..rows).map(|e| bm.taken(e)).collect(),
        }
    }

    #[inline]
    fn column(&self, c: usize) -> &[u8] {
        let rows = self.taken.len();
        &self.columns[c * rows..(c + 1) * rows]
    }
}

/// Digit-at-a-time scoring of one tag set: a table of `3^cols` counters,
/// pattern selected by the tags' ternary outcomes, predicted by the
/// counter's high bit, trained with the branch outcome — one execution per
/// loop iteration, in trace order.
pub fn score_tag_set(view: &ColumnView, cols: &[usize], init: SaturatingCounter) -> u64 {
    let mut counters = [init; MAX_PATTERNS];
    let mut correct = 0u64;
    let mut tally = |slot: &mut SaturatingCounter, taken: bool| {
        if slot.predict_taken() == taken {
            correct += 1;
        }
        slot.train(taken);
    };
    match *cols {
        [] => {
            let slot = &mut counters[0];
            for &taken in &view.taken {
                tally(slot, taken);
            }
        }
        [a] => {
            for (&da, &taken) in view.column(a).iter().zip(&view.taken) {
                tally(&mut counters[da as usize], taken);
            }
        }
        [a, b] => {
            let zipped = view.column(a).iter().zip(view.column(b)).zip(&view.taken);
            for ((&da, &db), &taken) in zipped {
                tally(&mut counters[da as usize * 3 + db as usize], taken);
            }
        }
        [a, b, c] => {
            let zipped = view
                .column(a)
                .iter()
                .zip(view.column(b))
                .zip(view.column(c))
                .zip(&view.taken);
            for (((&da, &db), &dc), &taken) in zipped {
                let idx = (da as usize * 3 + db as usize) * 3 + dc as usize;
                tally(&mut counters[idx], taken);
            }
        }
        _ => unreachable!("selective histories use at most {MAX_SELECTIVE_TAGS} tags"),
    }
    correct
}

/// Digit-at-a-time presence-only scoring (in-path / not-in-path patterns,
/// directions discarded).
pub fn score_presence(bm: &BranchMatrix, cols: &[usize], init: SaturatingCounter) -> u64 {
    debug_assert!(cols.len() <= MAX_SELECTIVE_TAGS);
    let mut counters = [init; 1 << MAX_SELECTIVE_TAGS];
    let mut correct = 0u64;
    for e in 0..bm.executions() {
        let mut idx = 0usize;
        for &c in cols {
            let in_path = bm.outcome(e, c) != bp_trace::TagOutcome::NotInPath;
            idx = (idx << 1) | usize::from(in_path);
        }
        let taken = bm.taken(e);
        if counters[idx].predict_taken() == taken {
            correct += 1;
        }
        counters[idx].train(taken);
    }
    correct
}

/// Full per-branch subset search over the byte-expanded matrix — the same
/// search as [`crate::OracleSelector::select_branch`], driven by the
/// reference scorer. Since the scorers agree exactly, so do the selections.
pub fn select_branch(bm: &BranchMatrix, cfg: &OracleConfig) -> BranchSelection {
    let n_cands = bm.tags().len();
    let executions = bm.executions() as u64;
    let view = ColumnView::new(bm);

    // Size 1: always exhaustive (linear).
    let mut best1_cols: Vec<usize> = Vec::new();
    let mut best1 = score_tag_set(&view, &[], cfg.counter);
    for c in 0..n_cands {
        let s = score_tag_set(&view, &[c], cfg.counter);
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
        best_exhaustive(&view, n_cands, 2, cfg.counter)
    } else {
        best_greedy_step(&view, &best1_cols, best1, n_cands, cfg.counter)
    };
    let (best2_cols, best2) = keep_better((best1_cols.clone(), best1), (best2_cols, best2));

    let (best3_cols, best3) = if exhaustive {
        best_exhaustive(&view, n_cands, 3, cfg.counter)
    } else {
        best_greedy_step(&view, &best2_cols, best2, n_cands, cfg.counter)
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

fn best_greedy_step(
    view: &ColumnView,
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
        let s = score_tag_set(view, &trial, init);
        if s > best {
            best = s;
            best_cols = trial.clone();
        }
    }
    (best_cols, best)
}

fn best_exhaustive(
    view: &ColumnView,
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
    for (i, slot) in combo.iter_mut().enumerate() {
        *slot = i;
    }
    loop {
        let s = score_tag_set(view, &combo, init);
        if s > best {
            best = s;
            best_cols = combo.clone();
        }
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

fn keep_better(a: (Vec<usize>, u64), b: (Vec<usize>, u64)) -> (Vec<usize>, u64) {
    if b.1 > a.1 {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use bp_trace::{BranchRecord, Trace};

    use super::*;
    use crate::candidates::TagCandidates;
    use crate::oracle;
    use crate::{Classifier, OracleSelector, SweepMatrix};

    /// Purely random conditional outcomes across a handful of branches.
    fn arb_cond_trace(max: usize) -> impl Strategy<Value = Trace> {
        prop::collection::vec(
            (0u64..6, any::<bool>())
                .prop_map(|(pc, taken)| BranchRecord::conditional(0x40 + pc * 4, taken)),
            1..max,
        )
        .prop_map(Trace::from_records)
    }

    /// Adversarial per-branch structure: long same-direction runs (lengths
    /// crossing the 255 trip cap and the 64-bit word size) and repeated
    /// periodic patterns (periods crossing the 64 sweep ceiling), chained
    /// per branch and interleaved round-robin into one trace.
    fn arb_structured_trace() -> impl Strategy<Value = Trace> {
        let segment = (
            any::<bool>(),
            (any::<bool>(), 1usize..300),
            (prop::collection::vec(any::<bool>(), 1..70), 1usize..6),
        )
            .prop_map(|(use_run, (d, len), (pattern, reps))| {
                if use_run {
                    vec![d; len]
                } else {
                    let mut v = Vec::with_capacity(pattern.len() * reps);
                    for _ in 0..reps {
                        v.extend_from_slice(&pattern);
                    }
                    v
                }
            });
        let branch = prop::collection::vec(segment, 1..5)
            .prop_map(|segs| segs.into_iter().flatten().collect::<Vec<bool>>());
        prop::collection::vec(branch, 1..4).prop_map(|branches| {
            let mut recs = Vec::new();
            let longest = branches.iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..longest {
                for (b, outcomes) in branches.iter().enumerate() {
                    if let Some(&taken) = outcomes.get(i) {
                        recs.push(BranchRecord::conditional(0x80 + b as u64 * 4, taken));
                    }
                }
            }
            Trace::from_records(recs)
        })
    }

    /// Configurations covering the sweep extremes (k = 1 only, the paper's
    /// 32, the 64 ceiling) and both IF-PAs paths (dense and hash-keyed).
    const CLASSIFY_CONFIGS: [ClassifierConfig; 4] = [
        ClassifierConfig {
            max_period: 32,
            pas_history_bits: 12,
        },
        ClassifierConfig {
            max_period: 64,
            pas_history_bits: 4,
        },
        ClassifierConfig {
            max_period: 1,
            pas_history_bits: 1,
        },
        ClassifierConfig {
            max_period: 32,
            pas_history_bits: 20,
        },
    ];

    fn assert_classifier_matches_reference(trace: &Trace, cfg: &ClassifierConfig) {
        let want = classify(trace, cfg);
        let got = Classifier::classify(trace, cfg);
        assert_eq!(got.iter().count(), want.iter().count());
        for (pc, w) in want.iter() {
            assert_eq!(got.get(pc), Some(w), "pc {pc:#x} cfg {cfg:?}");
        }
    }

    fn arb_trace(max: usize) -> impl Strategy<Value = Trace> {
        prop::collection::vec(
            (0u64..10, any::<bool>(), any::<bool>()).prop_map(|(pc, taken, backward)| {
                let rec = BranchRecord::conditional(pc * 4 + 0x100, taken);
                if backward {
                    rec.with_target(0x80)
                } else {
                    rec
                }
            }),
            1..max,
        )
        .prop_map(Trace::from_records)
    }

    fn matrix_for(trace: &Trace, window: usize, cap: usize) -> OutcomeMatrix {
        let cands = TagCandidates::collect(trace, window, cap);
        OutcomeMatrix::build(trace, &cands, window)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The word-wise bit-plane scorer and the digit-at-a-time reference
        /// agree exactly on every tag set of size 0..=3, across counter
        /// widths.
        #[test]
        fn bit_plane_scorer_matches_reference(trace in arb_trace(400), bits in 1u8..=3) {
            let init = SaturatingCounter::new(bits, 0);
            let matrix = matrix_for(&trace, 8, 10);
            for (_, bm) in matrix.iter() {
                let view = ColumnView::new(bm);
                let n = bm.tags().len();
                prop_assert_eq!(
                    oracle::score_tag_set(bm, &[], init),
                    score_tag_set(&view, &[], init)
                );
                for a in 0..n {
                    prop_assert_eq!(
                        oracle::score_tag_set(bm, &[a], init),
                        score_tag_set(&view, &[a], init)
                    );
                    for b in a + 1..n {
                        prop_assert_eq!(
                            oracle::score_tag_set(bm, &[a, b], init),
                            score_tag_set(&view, &[a, b], init)
                        );
                        for c in b + 1..n {
                            prop_assert_eq!(
                                oracle::score_tag_set(bm, &[a, b, c], init),
                                score_tag_set(&view, &[a, b, c], init)
                            );
                        }
                    }
                }
            }
        }

        /// Same agreement for the presence-only scorer (in-path patterns,
        /// directions discarded).
        #[test]
        fn presence_scorer_matches_reference(trace in arb_trace(300)) {
            let init = SaturatingCounter::two_bit();
            let matrix = matrix_for(&trace, 8, 6);
            for (_, bm) in matrix.iter() {
                let n = bm.tags().len();
                for a in 0..n {
                    prop_assert_eq!(
                        oracle::score_columns_presence(bm, &[a], init),
                        score_presence(bm, &[a], init)
                    );
                    for b in a + 1..n {
                        prop_assert_eq!(
                            oracle::score_columns_presence(bm, &[a, b], init),
                            score_presence(bm, &[a, b], init)
                        );
                        for c in b + 1..n {
                            prop_assert_eq!(
                                oracle::score_columns_presence(bm, &[a, b, c], init),
                                score_presence(bm, &[a, b, c], init)
                            );
                        }
                    }
                }
            }
        }

        /// Because the scorers agree, so do full per-branch selections —
        /// tags and scores, for both search strategies.
        #[test]
        fn search_selections_match_reference(trace in arb_trace(300)) {
            for search in [
                SearchStrategy::Greedy,
                SearchStrategy::Exhaustive { max_candidates: 12 },
            ] {
                let cfg = OracleConfig {
                    window: 6,
                    candidate_cap: 8,
                    search,
                    ..OracleConfig::default()
                };
                let matrix = matrix_for(&trace, cfg.window, cfg.candidate_cap);
                for (pc, bm) in matrix.iter() {
                    let got = OracleSelector::select_branch(bm, &cfg);
                    let want = select_branch(bm, &cfg);
                    prop_assert_eq!(got.executions, want.executions, "{:#x}", pc);
                    for k in 0..3 {
                        prop_assert_eq!(
                            &got.best[k].tags,
                            &want.best[k].tags,
                            "{:#x} k={}",
                            pc,
                            k
                        );
                        prop_assert_eq!(
                            got.best[k].correct,
                            want.best[k].correct,
                            "{:#x} k={}",
                            pc,
                            k
                        );
                    }
                }
            }
        }

        /// The sweep builder's two passes equal the per-record reference
        /// builder: at one window (every window 1..=12 and cap 1..=10, each
        /// scheme alone and both) and at every point of a 3-window sweep,
        /// on 1..=3 shards.
        #[test]
        fn builder_matches_reference(
            trace in arb_trace(300),
            window in 1usize..=12,
            cap in 1usize..=10,
            shards in 1usize..=3,
            steps in (1usize..=6, 1usize..=6),
            more_caps in (1usize..=10, 1usize..=10),
        ) {
            for schemes in [
                &[TagScheme::Occurrence][..],
                &[TagScheme::Iteration][..],
                &TagScheme::ALL[..],
            ] {
                let want = outcome_matrix(&trace, window, cap, schemes);
                let cands = TagCandidates::collect_from_source_sharded(
                    &trace, window, cap, schemes, shards,
                )
                .expect("in-memory scan");
                prop_assert_eq!(cands.branch_count(), want.branch_count());
                for (pc, bm) in want.iter() {
                    prop_assert_eq!(cands.tags(pc), bm.tags(), "{:#x} {:?}", pc, schemes);
                }
                let got = OutcomeMatrix::build_from_source_sharded(&trace, &cands, window, shards)
                    .expect("in-memory scan");
                prop_assert_eq!(&got, &want, "{:?}", schemes);
            }
            let windows = [window, window + steps.0, window + steps.0 + steps.1];
            let caps = [cap, more_caps.0, more_caps.1];
            let sweep = SweepMatrix::build_from_source(&trace, &windows, &caps, shards)
                .expect("in-memory scan");
            for (i, (&w, &c)) in windows.iter().zip(&caps).enumerate() {
                let want = outcome_matrix(&trace, w, c, &TagScheme::ALL);
                prop_assert_eq!(&sweep.materialize(i), &want, "point {}", i);
            }
        }

        /// The bit-parallel classification kernel reproduces the
        /// per-record reference score-for-score on random traces —
        /// executions, static/loop/fixed/block/PAs corrects, and the
        /// `best_period` tie-break — across sweep and history extremes.
        #[test]
        fn classifier_matches_reference_on_random_traces(trace in arb_cond_trace(600)) {
            for cfg in &CLASSIFY_CONFIGS {
                assert_classifier_matches_reference(&trace, cfg);
            }
        }

        /// Same agreement on adversarial run/period structure: runs past
        /// the 255 trip cap, periods past the 64-k ceiling, and word-
        /// boundary-straddling segments.
        #[test]
        fn classifier_matches_reference_on_structured_traces(trace in arb_structured_trace()) {
            for cfg in &CLASSIFY_CONFIGS {
                assert_classifier_matches_reference(&trace, cfg);
            }
        }
    }

    /// Pinned sweep corner cases: a uniformly-taken branch ties every k
    /// (warmup predicts taken, replay always matches) and must keep the
    /// smallest period; a short never-taken branch is scored entirely by
    /// the insufficient-history predicts-taken rule.
    #[test]
    fn sweep_tie_break_and_warmup_rule_pinned() {
        let cfg = ClassifierConfig::default();
        let uniform: Trace = (0..100)
            .map(|_| BranchRecord::conditional(0x10, true))
            .collect();
        for c in [
            classify(&uniform, &cfg),
            Classifier::classify(&uniform, &cfg),
        ] {
            let s = c.get(0x10).unwrap();
            assert_eq!((s.fixed_correct, s.best_period), (100, 1), "scores {s:?}");
        }

        // Three not-taken executions: k = 1 mispredicts only its one
        // warmup outcome, k = 2 two, k >= 3 never leaves warmup (all
        // wrong) — so the sweep pins (2 correct, k = 1).
        let short: Trace = (0..3)
            .map(|_| BranchRecord::conditional(0x20, false))
            .collect();
        for c in [classify(&short, &cfg), Classifier::classify(&short, &cfg)] {
            let s = c.get(0x20).unwrap();
            assert_eq!((s.fixed_correct, s.best_period), (2, 1), "scores {s:?}");
        }
    }
}
