use std::collections::HashMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use bp_predictors::{PerBranchStats, SaturatingCounter, MAX_TRIP};
use bp_trace::{par_map, BranchProfile, BranchStreams, FxHashMap, OutcomeStream, Pc, Trace};

/// The per-address predictability classes of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PaClass {
    /// No class predictor beats predicting the branch's predominant
    /// direction (most such branches are >99% biased).
    IdealStatic,
    /// Loop-type: for-type (taken *n* then not-taken) or while-type
    /// (mirror), captured by the loop predictor (§4.1.1).
    Loop,
    /// Repeating pattern: fixed-length-*k* or block (*n* taken / *m*
    /// not-taken) patterns (§4.1.2).
    RepeatingPattern,
    /// Non-repeating pattern: predictable from specific prior outcomes —
    /// the premise of PAs (§4.1.3).
    NonRepeatingPattern,
}

impl PaClass {
    /// All classes, in the paper's figure 6 legend order.
    pub const ALL: [PaClass; 4] = [
        PaClass::IdealStatic,
        PaClass::Loop,
        PaClass::RepeatingPattern,
        PaClass::NonRepeatingPattern,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PaClass::IdealStatic => "Ideal Static",
            PaClass::Loop => "Loop",
            PaClass::RepeatingPattern => "Repeating Pattern",
            PaClass::NonRepeatingPattern => "Non-Repeating Pattern",
        }
    }
}

/// Configuration of the per-address classification.
///
/// `Hash`/`Eq` cover every field, so the config doubles as its own
/// memoization fingerprint in the evaluation-engine cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Largest fixed pattern length swept (the paper uses 32).
    pub max_period: u32,
    /// History length of the interference-free PAs class predictor.
    pub pas_history_bits: u32,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            max_period: 32,
            pas_history_bits: 12,
        }
    }
}

/// Per-branch class-predictor scores and the resulting class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchClassScores {
    /// Dynamic executions of the branch.
    pub executions: u64,
    /// Ideal-static correct count (majority direction all run).
    pub static_correct: u64,
    /// Loop predictor correct count.
    pub loop_correct: u64,
    /// Best fixed-length-pattern (k-ago) correct count over k = 1..=max.
    pub fixed_correct: u64,
    /// The k achieving `fixed_correct`.
    pub best_period: u32,
    /// Block-pattern predictor correct count.
    pub block_correct: u64,
    /// Interference-free PAs correct count.
    pub pas_correct: u64,
}

impl BranchClassScores {
    /// Repeating-pattern score: the better of the fixed-length sweep and
    /// the block predictor, as in §4.1.2.
    pub fn repeating_correct(&self) -> u64 {
        self.fixed_correct.max(self.block_correct)
    }

    /// Best correct count over every per-address class predictor (not
    /// counting ideal static).
    pub fn best_dynamic_correct(&self) -> u64 {
        self.loop_correct
            .max(self.repeating_correct())
            .max(self.pas_correct)
    }

    /// Assigns the class per §4.1: a branch predicted at least as well by
    /// ideal static belongs to no dynamic class; otherwise the class whose
    /// predictor scored highest wins, with ties resolved in the order loop,
    /// repeating, non-repeating (the more specific behavior wins — a loop
    /// is also a repeating pattern and a history-predictable pattern).
    pub fn class(&self) -> PaClass {
        let best = self.best_dynamic_correct();
        if self.static_correct >= best {
            PaClass::IdealStatic
        } else if self.loop_correct == best {
            PaClass::Loop
        } else if self.repeating_correct() == best {
            PaClass::RepeatingPattern
        } else {
            PaClass::NonRepeatingPattern
        }
    }
}

/// Result of classifying every branch of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classification {
    per_branch: HashMap<Pc, BranchClassScores>,
    total_dynamic: u64,
}

impl Classification {
    /// Assembles a classification from per-branch scores (shared by the
    /// bit-parallel kernel and the per-record reference implementation).
    pub(crate) fn from_parts(
        per_branch: HashMap<Pc, BranchClassScores>,
        total_dynamic: u64,
    ) -> Self {
        Classification {
            per_branch,
            total_dynamic,
        }
    }

    /// Scores for one branch, if it executed.
    pub fn get(&self, pc: Pc) -> Option<&BranchClassScores> {
        self.per_branch.get(&pc)
    }

    /// Iterates `(pc, scores)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &BranchClassScores)> {
        self.per_branch.iter().map(|(pc, s)| (*pc, s))
    }

    /// Fraction of *dynamic* branches in each class (the paper's figure 6
    /// weighting); sums to 1 for a non-empty trace.
    pub fn dynamic_distribution(&self) -> HashMap<PaClass, f64> {
        let mut weights: HashMap<PaClass, u64> = HashMap::new();
        for scores in self.per_branch.values() {
            *weights.entry(scores.class()).or_insert(0) += scores.executions;
        }
        PaClass::ALL
            .iter()
            .map(|&class| {
                let w = weights.get(&class).copied().unwrap_or(0);
                let f = if self.total_dynamic == 0 {
                    0.0
                } else {
                    w as f64 / self.total_dynamic as f64
                };
                (class, f)
            })
            .collect()
    }

    /// Of the dynamic branches classified [`PaClass::IdealStatic`], the
    /// fraction whose static branch is biased above `threshold` — the
    /// paper's "88% of these branches are more than 99% biased" statistic.
    pub fn static_class_bias_fraction(&self, profile: &BranchProfile, threshold: f64) -> f64 {
        let mut static_weight = 0u64;
        let mut biased_weight = 0u64;
        for (pc, scores) in self.iter() {
            if scores.class() == PaClass::IdealStatic {
                static_weight += scores.executions;
                if profile.get(pc).is_some_and(|e| e.bias() > threshold) {
                    biased_weight += scores.executions;
                }
            }
        }
        if static_weight == 0 {
            0.0
        } else {
            biased_weight as f64 / static_weight as f64
        }
    }

    /// Per-branch stats of the loop predictor run used for classification —
    /// reused by the Table 3 "PAs w/ Loop" construction.
    pub fn loop_stats(&self) -> PerBranchStats {
        self.per_branch
            .iter()
            .map(|(pc, s)| {
                (
                    *pc,
                    bp_predictors::PredictionStats {
                        predictions: s.executions,
                        correct: s.loop_correct,
                    },
                )
            })
            .collect()
    }

    /// Per-branch stats of the best per-address class predictor for each
    /// branch (loop / repeating / non-repeating, whichever scored highest)
    /// — the "per-address" contender in figure 8.
    pub fn best_per_address_stats(&self) -> PerBranchStats {
        self.per_branch
            .iter()
            .map(|(pc, s)| {
                (
                    *pc,
                    bp_predictors::PredictionStats {
                        predictions: s.executions,
                        correct: s.best_dynamic_correct(),
                    },
                )
            })
            .collect()
    }
}

/// Where a classification spent its time, for `repro --timings`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassifyPhases {
    /// Seconds in the shifted-XNOR fixed-pattern sweep.
    pub sweep_seconds: f64,
    /// Seconds in the run-length loop/block replay and the pattern-major
    /// IF-PAs scoring.
    pub replay_seconds: f64,
}

/// Runs the §4 per-address classification over a trace.
///
/// Every class predictor is scored from packed per-branch outcome streams
/// ([`BranchStreams`]): the k-ago sweep as shifted-XNOR popcounts, the
/// loop and block predictors over the stream's run-length decomposition,
/// and interference-free PAs pattern-major with O(1) uniform-run counter
/// jumps. Scores are exactly those of per-record simulation (the retained
/// reference implementation, `bp_core::reference::classify`, is
/// property-tested against this kernel).
///
/// # Example
///
/// ```
/// use bp_core::{Classifier, ClassifierConfig, PaClass};
/// use bp_trace::{BranchRecord, Trace};
///
/// // A trip-40 loop: too long for PAs history, trivial for the loop
/// // predictor — so it classifies as loop-type.
/// let trace: Trace = (0..2000)
///     .map(|i| BranchRecord::conditional(0x10, i % 41 != 40))
///     .collect();
/// let c = Classifier::classify(&trace, &ClassifierConfig::default());
/// assert_eq!(c.get(0x10).unwrap().class(), PaClass::Loop);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Classifier;

impl Classifier {
    /// Scores every branch with each class predictor and assigns classes.
    pub fn classify(trace: &Trace, cfg: &ClassifierConfig) -> Classification {
        Self::classify_streams(&BranchStreams::of(trace), cfg)
    }

    /// As [`Classifier::classify`], over an already-packed stream artifact
    /// (built once per trace and shared across experiments).
    pub fn classify_streams(streams: &BranchStreams, cfg: &ClassifierConfig) -> Classification {
        Self::classify_streams_timed(streams, cfg).0
    }

    /// As [`Classifier::classify_streams`], also reporting phase timings.
    pub fn classify_streams_timed(
        streams: &BranchStreams,
        cfg: &ClassifierConfig,
    ) -> (Classification, ClassifyPhases) {
        assert!(
            (1..=64).contains(&cfg.max_period),
            "max fixed-pattern period must be 1..=64"
        );
        let mut pas = PasScratch::new(cfg.pas_history_bits);
        let mut phases = ClassifyPhases::default();
        let mut per_branch = HashMap::with_capacity(streams.static_count());
        for (pc, stream) in streams.iter() {
            per_branch.insert(pc, score_branch(stream, cfg, &mut pas, &mut phases));
        }
        (
            Classification::from_parts(per_branch, streams.dynamic_count()),
            phases,
        )
    }

    /// As [`Classifier::classify_streams_timed`], scoring branches on up
    /// to `jobs` threads. Scoring is pure per branch and the merge is
    /// keyed by PC, so the classification is identical to the serial
    /// kernel for every `jobs` value; the reported phase times are summed
    /// per-thread busy seconds. Each thread keeps its own PAs scratch.
    /// Branches go out in PC order, the order a reopened `.bps` artifact
    /// stores their planes in, so threads read the mapping front to back.
    pub fn classify_streams_parallel(
        streams: &BranchStreams,
        cfg: &ClassifierConfig,
        jobs: usize,
    ) -> (Classification, ClassifyPhases) {
        let mut branches: Vec<(Pc, &OutcomeStream)> = streams.iter().collect();
        branches.sort_unstable_by_key(|&(pc, _)| pc);
        let (scored, scratch) = par_map(
            &branches,
            jobs,
            || {
                (
                    PasScratch::new(cfg.pas_history_bits),
                    ClassifyPhases::default(),
                )
            },
            |(pas, phases), &(pc, stream)| (pc, score_branch(stream, cfg, pas, phases)),
        );
        let mut phases = ClassifyPhases::default();
        for (_, p) in &scratch {
            phases.sweep_seconds += p.sweep_seconds;
            phases.replay_seconds += p.replay_seconds;
        }
        (
            Classification::from_parts(scored.into_iter().collect(), streams.dynamic_count()),
            phases,
        )
    }
}

/// Scores one branch's stream with every class predictor — the single
/// per-branch kernel behind both the serial and parallel entry points,
/// so they cannot drift.
fn score_branch(
    stream: &OutcomeStream,
    cfg: &ClassifierConfig,
    pas: &mut PasScratch,
    phases: &mut ClassifyPhases,
) -> BranchClassScores {
    assert!(
        (1..=64).contains(&cfg.max_period),
        "max fixed-pattern period must be 1..=64"
    );
    let executions = stream.len() as u64;
    let taken = stream.taken_count();
    let t0 = Instant::now();
    let (fixed_correct, best_period) = sweep_best(stream, cfg.max_period);
    let t1 = Instant::now();
    phases.sweep_seconds += (t1 - t0).as_secs_f64();
    let scores = BranchClassScores {
        executions,
        static_correct: taken.max(executions - taken),
        loop_correct: loop_replay(stream),
        fixed_correct,
        best_period,
        block_correct: block_replay(stream),
        pas_correct: pas.score(stream),
    };
    phases.replay_seconds += t1.elapsed().as_secs_f64();
    scores
}

/// Popcount of the first `m` bits of a packed stream.
fn popcount_prefix(words: &[u64], m: usize) -> u64 {
    let full = m / 64;
    let mut count: u64 = words[..full]
        .iter()
        .map(|w| u64::from(w.count_ones()))
        .sum();
    let rem = m % 64;
    if rem > 0 {
        count += u64::from((words[full] & (!0u64 >> (64 - rem))).count_ones());
    }
    count
}

/// Correct predictions of the k-ago predictor over one stream — exactly
/// [`bp_predictors::KthAgo::new`]`(k)` on that branch: the first
/// `min(k, n)` executions predict taken (insufficient history), every
/// later execution `e` is correct iff outcome `e` equals outcome `e - k`.
/// The agreement test is one XNOR per word against the stream shifted left
/// by `k` bits, masked to the valid range — O(n/64) per `k` with no
/// per-record state.
#[doc(hidden)]
pub fn kth_ago_correct(stream: &OutcomeStream, k: usize) -> u64 {
    let n = stream.len();
    let words = stream.words();
    let correct = popcount_prefix(words, k.min(n));
    if n <= k {
        return correct;
    }
    if crate::simd::use_avx2(words.len()) {
        return correct + crate::simd::kth_ago_body_avx2(words, n, k);
    }
    correct + kth_ago_body_scalar(words, n, k)
}

/// As [`kth_ago_correct`], forced onto the portable path — the reference
/// side of the conformance SIMD differential suite.
#[doc(hidden)]
pub fn kth_ago_correct_scalar(stream: &OutcomeStream, k: usize) -> u64 {
    let n = stream.len();
    let words = stream.words();
    let correct = popcount_prefix(words, k.min(n));
    if n <= k {
        return correct;
    }
    correct + kth_ago_body_scalar(words, n, k)
}

/// Agreement count over executions `[k, n)`: one XNOR + popcount per word.
pub(crate) fn kth_ago_body_scalar(words: &[u64], n: usize, k: usize) -> u64 {
    let mut correct = 0u64;
    let (q, r) = (k / 64, (k % 64) as u32);
    for i in q..=(n - 1) / 64 {
        let shifted = if r == 0 {
            words[i - q]
        } else {
            let carry = if i > q {
                words[i - q - 1] >> (64 - r)
            } else {
                0
            };
            (words[i - q] << r) | carry
        };
        // Valid executions of this word: global indices in [k, n).
        let base = i * 64;
        let mut mask = !0u64;
        if k > base {
            mask &= !0u64 << (k - base);
        }
        if n < base + 64 {
            mask &= !0u64 >> (64 - (n - base));
        }
        correct += u64::from((!(words[i] ^ shifted) & mask).count_ones());
    }
    correct
}

/// Best fixed-pattern score over k = 1..=`max_period`. Ties keep the
/// smallest k (ascending scan, strictly-greater wins); a branch no k-ago
/// predictor ever gets right reports `(0, 1)`.
fn sweep_best(stream: &OutcomeStream, max_period: u32) -> (u64, u32) {
    let mut best = 0u64;
    let mut best_k = 1u32;
    for k in 1..=max_period {
        let c = kth_ago_correct(stream, k as usize);
        if c > best {
            best = c;
            best_k = k;
        }
    }
    (best, best_k)
}

/// Replays [`bp_predictors::LoopPredictor`] over a stream's run-length
/// decomposition in O(1) per run.
///
/// The predictor's whole-run behavior collapses: riding a body run of
/// length `L` with a learned trip `n` costs one miss iff the exit was
/// expected strictly inside the run (`run ≤ n < run + L`); a completed
/// run stores its trip and mispredicts at most its first outcome; the
/// re-latch after a length-1 exit restarts the body. Each transition below
/// is the predictor's per-record state machine applied `L` times at once,
/// so the total equals per-record simulation exactly (property-tested
/// against `bp_core::reference::classify`).
fn loop_replay(stream: &OutcomeStream) -> u64 {
    let max_trip = u64::from(MAX_TRIP);
    let mut correct = 0u64;
    let mut started = false;
    // Mirrors `LoopState`: the latched body direction, current same-
    // direction run length (uncapped), learned trip, and overflow flag.
    let mut direction = false;
    let mut run = 0u64;
    let mut trip: Option<u64> = None;
    let mut overflowed = false;
    for (d, len) in stream.runs() {
        if !started {
            // First prediction is the static taken fallback; the rest of
            // the run rides the just-latched direction.
            started = true;
            correct += u64::from(d) + (len - 1);
            direction = d;
            run = len;
            overflowed = len > max_trip;
        } else if d == direction {
            // Body continues: one miss iff the learned trip expires
            // strictly inside this run (the predictor calls the exit and
            // the branch keeps going).
            let hit = matches!(trip, Some(n) if !overflowed && run <= n && n < run + len);
            correct += len - u64::from(hit);
            run += len;
            if run > max_trip {
                overflowed = true;
            }
        } else {
            // The first flip outcome is the exit: predicted iff the trip
            // was known, not overflowed, and expired exactly now.
            correct += u64::from(matches!(trip, Some(n) if !overflowed && run == n));
            if run == 0 {
                // Second consecutive non-body outcome: re-latch, and the
                // rest of this run rides the new direction.
                correct += len - 1;
                direction = d;
                run = len;
                trip = None;
                overflowed = len > max_trip;
            } else {
                trip = if overflowed { None } else { Some(run) };
                overflowed = false;
                if len == 1 {
                    run = 0;
                } else {
                    // A second flip outcome re-latches (missing once —
                    // run is 0 and the trip never matches 0); outcomes
                    // three onward ride the new body.
                    correct += len - 2;
                    direction = d;
                    run = len - 1;
                    trip = None;
                    overflowed = len - 1 > max_trip;
                }
            }
        }
    }
    correct
}

/// Replays [`bp_predictors::BlockPattern`] over a stream's run-length
/// decomposition in O(1) per run.
///
/// Between flips the state only counts: a whole run of length `L` after a
/// flip mispredicts its first outcome unless the completed run's length
/// matched the stored expectation, plus at most one mid-run miss where a
/// stale expectation (shorter than `L`) calls the flip early.
fn block_replay(stream: &OutcomeStream) -> u64 {
    // Mirrors `BlockState`, whose run counter saturates at MAX_TRIP + 1.
    let cap = u64::from(MAX_TRIP) + 1;
    let mut correct = 0u64;
    let mut started = false;
    let mut current = false;
    let mut run = 0u64;
    let mut taken_run: Option<u64> = None;
    let mut not_taken_run: Option<u64> = None;
    for (d, len) in stream.runs() {
        if !started {
            // Static taken fallback, then ride the run (no expectations
            // exist yet).
            started = true;
            correct += u64::from(d) + (len - 1);
            current = d;
            run = len.min(cap);
        } else if d == current {
            // Unreachable from maximal runs (adjacent runs alternate) but
            // kept exact: a stale expectation expiring inside the run
            // costs one miss.
            let expect = if current { taken_run } else { not_taken_run };
            let hit = matches!(expect, Some(n) if run <= n && n < run + len);
            correct += len - u64::from(hit);
            run = (run + len).min(cap);
        } else {
            // The flip itself is predicted iff the completed run's length
            // matched its stored expectation.
            let expect_old = if current { taken_run } else { not_taken_run };
            correct += u64::from(matches!(expect_old, Some(n) if run == n));
            let completed = (run <= u64::from(MAX_TRIP)).then_some(run);
            if current {
                taken_run = completed;
            } else {
                not_taken_run = completed;
            }
            // Riding the new run: one miss iff the other direction's
            // expectation expires before the run actually ends.
            let expect_new = if d { taken_run } else { not_taken_run };
            if len > 1 {
                correct += (len - 1) - u64::from(matches!(expect_new, Some(n) if n < len));
            }
            current = d;
            run = len.min(cap);
        }
    }
    correct
}

/// History lengths up to this many bits use dense counting-sort buckets
/// (two `2^bits`-entry u32 tables); longer histories fall back to a
/// hash-keyed per-record replay.
const DENSE_PAS_BITS: u32 = 16;

/// Reusable scratch for pattern-major interference-free PAs scoring.
///
/// Per branch, the rolling history pattern of every execution is computed
/// once, executions are counting-sorted into per-pattern buckets (dense
/// tables indexed by pattern, reset via the touched-pattern list), and
/// each bucket — whose counter no other pattern touches — is replayed as
/// uniform-outcome runs with [`SaturatingCounter::train_run`]. Within a
/// pattern the original execution order is preserved, so the counter sees
/// exactly the per-record training sequence.
struct PasScratch {
    history_bits: u32,
    /// Executions per pattern this branch (dense path); zeroed via
    /// `touched` after each branch.
    counts: Vec<u32>,
    /// Bucket write cursor, then bucket end offset, per pattern.
    cursor: Vec<u32>,
    /// Patterns seen for this branch, in first-use order.
    touched: Vec<u32>,
    /// Pattern of each execution, in trace order.
    patterns: Vec<u32>,
    /// Outcomes regrouped pattern-major.
    ordered: Vec<u8>,
}

impl PasScratch {
    fn new(history_bits: u32) -> Self {
        let slots = if history_bits <= DENSE_PAS_BITS {
            1usize << history_bits
        } else {
            0
        };
        PasScratch {
            history_bits,
            counts: vec![0; slots],
            cursor: vec![0; slots],
            touched: Vec::new(),
            patterns: Vec::new(),
            ordered: Vec::new(),
        }
    }

    /// Interference-free PAs correct count for one branch's stream —
    /// exactly [`bp_predictors::PasInterferenceFree`] on that branch
    /// (history starts at zero; counters initialize weakly taken and train
    /// on the pre-update history).
    fn score(&mut self, stream: &OutcomeStream) -> u64 {
        if self.history_bits > DENSE_PAS_BITS {
            return self.score_sparse(stream);
        }
        let n = stream.len();
        let words = stream.words();
        let mask = (1u32 << self.history_bits) - 1;
        self.patterns.clear();
        self.patterns.reserve(n);
        let mut h = 0u32;
        for e in 0..n {
            let bit = (words[e / 64] >> (e % 64)) & 1;
            if self.counts[h as usize] == 0 {
                self.touched.push(h);
            }
            self.counts[h as usize] += 1;
            self.patterns.push(h);
            h = ((h << 1) | bit as u32) & mask;
        }
        // Prefix-sum bucket starts in first-use order, scatter outcomes
        // pattern-major, then replay each bucket's runs.
        let mut running = 0u32;
        for &p in &self.touched {
            self.cursor[p as usize] = running;
            running += self.counts[p as usize];
        }
        self.ordered.clear();
        self.ordered.resize(n, 0);
        for e in 0..n {
            let bit = ((words[e / 64] >> (e % 64)) & 1) as u8;
            let slot = &mut self.cursor[self.patterns[e] as usize];
            self.ordered[*slot as usize] = bit;
            *slot += 1;
        }
        let mut correct = 0u64;
        for &p in &self.touched {
            let end = self.cursor[p as usize] as usize;
            let start = end - self.counts[p as usize] as usize;
            let mut counter = SaturatingCounter::two_bit();
            let mut i = start;
            while i < end {
                let v = self.ordered[i];
                let mut j = i + 1;
                while j < end && self.ordered[j] == v {
                    j += 1;
                }
                correct += counter.train_run((j - i) as u64, v == 1);
                i = j;
            }
        }
        for &p in &self.touched {
            self.counts[p as usize] = 0;
        }
        self.touched.clear();
        correct
    }

    /// Per-record fallback for history lengths too long to bucket densely
    /// (still branch-local, so no cross-branch interference either way).
    fn score_sparse(&self, stream: &OutcomeStream) -> u64 {
        let mask = (1u64 << self.history_bits) - 1;
        let mut counters: FxHashMap<u64, SaturatingCounter> = FxHashMap::default();
        let mut h = 0u64;
        let mut correct = 0u64;
        for e in 0..stream.len() {
            let taken = stream.get(e);
            let counter = counters.entry(h).or_insert_with(SaturatingCounter::two_bit);
            if counter.predict_taken() == taken {
                correct += 1;
            }
            counter.train(taken);
            h = ((h << 1) | u64::from(taken)) & mask;
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::{simulate_per_branch, KthAgo};
    use bp_trace::BranchRecord;

    fn classify(trace: &Trace) -> Classification {
        Classifier::classify(trace, &ClassifierConfig::default())
    }

    #[test]
    fn biased_branch_is_static_class() {
        // ~99% taken with *irregularly placed* not-takens (LFSR-driven):
        // no loop/block/pattern structure to exploit, so ideal static wins.
        let mut lfsr = 0xBEEFu16;
        let trace: Trace = (0..2000)
            .map(|_| {
                lfsr = (lfsr >> 1) ^ if lfsr & 1 != 0 { 0xB400 } else { 0 };
                BranchRecord::conditional(0x10, !lfsr.is_multiple_of(97))
            })
            .collect();
        let c = classify(&trace);
        assert_eq!(
            c.get(0x10).unwrap().class(),
            PaClass::IdealStatic,
            "scores {:?}",
            c.get(0x10).unwrap()
        );
        let dist = c.dynamic_distribution();
        assert!((dist[&PaClass::IdealStatic] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_loop_is_loop_class() {
        // Trip 40 beats the 12-bit PAs history; loop predictor is perfect.
        let mut recs = Vec::new();
        for _ in 0..50 {
            for _ in 0..40 {
                recs.push(BranchRecord::conditional(0x20, true));
            }
            recs.push(BranchRecord::conditional(0x20, false));
        }
        let c = classify(&Trace::from_records(recs));
        let s = c.get(0x20).unwrap();
        assert_eq!(s.class(), PaClass::Loop, "scores {s:?}");
        assert!(s.loop_correct > s.static_correct);
    }

    #[test]
    fn irregular_block_is_repeating_class() {
        // 37 taken / 23 not-taken blocks: period 60 exceeds the fixed-k
        // sweep (max 32), and the loop predictor only models single-exit
        // runs; the block predictor nails it.
        let mut recs = Vec::new();
        for _ in 0..40 {
            for _ in 0..37 {
                recs.push(BranchRecord::conditional(0x30, true));
            }
            for _ in 0..23 {
                recs.push(BranchRecord::conditional(0x30, false));
            }
        }
        let c = classify(&Trace::from_records(recs));
        let s = c.get(0x30).unwrap();
        assert_eq!(s.class(), PaClass::RepeatingPattern, "scores {s:?}");
        assert!(s.block_correct >= s.fixed_correct);
    }

    #[test]
    fn short_period_pattern_prefers_loop_by_tie_break_or_repeating() {
        // Period-5 pattern TTFTF: not a loop (two not-takens per period,
        // non-contiguous... TTFTF has isolated F's), fixed-5 is perfect.
        let pattern = [true, true, false, true, false];
        let mut recs = Vec::new();
        for _ in 0..200 {
            for &t in &pattern {
                recs.push(BranchRecord::conditional(0x40, t));
            }
        }
        let c = classify(&Trace::from_records(recs));
        let s = c.get(0x40).unwrap();
        assert_eq!(s.class(), PaClass::RepeatingPattern, "scores {s:?}");
        assert_eq!(s.best_period, 5);
    }

    #[test]
    fn data_dependent_history_pattern_is_nonrepeating() {
        // A maximal 6-bit Galois LFSR output stream: period 63, so no
        // k-ago predictor with k ≤ 32 matches, runs are short and
        // irregular (no loop/block shape), but every 12-bit history window
        // uniquely determines the next outcome and *recurs* — exactly the
        // history-predictable behavior PAs is premised on.
        let mut recs = Vec::new();
        let mut lfsr = 0x2Au8;
        for _ in 0..800 {
            let bit = lfsr & 1 != 0;
            lfsr >>= 1;
            if bit {
                lfsr ^= 0x30;
            }
            recs.push(BranchRecord::conditional(0x60, bit));
        }
        let trace = Trace::from_records(recs);
        let c = classify(&trace);
        let s = c.get(0x60).unwrap();
        assert_eq!(s.class(), PaClass::NonRepeatingPattern, "scores {s:?}");
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut recs = Vec::new();
        for i in 0..300u64 {
            recs.push(BranchRecord::conditional(0x10, true)); // biased
            recs.push(BranchRecord::conditional(0x20, i % 8 != 7)); // loop
        }
        let c = classify(&Trace::from_records(recs));
        let dist = c.dynamic_distribution();
        let sum: f64 = dist.values().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bias_fraction_within_static_class() {
        // One >99%-biased branch, one 60%-biased branch that still lands in
        // the static class (random-ish outcomes defeat the class
        // predictors).
        let mut recs = Vec::new();
        let mut lfsr = 0x1D2Fu16;
        for i in 0..2000u64 {
            recs.push(BranchRecord::conditional(0x10, i % 1000 != 0));
            let bit = lfsr & 1 != 0;
            lfsr >>= 1;
            if bit {
                lfsr ^= 0xB400;
            }
            // 60%-ish biased noise: or together two pseudo-random bits.
            recs.push(BranchRecord::conditional(0x20, bit || (i % 5 == 0)));
        }
        let trace = Trace::from_records(recs);
        let profile = BranchProfile::of(&trace);
        let c = Classifier::classify(
            &trace,
            &ClassifierConfig {
                pas_history_bits: 4, // keep PAs weak so 0x20 stays static
                ..ClassifierConfig::default()
            },
        );
        let frac = c.static_class_bias_fraction(&profile, 0.99);
        assert!(frac > 0.0 && frac < 1.0, "fraction {frac}");
    }

    #[test]
    fn loop_stats_match_scores() {
        let trace: Trace = (0..200)
            .map(|i| BranchRecord::conditional(0x70, i % 6 != 5))
            .collect();
        let c = classify(&trace);
        let ls = c.loop_stats();
        assert_eq!(
            ls.get(0x70).unwrap().correct,
            c.get(0x70).unwrap().loop_correct
        );
        assert_eq!(ls.total().predictions, 200);
        let pa = c.best_per_address_stats();
        assert!(pa.get(0x70).unwrap().correct >= c.get(0x70).unwrap().loop_correct);
    }

    #[test]
    fn empty_trace_classifies_nothing() {
        let c = classify(&Trace::new());
        assert_eq!(c.iter().count(), 0);
        let dist = c.dynamic_distribution();
        assert_eq!(dist.values().sum::<f64>(), 0.0);
    }

    #[test]
    fn stream_entry_point_matches_trace_entry_point() {
        let mut recs = Vec::new();
        for i in 0..500u64 {
            recs.push(BranchRecord::conditional(0x10, i % 7 != 6));
            recs.push(BranchRecord::conditional(0x20, i % 3 == 0));
        }
        let trace = Trace::from_records(recs);
        let cfg = ClassifierConfig::default();
        let direct = Classifier::classify(&trace, &cfg);
        let streams = BranchStreams::of(&trace);
        let (via_streams, phases) = Classifier::classify_streams_timed(&streams, &cfg);
        for (pc, s) in direct.iter() {
            assert_eq!(via_streams.get(pc), Some(s), "{pc:#x}");
        }
        assert!(phases.sweep_seconds >= 0.0 && phases.replay_seconds >= 0.0);
    }

    #[test]
    fn parallel_kernel_is_identical_for_every_jobs_count() {
        let mut recs = Vec::new();
        let mut state = 0xabcd_1234u64;
        for i in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x100 + (i % 17) * 8;
            recs.push(BranchRecord::conditional(pc, (state >> 40) & 3 != 0));
        }
        let streams = BranchStreams::of(&Trace::from_records(recs));
        let cfg = ClassifierConfig::default();
        let (serial, _) = Classifier::classify_streams_timed(&streams, &cfg);
        for jobs in [1, 2, 7, 64] {
            let (par, phases) = Classifier::classify_streams_parallel(&streams, &cfg, jobs);
            assert_eq!(par.iter().count(), serial.iter().count(), "jobs {jobs}");
            for (pc, s) in serial.iter() {
                assert_eq!(par.get(pc), Some(s), "jobs {jobs} pc {pc:#x}");
            }
            assert!(phases.sweep_seconds >= 0.0 && phases.replay_seconds >= 0.0);
        }
    }

    /// Satellite regression: the k = max_period = 64 ring boundary. The
    /// old per-record sweep kept a 64-deep ring whose capacity exactly
    /// equals the largest legal period; the shifted-XNOR kernel must agree
    /// with a real `KthAgo(k)` simulation at every k up to that boundary,
    /// on a stream whose length is itself word-aligned.
    #[test]
    fn kth_ago_kernel_matches_simulated_predictor_through_k64() {
        // Period-64 pattern (so k = 64 is the only perfect period) whose
        // content has no shorter-shift self-correlation (k = 64 beats
        // every k < 64 by a wide margin), plus a second branch with a
        // non-aligned length; 256 executions lands runs on every word
        // boundary.
        let word = 0x2CEA_EE20_D811_CD0Du64;
        let pattern: Vec<bool> = (0..64).map(|i| (word >> i) & 1 == 1).collect();
        let mut recs = Vec::new();
        for rep in 0..4 {
            for &t in &pattern {
                recs.push(BranchRecord::conditional(0x10, t));
            }
            for j in 0..45u64 {
                recs.push(BranchRecord::conditional(0x20, (j + rep) % 9 < 4));
            }
        }
        let trace = Trace::from_records(recs);
        let streams = BranchStreams::of(&trace);
        for k in 1..=64u32 {
            let sim = simulate_per_branch(&mut KthAgo::new(k), &trace);
            for (pc, stream) in streams.iter() {
                assert_eq!(
                    kth_ago_correct(stream, k as usize),
                    sim.get(pc).map_or(0, |s| s.correct),
                    "k={k} pc={pc:#x}"
                );
            }
        }
        // And the sweep at max_period 64 finds the period-64 branch.
        let c = Classifier::classify(
            &trace,
            &ClassifierConfig {
                max_period: 64,
                ..ClassifierConfig::default()
            },
        );
        let s = c.get(0x10).unwrap();
        assert_eq!(s.best_period, 64, "scores {s:?}");
        // Perfect after the 64-execution warmup (which predicts taken).
        let warm_taken = pattern.iter().filter(|&&t| t).count() as u64;
        assert_eq!(s.fixed_correct, warm_taken + (256 - 64));
    }

    #[test]
    #[should_panic(expected = "max fixed-pattern period")]
    fn oversized_period_rejected() {
        let _ = Classifier::classify(
            &Trace::new(),
            &ClassifierConfig {
                max_period: 65,
                ..ClassifierConfig::default()
            },
        );
    }
}
