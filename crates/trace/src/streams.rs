use crate::fx::FxHashMap;

use crate::bps::Words;
use crate::io::TraceIoError;
use crate::profile::{BranchProfile, ProfileEntry};
use crate::record::Pc;
use crate::source::TraceSource;
use crate::trace::Trace;

/// One static branch's conditional outcomes, packed 64 executions per word.
///
/// Bit `e % 64` of word `e / 64` is the outcome of the branch's `e`-th
/// dynamic execution (`1` = taken), in trace order. The packing makes the
/// §4.1 classification kernels word-wise: per-branch taken counts are
/// popcounts, the k-ago sweep is a shifted XNOR, and the loop/block
/// predictors replay a run-length decomposition extracted with
/// trailing-zero scans ([`OutcomeStream::runs`]) instead of stepping one
/// execution at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeStream {
    words: Words,
    len: usize,
}

impl OutcomeStream {
    /// Wraps an already-packed plane (the `.bps` store's re-open path).
    /// Bits at positions `>= len` must be zero, as [`OutcomeStream::push`]
    /// guarantees and the store validates.
    pub(crate) fn from_words(words: Words, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        OutcomeStream { words, len }
    }

    /// Appends one outcome.
    pub fn push(&mut self, taken: bool) {
        let words = self.words.vec_mut();
        if self.len.is_multiple_of(64) {
            words.push(0);
        }
        if taken {
            words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Number of executions recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no executions were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words; bits at positions `>= len` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Outcome of execution `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= len`.
    pub fn get(&self, e: usize) -> bool {
        assert!(e < self.len, "execution {e} out of range ({})", self.len);
        (self.words[e / 64] >> (e % 64)) & 1 == 1
    }

    /// Number of taken executions (one popcount pass).
    pub fn taken_count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The stream's maximal runs, in order: `(direction, length)` pairs
    /// with adjacent runs alternating in direction and lengths summing to
    /// [`OutcomeStream::len`]. Each run is found with word-wise
    /// trailing-zero scans, so iteration is O(#runs + #words), not O(n).
    pub fn runs(&self) -> StreamRuns<'_> {
        StreamRuns {
            stream: self,
            pos: 0,
        }
    }
}

/// Iterator over a stream's maximal same-direction runs (see
/// [`OutcomeStream::runs`]).
#[derive(Debug, Clone)]
pub struct StreamRuns<'a> {
    stream: &'a OutcomeStream,
    pos: usize,
}

impl Iterator for StreamRuns<'_> {
    type Item = (bool, u64);

    fn next(&mut self) -> Option<(bool, u64)> {
        let n = self.stream.len;
        if self.pos >= n {
            return None;
        }
        let words = &self.stream.words;
        let value = self.stream.get(self.pos);
        // XOR against the run direction turns "differs from `value`" into a
        // set bit; the first set bit at or after `pos` ends the run.
        let flip = if value { !0u64 } else { 0 };
        let mut w = self.pos / 64;
        let mut diff = (words[w] ^ flip) & (!0u64 << (self.pos % 64));
        let end = loop {
            if diff != 0 {
                break w * 64 + diff.trailing_zeros() as usize;
            }
            w += 1;
            if w == words.len() {
                break n;
            }
            diff = words[w] ^ flip;
        };
        // Tail bits past `len` are zero: clamp so a not-taken run does not
        // run off into the padding.
        let end = end.min(n);
        let run = (end - self.pos) as u64;
        self.pos = end;
        Some((value, run))
    }
}

/// Packed per-branch outcome streams of a whole trace — the §4
/// classification artifact, built in one pass.
///
/// Splitting the trace per branch is exact for per-address analysis: every
/// class predictor keeps strictly per-branch state, so replaying one
/// branch's stream is indistinguishable from simulating the interleaved
/// trace. The [`BranchProfile`] is a popcount away
/// ([`BranchStreams::profile`]); no separate profiling pass is needed.
///
/// # Example
///
/// ```
/// use bp_trace::{BranchRecord, BranchStreams, Trace};
///
/// let trace: Trace = (0..100)
///     .map(|i| BranchRecord::conditional(0x8, i % 10 != 0)) // 90% taken
///     .collect();
/// let streams = BranchStreams::of(&trace);
/// let s = streams.get(0x8).unwrap();
/// assert_eq!(s.len(), 100);
/// assert_eq!(s.taken_count(), 90);
/// assert_eq!(streams.profile().get(0x8).unwrap().taken, 90);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchStreams {
    streams: FxHashMap<Pc, OutcomeStream>,
    total_dynamic: u64,
}

impl BranchStreams {
    /// Packs every conditional branch's outcomes in one trace pass.
    pub fn of(trace: &Trace) -> Self {
        let mut streams: FxHashMap<Pc, OutcomeStream> = FxHashMap::default();
        let mut total = 0u64;
        for rec in trace.conditionals() {
            streams.entry(rec.pc).or_default().push(rec.taken);
            total += 1;
        }
        BranchStreams {
            streams,
            total_dynamic: total,
        }
    }

    /// Reassembles an artifact from already-built parts (the `.bps`
    /// re-open path). `total_dynamic` must equal the summed stream
    /// lengths.
    pub(crate) fn from_parts(streams: FxHashMap<Pc, OutcomeStream>, total_dynamic: u64) -> Self {
        debug_assert_eq!(
            streams.values().map(|s| s.len() as u64).sum::<u64>(),
            total_dynamic
        );
        BranchStreams {
            streams,
            total_dynamic,
        }
    }

    /// As [`BranchStreams::of`], consuming any [`TraceSource`] in one
    /// scan folded on the calling thread. `_shards` does not change the
    /// scan, and the artifact is identical for every value.
    ///
    /// # Errors
    ///
    /// Propagates the source's scan error.
    pub fn from_source_sharded<T: TraceSource + Sync + ?Sized>(
        source: &T,
        _shards: usize,
    ) -> Result<Self, TraceIoError> {
        let mut streams = FxHashMap::<Pc, OutcomeStream>::default();
        let mut total_dynamic = 0u64;
        source.scan(&mut |chunk| {
            for rec in chunk.iter().filter(|rec| rec.is_conditional()) {
                streams.entry(rec.pc).or_default().push(rec.taken);
                total_dynamic += 1;
            }
        })?;
        Ok(BranchStreams {
            streams,
            total_dynamic,
        })
    }

    /// The stream for a branch, if it executed.
    pub fn get(&self, pc: Pc) -> Option<&OutcomeStream> {
        self.streams.get(&pc)
    }

    /// Iterates `(pc, stream)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &OutcomeStream)> {
        self.streams.iter().map(|(pc, s)| (*pc, s))
    }

    /// Number of static conditional branches.
    pub fn static_count(&self) -> usize {
        self.streams.len()
    }

    /// Total dynamic conditional executions.
    pub fn dynamic_count(&self) -> u64 {
        self.total_dynamic
    }

    /// Derives the branch profile by popcount — identical to
    /// [`BranchProfile::of`] on the source trace.
    pub fn profile(&self) -> BranchProfile {
        let entries = self
            .streams
            .iter()
            .map(|(&pc, s)| {
                (
                    pc,
                    ProfileEntry {
                        executions: s.len() as u64,
                        taken: s.taken_count(),
                    },
                )
            })
            .collect();
        BranchProfile::from_parts(entries, self.total_dynamic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    fn stream_of(bits: &[bool]) -> OutcomeStream {
        let mut s = OutcomeStream::default();
        for &b in bits {
            s.push(b);
        }
        s
    }

    #[test]
    fn push_and_get_across_word_boundaries() {
        let bits: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let s = stream_of(&bits);
        assert_eq!(s.len(), 200);
        assert_eq!(s.words().len(), 4);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(s.get(i), b, "bit {i}");
        }
        assert_eq!(s.taken_count(), bits.iter().filter(|&&b| b).count() as u64);
    }

    #[test]
    fn runs_reconstruct_the_stream() {
        // Run lengths straddling word boundaries, including a 64-aligned
        // run and a final not-taken run that must not leak into padding.
        let lengths = [1usize, 63, 64, 5, 130, 2, 1, 70];
        let mut bits = Vec::new();
        for (i, &l) in lengths.iter().enumerate() {
            bits.extend(std::iter::repeat_n(i % 2 == 0, l));
        }
        let s = stream_of(&bits);
        let runs: Vec<(bool, u64)> = s.runs().collect();
        let expect: Vec<(bool, u64)> = lengths
            .iter()
            .enumerate()
            .map(|(i, &l)| (i % 2 == 0, l as u64))
            .collect();
        assert_eq!(runs, expect);
        assert_eq!(runs.iter().map(|&(_, l)| l).sum::<u64>(), bits.len() as u64);
    }

    #[test]
    fn runs_of_empty_and_uniform_streams() {
        assert_eq!(stream_of(&[]).runs().count(), 0);
        let taken = stream_of(&[true; 100]);
        assert_eq!(taken.runs().collect::<Vec<_>>(), vec![(true, 100)]);
        let not = stream_of(&[false; 65]);
        assert_eq!(not.runs().collect::<Vec<_>>(), vec![(false, 65)]);
    }

    #[test]
    fn streams_split_a_trace_per_branch_in_order() {
        let mut recs = Vec::new();
        for i in 0..50u64 {
            recs.push(BranchRecord::conditional(0x10, i % 2 == 0));
            recs.push(BranchRecord::conditional(0x20, i % 5 == 0));
        }
        let trace = Trace::from_records(recs);
        let streams = BranchStreams::of(&trace);
        assert_eq!(streams.static_count(), 2);
        assert_eq!(streams.dynamic_count(), 100);
        let a = streams.get(0x10).unwrap();
        let b = streams.get(0x20).unwrap();
        for i in 0..50usize {
            assert_eq!(a.get(i), i % 2 == 0);
            assert_eq!(b.get(i), i % 5 == 0);
        }
        assert!(streams.get(0x30).is_none());
    }

    #[test]
    fn profile_matches_direct_profiling() {
        let mut recs = Vec::new();
        for i in 0..777u64 {
            recs.push(BranchRecord::conditional(0x10 + (i % 7) * 8, i % 3 != 0));
        }
        let trace = Trace::from_records(recs);
        let direct = BranchProfile::of(&trace);
        let derived = BranchStreams::of(&trace).profile();
        assert_eq!(derived, direct);
    }

    /// The records re-framed at a fixed chunk size.
    struct Rechunked(Vec<BranchRecord>, usize);

    impl TraceSource for Rechunked {
        fn scan(&self, visit: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
            self.0.chunks(self.1).for_each(visit);
            Ok(())
        }
    }

    #[test]
    fn source_builds_match_materialized() {
        let mut recs = Vec::new();
        for i in 0..500u64 {
            recs.push(BranchRecord::conditional(0x10 + (i % 5) * 8, i % 3 == 0));
            if i % 11 == 0 {
                recs.push(BranchRecord {
                    pc: 0x900,
                    target: 0x1000,
                    taken: true,
                    kind: crate::record::BranchKind::Call,
                });
            }
        }
        let trace = Trace::from_records(recs.clone());
        let direct = BranchStreams::of(&trace);
        // Chunk-size-independent: misaligned chunk boundaries included.
        for chunk_size in [1usize, 63, 64, 65, 497] {
            let source = Rechunked(recs.clone(), chunk_size);
            for shards in [1, 2] {
                let built = BranchStreams::from_source_sharded(&source, shards).unwrap();
                assert_eq!(built, direct, "chunk size {chunk_size}, {shards} shards");
            }
        }
    }

    #[test]
    fn sharded_build_is_identical_for_every_shard_count() {
        let mut recs = Vec::new();
        for i in 0..5000u64 {
            recs.push(BranchRecord::conditional(0x10 + (i % 23) * 8, i % 3 == 0));
            if i % 7 == 0 {
                recs.push(BranchRecord {
                    pc: 0x900,
                    target: 0x1000,
                    taken: true,
                    kind: crate::record::BranchKind::Jump,
                });
            }
        }
        let trace = Trace::from_records(recs);
        let direct = BranchStreams::of(&trace);
        for shards in [1usize, 2, 7, 64] {
            let sharded = BranchStreams::from_source_sharded(&trace, shards).unwrap();
            assert_eq!(sharded, direct, "shards = {shards}");
        }
    }

    #[test]
    fn empty_trace_has_no_streams() {
        let streams = BranchStreams::of(&Trace::new());
        assert_eq!(streams.static_count(), 0);
        assert_eq!(streams.dynamic_count(), 0);
        assert_eq!(streams.profile().dynamic_count(), 0);
    }
}
