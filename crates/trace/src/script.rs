//! First-class synthetic-workload DSL: per-branch outcome scripts and
//! interleaving policies.
//!
//! Born as the conformance suite's adversarial trace generator, this
//! module is the workspace's one shared way to *say what a trace does*:
//! per-branch outcome scripts built from [`Segment`]s, merged into one
//! dynamic trace by an [`Interleave`] policy. Conformance composes
//! kernel-boundary nasties from it (runs crossing the 255 trip cap,
//! patterns straddling the 64-bit word size), and `bp-probe` composes
//! measurement programs (correlated pairs with variable padding,
//! loop-trip capacity probes, PC-aliasing pairs) against the predictor
//! zoo.
//!
//! [`TraceSpec::build`] is the one emission path: it expands every
//! script to a `Vec<bool>` and materializes the interleaved [`Trace`].
//! It is the executable spec: a change to it must keep every canned
//! corpus case byte-identical. Probe programs and
//! conformance cases fit in memory; the paper-scale traces stream from
//! the workload generators instead.

use crate::{BranchRecord, Pc, Trace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One phase of a branch's outcome script.
#[derive(Debug, Clone)]
pub enum Segment {
    /// `len` consecutive outcomes in the same direction — trip-cap and
    /// popcount-word stress when `len` nears 255 or a multiple of 64.
    Run {
        /// Direction of every outcome in the run.
        taken: bool,
        /// Run length.
        len: usize,
    },
    /// A fixed pattern repeated verbatim; periods near 63..=65 probe the
    /// ring-capacity boundary of the k-ago sweep.
    Pattern {
        /// One period of outcomes.
        bits: Vec<bool>,
        /// Number of times the period is emitted.
        repeats: usize,
    },
    /// A counted loop: `trip` taken outcomes then one not-taken exit,
    /// repeated `exits` times — `trip` near 255 crosses the run-length
    /// class-replay cap.
    Loop {
        /// Taken iterations before each exit.
        trip: usize,
        /// Number of complete loop executions.
        exits: usize,
    },
    /// A pattern whose polarity inverts whenever the branch's cumulative
    /// outcome index crosses a 64-outcome word boundary — the exact seam
    /// word-parallel kernels split work at.
    WordFlip {
        /// One period of outcomes (pre-inversion).
        bits: Vec<bool>,
        /// Number of times the period is emitted.
        repeats: usize,
    },
}

impl Segment {
    /// Appends this segment's outcomes to `out` (`out.len()` is the
    /// branch's cumulative outcome index, which [`Segment::WordFlip`]
    /// keys its polarity on).
    fn expand(&self, out: &mut Vec<bool>) {
        match self {
            Segment::Run { taken, len } => out.extend(std::iter::repeat_n(*taken, *len)),
            Segment::Pattern { bits, repeats } => {
                for _ in 0..*repeats {
                    out.extend_from_slice(bits);
                }
            }
            Segment::Loop { trip, exits } => {
                for _ in 0..*exits {
                    out.extend(std::iter::repeat_n(true, *trip));
                    out.push(false);
                }
            }
            Segment::WordFlip { bits, repeats } => {
                for _ in 0..*repeats {
                    for &b in bits {
                        let flip = (out.len() / 64) % 2 == 1;
                        out.push(b ^ flip);
                    }
                }
            }
        }
    }

    /// Number of outcomes this segment contributes.
    pub fn len(&self) -> usize {
        match self {
            Segment::Run { len, .. } => *len,
            Segment::Pattern { bits, repeats } => bits.len() * repeats,
            Segment::Loop { trip, exits } => (trip + 1) * exits,
            Segment::WordFlip { bits, repeats } => bits.len() * repeats,
        }
    }

    /// Whether the segment contributes no outcomes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One static branch: an address, an optional backward target, and its
/// outcome script.
#[derive(Debug, Clone)]
pub struct BranchScript {
    /// The branch's address.
    pub pc: Pc,
    /// Taken-target; `Some(t)` with `t <= pc` makes the branch backward.
    pub target: Option<Pc>,
    /// Outcome script, expanded in order.
    pub segments: Vec<Segment>,
}

impl BranchScript {
    /// A forward branch at `pc` with the given script.
    pub fn new(pc: Pc, segments: Vec<Segment>) -> Self {
        BranchScript {
            pc,
            target: None,
            segments,
        }
    }

    /// The branch's full outcome sequence.
    pub fn outcomes(&self) -> Vec<bool> {
        let mut out = Vec::new();
        for seg in &self.segments {
            seg.expand(&mut out);
        }
        out
    }

    /// Number of outcomes the script emits, without expanding it.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Whether the script emits no outcomes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How per-branch outcome scripts are merged into one dynamic trace.
#[derive(Debug, Clone, Copy)]
pub enum Interleave {
    /// One outcome from each live branch per round, in script order.
    RoundRobin,
    /// `n` consecutive outcomes from each live branch per round.
    Blocks(usize),
    /// Globally shuffled execution order (seeded, deterministic); every
    /// branch still sees its own outcomes in script order.
    Shuffled(u64),
}

/// A complete trace specification.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// The static branches.
    pub branches: Vec<BranchScript>,
    /// Merge policy.
    pub interleave: Interleave,
}

impl TraceSpec {
    /// Total dynamic branches the spec emits.
    pub fn total_len(&self) -> usize {
        self.branches.iter().map(BranchScript::len).sum()
    }

    /// Builds the dynamic trace: every script expanded, then merged in
    /// the interleave's order.
    ///
    /// [`Interleave::RoundRobin`] and [`Interleave::Blocks`] are emitted
    /// straight from the expanded scripts: in each round every live
    /// script, in script order, emits its next (at most) `n` outcomes, so
    /// all scripts sit at the same offset when a round starts and a
    /// drained one just drops out. [`Interleave::Shuffled`] shuffles an
    /// execution-order vector of one script index per record, then emits
    /// in that order.
    pub fn build(&self) -> Trace {
        let outcomes: Vec<Vec<bool>> = self.branches.iter().map(BranchScript::outcomes).collect();
        let mut recs = Vec::with_capacity(outcomes.iter().map(Vec::len).sum());
        let n = match self.interleave {
            Interleave::RoundRobin => 1,
            Interleave::Blocks(n) => n.max(1),
            Interleave::Shuffled(seed) => {
                let mut order: Vec<usize> = outcomes
                    .iter()
                    .enumerate()
                    .flat_map(|(b, o)| std::iter::repeat_n(b, o.len()))
                    .collect();
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                let mut next = vec![0usize; outcomes.len()];
                for b in order {
                    recs.push(record_for(&self.branches[b], outcomes[b][next[b]]));
                    next[b] += 1;
                }
                return Trace::from_records(recs);
            }
        };
        let longest = outcomes.iter().map(Vec::len).max().unwrap_or(0);
        for start in (0..longest).step_by(n) {
            for (script, o) in self.branches.iter().zip(&outcomes) {
                let block = &o[start.min(o.len())..(start + n).min(o.len())];
                recs.extend(block.iter().map(|&taken| record_for(script, taken)));
            }
        }
        Trace::from_records(recs)
    }
}

/// The record for one dynamic outcome of `script`.
fn record_for(script: &BranchScript, taken: bool) -> BranchRecord {
    let rec = BranchRecord::conditional(script.pc, taken);
    match script.target {
        Some(t) => rec.with_target(t),
        None => rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_expand_as_specified() {
        let script = BranchScript::new(
            0x40,
            vec![
                Segment::Run {
                    taken: true,
                    len: 3,
                },
                Segment::Loop { trip: 2, exits: 1 },
                Segment::Pattern {
                    bits: vec![false, true],
                    repeats: 2,
                },
            ],
        );
        assert_eq!(
            script.outcomes(),
            vec![true, true, true, true, true, false, false, true, false, true]
        );
        assert_eq!(script.len(), script.outcomes().len());
    }

    #[test]
    fn word_flip_inverts_exactly_at_word_boundaries() {
        let script = BranchScript::new(
            0x40,
            vec![Segment::WordFlip {
                bits: vec![true],
                repeats: 192,
            }],
        );
        let outcomes = script.outcomes();
        assert_eq!(outcomes.len(), 192);
        for (i, &o) in outcomes.iter().enumerate() {
            assert_eq!(o, (i / 64) % 2 == 0, "outcome {i}");
        }
    }

    /// Scripts of lengths 5, 2 and 3, each outcome tagged by its
    /// (script, index) so the emitted order can be read back.
    fn unequal_scripts(interleave: Interleave) -> Vec<(Pc, usize)> {
        let spec = TraceSpec {
            branches: [(0xA0, 5), (0xB0, 2), (0xC0, 3)]
                .map(|(pc, len)| BranchScript::new(pc, vec![Segment::Run { taken: true, len }]))
                .to_vec(),
            interleave,
        };
        let mut seen = std::collections::HashMap::new();
        spec.build()
            .records()
            .iter()
            .map(|r| {
                let i = seen.entry(r.pc).or_insert(0);
                *i += 1;
                (r.pc, *i - 1)
            })
            .collect()
    }

    #[test]
    fn block_and_round_robin_orders_are_pinned() {
        let (a, b, c) = (0xA0, 0xB0, 0xC0);
        assert_eq!(
            unequal_scripts(Interleave::Blocks(2)),
            [
                (a, 0),
                (a, 1),
                (b, 0),
                (b, 1),
                (c, 0),
                (c, 1),
                (a, 2),
                (a, 3),
                (c, 2),
                (a, 4)
            ]
        );
        assert_eq!(
            unequal_scripts(Interleave::RoundRobin),
            [
                (a, 0),
                (b, 0),
                (c, 0),
                (a, 1),
                (b, 1),
                (c, 1),
                (a, 2),
                (c, 2),
                (a, 3),
                (a, 4)
            ]
        );
        assert_eq!(
            unequal_scripts(Interleave::Blocks(0)),
            unequal_scripts(Interleave::RoundRobin),
            "a zero block is one outcome"
        );
        assert_eq!(
            unequal_scripts(Interleave::Blocks(9)),
            [
                (a, 0),
                (a, 1),
                (a, 2),
                (a, 3),
                (a, 4),
                (b, 0),
                (b, 1),
                (c, 0),
                (c, 1),
                (c, 2)
            ]
        );
    }

    #[test]
    fn interleaves_preserve_per_branch_order() {
        let spec = TraceSpec {
            branches: vec![
                BranchScript::new(
                    0x100,
                    vec![Segment::Pattern {
                        bits: vec![true, false, true],
                        repeats: 5,
                    }],
                ),
                BranchScript::new(
                    0x200,
                    vec![Segment::Run {
                        taken: false,
                        len: 9,
                    }],
                ),
            ],
            interleave: Interleave::Shuffled(7),
        };
        let trace = spec.build();
        assert_eq!(trace.conditional_count(), 24);
        for script in &spec.branches {
            let want = script.outcomes();
            let got: Vec<bool> = trace
                .conditionals()
                .filter(|r| r.pc == script.pc)
                .map(|r| r.taken)
                .collect();
            assert_eq!(got, want, "branch {:#x}", script.pc);
        }
    }
}
