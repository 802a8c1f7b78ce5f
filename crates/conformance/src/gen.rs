//! Adversarial trace corpus built on the shared [`bp_trace::script`] DSL.
//!
//! The trace DSL itself — [`Segment`] outcome scripts, [`Interleave`]
//! policies, [`TraceSpec`] — started life here and now lives in
//! [`bp_trace::script`] as a first-class workload source (bp-probe's
//! measurement programs are composed from the same primitives). This
//! module re-exports it and keeps what is conformance-specific: the
//! canned set of known-nasty cases and the seeded generator that mixes
//! them with random compositions drawn from adversarial parameter
//! ranges. Every canned case the DSL builds is byte-identical to its
//! pre-relocation expansion (pinned, with the one case spliced from
//! records, by `tests/dsl_relocation.rs`).

pub use bp_trace::script::{BranchScript, Interleave, Segment, TraceSpec};

use bp_trace::{BranchKind, BranchRecord, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated trace with a human-readable case name.
#[derive(Debug, Clone)]
pub struct NamedTrace {
    /// Case label, stable for a given seed.
    pub name: String,
    /// The trace.
    pub trace: Trace,
}

/// Alternating pattern of length `period` whose final bit is forced
/// not-taken, so the period is genuinely `period` (never a divisor).
fn ring_pattern(period: usize) -> Vec<bool> {
    let mut bits: Vec<bool> = (0..period).map(|i| i % 2 == 0).collect();
    if let Some(last) = bits.last_mut() {
        *last = false;
    }
    bits
}

/// The deterministic known-nasty cases every corpus starts with.
fn canned_cases() -> Vec<NamedTrace> {
    let mut cases = Vec::new();
    let single = |name: &str, segments: Vec<Segment>| NamedTrace {
        name: name.to_owned(),
        trace: TraceSpec {
            branches: vec![BranchScript::new(0x400, segments)],
            interleave: Interleave::RoundRobin,
        }
        .build(),
    };

    // Long same-direction runs crossing several 64-bit words.
    cases.push(single(
        "run-crossing-words",
        vec![
            Segment::Run {
                taken: true,
                len: 200,
            },
            Segment::Run {
                taken: false,
                len: 200,
            },
        ],
    ));
    // Loop trip counts straddling the 255 run-length cap.
    for trip in [254usize, 255, 256] {
        cases.push(single(
            &format!("trip-cap-{trip}"),
            vec![Segment::Loop { trip, exits: 3 }],
        ));
    }
    // Pattern periods straddling the 64-outcome ring capacity.
    for period in [63usize, 64, 65] {
        cases.push(single(
            &format!("ring-capacity-{period}"),
            vec![Segment::Pattern {
                bits: ring_pattern(period),
                repeats: 6,
            }],
        ));
    }
    // Polarity flips pinned to word boundaries.
    cases.push(single(
        "word-boundary-flip",
        vec![Segment::WordFlip {
            bits: vec![true, true, false],
            repeats: 80,
        }],
    ));
    // Tiny traces exactly at the word-size edge.
    for len in [1usize, 64, 65] {
        cases.push(single(
            &format!("tiny-{len}"),
            vec![Segment::Pattern {
                bits: ring_pattern(len),
                repeats: 1,
            }],
        ));
    }
    // Aliasing-heavy PC map: eight branches sharing their low address
    // bits (they collide in any table indexed by fewer than 9 PC bits),
    // with conflicting periodic behaviors, in shuffled order.
    let aliased: Vec<BranchScript> = (0..8u64)
        .map(|i| {
            BranchScript::new(
                0x8000 + (i << 11),
                vec![Segment::Pattern {
                    bits: ring_pattern(2 + i as usize),
                    repeats: 40,
                }],
            )
        })
        .collect();
    cases.push(NamedTrace {
        name: "aliasing-low-bits".to_owned(),
        trace: TraceSpec {
            branches: aliased,
            interleave: Interleave::Shuffled(0xA11A5),
        }
        .build(),
    });
    // A perfectly correlated pair: the second branch copies the first.
    let pattern = ring_pattern(5);
    cases.push(NamedTrace {
        name: "correlated-copy".to_owned(),
        trace: TraceSpec {
            branches: vec![
                BranchScript::new(
                    0x100,
                    vec![Segment::Pattern {
                        bits: pattern.clone(),
                        repeats: 60,
                    }],
                ),
                BranchScript::new(
                    0x200,
                    vec![Segment::Pattern {
                        bits: pattern,
                        repeats: 60,
                    }],
                ),
            ],
            interleave: Interleave::RoundRobin,
        }
        .build(),
    });
    // The correlated pair with calls, jumps and returns between its
    // records, which every builder and predictor must skip. The DSL
    // emits conditional records only, so this case is spliced by hand.
    let mut records = Vec::new();
    for (i, &rec) in cases[cases.len() - 1].trace.records().iter().enumerate() {
        records.push(rec);
        let kind = match i % 5 {
            0 => BranchKind::Call,
            2 => BranchKind::Jump,
            3 => BranchKind::Return,
            _ => continue,
        };
        records.push(BranchRecord {
            pc: 0x300 + 4 * (i % 5) as u64,
            target: 0x900,
            taken: true,
            kind,
        });
    }
    cases.push(NamedTrace {
        name: "calls-jumps-returns".to_owned(),
        trace: Trace::from_records(records),
    });
    cases
}

/// One random segment with parameters drawn from adversarial ranges
/// (lengths clustered at the 64-word and 255-cap boundaries).
pub(crate) fn random_segment(rng: &mut StdRng) -> Segment {
    match rng.gen_range(0u32..4) {
        0 => Segment::Run {
            taken: rng.gen_bool(0.5),
            len: if rng.gen_bool(0.5) {
                rng.gen_range(60usize..70)
            } else {
                rng.gen_range(250usize..260)
            },
        },
        1 => {
            let period = if rng.gen_bool(0.5) {
                rng.gen_range(1usize..9)
            } else {
                rng.gen_range(62usize..67)
            };
            Segment::Pattern {
                bits: (0..period).map(|_| rng.gen_bool(0.5)).collect(),
                repeats: rng.gen_range(1usize..5),
            }
        }
        2 => Segment::Loop {
            trip: if rng.gen_bool(0.5) {
                rng.gen_range(1usize..7)
            } else {
                rng.gen_range(253usize..258)
            },
            exits: rng.gen_range(1usize..4),
        },
        _ => {
            let period = rng.gen_range(1usize..8);
            Segment::WordFlip {
                bits: (0..period).map(|_| rng.gen_bool(0.5)).collect(),
                repeats: 140 / period,
            }
        }
    }
}

/// One random composition: a few branches (PC strides from dense to
/// aliasing-heavy), each a chain of random segments, randomly
/// interleaved.
pub(crate) fn random_spec(rng: &mut StdRng) -> TraceSpec {
    const STRIDES: [u64; 3] = [4, 0x100, 0x10000];
    let stride = STRIDES[rng.gen_range(0usize..STRIDES.len())];
    let n_branches = rng.gen_range(1usize..6);
    let branches = (0..n_branches as u64)
        .map(|b| {
            let mut script = BranchScript::new(0x1000 + b * stride, Vec::new());
            if rng.gen_bool(0.3) {
                script.target = Some(0x800);
            }
            let n_segments = rng.gen_range(1usize..5);
            for _ in 0..n_segments {
                script.segments.push(random_segment(rng));
            }
            script
        })
        .collect();
    let interleave = match rng.gen_range(0u32..3) {
        0 => Interleave::RoundRobin,
        1 => Interleave::Blocks(rng.gen_range(1usize..80)),
        _ => Interleave::Shuffled(rng.gen::<u64>()),
    };
    TraceSpec {
        branches,
        interleave,
    }
}

fn random_case(rng: &mut StdRng, idx: usize) -> NamedTrace {
    NamedTrace {
        name: format!("random-{idx}"),
        trace: random_spec(rng).build(),
    }
}

/// A seeded stream of random [`TraceSpec`]s from the adversarial
/// parameter ranges — the raw material of the corpus, exposed so the
/// relocation tests can compare both emission paths on exactly the
/// specs the corpus draws from.
pub fn random_specs(seed: u64, count: usize) -> Vec<TraceSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_spec(&mut rng)).collect()
}

/// The adversarial corpus: every canned case, then random compositions
/// up to `cases` total (seeded, fully deterministic). The canned cases
/// are always included, so fewer than their count still yields them all.
/// Each random case is built when the iterator reaches it, so a caller
/// that drops each case before taking the next holds one random trace
/// at a time, beside the fixed canned set.
pub fn corpus(seed: u64, cases: usize) -> impl Iterator<Item = NamedTrace> {
    let canned = canned_cases();
    let random = cases.saturating_sub(canned.len());
    let mut rng = StdRng::seed_from_u64(seed);
    canned
        .into_iter()
        .chain((0..random).map(move |idx| random_case(&mut rng, idx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_named() {
        let a: Vec<NamedTrace> = corpus(9, 24).collect();
        let b: Vec<NamedTrace> = corpus(9, 24).collect();
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.trace.records(), y.trace.records());
        }
        let c: Vec<NamedTrace> = corpus(10, 24).collect();
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.trace.records() != y.trace.records()),
            "different seeds should differ"
        );
    }

    #[test]
    fn canned_cases_are_fourteen_and_stable() {
        let canned: Vec<NamedTrace> = corpus(0, 0).collect();
        assert_eq!(canned.len(), 14);
        let names: Vec<&str> = canned.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "run-crossing-words",
                "trip-cap-254",
                "trip-cap-255",
                "trip-cap-256",
                "ring-capacity-63",
                "ring-capacity-64",
                "ring-capacity-65",
                "word-boundary-flip",
                "tiny-1",
                "tiny-64",
                "tiny-65",
                "aliasing-low-bits",
                "correlated-copy",
                "calls-jumps-returns",
            ]
        );
    }
}
