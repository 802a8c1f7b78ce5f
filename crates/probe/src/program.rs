//! Probe programs: synthetic traces with designated measurement points.
//!
//! Each probe is a tiny program written in the [`bp_trace::script`] DSL
//! whose *structure* encodes one question about a predictor ("how deep is
//! your history?", "how many PC bits do you index with?") and whose
//! *measured positions* isolate the branch that answers it. The rest of
//! the trace — trigger branches, padding branches, loop bodies — exists
//! only to manipulate the predictor's internal state, exactly like the
//! always-taken padding branches of the hardware probes this mirrors
//! (SNIPPETS.md §1–2, eigenform/perfect).
//!
//! A predictor is simulated over the *whole* trace (it predicts and
//! trains on every conditional, like hardware would), but accuracy is
//! scored only at the measured positions. That separation is the whole
//! point: `simulate_per_branch` can't express it when probe roles share
//! a PC (the local echo probe) or when padding accuracy would drown the
//! signal (it's ~100% by construction).

use bp_predictors::{BranchSite, PredictionStats, Predictor};
use bp_trace::script::{BranchScript, Interleave, Segment, TraceSpec};
use bp_trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the global padding probe's trigger outcome sequence is drawn.
/// (The local echo probe always draws random outcomes — see
/// [`padding_local`] for why a periodic base is unusable there.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseOutcomes {
    /// The fixed period-5 pattern `T N N T N`: five distinct history
    /// phases, so a two-level predictor trains in tens of rounds and the
    /// capacity cliff is sharp. No two consecutive takens, so the
    /// trigger never counterfeits the all-taken history the padding
    /// writes — the collision entry stays non-destructive.
    Pattern,
    /// Seeded fair-coin outcomes: within the history window every
    /// uncovered trigger bit doubles the number of PHT entries to train,
    /// so accuracy below the cliff is diluted by warmup — the paper's
    /// training-time effect (§3.6.3), measurable here as the gap between
    /// the two base modes.
    Random,
}

impl BaseOutcomes {
    /// CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            BaseOutcomes::Pattern => "pattern",
            BaseOutcomes::Random => "random",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pattern" => Some(BaseOutcomes::Pattern),
            "random" => Some(BaseOutcomes::Random),
            _ => None,
        }
    }

    /// One trigger outcome per round.
    fn bits(self, rounds: usize, seed: u64) -> Vec<bool> {
        match self {
            BaseOutcomes::Pattern => {
                const PERIOD: [bool; 5] = [true, false, false, true, false];
                (0..rounds).map(|i| PERIOD[i % PERIOD.len()]).collect()
            }
            BaseOutcomes::Random => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..rounds).map(|_| rng.gen_bool(0.5)).collect()
            }
        }
    }
}

/// A built probe: the full trace plus the mask of measured positions.
#[derive(Debug, Clone)]
pub struct ProbeTrace {
    /// The complete dynamic trace (every conditional trains the
    /// predictor).
    pub trace: Trace,
    /// `measured[i]` marks record `i` as scored.
    pub measured: Vec<bool>,
}

impl ProbeTrace {
    fn new(spec: &TraceSpec, measured: impl Fn(usize, &bp_trace::BranchRecord) -> bool) -> Self {
        let trace = spec.build();
        let marks = trace
            .records()
            .iter()
            .enumerate()
            .map(|(i, r)| measured(i, r))
            .collect();
        ProbeTrace {
            trace,
            measured: marks,
        }
    }

    /// Number of measured positions.
    pub fn measured_count(&self) -> usize {
        self.measured.iter().filter(|&&m| m).count()
    }
}

/// PC layout shared by the probe builders. Chosen so no two probe roles
/// collide in any finite table of the zoo's reference configurations:
/// after the `pc >> 2` index drop, trigger/probe/pad indices stay
/// distinct modulo the 1024-entry PAs BHT (pads stride 16 from 0x800,
/// trigger and probe land on odd indices pads can't reach).
const TRIGGER_PC: u64 = 0x1008;
const PROBE_PC: u64 = 0x9004;
const PAD_BASE_PC: u64 = 0x2000;
const LOCAL_PC: u64 = 0x3004;
const LOOP_PC: u64 = 0x5004;
const ALIAS_PC: u64 = 0x4000;

/// Correlated pair with global padding — the eigenform/perfect probe.
///
/// Each round executes a *trigger* branch (outcome from `base`), `pads`
/// distinct always-taken padding branches, then a *probe* branch that
/// copies the trigger. The probe is perfectly correlated with an outcome
/// `pads + 1` branches back in global history: a global-history
/// predictor with `h` bits sees the trigger while `pads <= h - 1` and
/// predicts the probe near-perfectly; at `pads = h` the trigger falls
/// off the end of the window, every round presents the same all-taken
/// history, and the probe collapses to its unconditional (majority)
/// rate. Per-address predictors never see the padding in the probe's
/// own history, so they stay flat — their capacity is measured by
/// [`padding_local`] instead.
pub fn padding_global(pads: usize, rounds: usize, base: BaseOutcomes, seed: u64) -> ProbeTrace {
    let bits = base.bits(rounds, seed);
    let mut branches = Vec::with_capacity(pads + 2);
    branches.push(BranchScript::new(
        TRIGGER_PC,
        vec![Segment::Pattern {
            bits: bits.clone(),
            repeats: 1,
        }],
    ));
    for i in 0..pads as u64 {
        branches.push(BranchScript::new(
            PAD_BASE_PC + (i << 6),
            vec![Segment::Run {
                taken: true,
                len: rounds,
            }],
        ));
    }
    branches.push(BranchScript::new(
        PROBE_PC,
        vec![Segment::Pattern { bits, repeats: 1 }],
    ));
    let spec = TraceSpec {
        branches,
        interleave: Interleave::RoundRobin,
    };
    ProbeTrace::new(&spec, |_, r| r.pc == PROBE_PC)
}

/// Single-PC echo probe — the per-address mirror of [`padding_global`].
///
/// One branch executes, per round: a *trigger* outcome, `pads`
/// always-taken outcomes, then an *echo* of the trigger. Only the echo
/// positions are measured. The echo correlates with its own history
/// `pads + 1` outcomes back, so a per-address predictor with `h` bits
/// of self-history cliffs at exactly `pads = h` — and since global
/// history equals self-history on a single-branch trace, global
/// predictors cliff at their own depth on the same program.
///
/// The trigger is always a seeded fair coin, never the periodic
/// [`BaseOutcomes::Pattern`]: with every probe role sharing one PC, a
/// periodic base makes the whole stream periodic in `pads + 2`, and at
/// resonant `pads` values a padding position presents the same history
/// window as an echo with the opposite outcome — a mid-grid accuracy
/// dip all the way to the majority floor, i.e. an adjacent drop as
/// large as the true capacity cliff, which blinds the largest-drop
/// detector. A random base turns those collision entries into mixed
/// 50/50 traffic whose damage stays well below the cliff drop
/// (measured: dips ~25pp vs a ~34pp cliff, at every depth). Past the
/// cliff the echo entry is polluted by padding outcomes and accuracy
/// settles at the ~50% taken rate.
pub fn padding_local(pads: usize, rounds: usize, seed: u64) -> ProbeTrace {
    let bits = BaseOutcomes::Random.bits(rounds, seed);
    let mut segments = Vec::with_capacity(rounds * 3);
    for &b in &bits {
        segments.push(Segment::Pattern {
            bits: vec![b],
            repeats: 1,
        });
        if pads > 0 {
            segments.push(Segment::Run {
                taken: true,
                len: pads,
            });
        }
        segments.push(Segment::Pattern {
            bits: vec![b],
            repeats: 1,
        });
    }
    let spec = TraceSpec {
        branches: vec![BranchScript::new(LOCAL_PC, segments)],
        interleave: Interleave::RoundRobin,
    };
    let period = pads + 2;
    ProbeTrace::new(&spec, |i, _| i % period == period - 1)
}

/// Loop-trip history-capacity probe.
///
/// A single loop branch: `trip` taken iterations then one not-taken
/// exit, repeated. Only the exits are measured. While `trip <= h` the
/// all-taken history of length `trip` is *unique* to the position just
/// before the exit, so the exit is perfectly predictable; at
/// `trip = h + 1` a mid-loop iteration presents the same saturated
/// all-taken history with a *taken* outcome, the entry thrashes, and
/// exit accuracy collapses. The cliff therefore lands at `h + 1` and
/// the report derives `capacity = cliff - 1`. (This is the
/// `pas_cannot_predict_long_loop_exits` physics, swept.)
pub fn history_loop(trip: usize, rounds: usize) -> ProbeTrace {
    let exits = (rounds / (trip + 1)).max(64);
    let spec = TraceSpec {
        branches: vec![BranchScript::new(
            LOOP_PC,
            vec![Segment::Loop { trip, exits }],
        )],
        interleave: Interleave::RoundRobin,
    };
    let period = trip + 1;
    ProbeTrace::new(&spec, |i, _| i % period == period - 1)
}

/// PC-aliasing probe: two anti-correlated branches at addresses that
/// differ only in bit `k` of the word-dropped PC index.
///
/// Branch A (always taken) sits at a base address; branch B (always not
/// taken) sits `4 << k` bytes above it, so after the `pc >> 2` drop
/// their indices differ by exactly `1 << k`. A bimodal table with
/// `index_bits` PC bits keeps them apart while `k < index_bits`; at
/// `k = index_bits` the bit wraps, both branches hash to one two-bit
/// counter, and the strictly alternating taken/not-taken stream pins it
/// between the weak states — accuracy halves. Two-level predictors are
/// immune: their history registers differ at the two branches even when
/// the PC bits collide, which is the paper's argument for why history
/// disambiguates what the PC cannot. Both branches are measured.
pub fn aliasing(k: u32, rounds: usize) -> ProbeTrace {
    let spec = TraceSpec {
        branches: vec![
            BranchScript::new(
                ALIAS_PC,
                vec![Segment::Run {
                    taken: true,
                    len: rounds,
                }],
            ),
            BranchScript::new(
                ALIAS_PC + (4u64 << k),
                vec![Segment::Run {
                    taken: false,
                    len: rounds,
                }],
            ),
        ],
        interleave: Interleave::RoundRobin,
    };
    ProbeTrace::new(&spec, |_, _| true)
}

/// Simulates `predictor` over the whole probe trace — predicting and
/// training on every conditional — scoring only the measured positions.
pub fn simulate_measured(predictor: &mut dyn Predictor, probe: &ProbeTrace) -> PredictionStats {
    let mut stats = PredictionStats::default();
    for (rec, &measured) in probe.trace.records().iter().zip(&probe.measured) {
        if !rec.is_conditional() {
            continue;
        }
        let prediction = predictor.predict_update(BranchSite::from(rec), rec.taken);
        if measured {
            stats.record(prediction == rec.taken);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::{Gshare, Pas, Smith};

    #[test]
    fn padding_global_measures_only_the_probe_branch() {
        let p = padding_global(3, 100, BaseOutcomes::Pattern, 1);
        assert_eq!(p.trace.conditional_count(), 5 * 100);
        assert_eq!(p.measured_count(), 100);
        for (rec, &m) in p.trace.records().iter().zip(&p.measured) {
            assert_eq!(m, rec.pc == PROBE_PC);
        }
    }

    #[test]
    fn gshare_padding_cliff_is_exactly_history_depth() {
        let acc = |pads: usize| {
            let probe = padding_global(pads, 2000, BaseOutcomes::Pattern, 1);
            simulate_measured(&mut Gshare::new(6), &probe).accuracy()
        };
        assert!(acc(5) > 0.95, "pads=h-1 visible: {}", acc(5));
        assert!(acc(6) < 0.7, "pads=h collapsed: {}", acc(6));
    }

    #[test]
    fn pas_is_flat_on_global_padding_but_cliffs_on_local_echo() {
        let global = |pads: usize| {
            let probe = padding_global(pads, 2000, BaseOutcomes::Pattern, 1);
            simulate_measured(&mut Pas::new(6, 10, 4), &probe).accuracy()
        };
        assert!(
            global(5) > 0.95 && global(10) > 0.95,
            "self-history sees no padding"
        );
        let local = |pads: usize| {
            let probe = padding_local(pads, 2000, 1);
            simulate_measured(&mut Pas::new(6, 10, 4), &probe).accuracy()
        };
        assert!(local(5) > 0.95, "pads=h-1 visible: {}", local(5));
        assert!(local(6) < 0.8, "pads=h collapsed: {}", local(6));
    }

    #[test]
    fn loop_capacity_cliff_is_history_plus_one() {
        let acc = |trip: usize| {
            let probe = history_loop(trip, 4000);
            simulate_measured(&mut Pas::new(6, 10, 4), &probe).accuracy()
        };
        assert!(acc(6) > 0.95, "trip=h unique history: {}", acc(6));
        assert!(acc(7) < 0.6, "trip=h+1 thrashes: {}", acc(7));
    }

    #[test]
    fn aliasing_cliff_is_smith_index_width() {
        let acc = |k: u32| {
            let probe = aliasing(k, 1000);
            simulate_measured(&mut Smith::new(8), &probe).accuracy()
        };
        assert!(acc(7) > 0.99, "distinct counters: {}", acc(7));
        assert!(acc(8) < 0.6, "collided counter thrashes: {}", acc(8));
    }

    #[test]
    fn base_outcomes_are_deterministic_per_seed() {
        assert_eq!(
            BaseOutcomes::Random.bits(64, 9),
            BaseOutcomes::Random.bits(64, 9)
        );
        assert_ne!(
            BaseOutcomes::Random.bits(64, 9),
            BaseOutcomes::Random.bits(64, 10)
        );
        let pattern = BaseOutcomes::Pattern.bits(10, 0);
        assert_eq!(pattern.iter().filter(|&&b| b).count(), 4, "2-of-5 taken");
    }
}
