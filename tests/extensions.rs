//! Integration tests for the beyond-the-paper extensions: the predictor
//! zoo on real workloads, out-of-sample selective prediction, scripted
//! single-behavior branches driving the classifier and the oracle, and
//! the interference accounting.

use correlation_predictability::core::{
    Classifier, ClassifierConfig, MispredictProfile, OracleConfig, OracleSelector, PaClass,
    SelectivePredictor,
};
use correlation_predictability::predictors::{
    simulate, ClassHybrid, Gag, Gshare, Gskew, InterferenceGshare, Pag, StaticPhtGshare,
};
use correlation_predictability::trace::script::{BranchScript, Interleave, Segment, TraceSpec};
use correlation_predictability::trace::{BranchProfile, Pc, Trace};
use correlation_predictability::workloads::{Benchmark, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn predictor_zoo_runs_on_every_workload() {
    let cfg = WorkloadConfig::default().with_target(8_000);
    for b in Benchmark::ALL {
        let trace = b.generate(&cfg);
        let profile = BranchProfile::of(&trace);
        let n = trace.conditional_count() as u64;
        let results = [
            simulate(&mut Gag::default(), &trace),
            simulate(&mut Pag::default(), &trace),
            simulate(&mut Gskew::default(), &trace),
            simulate(&mut InterferenceGshare::new(12), &trace),
            simulate(
                &mut ClassHybrid::new(Gshare::default(), &profile, 0.95),
                &trace,
            ),
            simulate(&mut StaticPhtGshare::profile(&trace, 12), &trace),
        ];
        for r in results {
            assert_eq!(r.predictions, n, "{b}");
            assert!(r.accuracy() > 0.5, "{b}: {r:?}");
        }
    }
}

#[test]
fn oracle_selections_generalize_out_of_sample() {
    // Train the oracle on the first half of a workload, run the live
    // selective predictor on the second half: it must stay well above the
    // static baseline of the unseen half.
    let cfg = WorkloadConfig::default().with_target(60_000);
    let full = Benchmark::Compress.generate(&cfg);
    let mid = full.len() / 2;
    let train = full.slice(0, mid);
    let test = full.slice(mid, full.len());

    let oracle_cfg = OracleConfig::default();
    let oracle = OracleSelector::analyze(&train, &oracle_cfg);
    let mut live = SelectivePredictor::from_oracle(&oracle, 3, &oracle_cfg);
    let out_of_sample = simulate(&mut live, &test).accuracy();
    let static_floor = BranchProfile::of(&test).ideal_static_accuracy();
    assert!(
        out_of_sample > static_floor,
        "out-of-sample {out_of_sample} vs static {static_floor}"
    );
    // And it retains most of its in-sample level.
    assert!(out_of_sample > oracle.accuracy(3) - 0.03);
}

/// PC of the first scripted branch; the rest follow 4 bytes apart.
const BASE: Pc = 0x0100_0000;

/// One branch per segment, round-robin interleaved.
fn scripted(segments: Vec<Segment>) -> Trace {
    TraceSpec {
        branches: (0..)
            .zip(segments)
            .map(|(i, segment)| BranchScript::new(BASE + i * 4, vec![segment]))
            .collect(),
        interleave: Interleave::RoundRobin,
    }
    .build()
}

#[test]
fn micro_patterns_classify_as_designed() {
    // Each isolated single-branch behavior must land in its §4 class.
    let mut rng = StdRng::seed_from_u64(3);
    let biased: Vec<bool> = (0..6_000).map(|_| rng.gen_bool(0.995)).collect();
    let cases = [
        (
            Segment::Loop {
                trip: 30,
                exits: 194,
            },
            PaClass::Loop,
        ),
        (
            Segment::Pattern {
                bits: vec![true, true, false, true, false],
                repeats: 1_200,
            },
            PaClass::RepeatingPattern,
        ),
        (
            Segment::Pattern {
                bits: biased,
                repeats: 1,
            },
            PaClass::IdealStatic,
        ),
    ];
    for (segment, expected) in cases {
        let trace = scripted(vec![segment.clone()]);
        let classification = Classifier::classify(&trace, &ClassifierConfig::default());
        let scores = classification
            .get(BASE)
            .expect("scripted branch classified");
        assert_eq!(scores.class(), expected, "{segment:?}: {scores:?}");
    }
}

#[test]
fn micro_correlated_pair_is_found_by_the_oracle() {
    // Each round: a random leader, six random noise branches, then a
    // follower that repeats the leader.
    let mut rng = StdRng::seed_from_u64(9);
    let rounds: Vec<[bool; 7]> = (0..3_750)
        .map(|_| std::array::from_fn(|_| rng.gen_bool(0.5)))
        .collect();
    let column = |b: usize| Segment::Pattern {
        bits: rounds.iter().map(|round| round[b]).collect(),
        repeats: 1,
    };
    let trace = scripted((0..7).chain([0]).map(column).collect());
    let oracle = OracleSelector::analyze(&trace, &OracleConfig::default());
    let follower = BASE + 7 * 4;
    let sel = oracle.selection(follower).expect("follower analyzed");
    let acc = sel.best[0].correct as f64 / sel.executions as f64;
    assert!(acc > 0.95, "1-tag accuracy on follower {acc}");
    assert_eq!(sel.best[0].tags[0].pc, BASE);
}

#[test]
fn interference_accounting_is_consistent_on_workloads() {
    let cfg = WorkloadConfig::default().with_target(20_000);
    let trace = Benchmark::Gcc.generate(&cfg);
    let mut p = InterferenceGshare::new(12);
    let r = simulate(&mut p, &trace);
    let s = p.stats();
    assert_eq!(s.total(), r.predictions);
    assert!(s.interference_rate() > 0.0, "gcc must alias at 2^12");
}

#[test]
fn warmup_profile_agrees_with_simulate() {
    let cfg = WorkloadConfig::default().with_target(10_000);
    let trace = Benchmark::Perl.generate(&cfg);
    let profile = MispredictProfile::measure(&mut Gshare::default(), &trace);
    let plain = simulate(&mut Gshare::default(), &trace);
    assert_eq!(profile.mispredictions(), plain.mispredictions());
    assert!((profile.accuracy() - plain.accuracy()).abs() < 1e-12);
}
