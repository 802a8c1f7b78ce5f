//! Cross-crate integration: workloads → traces → predictors → analyses,
//! including persistence round-trips.

use correlation_predictability::core::{
    Classifier, ClassifierConfig, OutcomeMatrix, TagCandidates,
};
use correlation_predictability::predictors::{
    simulate, Gshare, GshareInterferenceFree, Hybrid, Pas, PasInterferenceFree,
};
use correlation_predictability::trace::{io, BranchProfile, BranchStreams, TraceStats};
use correlation_predictability::workloads::{Benchmark, WorkloadConfig};

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig::default().with_target(15_000)
}

#[test]
fn every_benchmark_generates_deterministically() {
    let cfg = small_cfg();
    for b in Benchmark::ALL {
        let a = b.generate(&cfg);
        let c = b.generate(&cfg);
        assert_eq!(a, c, "{b} not deterministic");
        assert!(
            a.conditional_count() >= cfg.target_branches,
            "{b} too short"
        );
        let stats = TraceStats::of(&a);
        assert!(stats.static_conditional >= 6, "{b}: {stats:?}");
        assert!(stats.backward > 0, "{b} has no loop back-edges");
    }
}

#[test]
fn traces_survive_serialization_with_identical_analysis() {
    let trace = Benchmark::Compress.generate(&small_cfg());
    let mut buf = Vec::new();
    io::write_trace(&mut buf, &trace).expect("encode");
    let back = io::read_trace(buf.as_slice()).expect("decode");
    assert_eq!(back, trace);

    // Analyses on the decoded trace match exactly.
    let a = simulate(&mut Gshare::default(), &trace);
    let b = simulate(&mut Gshare::default(), &back);
    assert_eq!(a, b);
    let pa = BranchProfile::of(&trace);
    let pb = BranchProfile::of(&back);
    assert_eq!(pa.ideal_static_correct(), pb.ideal_static_correct());
}

#[test]
fn hybrid_rivals_its_best_component_everywhere() {
    let cfg = small_cfg();
    for b in Benchmark::ALL {
        let trace = b.generate(&cfg);
        let g = simulate(&mut Gshare::default(), &trace);
        let p = simulate(&mut Pas::default(), &trace);
        let h = simulate(
            &mut Hybrid::new(Gshare::default(), Pas::default(), 12),
            &trace,
        );
        let best = g.accuracy().max(p.accuracy());
        assert!(
            h.accuracy() > best - 0.02,
            "{b}: hybrid {:.3} vs best component {:.3}",
            h.accuracy(),
            best
        );
    }
}

#[test]
fn interference_free_wins_on_aggregate() {
    // Per-benchmark the idealization can tie, but summed over the suite the
    // interference-free predictors must not lose to their aliased twins.
    let cfg = small_cfg();
    let (mut g, mut ig, mut p, mut ip) = (0u64, 0u64, 0u64, 0u64);
    for b in Benchmark::ALL {
        let trace = b.generate(&cfg);
        g += simulate(&mut Gshare::default(), &trace).correct;
        ig += simulate(&mut GshareInterferenceFree::default(), &trace).correct;
        p += simulate(&mut Pas::default(), &trace).correct;
        ip += simulate(&mut PasInterferenceFree::default(), &trace).correct;
    }
    assert!(ig >= g, "IF gshare {ig} vs gshare {g}");
    // IF PAs can lose to PAs through training time (the paper itself shows
    // this for gcc in Table 3) but not by much.
    assert!(ip * 100 >= p * 98, "IF pas {ip} vs pas {p}");
}

#[test]
fn classification_is_stable_across_reruns() {
    let trace = Benchmark::M88ksim.generate(&small_cfg());
    let a = Classifier::classify(&trace, &ClassifierConfig::default());
    let b = Classifier::classify(&trace, &ClassifierConfig::default());
    for (pc, sa) in a.iter() {
        assert_eq!(b.get(pc), Some(sa));
    }
}

#[test]
fn benchmark_names_parse_back() {
    for b in Benchmark::ALL {
        assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
    }
}

#[test]
fn streams_read_off_an_oracle_matrix_equal_a_stream_build() {
    // Pass 1 ranks every conditional branch and pass 2 packs each ranked
    // one's outcome plane, candidate columns or not, so a matrix holds
    // the §4 streams whatever its window. xlisp records calls and
    // returns, which enter neither.
    let cfg = WorkloadConfig::default().with_target(40_000);
    let xlisp = TraceStats::of(&Benchmark::Xlisp.generate(&cfg));
    assert!(xlisp.other_transfers > 0, "{xlisp:?}");
    for b in Benchmark::ALL {
        let trace = b.generate(&cfg);
        let direct = BranchStreams::of(&trace);
        for window in [1, 16, 64] {
            let candidates = TagCandidates::collect(&trace, window, 12);
            let matrix = OutcomeMatrix::build(&trace, &candidates, window);
            assert!(matrix.streams() == direct, "{b} at window {window}");
        }
    }
}
