//! The fused simulation step, `Predictor::predict_update`, must be
//! indistinguishable from `predict` followed by `update`: every simulated
//! statistic in the workspace rests on that. Each predictor that
//! overrides the step is driven through it next to a fresh twin driven
//! through the two calls, and every per-step prediction must agree.

use proptest::prelude::*;

use bp_predictors::{
    simulate, simulate_batch, simulate_per_branch, BranchSite, Gas, Gshare, GshareInterferenceFree,
    IdealStatic, Pas, PasInterferenceFree, Perceptron, Predictor, Smith, Tage,
};
use bp_probe::{padding_global, simulate_measured, BaseOutcomes, ZooConfig};
use bp_trace::{BranchProfile, Trace};
use bp_workloads::{Benchmark, WorkloadConfig};

/// The probe zoo at its default geometry (pinned against
/// [`ZooConfig::labels`] below), plus the other predictors whose step is
/// fused and their degenerate or extreme geometries: TAGE with no tagged
/// table and with a 64-bit-history table, perceptrons with 0 and 1
/// history bits.
fn fused_predictors(trace: &Trace) -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(Smith::new(12)),
        Box::new(Gshare::new(16)),
        Box::new(Gas::new(12, 4)),
        Box::new(Pas::new(12, 10, 4)),
        Box::new(PasInterferenceFree::new(12)),
        Box::new(Tage::new(4, 12)),
        Box::new(Perceptron::new(32)),
        Box::new(IdealStatic::from_profile(&BranchProfile::of(trace))),
        Box::new(GshareInterferenceFree::new(16)),
        Box::new(Tage::new(0, 8)),
        Box::new(Tage::new(5, 8)),
        Box::new(Perceptron::new(0)),
        Box::new(Perceptron::new(1)),
    ]
}

/// Drives a fresh instance of every predictor both ways over `trace` and
/// returns the first disagreement as `(name, step)`.
fn first_divergence(trace: &Trace) -> Option<(String, usize)> {
    let fused = fused_predictors(trace);
    let split = fused_predictors(trace);
    for (mut fused, mut split) in fused.into_iter().zip(split) {
        for (step, rec) in trace.conditionals().enumerate() {
            let site = BranchSite::from(rec);
            let expected = split.predict(site);
            split.update(site, rec.taken);
            if fused.predict_update(site, rec.taken) != expected {
                return Some((fused.name(), step));
            }
        }
        // The trained states must agree too, seen through a final
        // prediction at every site.
        for rec in trace.conditionals() {
            let site = BranchSite::from(rec);
            if fused.predict(site) != split.predict(site) {
                return Some((fused.name(), trace.conditional_count()));
            }
        }
    }
    None
}

#[test]
fn the_default_zoo_is_covered() {
    let probe = padding_global(1, 20, BaseOutcomes::Pattern, 1);
    let names: Vec<String> = fused_predictors(&probe.trace)
        .iter()
        .map(|p| p.name())
        .collect();
    assert_eq!(names[..8], ZooConfig::default().labels()[..]);
    assert_eq!(names[10], "tage(5,64,8)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_step_matches_predict_then_update(
        trace in bp_trace::testgen::arb_trace(24, 0x1000, 0..600)
    ) {
        prop_assert_eq!(first_divergence(&trace), None);
    }
}

#[test]
fn fused_step_matches_on_a_workload_trace() {
    let trace = Benchmark::Gcc.generate(&WorkloadConfig::default().with_target(20_000));
    assert_eq!(first_divergence(&trace), None);

    // Correct predictions out of gcc's 22 542 conditionals, recorded with
    // the from-scratch TAGE fold and the two-call step. Both sides of the
    // equivalence above share the folded registers, so these pins are
    // what catches a register that drifts from the fold.
    let pinned = [
        ("smith(12)", 19016),
        ("gshare(16)", 19179),
        ("gas(12,4)", 18816),
        ("pas(12,10,4)", 19559),
        ("if-pas(12)", 19647),
        ("tage(4,32,12)", 20265),
        ("perceptron(32)", 19718),
        ("ideal-static", 19609),
        ("if-gshare(16)", 19350),
        ("tage(0,0,8)", 19016),
        ("tage(5,64,8)", 20411),
        ("perceptron(0)", 19470),
        ("perceptron(1)", 19510),
    ];
    assert_eq!(trace.conditional_count(), 22_542);
    for (mut p, (name, correct)) in fused_predictors(&trace).into_iter().zip(pinned) {
        assert_eq!(
            (p.name(), simulate(&mut p, &trace).correct),
            (name.to_owned(), correct)
        );
    }
}

/// Answers only through the fused step: a driver that falls back to
/// `predict` + `update` — or a `Box` that forgets to forward — panics.
struct FusedOnly;

impl Predictor for FusedOnly {
    fn name(&self) -> String {
        "fused-only".to_owned()
    }

    fn predict(&self, _site: BranchSite) -> bool {
        panic!("driver called predict instead of predict_update")
    }

    fn update(&mut self, _site: BranchSite, _taken: bool) {
        panic!("driver called update instead of predict_update")
    }

    fn predict_update(&mut self, _site: BranchSite, _taken: bool) -> bool {
        true
    }
}

#[test]
fn every_driver_takes_the_fused_step_through_a_box() {
    let probe = padding_global(2, 30, BaseOutcomes::Pattern, 1);
    let trace = &probe.trace;
    let n = trace.conditional_count() as u64;
    let mut boxed: Box<dyn Predictor> = Box::new(FusedOnly);
    assert_eq!(simulate(&mut boxed, trace).predictions, n);
    assert_eq!(
        simulate_per_branch(&mut boxed, trace).total().predictions,
        n
    );
    let batch = simulate_batch(&mut [boxed], trace);
    assert_eq!(batch[0].total().predictions, n);
    let measured = simulate_measured(&mut Box::new(FusedOnly), &probe);
    assert_eq!(measured.predictions, probe.measured_count() as u64);
}
