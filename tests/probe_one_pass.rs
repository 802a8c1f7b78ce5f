//! The probe sweep steps the whole zoo in one pass over each probe
//! trace. Its statistics must equal the per-member path — each boxed
//! member of `ZooConfig::build` driven through `simulate_measured` — as
//! counts, not as rendered percentages, on every probe family.

use bp_predictors::PredictionStats;
use bp_probe::{
    aliasing, history_loop, padding_global, padding_local, simulate_measured, BaseOutcomes,
    ProbeTrace, Zoo, ZooConfig,
};

/// A small geometry whose cliffs fall inside the tiny grids below.
fn small_zoo() -> ZooConfig {
    ZooConfig {
        gshare_bits: 5,
        gas_bits: (4, 2),
        pas_bits: (4, 6, 2),
        if_pas_bits: 4,
        smith_bits: 6,
        tage: (1, 6),
        perceptron_bits: 6,
    }
}

fn assert_one_pass_matches_per_member(zoo: &ZooConfig, probe: &ProbeTrace, what: &str) {
    let one_pass: [PredictionStats; Zoo::LEN] = zoo.members(probe).simulate_measured(probe);
    let per_member: Vec<PredictionStats> = zoo
        .build(probe)
        .iter_mut()
        .map(|p| simulate_measured(p.as_mut(), probe))
        .collect();
    assert_eq!(one_pass[..], per_member[..], "{what}");
    let measured = probe.measured_count() as u64;
    assert!(
        one_pass.iter().all(|s| s.predictions == measured),
        "{what}: every member scores every measured position"
    );
}

#[test]
fn one_pass_equals_the_per_member_path_on_every_family() {
    for zoo in [ZooConfig::default(), small_zoo()] {
        for pads in [0, 1, 5, 16, 33, 36] {
            for base in [BaseOutcomes::Pattern, BaseOutcomes::Random] {
                let probe = padding_global(pads, 300, base, 11);
                assert_one_pass_matches_per_member(
                    &zoo,
                    &probe,
                    &format!("global {pads} {base:?}"),
                );
            }
            let probe = padding_local(pads, 300, 11);
            assert_one_pass_matches_per_member(&zoo, &probe, &format!("local {pads}"));
        }
        for trip in [1, 2, 12, 17, 36] {
            let probe = history_loop(trip, 1500);
            assert_one_pass_matches_per_member(&zoo, &probe, &format!("loop {trip}"));
        }
        for bit in [0, 5, 6, 12, 16] {
            let probe = aliasing(bit, 300);
            assert_one_pass_matches_per_member(&zoo, &probe, &format!("aliasing {bit}"));
        }
    }
}
