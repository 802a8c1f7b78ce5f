//! Integration tests for the probe report: the default padding sweep and
//! a random-base sweep of every family are pinned byte-for-byte against
//! committed goldens (the same bytes `bp-probe` prints and CI diffs), and
//! the report is identical whatever `--jobs` value fanned the grid out.

use bp_probe::{run_probes, BaseOutcomes, ProbeKind, ReportConfig};

const ALL_KINDS: &[ProbeKind] = &[
    ProbeKind::PaddingGlobal,
    ProbeKind::PaddingLocal,
    ProbeKind::HistoryLoop,
    ProbeKind::Aliasing,
];

const PADDING_KINDS: &[ProbeKind] = &[ProbeKind::PaddingGlobal, ProbeKind::PaddingLocal];

#[test]
fn default_padding_sweep_matches_the_committed_golden() {
    let report = run_probes(PADDING_KINDS, &ReportConfig::default());
    let golden = include_str!("goldens/sweep_padding.txt");
    assert_eq!(
        report.render(),
        golden,
        "default `bp-probe sweep padding` output drifted from the golden; \
         if the change is intentional, regenerate \
         crates/probe/tests/goldens/sweep_padding.txt"
    );
}

/// `bp-probe sweep all --rounds 600 --base random --seed 5`: the only pin
/// of the random base and of the local, history and aliasing families.
#[test]
fn random_base_sweep_of_every_family_matches_the_committed_golden() {
    let mut cfg = ReportConfig::default();
    cfg.sweep.rounds = 600;
    cfg.sweep.base = BaseOutcomes::Random;
    cfg.sweep.seed = 5;
    cfg.sweep.jobs = 3;
    let golden = include_str!("goldens/sweep_all_random_seed5.txt");
    assert_eq!(
        run_probes(ALL_KINDS, &cfg).render(),
        golden,
        "`bp-probe sweep all --rounds 600 --base random --seed 5` drifted from \
         crates/probe/tests/goldens/sweep_all_random_seed5.txt"
    );
}

#[test]
fn default_cliffs_land_at_the_configured_depths() {
    let report = run_probes(PADDING_KINDS, &ReportConfig::default());
    report
        .check_assertion("gshare(16)", 16)
        .expect("gshare cliffs at its global history depth");
    report
        .check_assertion("pas(12,10,4)", 12)
        .expect("pas cliffs at its per-address history depth");
    report
        .check_assertion("gas(12,4)", 12)
        .expect("gas cliffs at its global history depth");
}

#[test]
fn report_bytes_are_identical_across_jobs() {
    let config = |jobs: usize| {
        let mut cfg = ReportConfig::default();
        cfg.sweep.rounds = 600;
        cfg.sweep.jobs = jobs;
        cfg.padding_grid = (0..=10).collect();
        cfg
    };
    let serial = run_probes(PADDING_KINDS, &config(1)).render();
    let fanned = run_probes(PADDING_KINDS, &config(4)).render();
    assert_eq!(serial, fanned, "sweep fan-out must not reorder the grid");
}
