//! The batch pipelines, driven in-process through the same
//! `Options::parse` and `run` their binaries call, each checked against a
//! committed expectation: `repro` at the quick configuration, `ablate` at
//! its defaults, a `scale` run cold and then warm on one `.bps` artifact
//! directory, and a `bp-probe` sweep of every probe family. Beside them,
//! the engine those `scale` runs call: warm on a `.bps` store, it builds
//! nothing.

use bp_core::{ClassifierConfig, OracleConfig};
use bp_experiments::artifacts::{matrix_config_fp, streams_config_fp, ArtifactStore};
use bp_experiments::{ablate, repro, scale, Engine, TraceSet};
use bp_workloads::{Benchmark, WorkloadConfig};

/// A command line, split at spaces.
fn args(line: &str) -> Vec<String> {
    line.split(' ').map(String::from).collect()
}

#[test]
fn repro_prints_the_committed_quick_golden() {
    let opts = repro::Options::parse(args("--quick --jobs 2 all")).expect("the flags parse");
    let mut out = Vec::new();
    repro::run(&opts, &mut out).expect("every experiment runs");
    if let Err(why) = repro::check_quick_golden(&String::from_utf8_lossy(&out)) {
        panic!("{why}");
    }
}

#[test]
fn ablate_prints_the_committed_golden() {
    let opts = ablate::Options::parse(Vec::new()).expect("no flags parse");
    let mut out = Vec::new();
    ablate::run(&opts, &mut out).expect("every ablation runs");
    // `ablate > tests/goldens/ablate.txt` regenerates it.
    assert_eq!(
        String::from_utf8_lossy(&out),
        include_str!("goldens/ablate.txt")
    );
}

#[test]
fn scale_prints_the_committed_summary_cold_and_warm_from_bps_artifacts() {
    let dir = std::env::temp_dir().join(format!("pipelines-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut line = args("--bench gcc --target 50k --oracle-cap 12 --jobs 2 --artifacts");
    line.push(dir.to_str().expect("a UTF-8 temp dir").to_owned());
    let opts = scale::Options::parse(line).expect("the flags parse");
    // `scale --bench gcc --target 50k --oracle-cap 12 --jobs 2`.
    let expected = include_str!("goldens/scale_gcc_50k.txt");

    let mut cold = Vec::new();
    scale::run(&opts, &mut cold).expect("the cold run builds and saves both artifacts");
    assert_eq!(String::from_utf8_lossy(&cold), expected);

    // Both artifacts reopen and validate: the warm run's input.
    let store = ArtifactStore::open(&dir).expect("open the artifact directory");
    let seed = WorkloadConfig::default().seed;
    let streams = store.load_streams("gcc", streams_config_fp("gcc", seed, 50_000));
    assert!(streams.is_some(), "the streams artifact reopens");
    let matrix = store.load_matrix("gcc", 16, 12, matrix_config_fp("gcc", seed, 50_000, 16, 12));
    assert!(matrix.is_some(), "the matrix artifact reopens");

    let mut warm = Vec::new();
    scale::run(&opts, &mut warm).expect("the warm run reopens both artifacts");
    assert_eq!(String::from_utf8_lossy(&warm), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_warm_engine_reopens_both_artifacts_and_builds_nothing() {
    let dir = std::env::temp_dir().join(format!("pipelines-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (bench, classifier) = (Benchmark::Gcc, ClassifierConfig::default());
    let oracle = OracleConfig {
        candidate_cap: 12,
        ..OracleConfig::default()
    };
    let streaming = || {
        let cfg = WorkloadConfig::default().with_target(20_000);
        Engine::new(TraceSet::new(cfg).with_streaming(), 2)
    };
    let stored = || {
        let store = ArtifactStore::open(&dir).expect("open the artifact directory");
        streaming().with_artifacts(store)
    };
    let results = |engine: &Engine| {
        (
            engine.streams(bench),
            engine.classification(bench, &classifier),
            engine.oracle(bench, &oracle),
        )
    };
    let plain = results(&streaming());

    let cold = stored();
    assert!(results(&cold) == plain, "a cold store changes no result");
    assert_eq!(cold.cache_stats().reused, 0, "a cold store reopens nothing");
    let store = ArtifactStore::open(&dir).expect("open the artifact directory");
    assert!(store.streams_path("gcc").exists(), "the streams are saved");
    assert!(
        store.matrix_path("gcc", 16, 12).exists(),
        "the matrix is saved"
    );

    let warm = stored();
    assert!(results(&warm) == plain, "reopened artifacts change nothing");
    assert_eq!(warm.cache_stats().reused, 2, "both artifacts reopen");
    let phases = warm.oracle_phase_stats();
    let builds: Vec<(u64, u64)> = phases.iter().map(|(_, p)| (p.analyses, p.builds)).collect();
    assert_eq!(builds, [(1, 0)], "the search runs on the reopened matrix");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bp_probe_sweeps_every_family_to_the_committed_golden() {
    let line = args("sweep all --rounds 600 --base random --seed 5 --jobs 2");
    let opts = bp_probe::cli::Options::parse(line).expect("the flags parse");
    let mut out = Vec::new();
    bp_probe::cli::run(&opts, &mut out).expect("the sweep runs");
    let expected = include_str!("../crates/probe/tests/goldens/sweep_all_random_seed5.txt");
    assert_eq!(String::from_utf8_lossy(&out), expected);
}
