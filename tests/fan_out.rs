//! Every fan-out built on `bp_trace::par_map` must give the same answer
//! at any thread count. Each one runs at jobs 1, 2 and 7 on small
//! targets, and the jobs-2 and jobs-7 results must equal the jobs-1
//! result: experiments through a prewarmed engine (benchmark fan-out,
//! trace generation, the oracle search and the sweep materialization
//! inside it), the three bp-core parallel kernels (whose one-job call
//! is also their serial entry point), and a probe sweep. The streamed `BranchStreams` build, on
//! which the classifier runs, is checked against its in-memory twin.

use bp_core::{
    Classifier, ClassifierConfig, OracleConfig, OracleSelector, OutcomeMatrix, SweepMatrix,
    TagCandidates,
};
use bp_experiments::{run_experiment, Engine, ExperimentConfig, TraceSet};
use bp_probe::{run_sweep, ProbeKind, SweepConfig, ZooConfig};
use bp_trace::{BranchStreams, Trace};
use bp_workloads::{Benchmark, WorkloadConfig};

const JOBS: [usize; 3] = [1, 2, 7];

fn workload() -> WorkloadConfig {
    WorkloadConfig::default().with_target(3_000)
}

#[test]
fn experiments_and_traces_are_identical_at_every_job_count() {
    let cfg = ExperimentConfig {
        workload: workload(),
        ..ExperimentConfig::default()
    };
    let runs: Vec<(Vec<String>, Vec<Trace>)> = JOBS
        .iter()
        .map(|&jobs| {
            let engine = Engine::new(TraceSet::new(cfg.workload), jobs);
            engine.prewarm(&cfg);
            // fig5 first: its window sweep then already holds fig4's
            // window-16 oracle, which spares a debug build one matrix pass.
            let rendered = ["fig5", "fig4", "fig6"]
                .iter()
                .map(|id| run_experiment(id, &cfg, &engine).expect("known experiment"))
                .collect();
            let traces = Benchmark::ALL
                .iter()
                .map(|&b| (*engine.trace(b)).clone())
                .collect();
            (rendered, traces)
        })
        .collect();
    for (jobs, run) in JOBS.iter().zip(&runs) {
        assert!(
            run.0 == runs[0].0,
            "jobs {jobs}: rendered experiments differ"
        );
        assert!(run.1 == runs[0].1, "jobs {jobs}: generated traces differ");
    }
}

#[test]
fn parallel_kernels_match_their_serial_twins() {
    let trace = Benchmark::Gcc.generate(&workload());
    let streams = BranchStreams::of(&trace);
    let ccfg = ClassifierConfig::default();
    let ocfg = OracleConfig::default();
    let (window, cap) = (ocfg.window, ocfg.candidate_cap);
    let cands = TagCandidates::collect(&trace, window, cap);
    let matrix = OutcomeMatrix::build(&trace, &cands, window);
    let (windows, caps) = ([8, 16], [32, 48]);
    let sweep = SweepMatrix::build(&trace, &windows, &caps);

    // xlisp records calls and returns, which the streamed build must skip
    // as `BranchStreams::of` does.
    let xlisp = Benchmark::Xlisp.generate(&workload());
    let got = BranchStreams::from_source_sharded(&xlisp, 1).expect("in-memory scan");
    assert!(got == BranchStreams::of(&xlisp), "streamed xlisp streams");

    let classification = Classifier::classify_streams(&streams, &ccfg);
    let oracle = OracleSelector::analyze_matrix(&matrix, &ocfg);
    for jobs in JOBS {
        let (got, _) = Classifier::classify_streams_parallel(&streams, &ccfg, jobs);
        assert_eq!(got, classification, "jobs {jobs}: classification");

        let got = OracleSelector::analyze_matrix_parallel(&matrix, &ocfg, jobs);
        assert_eq!(got.branch_count(), oracle.branch_count(), "jobs {jobs}");
        for (pc, want) in oracle.iter() {
            assert_eq!(got.selection(pc), Some(want), "jobs {jobs}: oracle {pc:#x}");
        }

        for i in 0..sweep.windows().len() {
            assert!(
                sweep.materialize_parallel(i, jobs) == sweep.materialize(i),
                "jobs {jobs}: sweep point {i}"
            );
        }
    }
}

#[test]
fn probe_sweeps_are_identical_at_every_job_count() {
    let zoo = ZooConfig::default();
    let grid: Vec<usize> = (2..=9).collect();
    for kind in [
        ProbeKind::PaddingGlobal,
        ProbeKind::PaddingLocal,
        ProbeKind::HistoryLoop,
        ProbeKind::Aliasing,
    ] {
        let sweep = |jobs| {
            let cfg = SweepConfig {
                rounds: 200,
                jobs,
                ..SweepConfig::default()
            };
            let points = run_sweep(kind, &grid, &cfg, &zoo).points;
            points
                .into_iter()
                .map(|p| (p.value, p.accuracy_pct))
                .collect::<Vec<_>>()
        };
        let want = sweep(1);
        for jobs in &JOBS[1..] {
            assert_eq!(sweep(*jobs), want, "{kind:?} jobs {jobs}");
        }
    }
}
