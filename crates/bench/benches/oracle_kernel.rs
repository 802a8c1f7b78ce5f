//! `oracle_kernel`: the §3.4 selective-history scoring kernel — word-wise
//! bit-plane scoring vs the digit-at-a-time reference scorer
//! (`bp_core::reference`) — driven through the identical per-branch
//! subset search on the same fixed synthetic matrices. The two produce
//! bit-identical selections (the property tests in `bp-core` pin that);
//! this bench measures the kernel's speedup.
//!
//! Two workloads bracket the kernel's operating range: `gcc` (large
//! static footprint, few executions per branch — per-branch overhead
//! dominates) and `m88ksim` (small footprint, long strongly-biased
//! columns — the uniform-run word fast path dominates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use bp_bench::bench_workload_config;
use bp_core::{reference, OracleConfig, OracleSelector, OutcomeMatrix, TagCandidates};
use bp_workloads::Benchmark;

/// The subset shapes the greedy search probes: empty, each singleton,
/// adjacent pairs, and one spread triple.
fn subset_battery(n: usize) -> Vec<Vec<usize>> {
    let mut subsets: Vec<Vec<usize>> = vec![Vec::new()];
    subsets.extend((0..n).map(|c| vec![c]));
    subsets.extend((1..n).map(|c| vec![c - 1, c]));
    if n >= 3 {
        subsets.push(vec![0, n / 2, n - 1]);
    }
    subsets
}

fn bench_oracle_kernel(c: &mut Criterion) {
    let cfg = OracleConfig {
        candidate_cap: 12,
        ..OracleConfig::default()
    };
    let mut group = c.benchmark_group("oracle_kernel");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));

    for benchmark in [Benchmark::Gcc, Benchmark::M88ksim] {
        let trace = benchmark.generate(&bench_workload_config());
        let candidates = TagCandidates::collect(&trace, cfg.window, cfg.candidate_cap);
        let matrix = OutcomeMatrix::build(&trace, &candidates, cfg.window);

        let label = benchmark.short_name();
        group.bench_function(BenchmarkId::new("bit_plane", label), |b| {
            b.iter(|| {
                for (_, bm) in matrix.iter() {
                    black_box(OracleSelector::select_branch(bm, &cfg));
                }
            })
        });
        group.bench_function(BenchmarkId::new("reference", label), |b| {
            b.iter(|| {
                for (_, bm) in matrix.iter() {
                    black_box(reference::select_branch(bm, &cfg));
                }
            })
        });
        // The tag-set scorer in isolation: runtime-dispatched (AVX2 on
        // capable hosts) vs the portable scalar twin, over the subset
        // shapes the greedy search actually probes. Bit-identical (the
        // conformance `simd` suite pins that); this pair measures the
        // plane-replay vector speedup.
        group.bench_function(BenchmarkId::new("tag_set_dispatch", label), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for (_, bm) in matrix.iter() {
                    for cols in subset_battery(bm.tags().len()) {
                        acc += bp_core::score_tag_set(black_box(bm), &cols, cfg.counter);
                    }
                }
                black_box(acc)
            })
        });
        group.bench_function(BenchmarkId::new("tag_set_scalar", label), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for (_, bm) in matrix.iter() {
                    for cols in subset_battery(bm.tags().len()) {
                        acc += bp_core::score_tag_set_scalar(black_box(bm), &cols, cfg.counter);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle_kernel);
criterion_main!(benches);
