//! `classify_kernel`: the §4.1 per-address classification — the
//! bit-parallel kernel (packed outcome streams, shifted-XNOR k-ago sweep,
//! run-length loop/block replay, pattern-major IF-PAs) vs the per-record
//! reference classifier (`bp_core::reference`) on the same traces. The
//! two produce byte-identical `BranchClassScores` (the property tests in
//! `bp-core` pin that); this bench measures the kernel's speedup, plus the
//! one-off stream-packing pass the kernel amortizes across configurations.
//!
//! Two workloads bracket the kernel's operating range: `gcc` (large
//! static footprint, short streams — per-branch overhead and the PAs
//! scratch reset dominate) and `m88ksim` (small footprint, long
//! strongly-biased streams — long-run word scans and the k-ago popcount
//! loop dominate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use bp_bench::bench_workload_config;
use bp_core::{reference, Classifier, ClassifierConfig};
use bp_trace::BranchStreams;
use bp_workloads::Benchmark;

fn bench_classify_kernel(c: &mut Criterion) {
    let cfg = ClassifierConfig::default();
    let mut group = c.benchmark_group("classify_kernel");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));

    for benchmark in [Benchmark::Gcc, Benchmark::M88ksim] {
        let trace = benchmark.generate(&bench_workload_config());
        let streams = BranchStreams::of(&trace);

        let label = benchmark.short_name();
        group.bench_function(BenchmarkId::new("stream_build", label), |b| {
            b.iter(|| black_box(BranchStreams::of(black_box(&trace))))
        });
        group.bench_function(BenchmarkId::new("bit_parallel", label), |b| {
            b.iter(|| black_box(Classifier::classify_streams(black_box(&streams), &cfg)))
        });
        group.bench_function(BenchmarkId::new("reference", label), |b| {
            b.iter(|| black_box(reference::classify(black_box(&trace), &cfg)))
        });
        // The k-ago popcount sweep in isolation: runtime-dispatched
        // (AVX2 on capable hosts) vs the portable scalar twin. The two
        // are bit-identical (the conformance `simd` suite pins that);
        // this pair measures the vector speedup on long streams.
        group.bench_function(BenchmarkId::new("kago_dispatch", label), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for (_, stream) in streams.iter() {
                    for k in 1..=cfg.max_period as usize {
                        acc += bp_core::kth_ago_correct(black_box(stream), k);
                    }
                }
                black_box(acc)
            })
        });
        group.bench_function(BenchmarkId::new("kago_scalar", label), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for (_, stream) in streams.iter() {
                    for k in 1..=cfg.max_period as usize {
                        acc += bp_core::kth_ago_correct_scalar(black_box(stream), k);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_classify_kernel);
criterion_main!(benches);
