//! Predictor throughput: time to simulate every predictor over a fixed
//! workload trace (lower = faster predictor implementation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bp_bench::bench_trace;
use bp_predictors::{
    simulate, BlockPattern, Gas, Gshare, GshareInterferenceFree, Hybrid, IdealStatic, KthAgo,
    LoopPredictor, Pas, PasInterferenceFree, PathBased, Perceptron, Predictor, Smith, StaticTaken,
    Tage,
};
use bp_trace::BranchProfile;

fn bench_predictors(c: &mut Criterion) {
    let trace = bench_trace();
    let profile = BranchProfile::of(&trace);
    let mut group = c.benchmark_group("predictor_throughput");
    group.sample_size(20);

    macro_rules! bench {
        ($name:expr, $make:expr) => {
            group.bench_function($name, |b| {
                b.iter(|| {
                    let mut p = $make;
                    black_box(simulate(&mut p, black_box(&trace)))
                })
            });
        };
    }

    bench!("static_taken", StaticTaken);
    bench!("smith", Smith::default());
    bench!("gshare", Gshare::default());
    bench!("if_gshare", GshareInterferenceFree::default());
    bench!("gas", Gas::default());
    bench!("pas", Pas::default());
    bench!("if_pas", PasInterferenceFree::default());
    bench!("path_based", PathBased::default());
    bench!("loop", LoopPredictor::new());
    bench!("kth_ago", KthAgo::new(8));
    bench!("block_pattern", BlockPattern::new());
    bench!(
        "hybrid_gshare_pas",
        Hybrid::new(Gshare::default(), Pas::default(), 12)
    );
    bench!("tage", Tage::default());
    bench!("perceptron", Perceptron::default());
    bench!("ideal_static", IdealStatic::from_profile(&profile));

    // Sanity: the names stay distinct (catches copy-paste in the table).
    let names: Vec<String> = vec![
        StaticTaken.name(),
        Smith::default().name(),
        Gshare::default().name(),
    ];
    assert_eq!(
        names.len(),
        names.iter().collect::<std::collections::HashSet<_>>().len()
    );

    group.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);
