use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use bp_trace::io::TraceIoError;
use bp_trace::{par_map, BranchRecord, Trace, TraceSource};
use bp_workloads::{Benchmark, WorkloadConfig, WorkloadSource};

/// Lazily generated, cached traces for all benchmarks, shared across the
/// experiments of one run so each workload is generated once.
///
/// The set is accessed through `&self` (interior locking), so a single
/// pre-warmed instance can be shared read-only across worker threads —
/// the evaluation engine's per-benchmark fan-out depends on this.
/// [`TraceSet::trace`] hands out `Arc<Trace>` handles; the underlying
/// record buffer is never copied.
///
/// Nothing persists across runs. Every trace is a deterministic function
/// of (benchmark, seed, target length), so the generator is its own
/// storage.
#[derive(Debug)]
pub struct TraceSet {
    cfg: WorkloadConfig,
    traces: RwLock<HashMap<Benchmark, Arc<Trace>>>,
    stream: bool,
}

impl TraceSet {
    /// Creates an empty set that will generate with `cfg`.
    pub fn new(cfg: WorkloadConfig) -> Self {
        TraceSet {
            cfg,
            traces: RwLock::new(HashMap::new()),
            stream: false,
        }
    }

    /// Switches the set to streaming mode: [`TraceSet::source`] never
    /// materializes a full trace, and every scan regenerates the workload
    /// chunk by chunk. Peak memory per benchmark drops from the full
    /// record buffer to one chunk.
    pub fn with_streaming(mut self) -> Self {
        self.stream = true;
        self
    }

    /// Whether [`TraceSet::source`] avoids materializing traces.
    pub fn is_streaming(&self) -> bool {
        self.stream
    }

    /// The workload configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// The trace for `benchmark`, generating it on first use.
    ///
    /// Generation happens outside the lock so concurrent callers for
    /// *different* benchmarks proceed in parallel; if two threads race on
    /// the same benchmark, the first insertion wins (generation is
    /// deterministic, so both candidates are identical anyway).
    pub fn trace(&self, benchmark: Benchmark) -> Arc<Trace> {
        if let Some(t) = self.traces.read().expect("trace map lock").get(&benchmark) {
            return Arc::clone(t);
        }
        let trace = Arc::new(benchmark.generate(&self.cfg));
        let mut map = self.traces.write().expect("trace map lock");
        Arc::clone(map.entry(benchmark).or_insert(trace))
    }

    /// A replayable [`TraceSource`] for `benchmark` that honors the set's
    /// memory policy:
    ///
    /// * a trace already materialized in memory is shared as-is;
    /// * in streaming mode, every scan regenerates the workload chunk by
    ///   chunk;
    /// * otherwise the trace is materialized.
    pub fn source(&self, benchmark: Benchmark) -> TraceSetSource {
        if let Some(t) = self.traces.read().expect("trace map lock").get(&benchmark) {
            return TraceSetSource::Memory(Arc::clone(t));
        }
        if self.stream {
            return TraceSetSource::Workload(benchmark.source(self.cfg));
        }
        TraceSetSource::Memory(self.trace(benchmark))
    }

    /// Eagerly generates every benchmark, using up to `jobs` threads
    /// (a no-op win on single-core machines, a real one elsewhere).
    /// Benchmarks already generated cost one map lookup.
    pub fn generate_all(&self, jobs: usize) {
        par_map(&Benchmark::ALL, jobs, || (), |_, &b| self.trace(b));
    }
}

/// A [`TraceSource`] handed out by [`TraceSet::source`]: an in-memory
/// trace or the regenerating workload itself. Both scan the identical
/// record sequence.
#[derive(Debug, Clone)]
pub enum TraceSetSource {
    /// A fully materialized trace shared from the in-memory cache.
    Memory(Arc<Trace>),
    /// The deterministic workload generator, re-run on every scan.
    Workload(WorkloadSource),
}

impl TraceSource for TraceSetSource {
    fn scan(&self, f: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        match self {
            TraceSetSource::Memory(t) => t.scan(f),
            TraceSetSource::Workload(w) => w.scan(f),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            TraceSetSource::Memory(t) => TraceSource::len_hint(&**t),
            TraceSetSource::Workload(w) => w.len_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_is_deterministic() {
        let cfg = WorkloadConfig::default().with_target(2_000);
        let set = TraceSet::new(cfg);
        let a = set.trace(Benchmark::Compress);
        let b = set.trace(Benchmark::Compress);
        assert_eq!(a, b);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second lookup must reuse the cached Arc"
        );
        assert_eq!(set.config().target_branches, 2_000);
    }

    fn collect(src: &TraceSetSource) -> Vec<BranchRecord> {
        let mut recs = Vec::new();
        src.scan(&mut |chunk| recs.extend_from_slice(chunk))
            .expect("scan trace source");
        recs
    }

    #[test]
    fn streaming_sources_scan_identical_records() {
        let cfg = WorkloadConfig::default().with_target(1_000);

        // Streaming regenerates per scan — twice in a row to prove each
        // source is replayable.
        let regen = TraceSet::new(cfg).with_streaming();
        assert!(regen.is_streaming());
        for b in Benchmark::ALL {
            let expect = b.generate(&cfg);
            let src = regen.source(b);
            assert!(matches!(src, TraceSetSource::Workload(_)), "{b}");
            assert_eq!(collect(&src), expect.records(), "{b}");
            assert_eq!(collect(&src), expect.records(), "{b} rescanned");
        }

        // A materialized trace is shared as-is, even in streaming mode.
        let warm = TraceSet::new(cfg).with_streaming();
        let _ = warm.trace(Benchmark::Compress);
        assert!(matches!(
            warm.source(Benchmark::Compress),
            TraceSetSource::Memory(_)
        ));
    }

    #[test]
    fn generate_all_covers_every_benchmark() {
        let cfg = WorkloadConfig::default().with_target(500);
        let set = TraceSet::new(cfg);
        set.generate_all(4);
        for b in Benchmark::ALL {
            assert!(set.trace(b).conditional_count() >= 500);
        }
    }

    #[test]
    fn shared_access_from_threads_yields_one_trace() {
        let cfg = WorkloadConfig::default().with_target(800);
        let set = TraceSet::new(cfg);
        let traces: Vec<Arc<Trace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| set.trace(Benchmark::Go)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces[1..] {
            assert_eq!(**t, *traces[0]);
        }
    }
}
