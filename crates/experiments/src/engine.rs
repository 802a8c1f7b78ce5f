//! The evaluation engine: parallel per-benchmark fan-out plus a
//! cross-experiment memoization cache.
//!
//! Every experiment in this crate walks [`Benchmark::ALL`] and derives
//! artifacts from each benchmark's trace: per-branch predictor statistics
//! (gshare, interference-free gshare, PAs, …), the §3.4 oracle
//! selective-history analysis, the §4.1 per-address classification, and
//! the branch profile. Before this engine existed, each experiment
//! recomputed all of that from scratch — a `repro all` run performed the
//! default-config oracle analysis four times and the gshare simulation
//! six times per benchmark.
//!
//! [`Engine`] fixes both axes:
//!
//! * **Fan-out** — [`Engine::for_each_benchmark`] runs the per-benchmark
//!   closure on up to `jobs` worker threads ([`bp_trace::par_map`], so
//!   results are always in [`Benchmark::ALL`] order regardless of
//!   scheduling).
//! * **Memoization** — [`EvalCache`] holds every shared artifact behind
//!   `(benchmark, config-fingerprint)` keys. Concurrent requests for the
//!   same key compute the value exactly once (`Mutex`-guarded map of
//!   `OnceLock` cells); everyone else blocks briefly and shares the
//!   `Arc`. Hit/miss counters feed `repro --timings`.
//! * **Artifact reuse** — an engine given a `.bps` store
//!   ([`Engine::with_artifacts`]) reopens the packed streams and oracle
//!   matrices it would otherwise build, and saves the ones it builds.
//!
//! Determinism: cached values are pure functions of (workload config,
//! benchmark, artifact config) — the engine only changes *when* they are
//! computed, never *what* — and fan-out reassembles results in input
//! order, so a parallel run's output is byte-identical to `--jobs 1`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use bp_core::{
    Classification, Classifier, ClassifierConfig, OracleConfig, OracleResult, OracleSelector,
    OutcomeMatrix, SweepMatrix, TagCandidates,
};
use bp_predictors::{
    simulate_batch_source, Gshare, GshareInterferenceFree, Pas, PasInterferenceFree,
    PerBranchStats, Perceptron, Predictor, Tage,
};
use bp_trace::{par_map, par_threads, BranchProfile, BranchStreams, TagScheme, Trace, MAX_THREADS};
use bp_workloads::Benchmark;

use crate::artifacts::{matrix_config_fp, streams_config_fp, ArtifactStore};
use crate::{ExperimentConfig, TraceSet, TraceSetSource};

/// Fingerprint of a standard predictor configuration, used as a cache key.
///
/// Only predictors shared by two or more experiments earn a variant here;
/// experiment-specific designs (hybrids, family sweeps, …) simulate
/// directly and don't pollute the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKey {
    /// `Gshare::new(bits)`.
    Gshare {
        /// History/index bits.
        bits: u32,
    },
    /// `GshareInterferenceFree::new(bits)`.
    IfGshare {
        /// History/index bits.
        bits: u32,
    },
    /// `Pas::default()`.
    PasDefault,
    /// `PasInterferenceFree::new(history_bits)`.
    IfPas {
        /// Per-address history bits.
        history_bits: u32,
    },
    /// `Tage::new(tables, base_bits)`.
    Tage {
        /// Tagged-table count (histories `4 << i`).
        tables: u32,
        /// Bimodal base index bits.
        base_bits: u32,
    },
    /// `Perceptron::new(history_bits)`.
    Perceptron {
        /// Global history bits.
        history_bits: u32,
    },
}

impl PredictorKey {
    fn build(self) -> Box<dyn Predictor> {
        match self {
            PredictorKey::Gshare { bits } => Box::new(Gshare::new(bits)),
            PredictorKey::IfGshare { bits } => Box::new(GshareInterferenceFree::new(bits)),
            PredictorKey::PasDefault => Box::<Pas>::default(),
            PredictorKey::IfPas { history_bits } => {
                Box::new(PasInterferenceFree::new(history_bits))
            }
            PredictorKey::Tage { tables, base_bits } => Box::new(Tage::new(tables, base_bits)),
            PredictorKey::Perceptron { history_bits } => Box::new(Perceptron::new(history_bits)),
        }
    }
}

/// One keyed compute-once map. The outer mutex is held only to find or
/// insert the cell; the (potentially expensive) computation runs outside
/// it, serialized per key by the cell's `OnceLock`.
struct CacheMap<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: std::hash::Hash + Eq + Clone, V> CacheMap<K, V> {
    fn new() -> Self {
        CacheMap {
            map: Mutex::new(HashMap::new()),
        }
    }

    fn get_or_compute(
        &self,
        key: K,
        hits: &AtomicU64,
        misses: &AtomicU64,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        let cell = {
            let mut map = self.map.lock().expect("cache map lock");
            Arc::clone(map.entry(key).or_default())
        };
        let mut computed = false;
        let value = cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        });
        if computed {
            misses.fetch_add(1, Ordering::Relaxed);
        } else {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(value)
    }

    /// Caches `value()` under `key` unless the key has a cell already,
    /// computed or being computed, and returns what it cached. A fill is
    /// not a request: it counts neither a hit nor a miss.
    fn fill(&self, key: K, value: impl FnOnce() -> V) -> Option<Arc<V>> {
        let mut map = self.map.lock().expect("cache map lock");
        let Entry::Vacant(slot) = map.entry(key) else {
            return None;
        };
        let value = Arc::new(value());
        slot.insert(Arc::new(OnceLock::from(Arc::clone(&value))));
        Some(value)
    }

    fn len(&self) -> usize {
        self.map.lock().expect("cache map lock").len()
    }
}

impl<K, V> Default for CacheMap<K, V>
where
    K: std::hash::Hash + Eq + Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

/// Cache hit/miss totals (reported through `repro --timings`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a previously computed artifact.
    pub hits: u64,
    /// Requests that computed the artifact.
    pub misses: u64,
    /// Distinct artifacts currently cached.
    pub entries: u64,
    /// Misses that reopened a `.bps` artifact from the engine's store
    /// ([`Engine::with_artifacts`]) instead of building it.
    pub reused: u64,
}

/// Cross-experiment memoization of evaluation results, keyed by
/// `(benchmark, config fingerprint)`. Builder artifacts that only serve
/// to compute a result, such as a window sweep's [`SweepMatrix`], are
/// not kept: they are dropped as soon as their results are cached.
pub struct EvalCache {
    per_branch: CacheMap<(Benchmark, PredictorKey), PerBranchStats>,
    oracles: CacheMap<(Benchmark, OracleConfig), OracleResult>,
    classifications: CacheMap<(Benchmark, ClassifierConfig), Classification>,
    /// Packed per-branch outcome streams, built in one trace pass and
    /// shared by every classification config and the branch profile.
    streams: CacheMap<Benchmark, BranchStreams>,
    profiles: CacheMap<Benchmark, BranchProfile>,
    hits: AtomicU64,
    misses: AtomicU64,
    reused: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache {
            per_branch: CacheMap::new(),
            oracles: CacheMap::new(),
            classifications: CacheMap::new(),
            streams: CacheMap::new(),
            profiles: CacheMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Hit/miss totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: (self.per_branch.len()
                + self.oracles.len()
                + self.classifications.len()
                + self.streams.len()
                + self.profiles.len()) as u64,
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Worker-utilization accounting for the fan-out (reported through
/// `repro --timings`): total busy time inside per-benchmark closures vs
/// wall time of the fan-out regions.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutStats {
    /// Seconds of worker busy time (summed across threads).
    pub busy_seconds: f64,
    /// Seconds of fan-out region wall time.
    pub wall_seconds: f64,
}

impl FanoutStats {
    /// Mean busy workers per fan-out second (`jobs` at perfect scaling,
    /// 1.0 when everything serializes).
    pub fn utilization(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.busy_seconds / self.wall_seconds
        }
    }
}

/// Per-benchmark oracle phase accounting (reported through
/// `repro --timings`): where an oracle analysis spends its time —
/// candidate collection + matrix packing vs the subset search — and how
/// many threads the searches ran on.
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePhaseStats {
    /// Seconds spent collecting candidates and packing outcome matrices
    /// (including sweep-artifact builds, sub-window materialization and
    /// reopening matrices from the store).
    pub matrix_seconds: f64,
    /// Seconds spent in the per-branch subset search.
    pub search_seconds: f64,
    /// Threads reserved for the searches, summed over analyses (1 per
    /// analysis when the search ran serially): the idle `--jobs` budget at
    /// the time, capped by the branch count.
    pub shards: u64,
    /// Oracle analyses performed (cache misses only).
    pub analyses: u64,
    /// Candidate-plus-matrix builds and sweep-artifact builds (cache
    /// misses only): one trace's worth of builder passes each. A sweep
    /// point served to another experiment saves one, and so does a
    /// matrix reopened from the store.
    pub builds: u64,
}

impl OraclePhaseStats {
    fn add(&mut self, other: &OraclePhaseStats) {
        self.matrix_seconds += other.matrix_seconds;
        self.search_seconds += other.search_seconds;
        self.shards += other.shards;
        self.analyses += other.analyses;
        self.builds += other.builds;
    }
}

/// Per-benchmark classification phase accounting (reported through
/// `repro --timings`): where the §4 classification spends its time —
/// packing the per-branch outcome streams, the shifted-XNOR fixed-pattern
/// sweep, and the run-length loop/block/PAs replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassifyPhaseStats {
    /// Seconds packing the trace into [`BranchStreams`] (once per
    /// benchmark; shared by every classification config and the profile).
    pub stream_seconds: f64,
    /// Seconds in the shifted-XNOR k-ago sweep.
    pub sweep_seconds: f64,
    /// Seconds in the run-length loop/block replay and pattern-major
    /// IF-PAs scoring.
    pub replay_seconds: f64,
    /// Classifications performed (cache misses only).
    pub classifications: u64,
}

/// Threads a nested kernel claimed from its engine ([`Engine::claim`]):
/// the calling thread and `threads - 1` more, which go back to the
/// engine when the claim drops.
struct Claim<'a> {
    busy_threads: &'a AtomicUsize,
    threads: usize,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.busy_threads
            .fetch_sub(self.threads - 1, Ordering::Relaxed);
    }
}

/// Shared evaluation state for a run: the trace set, the memoization
/// cache, the worker-thread budget, and an optional `.bps` store.
pub struct Engine {
    traces: Arc<TraceSet>,
    cache: EvalCache,
    store: Option<ArtifactStore>,
    jobs: usize,
    busy_nanos: AtomicU64,
    fanout_wall_nanos: AtomicU64,
    /// Busy threads: fan-out workers inside a benchmark closure, plus the
    /// extra threads nested kernels hold ([`Engine::claim`]).
    busy_threads: AtomicUsize,
    oracle_phases: Mutex<HashMap<Benchmark, OraclePhaseStats>>,
    classify_phases: Mutex<HashMap<Benchmark, ClassifyPhaseStats>>,
}

impl Engine {
    /// An engine over `traces` using up to `jobs` worker threads
    /// (`jobs = 1` means fully sequential). Accepts a `TraceSet` by value
    /// or an `Arc<TraceSet>` shared with other engines (the artifact cache
    /// is always per-engine).
    pub fn new(traces: impl Into<Arc<TraceSet>>, jobs: usize) -> Self {
        Engine {
            traces: traces.into(),
            cache: EvalCache::new(),
            store: None,
            jobs: jobs.max(1),
            busy_nanos: AtomicU64::new(0),
            fanout_wall_nanos: AtomicU64::new(0),
            busy_threads: AtomicUsize::new(0),
            oracle_phases: Mutex::new(HashMap::new()),
            classify_phases: Mutex::new(HashMap::new()),
        }
    }

    /// The engine with a `.bps` store: [`Engine::streams`] and
    /// [`Engine::oracle`] reopen their builder artifact (the packed
    /// streams, the oracle's outcome matrix) from `store` on a cache
    /// miss, counted in [`CacheStats::reused`], and build and save it
    /// when it is missing or rotten. Results are the same with or
    /// without a store. [`Engine::oracle_sweep`] does not use it.
    #[must_use]
    pub fn with_artifacts(mut self, store: ArtifactStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Reopens an artifact through `load` from the engine's store,
    /// counting it reused; `None` without a store or on a miss.
    fn reopen<T>(&self, load: impl FnOnce(&ArtifactStore) -> Option<(T, bool)>) -> Option<T> {
        let (artifact, _mapped) = load(self.store.as_ref()?)?;
        self.cache.reused.fetch_add(1, Ordering::Relaxed);
        Some(artifact)
    }

    /// The worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Claims threads for a nested kernel over `items` independent items:
    /// the calling thread, plus as many more as the kernel can use
    /// ([`par_threads`]) while the busy threads stay within
    /// `min(jobs, MAX_THREADS)`. The calling thread is already busy as a
    /// fan-out worker, or, outside any fan-out, takes the first slot. One
    /// atomic update reads and reserves, so concurrent claims cannot
    /// both take the same spare. The extra threads are handed back when
    /// the claim drops. Every nested kernel's output is the same at any
    /// thread count, so a claim steers wall-clock only.
    fn claim(&self, items: usize) -> Claim<'_> {
        let cap = self.jobs.min(MAX_THREADS);
        let want = par_threads(self.jobs, items) - 1;
        let grant = |busy: usize| want.min(cap.saturating_sub(busy.max(1)));
        // The count publishes no other data, so relaxed updates suffice:
        // read-modify-writes of one atomic are totally ordered anyway.
        let busy = self
            .busy_threads
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                Some(busy + grant(busy))
            })
            .expect("the update always stores");
        Claim {
            busy_threads: &self.busy_threads,
            threads: grant(busy) + 1,
        }
    }

    /// The underlying trace set.
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// The trace for `benchmark` (generated on first use).
    pub fn trace(&self, benchmark: Benchmark) -> Arc<Trace> {
        self.traces.trace(benchmark)
    }

    /// A replayable record source for `benchmark`. In a streaming trace
    /// set this never materializes the full trace (see
    /// [`TraceSet::source`]); otherwise it shares the in-memory trace, so
    /// artifact builds behave exactly as before.
    pub fn source(&self, benchmark: Benchmark) -> TraceSetSource {
        self.traces.source(benchmark)
    }

    /// Cache hit/miss totals.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fan-out utilization so far.
    pub fn fanout_stats(&self) -> FanoutStats {
        FanoutStats {
            busy_seconds: self.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            wall_seconds: self.fanout_wall_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    /// Runs `f` once per benchmark of [`Benchmark::ALL`], in parallel,
    /// returning results in that order. See [`Engine::fan_out`].
    pub fn for_each_benchmark<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Benchmark) -> R + Sync,
    {
        self.fan_out(&Benchmark::ALL, f)
    }

    /// Runs `f` once per benchmark in `benchmarks`, on up to
    /// [`Engine::jobs`] worker threads ([`par_map`]), returning results in
    /// input order — so everything downstream, including rendered tables,
    /// is independent of thread scheduling.
    pub fn fan_out<R, F>(&self, benchmarks: &[Benchmark], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Benchmark) -> R + Sync,
    {
        let started = Instant::now();
        let (results, _) = par_map(
            benchmarks,
            self.jobs,
            || (),
            |_, &benchmark| {
                let t0 = Instant::now();
                self.busy_threads.fetch_add(1, Ordering::Relaxed);
                let r = f(benchmark);
                self.busy_threads.fetch_sub(1, Ordering::Relaxed);
                self.busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            },
        );
        self.fanout_wall_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        results
    }

    /// Per-branch stats of a standard predictor, computed at most once per
    /// `(benchmark, key)` across all experiments.
    pub fn per_branch(&self, benchmark: Benchmark, key: PredictorKey) -> Arc<PerBranchStats> {
        self.cache.per_branch.get_or_compute(
            (benchmark, key),
            &self.cache.hits,
            &self.cache.misses,
            || {
                let source = self.source(benchmark);
                let mut batch = [key.build()];
                simulate_batch_source(&mut batch, &source)
                    .expect("trace stream failed")
                    .pop()
                    .expect("one result per predictor")
            },
        )
    }

    /// Cached `Gshare::new(bits)` per-branch stats.
    pub fn gshare(&self, benchmark: Benchmark, bits: u32) -> Arc<PerBranchStats> {
        self.per_branch(benchmark, PredictorKey::Gshare { bits })
    }

    /// Cached `GshareInterferenceFree::new(bits)` per-branch stats.
    pub fn if_gshare(&self, benchmark: Benchmark, bits: u32) -> Arc<PerBranchStats> {
        self.per_branch(benchmark, PredictorKey::IfGshare { bits })
    }

    /// Cached `Pas::default()` per-branch stats.
    pub fn pas_default(&self, benchmark: Benchmark) -> Arc<PerBranchStats> {
        self.per_branch(benchmark, PredictorKey::PasDefault)
    }

    /// Cached `PasInterferenceFree::new(history_bits)` per-branch stats.
    pub fn if_pas(&self, benchmark: Benchmark, history_bits: u32) -> Arc<PerBranchStats> {
        self.per_branch(benchmark, PredictorKey::IfPas { history_bits })
    }

    /// Cached `Tage::new(tables, base_bits)` per-branch stats.
    pub fn tage(&self, benchmark: Benchmark, tables: u32, base_bits: u32) -> Arc<PerBranchStats> {
        self.per_branch(benchmark, PredictorKey::Tage { tables, base_bits })
    }

    /// Cached `Perceptron::new(history_bits)` per-branch stats.
    pub fn perceptron(&self, benchmark: Benchmark, history_bits: u32) -> Arc<PerBranchStats> {
        self.per_branch(benchmark, PredictorKey::Perceptron { history_bits })
    }

    /// Cached oracle selective-history analysis for one configuration.
    ///
    /// On a miss, the outcome matrix is reopened from the engine's store
    /// or built (and saved there), and the per-branch subset search runs
    /// on whatever threads the benchmark-level fan-out leaves idle (see
    /// [`Engine::jobs`]), so `--jobs N` helps even when a single
    /// benchmark's oracle dominates the run. A built matrix lists every
    /// conditional branch with its outcome plane, so when the engine holds
    /// no [`Engine::streams`] for the benchmark yet, they are read off the
    /// matrix ([`OutcomeMatrix::streams`]) and saved like a streams build,
    /// which spares [`Engine::streams`] its trace scan. A reopened matrix
    /// fills nothing, and neither does a built one when the store holds
    /// intact streams: [`Engine::streams`] reopens those.
    pub fn oracle(&self, benchmark: Benchmark, cfg: &OracleConfig) -> Arc<OracleResult> {
        self.cache.oracles.get_or_compute(
            (benchmark, *cfg),
            &self.cache.hits,
            &self.cache.misses,
            || {
                let t0 = Instant::now();
                let (name, workload) = (benchmark.name(), self.traces.config());
                let (window, cap) = (cfg.window, cfg.candidate_cap);
                let fp =
                    matrix_config_fp(name, workload.seed, workload.target_branches, window, cap);
                let reused = self.reopen(|store| store.load_matrix(name, window, cap, fp));
                let builds = u64::from(reused.is_none());
                let matrix = reused.unwrap_or_else(|| {
                    let source = self.source(benchmark);
                    let candidates = TagCandidates::collect_from_source_sharded(
                        &source,
                        window,
                        cap,
                        &TagScheme::ALL,
                        1,
                    )
                    .expect("trace stream failed");
                    let matrix =
                        OutcomeMatrix::build_from_source_sharded(&source, &candidates, window, 1)
                            .expect("trace stream failed");
                    if let Some(store) = &self.store {
                        store.save_matrix(name, window, cap, &matrix, fp);
                    }
                    if !self.stores_streams(benchmark) {
                        if let Some(streams) =
                            self.cache.streams.fill(benchmark, || matrix.streams())
                        {
                            self.save_streams(benchmark, &streams);
                        }
                    }
                    matrix
                });
                let built = OraclePhaseStats {
                    matrix_seconds: t0.elapsed().as_secs_f64(),
                    builds,
                    ..OraclePhaseStats::default()
                };
                self.search(benchmark, &matrix, cfg, built)
            },
        )
    }

    /// Cached oracle analyses for a whole window sweep, sharing one
    /// incremental artifact: candidates and matrix are computed once at the
    /// largest window ([`SweepMatrix::build`]) and every shorter window is
    /// materialized by masking — no extra trace passes. Results are
    /// byte-identical to per-window [`Engine::oracle`] calls and are
    /// inserted into the same cache, so either entry point can hit the
    /// other's work. The artifact is built at the first point that misses
    /// the cache and dropped when this call returns; only the points'
    /// results stay.
    ///
    /// `base.window` and `base.candidate_cap` are ignored; sweep point `i`
    /// uses `base` with `windows[i]` and `caps[i]`. Per-point caps keep
    /// each point's config (and so its cache key and result) exactly what
    /// a direct [`Engine::oracle`] call at that point would use, while the
    /// shared artifact still packs all points' candidate columns at once.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not strictly ascending, exceeds
    /// [`bp_core::MAX_SWEEP_WINDOWS`] entries, or differs in length from
    /// `caps`.
    pub fn oracle_sweep(
        &self,
        benchmark: Benchmark,
        windows: &[usize],
        caps: &[usize],
        base: &OracleConfig,
    ) -> Vec<Arc<OracleResult>> {
        let mut sweep: Option<SweepMatrix> = None;
        windows
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let point = OracleConfig {
                    window: n,
                    candidate_cap: caps[i],
                    ..*base
                };
                self.cache.oracles.get_or_compute(
                    (benchmark, point),
                    &self.cache.hits,
                    &self.cache.misses,
                    || {
                        let t0 = Instant::now();
                        let builds = u64::from(sweep.is_none());
                        let sweep = sweep.get_or_insert_with(|| {
                            SweepMatrix::build_from_source(&self.source(benchmark), windows, caps)
                                .expect("trace stream failed")
                        });
                        let claim = self.claim(sweep.branch_count());
                        let matrix = sweep.materialize_parallel(i, claim.threads);
                        drop(claim);
                        let built = OraclePhaseStats {
                            matrix_seconds: t0.elapsed().as_secs_f64(),
                            builds,
                            ..OraclePhaseStats::default()
                        };
                        self.search(benchmark, &matrix, &point, built)
                    },
                )
            })
            .collect()
    }

    /// The per-branch subset search over `matrix` on the threads
    /// [`Engine::claim`] grants, recorded with `built`, the phases that
    /// produced the matrix.
    fn search(
        &self,
        benchmark: Benchmark,
        matrix: &OutcomeMatrix,
        cfg: &OracleConfig,
        built: OraclePhaseStats,
    ) -> OracleResult {
        let claim = self.claim(matrix.branch_count());
        let t0 = Instant::now();
        let result = OracleSelector::analyze_matrix_parallel(matrix, cfg, claim.threads);
        self.record_oracle_phases(
            benchmark,
            &OraclePhaseStats {
                search_seconds: t0.elapsed().as_secs_f64(),
                shards: claim.threads as u64,
                analyses: 1,
                ..built
            },
        );
        result
    }

    fn record_oracle_phases(&self, benchmark: Benchmark, delta: &OraclePhaseStats) {
        let mut phases = self.oracle_phases.lock().expect("oracle phase stats");
        phases.entry(benchmark).or_default().add(delta);
    }

    /// Per-benchmark oracle phase accounting so far, in [`Benchmark::ALL`]
    /// order (benchmarks without oracle analyses are omitted).
    pub fn oracle_phase_stats(&self) -> Vec<(Benchmark, OraclePhaseStats)> {
        let phases = self.oracle_phases.lock().expect("oracle phase stats");
        Benchmark::ALL
            .iter()
            .filter_map(|b| phases.get(b).map(|s| (*b, *s)))
            .collect()
    }

    /// Cached per-branch packed outcome streams — the bit-parallel
    /// substrate of every §4 classification (and the branch profile).
    /// An oracle build on this engine may have read them off its matrix
    /// already ([`Engine::oracle`]); otherwise they are reopened from the
    /// engine's store or built (and saved there) in a single trace pass
    /// per benchmark.
    pub fn streams(&self, benchmark: Benchmark) -> Arc<BranchStreams> {
        self.cache
            .streams
            .get_or_compute(benchmark, &self.cache.hits, &self.cache.misses, || {
                let t0 = Instant::now();
                let fp = self.streams_fp(benchmark);
                let streams = self
                    .reopen(|store| store.load_streams(benchmark.name(), fp))
                    .unwrap_or_else(|| {
                        let streams =
                            BranchStreams::from_source_sharded(&self.source(benchmark), 1)
                                .expect("trace stream failed");
                        self.save_streams(benchmark, &streams);
                        streams
                    });
                self.record_classify_phases(benchmark, t0.elapsed().as_secs_f64(), 0.0, 0.0, 0);
                streams
            })
    }

    /// The streams artifact's config fingerprint for `benchmark`.
    fn streams_fp(&self, benchmark: Benchmark) -> u64 {
        let workload = self.traces.config();
        streams_config_fp(benchmark.name(), workload.seed, workload.target_branches)
    }

    /// Whether the engine's store holds an intact streams artifact for
    /// `benchmark`. The check opens it without counting it reused; a
    /// rotten one is evicted as a load would.
    fn stores_streams(&self, benchmark: Benchmark) -> bool {
        self.store.as_ref().is_some_and(|store| {
            store
                .load_streams(benchmark.name(), self.streams_fp(benchmark))
                .is_some()
        })
    }

    /// Saves built streams to the engine's store, if it has one.
    fn save_streams(&self, benchmark: Benchmark, streams: &BranchStreams) {
        if let Some(store) = &self.store {
            store.save_streams(benchmark.name(), streams, self.streams_fp(benchmark));
        }
    }

    /// Cached per-address classification for one configuration. Every
    /// configuration of the same benchmark shares one [`BranchStreams`]
    /// artifact ([`Engine::streams`]).
    pub fn classification(
        &self,
        benchmark: Benchmark,
        cfg: &ClassifierConfig,
    ) -> Arc<Classification> {
        self.cache.classifications.get_or_compute(
            (benchmark, *cfg),
            &self.cache.hits,
            &self.cache.misses,
            || {
                let streams = self.streams(benchmark);
                let claim = self.claim(streams.static_count());
                let (classification, phases) =
                    Classifier::classify_streams_parallel(&streams, cfg, claim.threads);
                self.record_classify_phases(
                    benchmark,
                    0.0,
                    phases.sweep_seconds,
                    phases.replay_seconds,
                    1,
                );
                classification
            },
        )
    }

    /// Cached branch profile, derived by popcount from the packed streams
    /// (byte-identical to `BranchProfile::of` on the trace).
    pub fn profile(&self, benchmark: Benchmark) -> Arc<BranchProfile> {
        self.cache
            .profiles
            .get_or_compute(benchmark, &self.cache.hits, &self.cache.misses, || {
                self.streams(benchmark).profile()
            })
    }

    fn record_classify_phases(
        &self,
        benchmark: Benchmark,
        stream_seconds: f64,
        sweep_seconds: f64,
        replay_seconds: f64,
        classifications: u64,
    ) {
        let mut phases = self.classify_phases.lock().expect("classify phase stats");
        let entry = phases.entry(benchmark).or_default();
        entry.stream_seconds += stream_seconds;
        entry.sweep_seconds += sweep_seconds;
        entry.replay_seconds += replay_seconds;
        entry.classifications += classifications;
    }

    /// Per-benchmark classification phase accounting so far, in
    /// [`Benchmark::ALL`] order (benchmarks without classification work
    /// are omitted).
    pub fn classify_phase_stats(&self) -> Vec<(Benchmark, ClassifyPhaseStats)> {
        let phases = self.classify_phases.lock().expect("classify phase stats");
        Benchmark::ALL
            .iter()
            .filter_map(|b| phases.get(b).map(|s| (*b, *s)))
            .collect()
    }

    /// Pre-warms the cache for a multi-experiment run: generates every
    /// trace (in parallel), then computes the four standard predictors'
    /// per-branch stats in a *single* batched pass per trace
    /// ([`simulate_batch_source`]), so no later experiment pays a separate
    /// simulation pass for them.
    pub fn prewarm(&self, cfg: &ExperimentConfig) {
        if !self.traces.is_streaming() {
            self.traces.generate_all(self.jobs);
        }
        let keys = [
            PredictorKey::Gshare {
                bits: cfg.gshare_bits,
            },
            PredictorKey::IfGshare {
                bits: cfg.gshare_bits,
            },
            PredictorKey::PasDefault,
            PredictorKey::IfPas {
                history_bits: cfg.classifier.pas_history_bits,
            },
        ];
        self.for_each_benchmark(|benchmark| {
            // Skip the batch when everything is already cached (prewarm is
            // idempotent and cheap to call twice).
            let missing: Vec<PredictorKey> = {
                let map = self.cache.per_branch.map.lock().expect("cache map lock");
                keys.iter()
                    .copied()
                    .filter(|k| {
                        map.get(&(benchmark, *k))
                            .map(|cell| cell.get().is_none())
                            .unwrap_or(true)
                    })
                    .collect()
            };
            if missing.is_empty() {
                return;
            }
            let source = self.source(benchmark);
            let mut predictors: Vec<Box<dyn Predictor>> =
                missing.iter().map(|k| k.build()).collect();
            let results =
                simulate_batch_source(&mut predictors, &source).expect("trace stream failed");
            for (key, stats) in missing.into_iter().zip(results) {
                self.cache.per_branch.get_or_compute(
                    (benchmark, key),
                    &self.cache.hits,
                    &self.cache.misses,
                    || stats,
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::simulate_per_branch;
    use bp_workloads::WorkloadConfig;

    fn quick_engine(jobs: usize) -> Engine {
        let cfg = WorkloadConfig::default().with_target(3_000);
        Engine::new(TraceSet::new(cfg), jobs)
    }

    #[test]
    fn cached_artifacts_compute_exactly_once() {
        let engine = quick_engine(2);
        let b = Benchmark::Compress;
        let first = engine.gshare(b, 10);
        let second = engine.gshare(b, 10);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);

        // A different fingerprint is a different artifact.
        let third = engine.gshare(b, 12);
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(engine.cache_stats().misses, 2);
    }

    #[test]
    fn cached_stats_match_direct_simulation() {
        let engine = quick_engine(1);
        let b = Benchmark::Go;
        let trace = engine.trace(b);
        let direct = simulate_per_branch(&mut Gshare::new(10), &trace);
        let cached = engine.gshare(b, 10);
        assert_eq!(*cached, direct);
    }

    #[test]
    fn concurrent_same_key_requests_share_one_computation() {
        let engine = quick_engine(4);
        let results: Vec<Arc<PerBranchStats>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| engine.gshare(Benchmark::Gcc, 10)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert!(Arc::ptr_eq(r, &results[0]));
        }
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 3);
    }

    #[test]
    fn fan_out_preserves_benchmark_order() {
        for jobs in [1, 2, 8] {
            let engine = quick_engine(jobs);
            let names = engine.for_each_benchmark(|b| b.name().to_owned());
            let expect: Vec<String> = Benchmark::ALL.iter().map(|b| b.name().to_owned()).collect();
            assert_eq!(names, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn prewarm_populates_standard_predictors_once() {
        let engine = quick_engine(2);
        let cfg = ExperimentConfig {
            workload: *engine.traces().config(),
            ..ExperimentConfig::default()
        };
        engine.prewarm(&cfg);
        let after_prewarm = engine.cache_stats();
        // 4 predictors x 8 benchmarks.
        assert_eq!(after_prewarm.misses, 32);

        // Every later request is a hit, and prewarming again adds nothing.
        let _ = engine.gshare(Benchmark::Perl, cfg.gshare_bits);
        engine.prewarm(&cfg);
        let end = engine.cache_stats();
        assert_eq!(end.misses, 32);
        assert!(end.hits >= 1);
    }

    #[test]
    fn sharded_oracle_matches_serial_analysis() {
        // The branch-sharded search must agree exactly with the serial
        // reference whatever the worker budget.
        let serial = quick_engine(1);
        let sharded = quick_engine(4);
        let cfg = OracleConfig::default();
        for b in [Benchmark::Compress, Benchmark::Go] {
            let direct = OracleSelector::analyze(&serial.trace(b), &cfg);
            for engine in [&serial, &sharded] {
                let got = engine.oracle(b, &cfg);
                assert_eq!(got.branch_count(), direct.branch_count());
                for (pc, sel) in direct.iter() {
                    let g = got.selection(pc).expect("branch present");
                    assert_eq!(g.executions, sel.executions, "{b:?} {pc:#x}");
                    for k in 0..3 {
                        assert_eq!(g.best[k].tags, sel.best[k].tags, "{b:?} {pc:#x} k={k}");
                        assert_eq!(
                            g.best[k].correct, sel.best[k].correct,
                            "{b:?} {pc:#x} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_sweep_matches_per_window_oracles() {
        let windows = [8usize, 12, 16];
        let caps = [32usize, 40, 48];
        let base = OracleConfig::default();
        let swept = quick_engine(2);
        let plain = quick_engine(2);
        let b = Benchmark::Ijpeg;
        let sweep_results = swept.oracle_sweep(b, &windows, &caps, &base);
        // Only the points' results stay cached, not the sweep artifact.
        assert_eq!(swept.cache_stats().entries, windows.len() as u64);
        for ((&n, &cap), swept_r) in windows.iter().zip(&caps).zip(&sweep_results) {
            let point = OracleConfig {
                window: n,
                candidate_cap: cap,
                ..base
            };
            let direct = plain.oracle(b, &point);
            assert_eq!(swept_r.branch_count(), direct.branch_count(), "n={n}");
            for (pc, sel) in direct.iter() {
                let g = swept_r.selection(pc).expect("branch present");
                for k in 0..3 {
                    assert_eq!(g.best[k].tags, sel.best[k].tags, "n={n} {pc:#x} k={k}");
                    assert_eq!(
                        g.best[k].correct, sel.best[k].correct,
                        "n={n} {pc:#x} k={k}"
                    );
                }
            }
        }
        // The sweep's points land in the ordinary oracle cache: asking for
        // one directly is a hit, not a recomputation.
        let misses_before = swept.cache_stats().misses;
        let again = swept.oracle(
            b,
            &OracleConfig {
                window: 12,
                candidate_cap: 40,
                ..base
            },
        );
        assert_eq!(swept.cache_stats().misses, misses_before);
        assert!(Arc::ptr_eq(&again, &sweep_results[1]));
        // And the phase accounting saw the analyses.
        let phases = swept.oracle_phase_stats();
        let (_, stats) = phases
            .iter()
            .find(|(bench, _)| *bench == b)
            .expect("phase stats recorded");
        assert_eq!(stats.analyses, windows.len() as u64);
        assert_eq!(stats.builds, 1, "one artifact serves every point");
        assert!(stats.shards >= windows.len() as u64);
        assert!(stats.matrix_seconds >= 0.0 && stats.search_seconds >= 0.0);
    }

    #[test]
    fn claims_never_hold_more_than_the_jobs_budget() {
        let engine = quick_engine(4);
        let busy = || engine.busy_threads.load(Ordering::Relaxed);
        // Outside any fan-out the caller takes the first slot.
        let first = engine.claim(100);
        assert_eq!((first.threads, busy()), (4, 3));
        drop(first);
        assert_eq!(busy(), 0, "a dropped claim hands its threads back");
        assert_eq!(engine.claim(2).threads, 2, "no more than the items");
        // Two busy fan-out workers: the first to claim takes both idle
        // threads.
        engine.busy_threads.fetch_add(2, Ordering::Relaxed);
        let first = engine.claim(100);
        assert_eq!(first.threads, 3);
        assert_eq!(engine.claim(100).threads, 1, "nothing left to claim");
        drop(first);
        engine.busy_threads.fetch_sub(2, Ordering::Relaxed);

        // Eight claimers at once never hold more than the budget.
        let barrier = std::sync::Barrier::new(8);
        let extra: usize = std::thread::scope(|scope| {
            let claimers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let claim = engine.claim(100);
                        barrier.wait();
                        assert!(busy() <= 4, "{} busy threads", busy());
                        let extra = claim.threads - 1;
                        barrier.wait();
                        extra
                    })
                })
                .collect();
            claimers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(extra, 4, "3 for the first claimer, 1 for the next");
        assert_eq!(busy(), 0);
    }

    #[test]
    fn streaming_engine_matches_materialized() {
        let cfg = WorkloadConfig::default().with_target(3_000);
        let plain = Engine::new(TraceSet::new(cfg), 2);
        let streamed = Engine::new(TraceSet::new(cfg).with_streaming(), 2);
        let b = Benchmark::M88ksim;

        assert!(matches!(
            streamed.source(b),
            crate::TraceSetSource::Workload(_)
        ));
        assert_eq!(*streamed.gshare(b, 10), *plain.gshare(b, 10));
        assert_eq!(*streamed.pas_default(b), *plain.pas_default(b));
        let ccfg = ClassifierConfig::default();
        assert_eq!(
            *streamed.classification(b, &ccfg),
            *plain.classification(b, &ccfg)
        );
        assert_eq!(*streamed.profile(b), *plain.profile(b));

        let ocfg = OracleConfig::default();
        let so = streamed.oracle(b, &ocfg);
        let po = plain.oracle(b, &ocfg);
        assert_eq!(so.branch_count(), po.branch_count());
        for k in 1..=3 {
            assert_eq!(
                so.selective_stats(k).total(),
                po.selective_stats(k).total(),
                "k={k}"
            );
        }
    }

    #[test]
    fn oracle_and_classification_cache_by_config() {
        let engine = quick_engine(1);
        let b = Benchmark::Xlisp;
        let o1 = engine.oracle(b, &OracleConfig::default());
        let o2 = engine.oracle(b, &OracleConfig::default());
        assert!(Arc::ptr_eq(&o1, &o2));
        let narrow = OracleConfig {
            window: 8,
            ..OracleConfig::default()
        };
        let o3 = engine.oracle(b, &narrow);
        assert!(!Arc::ptr_eq(&o1, &o3));

        let c1 = engine.classification(b, &ClassifierConfig::default());
        let c2 = engine.classification(b, &ClassifierConfig::default());
        assert!(Arc::ptr_eq(&c1, &c2));

        let p1 = engine.profile(b);
        let p2 = engine.profile(b);
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn streams_shared_by_classifications_and_profile() {
        let engine = quick_engine(2);
        let b = Benchmark::Vortex;

        // Two classifier configs and the profile all ride one stream build.
        let wide = ClassifierConfig::default();
        let narrow = ClassifierConfig {
            max_period: 8,
            pas_history_bits: 4,
        };
        let _ = engine.classification(b, &wide);
        let _ = engine.classification(b, &narrow);
        let _ = engine.profile(b);
        let s1 = engine.streams(b);
        let s2 = engine.streams(b);
        assert!(Arc::ptr_eq(&s1, &s2));

        // Results match the direct (stream-free) entry points exactly.
        let trace = engine.trace(b);
        assert_eq!(
            *engine.classification(b, &wide),
            Classifier::classify(&trace, &wide)
        );
        assert_eq!(
            *engine.classification(b, &narrow),
            Classifier::classify(&trace, &narrow)
        );
        assert_eq!(*engine.profile(b), BranchProfile::of(&trace));

        // Phase accounting saw one stream build and two classifications.
        let phases = engine.classify_phase_stats();
        let (_, stats) = phases
            .iter()
            .find(|(bench, _)| *bench == b)
            .expect("classify phase stats recorded");
        assert_eq!(stats.classifications, 2);
        assert!(stats.stream_seconds >= 0.0);
        assert!(stats.sweep_seconds >= 0.0 && stats.replay_seconds >= 0.0);
    }
}
