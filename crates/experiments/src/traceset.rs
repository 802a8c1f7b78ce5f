use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use bp_trace::io::{self, ChunkWriter, FileTraceSource, TraceIoError};
use bp_trace::sidecar::{fnv1a, write_atomic, Sidecar, CONTENT_OFFSET};
use bp_trace::{par_map, BranchRecord, Trace, TraceSource};
use bp_workloads::{Benchmark, WorkloadConfig, WorkloadSource};

use crate::artifacts::streams_config_fp;

/// Lazily generated, cached traces for all benchmarks, shared across the
/// experiments of one run so each workload is generated once.
///
/// The set is accessed through `&self` (interior locking), so a single
/// pre-warmed instance can be shared read-only across worker threads —
/// the evaluation engine's per-benchmark fan-out depends on this.
/// [`TraceSet::trace`] hands out `Arc<Trace>` handles; the underlying
/// record buffer is never copied.
///
/// With [`TraceSet::with_disk_cache`], traces also persist across *runs*
/// as `.bpt` files (the `bp-trace` binary format), keyed by benchmark,
/// seed, and target length. Each cache file carries a `.fp` sidecar
/// recording the workload-config fingerprint and a content hash; a cached
/// trace is only trusted when both match and the decoded trace actually
/// meets the configured target length. Corrupt, tampered, stale, or
/// unreadable cache entries are regenerated with a one-line notice.
#[derive(Debug)]
pub struct TraceSet {
    cfg: WorkloadConfig,
    traces: RwLock<HashMap<Benchmark, Arc<Trace>>>,
    cache_dir: Option<PathBuf>,
    stream: bool,
}

impl TraceSet {
    /// Creates an empty set that will generate with `cfg`.
    pub fn new(cfg: WorkloadConfig) -> Self {
        TraceSet {
            cfg,
            traces: RwLock::new(HashMap::new()),
            cache_dir: None,
            stream: false,
        }
    }

    /// As [`TraceSet::new`], persisting traces under `dir` (created on
    /// first write).
    pub fn with_disk_cache(cfg: WorkloadConfig, dir: impl Into<PathBuf>) -> Self {
        TraceSet {
            cfg,
            traces: RwLock::new(HashMap::new()),
            cache_dir: Some(dir.into()),
            stream: false,
        }
    }

    /// Switches the set to streaming mode: [`TraceSet::source`] never
    /// materializes a full trace. With a disk cache the workload is
    /// streamed once into a chunk-framed `.bpt2` file and scanned through
    /// a fixed-size read window afterwards; without one, every scan
    /// regenerates the workload chunk by chunk (determinism makes the
    /// generator its own storage). Peak memory per benchmark drops from
    /// the full record buffer to one chunk.
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

    fn cache_path(&self, benchmark: Benchmark) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|dir| {
            dir.join(format!(
                "{}-{:x}-{}.bpt",
                benchmark.name(),
                self.cfg.seed,
                self.cfg.target_branches
            ))
        })
    }

    /// Fingerprint of everything the generated trace depends on: the
    /// benchmark identity and the workload configuration.
    fn config_fingerprint(cfg: &WorkloadConfig, benchmark: Benchmark) -> u64 {
        streams_config_fp(benchmark.name(), cfg.seed, cfg.target_branches)
    }

    fn content_fingerprint(encoded: &[u8]) -> u64 {
        fnv1a(CONTENT_OFFSET, encoded)
    }

    /// Validates a cached `.bpt` against its sidecar and the current
    /// workload config; `Err` carries the one-line reason for the notice.
    fn validate_cached(
        cfg: &WorkloadConfig,
        benchmark: Benchmark,
        path: &Path,
    ) -> Result<Trace, String> {
        let encoded = std::fs::read(path).map_err(|e| e.to_string())?;
        let sidecar = Sidecar::load(path).map_err(|e| e.to_string())?;
        if sidecar.config != Self::config_fingerprint(cfg, benchmark) {
            return Err("workload config fingerprint mismatch".into());
        }
        if sidecar.content != Self::content_fingerprint(&encoded) {
            return Err("content fingerprint mismatch".into());
        }
        let trace = io::read_trace(encoded.as_slice()).map_err(|_| "corrupt trace encoding")?;
        if trace.conditional_count() < cfg.target_branches {
            return Err("shorter than the configured target".into());
        }
        Ok(trace)
    }

    fn load_or_generate(
        cfg: &WorkloadConfig,
        benchmark: Benchmark,
        path: Option<&PathBuf>,
    ) -> Trace {
        // A missing file is a first run, not a reason for a notice.
        if let Some(path) = path.filter(|p| p.exists()) {
            match Self::validate_cached(cfg, benchmark, path) {
                Ok(trace) => return trace,
                Err(why) => eprintln!(
                    "notice: regenerating trace cache {} ({why})",
                    path.display()
                ),
            }
        }
        let trace = benchmark.generate(cfg);
        if let Some(path) = path {
            let write = || -> Result<(), io::TraceIoError> {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                let mut encoded = Vec::new();
                io::write_trace(&mut encoded, &trace)?;
                write_atomic(path, |out| out.write_all(&encoded))?;
                Sidecar {
                    config: Self::config_fingerprint(cfg, benchmark),
                    content: Self::content_fingerprint(&encoded),
                }
                .write(path)?;
                Ok(())
            };
            if let Err(e) = write() {
                eprintln!("warning: could not cache trace to {}: {e}", path.display());
            }
        }
        trace
    }

    /// The trace for `benchmark`, generating (or loading from the disk
    /// cache) on first use.
    ///
    /// Generation happens outside the lock so concurrent callers for
    /// *different* benchmarks proceed in parallel; if two threads race on
    /// the same benchmark, the first insertion wins (generation is
    /// deterministic, so both candidates are identical anyway).
    pub fn trace(&self, benchmark: Benchmark) -> Arc<Trace> {
        if let Some(t) = self.traces.read().expect("trace map lock").get(&benchmark) {
            return Arc::clone(t);
        }
        let path = self.cache_path(benchmark);
        let trace = Arc::new(Self::load_or_generate(&self.cfg, benchmark, path.as_ref()));
        let mut map = self.traces.write().expect("trace map lock");
        Arc::clone(map.entry(benchmark).or_insert(trace))
    }

    fn stream_path(&self, benchmark: Benchmark) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|dir| {
            dir.join(format!(
                "{}-{:x}-{}.bpt2",
                benchmark.name(),
                self.cfg.seed,
                self.cfg.target_branches
            ))
        })
    }

    /// Validates a cached `.bpt2` stream file against its sidecar
    /// (config fingerprint + total record count) and the file's own
    /// framing footer; `Err` carries the one-line reason for the notice.
    fn validate_stream_file(
        cfg: &WorkloadConfig,
        benchmark: Benchmark,
        path: &Path,
    ) -> Result<FileTraceSource, String> {
        let sidecar = Sidecar::load(path).map_err(|e| e.to_string())?;
        if sidecar.config != Self::config_fingerprint(cfg, benchmark) {
            return Err("workload config fingerprint mismatch".into());
        }
        let source = FileTraceSource::open(path).map_err(|_| "corrupt stream file")?;
        if source.len() != sidecar.content {
            return Err("record count mismatch".into());
        }
        Ok(source)
    }

    /// Writes the benchmark's trace to `path` chunk by chunk (through
    /// [`write_atomic`]) and opens it for windowed reads. Peak memory is
    /// one chunk; the full trace only ever exists on disk.
    fn write_stream_file(
        cfg: &WorkloadConfig,
        benchmark: Benchmark,
        path: &Path,
    ) -> Result<FileTraceSource, TraceIoError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let total = write_atomic(path, |out| {
            benchmark
                .generate_into(cfg, ChunkWriter::new(out)?)
                .finish()
        })?;
        Sidecar {
            config: Self::config_fingerprint(cfg, benchmark),
            content: total,
        }
        .write(path)?;
        FileTraceSource::open(path)
    }

    /// A replayable [`TraceSource`] for `benchmark`, choosing the cheapest
    /// backing that honors the set's memory policy:
    ///
    /// * a trace already materialized in memory is shared as-is;
    /// * in streaming mode with a disk cache, a chunk-framed `.bpt2` file
    ///   (written on first use, validated like the `.bpt` cache) is
    ///   scanned through a fixed-size read window;
    /// * in streaming mode without one, every scan regenerates the
    ///   workload chunk by chunk;
    /// * otherwise the trace is materialized (the pre-streaming behavior).
    pub fn source(&self, benchmark: Benchmark) -> TraceSetSource {
        if let Some(t) = self.traces.read().expect("trace map lock").get(&benchmark) {
            return TraceSetSource::Memory(Arc::clone(t));
        }
        if self.stream {
            if let Some(path) = self.stream_path(benchmark) {
                if path.exists() {
                    match Self::validate_stream_file(&self.cfg, benchmark, &path) {
                        Ok(source) => return TraceSetSource::File(Arc::new(source)),
                        Err(why) => eprintln!(
                            "notice: regenerating stream cache {} ({why})",
                            path.display()
                        ),
                    }
                }
                match Self::write_stream_file(&self.cfg, benchmark, &path) {
                    Ok(source) => return TraceSetSource::File(Arc::new(source)),
                    Err(e) => eprintln!(
                        "warning: could not stream trace to {}: {e}; \
                         falling back to regeneration per scan",
                        path.display()
                    ),
                }
            }
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
/// trace, a windowed on-disk stream file, or the regenerating workload
/// itself. All three scan the identical record sequence.
#[derive(Debug, Clone)]
pub enum TraceSetSource {
    /// A fully materialized trace shared from the in-memory cache.
    Memory(Arc<Trace>),
    /// A chunk-framed `.bpt2` file scanned through a fixed-size window.
    File(Arc<FileTraceSource>),
    /// The deterministic workload generator, re-run on every scan.
    Workload(WorkloadSource),
}

impl TraceSource for TraceSetSource {
    fn scan(&self, f: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        match self {
            TraceSetSource::Memory(t) => t.scan(f),
            TraceSetSource::File(s) => s.scan(f),
            TraceSetSource::Workload(w) => w.scan(f),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            TraceSetSource::Memory(t) => TraceSource::len_hint(&**t),
            TraceSetSource::File(s) => TraceSource::len_hint(&**s),
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

    #[test]
    fn disk_cache_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("bp-tracecache-{}", std::process::id()));
        let cfg = WorkloadConfig::default().with_target(1_500);

        let a = TraceSet::with_disk_cache(cfg, &dir);
        let first = a.trace(Benchmark::Compress);

        // A fresh set must load the identical trace from disk.
        let b = TraceSet::with_disk_cache(cfg, &dir);
        assert_eq!(b.trace(Benchmark::Compress), first);

        // Corrupt the cache file: the set regenerates instead of failing.
        let path = b.cache_path(Benchmark::Compress).expect("cache path");
        std::fs::write(&path, b"garbage").expect("overwrite cache");
        let c = TraceSet::with_disk_cache(cfg, &dir);
        assert_eq!(c.trace(Benchmark::Compress), first);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cache_rejects_tampered_and_unfingerprinted_entries() {
        let dir = std::env::temp_dir().join(format!("bp-tracecache-fp-{}", std::process::id()));
        let cfg = WorkloadConfig::default().with_target(1_200);

        let first = TraceSet::with_disk_cache(cfg, &dir).trace(Benchmark::Compress);
        let path = TraceSet::with_disk_cache(cfg, &dir)
            .cache_path(Benchmark::Compress)
            .expect("cache path");
        let sidecar = Sidecar::path_for(&path);
        assert!(sidecar.exists(), "writing the cache must write the sidecar");

        // A *valid* but wrong trace swapped in without updating the
        // sidecar fails the content fingerprint and is regenerated.
        let imposter = Benchmark::Go.generate(&cfg);
        let mut encoded = Vec::new();
        io::write_trace(&mut encoded, &imposter).expect("encode imposter");
        std::fs::write(&path, &encoded).expect("swap cache content");
        assert_eq!(
            TraceSet::with_disk_cache(cfg, &dir).trace(Benchmark::Compress),
            first
        );

        // Regeneration rewrote both files; deleting the sidecar alone
        // also invalidates the entry.
        std::fs::remove_file(&sidecar).expect("drop sidecar");
        assert_eq!(
            TraceSet::with_disk_cache(cfg, &dir).trace(Benchmark::Compress),
            first
        );
        assert!(sidecar.exists(), "regeneration must restore the sidecar");

        // A config change (different target) must not trust the old
        // entry even though the content fingerprint still matches it —
        // the filename differs, so this lands in a fresh cache slot.
        let longer = WorkloadConfig::default().with_target(2_400);
        let grown = TraceSet::with_disk_cache(longer, &dir).trace(Benchmark::Compress);
        assert!(grown.conditional_count() >= 2_400);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cache_rejects_stale_config_fingerprints() {
        let dir = std::env::temp_dir().join(format!("bp-tracecache-stale-{}", std::process::id()));
        let cfg = WorkloadConfig::default().with_target(1_000);

        let set = TraceSet::with_disk_cache(cfg, &dir);
        let first = set.trace(Benchmark::Compress);
        let path = set.cache_path(Benchmark::Compress).expect("cache path");
        // Rewrite the sidecar with a bogus config fingerprint but a
        // correct content hash: the entry must be treated as stale.
        let encoded = std::fs::read(&path).expect("read cache");
        Sidecar {
            config: 0xdead_beef,
            content: TraceSet::content_fingerprint(&encoded),
        }
        .write(&path)
        .expect("forge sidecar");
        assert_eq!(
            TraceSet::with_disk_cache(cfg, &dir).trace(Benchmark::Compress),
            first
        );

        std::fs::remove_dir_all(&dir).ok();
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
        let expect = TraceSet::new(cfg).trace(Benchmark::Compress);

        // Without a cache dir, streaming regenerates per scan — twice in a
        // row to prove the source is replayable.
        let regen = TraceSet::new(cfg).with_streaming();
        assert!(regen.is_streaming());
        let src = regen.source(Benchmark::Compress);
        assert!(matches!(src, TraceSetSource::Workload(_)));
        assert_eq!(collect(&src), expect.records());
        assert_eq!(collect(&src), expect.records());

        // A materialized trace is shared as-is, even in streaming mode.
        let warm = TraceSet::new(cfg).with_streaming();
        let _ = warm.trace(Benchmark::Compress);
        assert!(matches!(
            warm.source(Benchmark::Compress),
            TraceSetSource::Memory(_)
        ));
    }

    #[test]
    fn streaming_disk_cache_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("bp-streamcache-{}", std::process::id()));
        let cfg = WorkloadConfig::default().with_target(1_000);
        let expect = TraceSet::new(cfg).trace(Benchmark::Compress);

        let disk = TraceSet::with_disk_cache(cfg, &dir).with_streaming();
        let src = disk.source(Benchmark::Compress);
        assert!(matches!(src, TraceSetSource::File(_)));
        assert_eq!(collect(&src), expect.records());
        assert_eq!(
            TraceSource::len_hint(&src),
            Some(expect.records().len() as u64)
        );

        // A fresh set revalidates and reuses the cached stream file.
        let again = TraceSet::with_disk_cache(cfg, &dir).with_streaming();
        let src = again.source(Benchmark::Compress);
        assert!(matches!(src, TraceSetSource::File(_)));
        assert_eq!(collect(&src), expect.records());

        // Corrupting the file forces a rewrite, not a failure.
        let path = again.stream_path(Benchmark::Compress).expect("stream path");
        std::fs::write(&path, b"garbage").expect("overwrite stream cache");
        let fresh = TraceSet::with_disk_cache(cfg, &dir).with_streaming();
        assert_eq!(
            collect(&fresh.source(Benchmark::Compress)),
            expect.records()
        );

        std::fs::remove_dir_all(&dir).ok();
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
