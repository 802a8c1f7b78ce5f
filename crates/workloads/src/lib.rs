//! Synthetic SPECint95-analog workloads.
//!
//! The paper traces the eight SPECint95 benchmarks to completion (Table 1).
//! Those binaries and inputs are not redistributable, so this crate provides
//! one deterministic *miniature program* per benchmark, written in ordinary
//! Rust whose real control flow is recorded through [`bp_trace::Recorder`].
//! Each program is designed around the branch-behavior profile that made its
//! namesake interesting to the paper:
//!
//! | Workload | Modeled after | Dominant branch behavior |
//! |---|---|---|
//! | [`Benchmark::Compress`] | compress (LZW) | hash-probe hits/misses, biased encode tests |
//! | [`Benchmark::Gcc`] | gcc | many static branches, correlated pass guards |
//! | [`Benchmark::Go`] | go | weakly biased, data-dependent evaluations |
//! | [`Benchmark::Ijpeg`] | ijpeg | regular nested block loops, quantizer bias |
//! | [`Benchmark::M88ksim`] | m88ksim | decode dispatch, strongly biased checks |
//! | [`Benchmark::Perl`] | perl | interpreter dispatch, string-scan patterns |
//! | [`Benchmark::Vortex`] | vortex | validation checks, >99% biased |
//! | [`Benchmark::Xlisp`] | xlisp | recursive eval, call-path correlation |
//!
//! Traces are deterministic functions of [`WorkloadConfig`] (seed + target
//! length), so every analysis is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use bp_workloads::{Benchmark, WorkloadConfig};
//!
//! let cfg = WorkloadConfig { target_branches: 5_000, ..WorkloadConfig::default() };
//! let trace = Benchmark::Compress.generate(&cfg);
//! assert!(trace.conditional_count() >= 5_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compress;
mod gcc;
mod go;
mod ijpeg;
mod m88ksim;
mod perl;
mod vortex;
mod xlisp;

use bp_trace::io::TraceIoError;
use bp_trace::{Trace, TraceBuffer, TraceSink, TraceSource};

/// Parameters of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// RNG seed; each benchmark mixes in its own salt, so the same seed
    /// gives unrelated streams across benchmarks.
    pub seed: u64,
    /// The workload repeats its program on fresh data until at least this
    /// many dynamic conditional branches are recorded.
    pub target_branches: usize,
}

impl Default for WorkloadConfig {
    /// Seed `0xEC0_1998`, 200k conditional branches — large enough for
    /// stable accuracy estimates, small enough for quick experiment runs.
    /// Scale `target_branches` up for paper-sized runs.
    fn default() -> Self {
        WorkloadConfig {
            seed: 0xEC0_1998,
            target_branches: 200_000,
        }
    }
}

impl WorkloadConfig {
    /// Returns a copy with a different target length.
    pub fn with_target(mut self, target_branches: usize) -> Self {
        self.target_branches = target_branches;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The eight SPECint95-analog benchmarks (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// LZW text compressor (models `compress` on `test.in`).
    Compress,
    /// Optimizing-compiler pass pipeline (models `gcc` on `jump.i`).
    Gcc,
    /// Game-position evaluator (models `go` on `2stone9.in`).
    Go,
    /// Block image coder (models `ijpeg` on `specmun.ppm`).
    Ijpeg,
    /// Microprocessor simulator (models `m88ksim` on `dcrand.train.big`).
    M88ksim,
    /// Script interpreter (models `perl` on `scrabbl.pl`).
    Perl,
    /// Object-database transactions (models `vortex` on `vortex.in`).
    Vortex,
    /// Lisp interpreter (models `xlisp` on `train.lsp`).
    Xlisp,
}

impl Benchmark {
    /// All benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Ijpeg,
        Benchmark::M88ksim,
        Benchmark::Perl,
        Benchmark::Vortex,
        Benchmark::Xlisp,
    ];

    /// Benchmark name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Gcc => "gcc",
            Benchmark::Go => "go",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Perl => "perl",
            Benchmark::Vortex => "vortex",
            Benchmark::Xlisp => "xlisp",
        }
    }

    /// The abbreviated label used on the paper's figure x-axes.
    pub fn short_name(self) -> &'static str {
        match self {
            Benchmark::Compress => "com",
            Benchmark::Gcc => "gcc",
            Benchmark::Go => "go",
            Benchmark::Ijpeg => "ijp",
            Benchmark::M88ksim => "m88",
            Benchmark::Perl => "per",
            Benchmark::Vortex => "vor",
            Benchmark::Xlisp => "xli",
        }
    }

    /// The input data set the paper used (Table 1) — informational.
    pub fn paper_input(self) -> &'static str {
        match self {
            Benchmark::Compress => "test.in",
            Benchmark::Gcc => "jump.i",
            Benchmark::Go => "2stone9.in",
            Benchmark::Ijpeg => "specmun.ppm",
            Benchmark::M88ksim => "dcrand.train.big",
            Benchmark::Perl => "scrabbl.pl",
            Benchmark::Vortex => "vortex.in",
            Benchmark::Xlisp => "train.lsp",
        }
    }

    /// Dynamic conditional branch count the paper reports (Table 1).
    pub fn paper_branch_count(self) -> u64 {
        match self {
            Benchmark::Compress => 10_661_855,
            Benchmark::Gcc => 25_903_086,
            Benchmark::Go => 17_925_171,
            Benchmark::Ijpeg => 20_441_307,
            Benchmark::M88ksim => 16_719_523,
            Benchmark::Perl => 10_570_887,
            Benchmark::Vortex => 33_853_896,
            Benchmark::Xlisp => 26_422_387,
        }
    }

    /// Parses a full or abbreviated benchmark name.
    pub fn parse(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == name || b.short_name() == name)
    }

    /// Generates the benchmark's branch trace in memory.
    pub fn generate(self, cfg: &WorkloadConfig) -> Trace {
        self.generate_into(cfg, TraceBuffer::new()).into_trace()
    }

    /// Streams the benchmark's branch trace into `sink` chunk by chunk and
    /// returns the sink. The record sequence is identical to
    /// [`Benchmark::generate`]; the trace never exists as one allocation,
    /// so targets far beyond memory (100M–1B branches) are fine when the
    /// sink is itself bounded (a counting sink, an artifact builder, an
    /// on-disk writer).
    pub fn generate_into<S: TraceSink>(self, cfg: &WorkloadConfig, sink: S) -> S {
        match self {
            Benchmark::Compress => compress::generate_into(cfg, sink),
            Benchmark::Gcc => gcc::generate_into(cfg, sink),
            Benchmark::Go => go::generate_into(cfg, sink),
            Benchmark::Ijpeg => ijpeg::generate_into(cfg, sink),
            Benchmark::M88ksim => m88ksim::generate_into(cfg, sink),
            Benchmark::Perl => perl::generate_into(cfg, sink),
            Benchmark::Vortex => vortex::generate_into(cfg, sink),
            Benchmark::Xlisp => xlisp::generate_into(cfg, sink),
        }
    }

    /// A replayable [`TraceSource`] that *regenerates* this benchmark on
    /// every scan instead of storing anything: determinism makes the
    /// workload itself the storage. Memory per scan is one record chunk.
    pub fn source(self, cfg: WorkloadConfig) -> WorkloadSource {
        WorkloadSource {
            benchmark: self,
            cfg,
        }
    }
}

/// Regenerating trace source (see [`Benchmark::source`]).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSource {
    benchmark: Benchmark,
    cfg: WorkloadConfig,
}

impl WorkloadSource {
    /// The benchmark this source regenerates.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The generation parameters.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }
}

impl TraceSource for WorkloadSource {
    fn scan(&self, visit: &mut dyn FnMut(&[bp_trace::BranchRecord])) -> Result<(), TraceIoError> {
        struct Fwd<'a>(&'a mut dyn FnMut(&[bp_trace::BranchRecord]));
        impl TraceSink for Fwd<'_> {
            fn chunk(&mut self, records: &[bp_trace::BranchRecord]) {
                (self.0)(records);
            }
        }
        self.benchmark.generate_into(&self.cfg, Fwd(visit));
        Ok(())
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::parse(s).ok_or_else(|| ParseBenchmarkError(s.to_owned()))
    }
}

/// Error returned when a benchmark name does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError(String);

impl std::fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark name: {:?}", self.0)
    }
}

impl std::error::Error for ParseBenchmarkError {}

/// Mixes the config seed with a per-benchmark salt; used by every workload
/// so the same user seed yields unrelated streams per benchmark.
pub(crate) fn salted_seed(cfg: &WorkloadConfig, salt: u64) -> u64 {
    cfg.seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.name()), Some(b));
            assert_eq!(Benchmark::parse(b.short_name()), Some(b));
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
        }
        assert_eq!(Benchmark::parse("nope"), None);
        assert!("nope".parse::<Benchmark>().is_err());
        let err = "nope".parse::<Benchmark>().unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn table1_counts_present() {
        let total: u64 = Benchmark::ALL.iter().map(|b| b.paper_branch_count()).sum();
        assert_eq!(total, 162_498_112);
    }

    #[test]
    fn config_builders() {
        let cfg = WorkloadConfig::default().with_seed(7).with_target(123);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.target_branches, 123);
    }

    #[test]
    fn salted_seeds_differ() {
        let cfg = WorkloadConfig::default();
        assert_ne!(salted_seed(&cfg, 1), salted_seed(&cfg, 2));
    }

    #[test]
    fn streamed_generation_matches_materialized() {
        let cfg = WorkloadConfig {
            seed: 5,
            target_branches: 10_000,
        };
        for b in [Benchmark::Compress, Benchmark::Xlisp] {
            let direct = b.generate(&cfg);
            let streamed = b
                .generate_into(&cfg, bp_trace::TraceBuffer::new())
                .into_trace();
            assert_eq!(direct, streamed, "{b}");

            let mut via_source = Vec::new();
            b.source(cfg)
                .scan(&mut |chunk| via_source.extend_from_slice(chunk))
                .unwrap();
            assert_eq!(direct.records(), &via_source[..], "{b} via source");
        }
    }
}
