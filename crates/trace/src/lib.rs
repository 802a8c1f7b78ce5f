//! Branch trace infrastructure for the correlation-and-predictability study.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! * [`BranchRecord`] / [`BranchKind`] — the unit of a trace: one dynamic
//!   branch with its address, target, and outcome.
//! * [`Trace`] — an in-memory dynamic branch trace with cheap cloning and
//!   binary (de)serialization (see [`io`]).
//! * [`Recorder`] — the instrumentation API used by the synthetic workloads:
//!   real Rust control flow calls into the recorder, which appends records.
//! * [`PathWindow`] — a sliding window over the last *n* conditional
//!   branches, producing the dual *instance tags* of Evers et al. §3.2
//!   ([`InstanceTag`], [`TagScheme`]) and the ternary [`TagOutcome`] used by
//!   selective-history predictors (§3.4).
//! * [`TraceStats`] / [`BranchProfile`] — static/dynamic branch statistics
//!   and per-branch bias profiles.
//! * [`BranchStreams`] — per-branch outcomes packed 64 per u64 word, the
//!   bit-parallel substrate of the §4 classification kernels (profiles by
//!   popcount, run-length decomposition by trailing-zero scans).
//! * [`script`] — the synthetic-workload DSL: per-branch outcome scripts
//!   ([`script::Segment`], [`script::BranchScript`]) interleaved into one
//!   trace ([`script::TraceSpec`]). Shared by the conformance corpus and
//!   the `bp-probe` measurement programs.
//!
//! # Example
//!
//! ```
//! use bp_trace::{Recorder, TraceStats};
//!
//! let mut rec = Recorder::new();
//! for i in 0..10u32 {
//!     // A "for-type" loop branch: taken 9 times, then not taken.
//!     rec.cond(0x400, i < 9);
//! }
//! let trace = rec.into_trace();
//! let stats = TraceStats::of(&trace);
//! assert_eq!(stats.dynamic_conditional, 10);
//! assert_eq!(stats.static_conditional, 1);
//! ```

// `deny` rather than `forbid`: the mmap module (the `.bps` artifact
// store's zero-copy re-open path) carries the crate's only
// `#[allow(unsafe_code)]` exceptions, mirroring bp-serve's `sys.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bps;
mod executor;
pub mod fx;
pub mod io;
pub mod mmap;
mod profile;
mod record;
mod recorder;
pub mod script;
pub mod sidecar;
mod sink;
mod source;
mod stats;
mod streams;
mod tag;
#[cfg(any(test, feature = "testgen"))]
pub mod testgen;
mod trace;
mod window;

pub use bps::{BpsBytes, BpsError, Words};
pub use executor::{par_map, par_threads, scan_shards, shard_of, MAX_SHARDS};
pub use fx::{FxHashMap, FxHashSet};
pub use profile::{BranchProfile, ProfileEntry};
pub use record::{BranchKind, BranchRecord, Pc};
pub use recorder::Recorder;
pub use sink::{CountingSink, TraceBuffer, TraceSink, CHUNK_RECORDS};
pub use source::TraceSource;
pub use stats::TraceStats;
pub use streams::{BranchStreams, OutcomeStream, StreamRuns};
pub use tag::{pattern_count, pattern_index, InstanceTag, TagOutcome, TagScheme};
pub use trace::Trace;
pub use window::{PathWindow, WindowEntry};
