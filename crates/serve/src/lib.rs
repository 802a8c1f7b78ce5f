//! `bp-serve`: a concurrent trace-evaluation service over the
//! experiment engine, with evented connection handling, a persistent
//! result cache, consistent-hash sharding, and a load-generating client.
//!
//! The offline `repro` binary answers the paper's questions once per
//! invocation, rebuilding every artifact each run. This crate turns the
//! same evaluation engine into shared measurement infrastructure: a
//! long-running daemon keeps per-workload [`bp_experiments::Engine`]s —
//! and their memoized `BranchStreams` / `BranchMatrix` / `EvalCache`
//! artifacts — hot in memory, and answers evaluation queries over a
//! small TCP protocol. The first query for a workload pays the build;
//! every identical query after it is a cache lookup (which survives
//! restarts via the disk tier), and every *overlapping* query (same
//! workload, different experiment) shares the engine's artifacts.
//! Multiple daemons scale horizontally: clients route each key over a
//! consistent-hash ring with automatic failover.
//!
//! Served outputs are byte-identical to `repro`'s for the same
//! configuration: both sides call [`bp_experiments::run_experiment`],
//! the single dispatch point (CI's smoke jobs diff the two through
//! every layer).
//!
//! | module | what |
//! |---|---|
//! | [`json`] | minimal JSON value/parser/writer (the workspace has no serialization crate) |
//! | [`protocol`] | length-prefixed JSON frames; request/response types; typed error codes |
//! | [`sys`] | the one foreign call: `poll(2)` (the only unsafe in the crate) |
//! | [`reactor`] | single-thread readiness loop owning every socket |
//! | [`server`] | bounded worker pool + bounded queue, coalescing, deadlines, drain |
//! | [`disk_cache`] | two-tier rendered-output cache: LRU memory + fingerprinted files |
//! | [`ring`] | consistent-hash shard routing and retry/backoff policy |
//! | [`stats`] | per-endpoint counters and p50/p99/p999 latency histograms |
//! | [`client`] | blocking client, sharded failover client, and the load generator |
//!
//! Binaries: `bp-serve` (the daemon) and `bp-client`
//! (`eval` / `trace` / `stats` / `ping` / `shutdown` / `bench` / `idle`).

#![deny(unsafe_code)] // `sys` carries the one audited `#[allow]` for poll(2).
#![warn(missing_docs)]

pub mod client;
pub mod disk_cache;
pub mod json;
pub mod protocol;
pub mod reactor;
pub mod ring;
pub mod server;
pub mod stats;
pub mod sys;

pub use client::{
    run_bench, BenchOptions, BenchReport, ChaosOptions, Client, ClientError, ShardedClient,
};
pub use disk_cache::{CacheTier, DiskCacheError, EvalKey, ResultCache};
pub use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, PredictorSpec, ProtocolError, Request,
    Response, DEFAULT_MAX_FRAME,
};
pub use ring::{Jitter, RetryPolicy, Ring};
pub use server::{spawn, ServerConfig, ServerHandle, MAX_TARGET};
pub use stats::{ServerStats, StatsSnapshot};
