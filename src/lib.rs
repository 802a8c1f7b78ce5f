//! # correlation-predictability
//!
//! A reproduction of **Evers, Patel, Chappell & Patt, "An Analysis of
//! Correlation and Predictability: What Makes Two-Level Branch Predictors
//! Work" (ISCA 1998)** as a production-quality Rust workspace.
//!
//! This umbrella crate re-exports the workspace's library layers:
//!
//! * [`trace`] ([`bp_trace`]) — branch traces, the instrumentation
//!   recorder, path windows and the dual instance-tagging schemes of §3.2.
//! * [`workloads`] ([`bp_workloads`]) — deterministic synthetic analogs of
//!   the eight SPECint95 benchmarks (paper Table 1).
//! * [`predictors`] ([`bp_predictors`]) — every predictor the paper uses:
//!   Smith, GAs, gshare, PAs (plus interference-free variants), path-based,
//!   loop, fixed-length-pattern, block-pattern, ideal static, and hybrids.
//! * [`core`] ([`bp_core`]) — the paper's analyses: oracle selective
//!   histories (§3), per-address predictability classes (§4), and the
//!   global-vs-per-address comparisons (§5).
//! * [`experiments`] ([`bp_experiments`]) — the harness regenerating every
//!   table and figure (run
//!   `cargo run --release -p bp-experiments --bin repro -- all`).
//!
//! # Quickstart
//!
//! ```
//! use correlation_predictability::predictors::{simulate, Gshare, Predictor};
//! use correlation_predictability::workloads::{Benchmark, WorkloadConfig};
//!
//! let cfg = WorkloadConfig::default().with_target(20_000);
//! let trace = Benchmark::Gcc.generate(&cfg);
//! let mut gshare = Gshare::default();
//! let stats = simulate(&mut gshare, &trace);
//! println!("{}: {:.2}%", gshare.name(), stats.accuracy_pct());
//! assert!(stats.accuracy() > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bp_core as core;
pub use bp_experiments as experiments;
pub use bp_predictors as predictors;
pub use bp_trace as trace;
pub use bp_workloads as workloads;
