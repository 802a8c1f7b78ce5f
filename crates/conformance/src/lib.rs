//! Conformance verification for the correlation-and-predictability
//! workspace: adversarial trace generation, differential kernel checking,
//! metamorphic predictor laws, and golden-snapshot verification.
//!
//! The optimized bit-parallel kernels in [`bp_core`] (candidate/matrix
//! builder, oracle scorers, classifier) carry executable specifications in
//! `bp_core::reference`; the predictors in [`bp_predictors`] obey
//! algebraic laws relating them to each other. This crate turns those
//! relations into a runnable subsystem:
//!
//! * [`gen`] — adversarial corpora composed from the shared
//!   [`bp_trace::script`] DSL (re-exported here): loop nests, fixed and
//!   block patterns, word-boundary polarity flips, ring-capacity-length
//!   histories, and aliasing-heavy PC maps.
//! * [`diff`] — differential runners replaying each corpus trace through
//!   every optimized kernel and its specification, reporting first
//!   divergence with a ddmin-minimized reproducer trace.
//! * [`laws`] — metamorphic laws over the predictor family.
//!
//! Golden snapshots of rendered experiment output live in
//! [`bp_experiments::goldens`]; the `bp-conformance` CLI's `sweep`
//! subcommand ([`cli`]) runs all of the above plus `repro`'s golden
//! verifier, and its `selftest` proves the harness catches deliberately
//! injected kernel bugs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod gen;
pub mod laws;

pub use diff::{
    diff_bps, diff_parallel, diff_simd, diff_streaming, minimize, run_case, DiffConfig, Divergence,
    Kernels, PARALLEL_JOBS, STREAM_CHUNK_SIZES,
};
pub use gen::{corpus, BranchScript, Interleave, NamedTrace, Segment, TraceSpec};
pub use laws::{all_laws, Law};
