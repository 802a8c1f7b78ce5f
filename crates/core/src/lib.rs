//! The correlation-and-predictability analysis of Evers, Patel, Chappell &
//! Patt (ISCA 1998) — the paper's primary contribution.
//!
//! Built on [`bp_trace`] (traces, path windows, instance tags) and
//! [`bp_predictors`] (every predictor the paper uses), this crate implements
//! the paper's three analyses:
//!
//! * **§3 Branch correlation** — [`TagCandidates`], [`OutcomeMatrix`], and
//!   [`OracleSelector`] find, for every static branch, the 1/2/3 prior
//!   branch instances whose outcomes best predict it, and evaluate the
//!   resulting *selective history* predictor (figures 4 and 5, table 2).
//! * **§4 Per-address predictability** — [`Classifier`] scores every branch
//!   with the loop, fixed-length-pattern, block-pattern, and
//!   interference-free PAs predictors and assigns it a [`PaClass`]
//!   (figure 6, table 3).
//! * **§5 Global vs per-address** — [`best_of`] distributions, the
//!   [`combined_correct`] hypothetical predictors ("gshare w/ Corr",
//!   "PAs w/ Loop"), and [`PercentileCurve`] accuracy-difference curves
//!   (figures 7–9).
//!
//! # Quickstart
//!
//! ```
//! use bp_core::{OracleConfig, OracleSelector};
//! use bp_trace::{BranchRecord, Trace};
//!
//! // Branch 0x200 copies the outcome of branch 0x100 (perfect correlation).
//! let mut recs = Vec::new();
//! for i in 0..500u64 {
//!     let dir = (i / 3) % 2 == 0;
//!     recs.push(BranchRecord::conditional(0x100, dir));
//!     recs.push(BranchRecord::conditional(0x200, dir));
//! }
//! let trace = Trace::from_records(recs);
//!
//! let oracle = OracleSelector::analyze(&trace, &OracleConfig::default());
//! let stats = oracle.selective_stats(1); // 1-tag selective history
//! assert!(stats.total().accuracy() > 0.95);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bestof;
mod bps;
mod candidates;
mod classify;
mod cost;
mod distance;
mod gaps;
mod matrix;
mod oracle;
mod percentile;
#[doc(hidden)]
#[allow(missing_docs)]
pub mod reference;
mod selective;
// bp-core's only unsafe: runtime-dispatched AVX2 kernels, each one
// differentially tested bit-exact against its scalar twin.
#[allow(unsafe_code)]
mod simd;
mod sweep;

pub use bestof::{
    best_of, combined_correct, per_branch_max, BestOfDistribution, Contender, IDEAL_STATIC_NAME,
};
pub use bps::{open_matrix, write_matrix, OpenedMatrix};
pub use candidates::TagCandidates;
#[doc(hidden)]
pub use classify::{kth_ago_correct, kth_ago_correct_scalar};
pub use classify::{
    BranchClassScores, Classification, Classifier, ClassifierConfig, ClassifyPhases, PaClass,
};
pub use cost::CostModel;
pub use distance::DistanceHistogram;
pub use gaps::MispredictProfile;
pub use matrix::{BranchMatrix, OutcomeMatrix};
pub use oracle::{
    presence_stats, BranchSelection, OracleConfig, OracleResult, OracleSelector, SearchStrategy,
    TagSetScore, MAX_SELECTIVE_TAGS,
};
#[doc(hidden)]
pub use oracle::{score_columns_presence, score_tag_set, score_tag_set_scalar};
pub use percentile::PercentileCurve;
pub use selective::SelectivePredictor;
#[doc(hidden)]
pub use simd::{avx2_available, kth_ago_body_avx2, transpose_rows_avx2, transpose_rows_scalar};
pub use sweep::{SweepMatrix, MAX_SWEEP_WINDOWS};
