//! Differential runners: every optimized kernel against its executable
//! specification, with first-divergence reporting and trace minimization.
//!
//! Three kernels are pinned:
//!
//! * the bit-plane oracle scorers ([`bp_core::score_tag_set`] /
//!   [`bp_core::score_columns_presence`] and the full per-branch subset
//!   search) against the digit-at-a-time `bp_core::reference` scorers;
//! * the bit-parallel classifier (`Classifier::classify`) against
//!   `reference::classify`;
//! * the candidate/matrix builder — every [`SweepMatrix`] point and the
//!   one-window [`OutcomeMatrix::build`] — against the per-record
//!   `reference::outcome_matrix`.
//!
//! Each runner is parameterized over the kernel entry point it checks, so
//! the self-test can inject a deliberately buggy kernel and prove the
//! harness catches it. On divergence, [`minimize`] shrinks the failing
//! trace with a ddmin-style chunk removal loop before it is reported.
//!
//! Two further suites pin the paper-scale machinery: `parallel` diffs
//! every parallel kernel (classify, oracle select, sweep materialization)
//! at 2 and 7 jobs against the same kernel's one-job result, and `bps`
//! round-trips the packed `.bps` artifacts through a write → reopen
//! cycle and diffs the analysis summary computed from the reopened planes
//! against the freshly built ones.

use std::path::Path;

use bp_core::reference;
use bp_core::{
    BranchMatrix, Classification, Classifier, ClassifierConfig, OracleConfig, OracleSelector,
    OutcomeMatrix, SweepMatrix, TagCandidates,
};
use bp_predictors::SaturatingCounter;
use bp_trace::bps::{open_streams, write_streams};
use bp_trace::io::{self, ChunkWriter, TraceIoError};
use bp_trace::{BranchRecord, BranchStreams, TagScheme, Trace, TraceSink, TraceSource};

/// The optimized tag-set scorer under test (injectable).
pub type TagScorer = fn(&BranchMatrix, &[usize], SaturatingCounter) -> u64;
/// The optimized presence scorer under test (injectable).
pub type PresenceScorer = fn(&BranchMatrix, &[usize], SaturatingCounter) -> u64;
/// The classifier under test (injectable).
pub type ClassifyFn = fn(&Trace, &ClassifierConfig) -> Classification;
/// The sweep materializer under test (injectable): builds the sweep for
/// `(trace, windows, caps)` and materializes point `idx`.
pub type SweepFn = fn(&Trace, &[usize], &[usize], usize) -> OutcomeMatrix;

/// The kernel entry points a differential pass exercises. [`Kernels::default`]
/// wires the production kernels; the self-test swaps individual entries
/// for deliberately broken ones.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Tag-set scorer (production: [`bp_core::score_tag_set`]).
    pub tag_scorer: TagScorer,
    /// Presence scorer (production: [`bp_core::score_columns_presence`]).
    pub presence_scorer: PresenceScorer,
    /// Classifier (production: [`Classifier::classify`]).
    pub classify: ClassifyFn,
    /// Sweep materializer (production: [`SweepMatrix::build`] +
    /// [`SweepMatrix::materialize`]).
    pub sweep: SweepFn,
}

fn production_classify(trace: &Trace, cfg: &ClassifierConfig) -> Classification {
    Classifier::classify(trace, cfg)
}

fn production_sweep(trace: &Trace, windows: &[usize], caps: &[usize], idx: usize) -> OutcomeMatrix {
    SweepMatrix::build(trace, windows, caps).materialize(idx)
}

impl Default for Kernels {
    fn default() -> Self {
        Kernels {
            tag_scorer: bp_core::score_tag_set,
            presence_scorer: bp_core::score_columns_presence,
            classify: production_classify,
            sweep: production_sweep,
        }
    }
}

/// Analysis parameters a differential pass runs at. Smaller than the
/// production defaults so the reference (per-digit) side stays fast.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Oracle configuration for scorer and subset-search diffing.
    pub oracle: OracleConfig,
    /// Classifier configurations (each is diffed).
    pub classify: Vec<ClassifierConfig>,
    /// Sweep window set.
    pub windows: Vec<usize>,
    /// Per-window candidate caps.
    pub caps: Vec<usize>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            oracle: OracleConfig {
                window: 8,
                candidate_cap: 12,
                ..OracleConfig::default()
            },
            classify: vec![
                ClassifierConfig::default(),
                ClassifierConfig {
                    max_period: 64,
                    pas_history_bits: 4,
                },
                ClassifierConfig {
                    max_period: 1,
                    pas_history_bits: 1,
                },
            ],
            windows: vec![4, 8, 12, 16],
            caps: vec![10, 10, 10, 10],
        }
    }
}

/// One kernel-vs-specification disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which differential suite caught it (`oracle`, `classify`, `sweep`).
    pub suite: &'static str,
    /// Generator case name the divergence surfaced on.
    pub case_name: String,
    /// First point of disagreement, human-readable.
    pub detail: String,
    /// The minimized reproducer trace.
    pub trace: Trace,
}

/// Diffs the oracle scorers and the full per-branch subset search on one
/// trace. Returns the first disagreement.
pub fn diff_oracle(trace: &Trace, cfg: &OracleConfig, kernels: &Kernels) -> Option<String> {
    let cands = TagCandidates::collect(trace, cfg.window, cfg.candidate_cap);
    let matrix = OutcomeMatrix::build(trace, &cands, cfg.window);
    for (pc, bm) in matrix.iter() {
        let view = reference::ColumnView::new(bm);
        let n = bm.tags().len();
        // Direct scorer diff over a structured set of column subsets:
        // the empty set, every singleton, adjacent pairs, and one triple.
        let mut subsets: Vec<Vec<usize>> = vec![Vec::new()];
        subsets.extend((0..n).map(|c| vec![c]));
        subsets.extend((1..n).map(|c| vec![c - 1, c]));
        if n >= 3 {
            subsets.push(vec![0, n / 2, n - 1]);
        }
        for cols in &subsets {
            let got = (kernels.tag_scorer)(bm, cols, cfg.counter);
            let want = reference::score_tag_set(&view, cols, cfg.counter);
            if got != want {
                return Some(format!(
                    "branch {pc:#x}: tag-set scorer on columns {cols:?}: kernel {got} != reference {want}"
                ));
            }
            if !cols.is_empty() {
                let got = (kernels.presence_scorer)(bm, cols, cfg.counter);
                let want = reference::score_presence(bm, cols, cfg.counter);
                if got != want {
                    return Some(format!(
                        "branch {pc:#x}: presence scorer on columns {cols:?}: kernel {got} != reference {want}"
                    ));
                }
            }
        }
        // Full subset-search diff: the production selection must equal
        // the reference-driven search, tag for tag and score for score.
        let got = OracleSelector::select_branch(bm, cfg);
        let want = reference::select_branch(bm, cfg);
        if got.executions != want.executions || got.best != want.best {
            return Some(format!(
                "branch {pc:#x}: subset search: kernel {got:?} != reference {want:?}"
            ));
        }
    }
    None
}

/// Diffs the bit-parallel classifier against `reference::classify` on one
/// trace, across every configured [`ClassifierConfig`].
pub fn diff_classify(
    trace: &Trace,
    configs: &[ClassifierConfig],
    kernels: &Kernels,
) -> Option<String> {
    for cfg in configs {
        let got = (kernels.classify)(trace, cfg);
        let want = reference::classify(trace, cfg);
        if got.iter().count() != want.iter().count() {
            return Some(format!(
                "cfg {cfg:?}: kernel classified {} branches, reference {}",
                got.iter().count(),
                want.iter().count()
            ));
        }
        for (pc, w) in want.iter() {
            if got.get(pc) != Some(w) {
                return Some(format!(
                    "cfg {cfg:?}: branch {pc:#x}: kernel {:?} != reference {w:?}",
                    got.get(pc)
                ));
            }
        }
    }
    None
}

/// Diffs every materialized sweep point, and the one-window build at that
/// point, against the per-record `reference::outcome_matrix`.
pub fn diff_sweep(
    trace: &Trace,
    windows: &[usize],
    caps: &[usize],
    kernels: &Kernels,
) -> Option<String> {
    for (i, (&window, &cap)) in windows.iter().zip(caps).enumerate() {
        let want = reference::outcome_matrix(trace, window, cap, &TagScheme::ALL);
        let label = format!("window {window}");
        let derived = (kernels.sweep)(trace, windows, caps, i);
        if let Some(why) = diff_matrices(&label, &derived, &want) {
            return Some(format!("sweep point vs reference: {why}"));
        }
        let cands = TagCandidates::collect(trace, window, cap);
        let direct = OutcomeMatrix::build(trace, &cands, window);
        if let Some(why) = diff_matrices(&label, &direct, &want) {
            return Some(format!("one-window build vs reference: {why}"));
        }
    }
    None
}

/// Diffs the runtime-dispatched SIMD kernels against their portable
/// scalar twins on one trace: the shifted-XNOR k-ago sweep per branch
/// stream and the plane-wise tag-set scorer per branch matrix. The
/// dispatching entry points are checked always; on an AVX2 host the
/// tag-set dispatch takes the AVX2 scorer at every plane length. The
/// AVX2 k-ago kernel is also called directly (below its dispatcher's
/// size threshold) when the host has AVX2, so even tiny boundary cases
/// exercise it.
pub fn diff_simd(trace: &Trace, cfg: &OracleConfig) -> Option<String> {
    let streams = BranchStreams::of(trace);
    for (pc, stream) in streams.iter() {
        let n = stream.len();
        let ks = [1usize, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129]
            .into_iter()
            .chain([n.saturating_sub(1).max(1), n.max(1), n + 7]);
        for k in ks {
            let want = bp_core::kth_ago_correct_scalar(stream, k);
            let got = bp_core::kth_ago_correct(stream, k);
            if got != want {
                return Some(format!(
                    "branch {pc:#x}: k-ago dispatch at k={k}: kernel {got} != scalar {want}"
                ));
            }
            if bp_core::avx2_available() && k < n {
                let prefix = (0..k.min(n)).filter(|&e| stream.get(e)).count() as u64;
                let got = prefix + bp_core::kth_ago_body_avx2(stream.words(), n, k);
                if got != want {
                    return Some(format!(
                        "branch {pc:#x}: AVX2 k-ago kernel at k={k}: {got} != scalar {want}"
                    ));
                }
            }
        }
    }
    let cands = TagCandidates::collect(trace, cfg.window, cfg.candidate_cap);
    let matrix = OutcomeMatrix::build(trace, &cands, cfg.window);
    for (pc, bm) in matrix.iter() {
        let n = bm.tags().len();
        let mut subsets: Vec<Vec<usize>> = vec![Vec::new()];
        subsets.extend((0..n).map(|c| vec![c]));
        subsets.extend((1..n).map(|c| vec![c - 1, c]));
        if n >= 3 {
            subsets.push(vec![0, n / 2, n - 1]);
        }
        for cols in &subsets {
            let want = bp_core::score_tag_set_scalar(bm, cols, cfg.counter);
            let got = bp_core::score_tag_set(bm, cols, cfg.counter);
            if got != want {
                return Some(format!(
                    "branch {pc:#x}: tag-set dispatch on columns {cols:?}: \
                     kernel {got} != scalar {want}"
                ));
            }
        }
    }
    None
}

/// Chunk sizes the streaming suite re-frames each trace at: the
/// single-record degenerate case and the word-boundary straddle.
pub const STREAM_CHUNK_SIZES: [usize; 4] = [1, 63, 64, 65];

/// A [`TraceSource`] view of a record slice re-framed at a fixed chunk
/// size, for proving chunk boundaries carry no meaning.
struct Rechunked<'a> {
    records: &'a [BranchRecord],
    chunk: usize,
}

impl TraceSource for Rechunked<'_> {
    fn scan(&self, f: &mut dyn FnMut(&[BranchRecord])) -> Result<(), TraceIoError> {
        for chunk in self.records.chunks(self.chunk) {
            f(chunk);
        }
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }
}

/// First disagreement between two outcome matrices, compared plane by
/// plane (tags, executions, taken / in-path / direction planes).
fn diff_matrices(label: &str, got: &OutcomeMatrix, want: &OutcomeMatrix) -> Option<String> {
    if got.branch_count() != want.branch_count() {
        return Some(format!(
            "{label}: {} branches != expected {}",
            got.branch_count(),
            want.branch_count()
        ));
    }
    for (pc, want_bm) in want.iter() {
        let Some(got_bm) = got.branch(pc) else {
            return Some(format!("{label}: branch {pc:#x} missing"));
        };
        if got_bm.tags() != want_bm.tags() {
            return Some(format!("{label}: branch {pc:#x}: candidate columns differ"));
        }
        if got_bm.executions() != want_bm.executions()
            || got_bm.taken_plane() != want_bm.taken_plane()
        {
            return Some(format!("{label}: branch {pc:#x}: taken plane differs"));
        }
        for c in 0..want_bm.tags().len() {
            if got_bm.inpath_plane(c) != want_bm.inpath_plane(c)
                || got_bm.dir_plane(c) != want_bm.dir_plane(c)
            {
                return Some(format!(
                    "{label}: branch {pc:#x} column {c}: tag planes differ"
                ));
            }
        }
    }
    None
}

/// Diffs the streaming artifact builders against their materialized
/// originals on one trace, re-framed at every [`STREAM_CHUNK_SIZES`]
/// chunk size: the streams, candidate, matrix and sweep builders vs
/// their whole-trace builds, and a `BPT2` encode/decode round trip.
pub fn diff_streaming(
    trace: &Trace,
    cfg: &OracleConfig,
    windows: &[usize],
    caps: &[usize],
) -> Option<String> {
    let records = trace.records();
    let want_streams = BranchStreams::of(trace);
    let want_cands = TagCandidates::collect(trace, cfg.window, cfg.candidate_cap);
    let want_matrix = OutcomeMatrix::build(trace, &want_cands, cfg.window);
    let want_sweep = SweepMatrix::build(trace, windows, caps);
    for &chunk in &STREAM_CHUNK_SIZES {
        let source = Rechunked { records, chunk };
        let label = format!("chunk size {chunk}");

        let got =
            BranchStreams::from_source_sharded(&source, 1).expect("re-chunked scans cannot fail");
        if got != want_streams {
            return Some(format!("{label}: streamed BranchStreams differ"));
        }

        let got = TagCandidates::collect_from_source_sharded(
            &source,
            cfg.window,
            cfg.candidate_cap,
            &TagScheme::ALL,
            1,
        )
        .expect("re-chunked scans cannot fail");
        if got != want_cands {
            return Some(format!("{label}: streamed candidates differ"));
        }

        let got = OutcomeMatrix::build_from_source_sharded(&source, &want_cands, cfg.window, 1)
            .expect("re-chunked scans cannot fail");
        if let Some(why) = diff_matrices(&label, &got, &want_matrix) {
            return Some(format!("streamed matrix: {why}"));
        }

        let got_sweep = SweepMatrix::build_from_source(&source, windows, caps)
            .expect("re-chunked scans cannot fail");
        for (i, window) in windows.iter().enumerate() {
            if let Some(why) = diff_matrices(
                &format!("{label} window {window}"),
                &got_sweep.materialize(i),
                &want_sweep.materialize(i),
            ) {
                return Some(format!("streamed sweep: {why}"));
            }
        }

        // BPT2 chunk-framed encode/decode round trip at this framing.
        let mut buf = Vec::new();
        let mut writer = ChunkWriter::new(&mut buf).expect("in-memory write cannot fail");
        for chunk in records.chunks(chunk) {
            writer.chunk(chunk);
        }
        let total = writer.finish().expect("in-memory write cannot fail");
        if total != records.len() as u64 {
            return Some(format!(
                "{label}: BPT2 writer counted {total} records, trace has {}",
                records.len()
            ));
        }
        match io::read_trace(buf.as_slice()) {
            Ok(rt) if rt.records() == records => {}
            Ok(_) => return Some(format!("{label}: BPT2 round trip altered records")),
            Err(e) => return Some(format!("{label}: BPT2 round trip failed: {e}")),
        }
    }
    None
}

/// Job counts the parallel suite drives the parallel analysis kernels at,
/// each compared with the kernel's one-job result (its serial entry
/// point).
pub const PARALLEL_JOBS: [usize; 2] = [2, 7];

/// Diffs the parallel analysis kernels at every [`PARALLEL_JOBS`] count
/// against their one-job results on one trace: classification, oracle
/// subset search, and sweep materialization (planes must be
/// bit-identical). The one-job results are computed once.
pub fn diff_parallel(
    trace: &Trace,
    cfg: &OracleConfig,
    classify: &[ClassifierConfig],
    windows: &[usize],
    caps: &[usize],
) -> Option<String> {
    let want_streams = BranchStreams::of(trace);
    let want_cands = TagCandidates::collect(trace, cfg.window, cfg.candidate_cap);
    let want_matrix = OutcomeMatrix::build(trace, &want_cands, cfg.window);
    let want_sweep = SweepMatrix::build(trace, windows, caps);
    let want_oracle = OracleSelector::analyze_matrix(&want_matrix, cfg);
    let want_classes: Vec<Classification> = classify
        .iter()
        .map(|ccfg| Classifier::classify_streams(&want_streams, ccfg))
        .collect();
    let want_points: Vec<OutcomeMatrix> = (0..windows.len())
        .map(|i| want_sweep.materialize(i))
        .collect();
    for &jobs in &PARALLEL_JOBS {
        let label = format!("{jobs} jobs");

        for (ccfg, want) in classify.iter().zip(&want_classes) {
            let (got, _) = Classifier::classify_streams_parallel(&want_streams, ccfg, jobs);
            if got.iter().count() != want.iter().count() {
                return Some(format!(
                    "{label}: cfg {ccfg:?}: parallel classifier branch count differs"
                ));
            }
            for (pc, w) in want.iter() {
                if got.get(pc) != Some(w) {
                    return Some(format!(
                        "{label}: cfg {ccfg:?}: branch {pc:#x}: parallel classification differs"
                    ));
                }
            }
        }

        let got = OracleSelector::analyze_matrix_parallel(&want_matrix, cfg, jobs);
        if got.branch_count() != want_oracle.branch_count() {
            return Some(format!("{label}: parallel oracle branch count differs"));
        }
        for (pc, w) in want_oracle.iter() {
            if got.selection(pc) != Some(w) {
                return Some(format!(
                    "{label}: branch {pc:#x}: parallel subset search differs"
                ));
            }
        }

        for (i, (window, want)) in windows.iter().zip(&want_points).enumerate() {
            if let Some(why) = diff_matrices(
                &format!("{label} window {window}"),
                &want_sweep.materialize_parallel(i, jobs),
                want,
            ) {
                return Some(format!("parallel sweep: {why}"));
            }
        }
    }
    None
}

/// Diffs the packed `.bps` artifact codecs on one trace: the built
/// [`BranchStreams`] and [`OutcomeMatrix`] are written, reopened, and
/// compared plane by plane, and the analysis summary (classification,
/// oracle subset search) computed from the reopened planes must match the
/// one computed from the freshly built artifacts.
pub fn diff_bps(trace: &Trace, cfg: &OracleConfig) -> Option<String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bp-conformance-bps-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Some(format!("bps: cannot create {}: {e}", dir.display()));
    }
    let verdict = diff_bps_in(&dir, trace, cfg);
    std::fs::remove_dir_all(&dir).ok();
    verdict
}

fn diff_bps_in(dir: &Path, trace: &Trace, cfg: &OracleConfig) -> Option<String> {
    const CONFIG: u64 = 0xB5B5;

    let streams = BranchStreams::of(trace);
    let path = dir.join("streams.bps");
    if let Err(e) = write_streams(&path, &streams, CONFIG) {
        return Some(format!("bps: cannot write streams artifact: {e}"));
    }
    let reopened = match open_streams(&path, CONFIG) {
        Ok(o) => o.streams,
        Err(e) => return Some(format!("bps: cannot reopen streams artifact: {e}")),
    };
    if reopened != streams {
        return Some("bps: reopened BranchStreams differ from the built ones".to_owned());
    }
    let ccfg = ClassifierConfig::default();
    let want = Classifier::classify_streams(&streams, &ccfg);
    let got = Classifier::classify_streams(&reopened, &ccfg);
    for (pc, w) in want.iter() {
        if got.get(pc) != Some(w) {
            return Some(format!(
                "bps: branch {pc:#x}: classification from reopened streams differs"
            ));
        }
    }

    let cands = TagCandidates::collect(trace, cfg.window, cfg.candidate_cap);
    let matrix = OutcomeMatrix::build(trace, &cands, cfg.window);
    let path = dir.join("matrix.bps");
    if let Err(e) = bp_core::write_matrix(&path, &matrix, CONFIG) {
        return Some(format!("bps: cannot write matrix artifact: {e}"));
    }
    let reopened = match bp_core::open_matrix(&path, CONFIG) {
        Ok(o) => o.matrix,
        Err(e) => return Some(format!("bps: cannot reopen matrix artifact: {e}")),
    };
    if let Some(why) = diff_matrices("bps matrix", &reopened, &matrix) {
        return Some(why);
    }
    let want = OracleSelector::analyze_matrix(&matrix, cfg);
    let got = OracleSelector::analyze_matrix(&reopened, cfg);
    for (pc, w) in want.iter() {
        if got.selection(pc) != Some(w) {
            return Some(format!(
                "bps: branch {pc:#x}: subset search on reopened matrix differs"
            ));
        }
    }
    None
}

/// Runs every differential suite on one named trace; on the first
/// divergence, minimizes the trace against that suite and reports it.
pub fn run_case(
    name: &str,
    trace: &Trace,
    cfg: &DiffConfig,
    kernels: &Kernels,
) -> Option<Divergence> {
    if diff_oracle(trace, &cfg.oracle, kernels).is_some() {
        let oracle_cfg = cfg.oracle;
        let k = *kernels;
        let minimized = minimize(trace, |t| diff_oracle(t, &oracle_cfg, &k).is_some());
        let detail = diff_oracle(&minimized, &cfg.oracle, kernels)
            .expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "oracle",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    if diff_classify(trace, &cfg.classify, kernels).is_some() {
        let configs = cfg.classify.clone();
        let k = *kernels;
        let minimized = minimize(trace, |t| diff_classify(t, &configs, &k).is_some());
        let detail = diff_classify(&minimized, &cfg.classify, kernels)
            .expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "classify",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    if diff_sweep(trace, &cfg.windows, &cfg.caps, kernels).is_some() {
        let (windows, caps) = (cfg.windows.clone(), cfg.caps.clone());
        let k = *kernels;
        let minimized = minimize(trace, |t| diff_sweep(t, &windows, &caps, &k).is_some());
        let detail = diff_sweep(&minimized, &cfg.windows, &cfg.caps, kernels)
            .expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "sweep",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    if diff_simd(trace, &cfg.oracle).is_some() {
        let oracle_cfg = cfg.oracle;
        let minimized = minimize(trace, |t| diff_simd(t, &oracle_cfg).is_some());
        let detail = diff_simd(&minimized, &cfg.oracle).expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "simd",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    if diff_streaming(trace, &cfg.oracle, &cfg.windows, &cfg.caps).is_some() {
        let oracle_cfg = cfg.oracle;
        let (windows, caps) = (cfg.windows.clone(), cfg.caps.clone());
        let minimized = minimize(trace, |t| {
            diff_streaming(t, &oracle_cfg, &windows, &caps).is_some()
        });
        let detail = diff_streaming(&minimized, &cfg.oracle, &cfg.windows, &cfg.caps)
            .expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "streaming",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    if diff_parallel(trace, &cfg.oracle, &cfg.classify, &cfg.windows, &cfg.caps).is_some() {
        let oracle_cfg = cfg.oracle;
        let configs = cfg.classify.clone();
        let (windows, caps) = (cfg.windows.clone(), cfg.caps.clone());
        let minimized = minimize(trace, |t| {
            diff_parallel(t, &oracle_cfg, &configs, &windows, &caps).is_some()
        });
        let detail = diff_parallel(
            &minimized,
            &cfg.oracle,
            &cfg.classify,
            &cfg.windows,
            &cfg.caps,
        )
        .expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "parallel",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    if diff_bps(trace, &cfg.oracle).is_some() {
        let oracle_cfg = cfg.oracle;
        let minimized = minimize(trace, |t| diff_bps(t, &oracle_cfg).is_some());
        let detail = diff_bps(&minimized, &cfg.oracle).expect("minimize preserves the divergence");
        return Some(Divergence {
            suite: "bps",
            case_name: name.to_owned(),
            detail,
            trace: minimized,
        });
    }
    None
}

/// ddmin-style trace minimization: repeatedly removes record chunks at
/// doubling granularity while `still_fails` holds, returning a (locally)
/// 1-minimal failing trace.
pub fn minimize(trace: &Trace, still_fails: impl Fn(&Trace) -> bool) -> Trace {
    let mut recs = trace.records().to_vec();
    let mut n = 2usize;
    while recs.len() >= 2 && n <= recs.len() {
        let chunk = recs.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < recs.len() {
            let end = (start + chunk).min(recs.len());
            let mut candidate = Vec::with_capacity(recs.len() - (end - start));
            candidate.extend_from_slice(&recs[..start]);
            candidate.extend_from_slice(&recs[end..]);
            if !candidate.is_empty() && still_fails(&Trace::from_records(candidate.clone())) {
                recs = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(recs.len());
        }
    }
    Trace::from_records(recs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use bp_trace::BranchRecord;

    #[test]
    fn production_kernels_agree_on_small_corpus() {
        let cfg = DiffConfig::default();
        let kernels = Kernels::default();
        for case in gen::corpus(3, 16) {
            assert!(
                run_case(&case.name, &case.trace, &cfg, &kernels).is_none(),
                "unexpected divergence on {}",
                case.name
            );
        }
    }

    #[test]
    fn simd_and_streaming_suites_pass_on_long_traces() {
        // The canned corpus traces are short; the k-ago dispatcher only
        // engages its AVX2 sweep from 8 words (512 executions) and the
        // scorer's vector blocks need 4 full words, so build correlated
        // branches long enough to exercise both.
        let mut recs = Vec::new();
        let mut hist = [false; 3];
        let mut lcg = 0x2545_F491_4F6C_DD1D_u64;
        for i in 0..700u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (lcg >> 61) & 1 == 1;
            let b = hist[0] ^ (i % 5 == 0);
            let c = hist[1] & hist[2] || (lcg >> 17) & 1 == 1;
            hist = [a, b, c];
            recs.push(BranchRecord::conditional(0x40, a));
            recs.push(BranchRecord::conditional(0x80, b));
            recs.push(BranchRecord::conditional(0xC0, c));
        }
        let trace = Trace::from_records(recs);
        let cfg = DiffConfig::default();
        assert_eq!(diff_simd(&trace, &cfg.oracle), None);
        assert_eq!(
            diff_streaming(&trace, &cfg.oracle, &cfg.windows, &cfg.caps),
            None
        );
    }

    #[test]
    fn parallel_and_bps_suites_pass_on_a_long_trace() {
        // Long enough that every branch spans multiple plane words.
        let mut recs = Vec::new();
        let mut lcg = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0..900u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            recs.push(BranchRecord::conditional(
                0x40 + (i % 11) * 4,
                (lcg >> 60) & 1 == 1,
            ));
            recs.push(BranchRecord::conditional(0x100, i % 7 < 3));
        }
        let trace = Trace::from_records(recs);
        let cfg = DiffConfig::default();
        assert_eq!(
            diff_parallel(&trace, &cfg.oracle, &cfg.classify, &cfg.windows, &cfg.caps),
            None
        );
        assert_eq!(diff_bps(&trace, &cfg.oracle), None);
    }

    #[test]
    fn minimize_shrinks_to_the_failing_record() {
        // Predicate: trace contains a not-taken record at 0x200.
        let recs: Vec<BranchRecord> = (0..200)
            .map(|i| BranchRecord::conditional(0x100 + (i % 7) * 4, i % 3 == 0))
            .chain(std::iter::once(BranchRecord::conditional(0x200, false)))
            .chain((0..100).map(|i| BranchRecord::conditional(0x300, i % 2 == 0)))
            .collect();
        let trace = Trace::from_records(recs);
        let fails = |t: &Trace| t.conditionals().any(|r| r.pc == 0x200 && !r.taken);
        let minimized = minimize(&trace, fails);
        assert_eq!(minimized.records().len(), 1);
        assert!(fails(&minimized));
    }
}
