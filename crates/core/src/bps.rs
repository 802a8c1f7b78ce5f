//! `.bps` codec for the oracle's [`OutcomeMatrix`] (kind 2).
//!
//! The matrix is the expensive artifact of the whole analysis — one
//! streaming pass over the trace per (window, cap) configuration — so it
//! is the one most worth persisting. The container, the index walk and
//! both fingerprints are [`bp_trace::bps`]'s; this codec keeps only the
//! matrix layout:
//!
//! ```text
//! words 0–3  container: magic "BPS2" + kind byte 2, length, config, content
//! word 4     static branch count B
//! word 5     path-window length
//! word 6     total dynamic conditional executions
//! 4 words per branch, sorted by pc:
//!            [pc, executions, candidate tag count t, word offset]
//! then per branch, at its word offset:
//!            2 words per tag          [tag pc, index | scheme << 32]
//!            taken plane              W = executions.div_ceil(64) words
//!            t in-path planes         t × W words
//!            t direction planes       t × W words
//! ```
//!
//! The content fingerprint covers the header, the index, and every
//! branch's tag words — everything that gives the planes *meaning* —
//! while the planes themselves ride on the declared-length, offset and
//! padding checks, so re-opening a 100M-branch matrix is a header walk
//! plus one `mmap(2)`.

use std::path::Path;

use bp_trace::bps::{open, write, BpsError, Layout, Region, MATRIX_KIND};
use bp_trace::fx::FxHashMap;
use bp_trace::{InstanceTag, TagScheme};

use crate::matrix::{BranchMatrix, OutcomeMatrix};

const LAYOUT: Layout = Layout {
    kind: MATRIX_KIND,
    extra_words: 1,
    tagged: true,
};

fn scheme_code(scheme: TagScheme) -> u64 {
    match scheme {
        TagScheme::Occurrence => 0,
        TagScheme::Iteration => 1,
    }
}

/// An [`OutcomeMatrix`] re-opened from a `.bps` artifact.
#[derive(Debug)]
pub struct OpenedMatrix {
    /// The matrix, its planes viewing the opened file.
    pub matrix: OutcomeMatrix,
    /// Whether the planes are kernel-mapped (vs decoded into memory).
    pub mapped: bool,
}

/// Writes `matrix` as a `.bps` artifact at `path` through one
/// [`bp_trace::sidecar::write_atomic`], so a crash never leaves a
/// half-written file under the real name.
///
/// # Errors
///
/// Filesystem errors from the write or rename.
pub fn write_matrix(path: &Path, matrix: &OutcomeMatrix, config: u64) -> std::io::Result<()> {
    let mut regions: Vec<Region<'_>> = matrix
        .iter()
        .map(|(pc, bm)| {
            let t = bm.tags().len();
            Region {
                pc,
                executions: bm.executions() as u64,
                tag_words: bm
                    .tags()
                    .iter()
                    .flat_map(|tag| [tag.pc, u64::from(tag.index) | scheme_code(tag.scheme) << 32])
                    .collect(),
                planes: std::iter::once(bm.taken_plane())
                    .chain((0..t).map(|c| bm.inpath_plane(c)))
                    .chain((0..t).map(|c| bm.dir_plane(c)))
                    .collect(),
            }
        })
        .collect();
    write(
        path,
        LAYOUT,
        config,
        &[matrix.window() as u64],
        matrix.dynamic_count(),
        &mut regions,
    )
}

/// Re-opens a matrix artifact written by [`write_matrix`], validated by
/// [`bp_trace::bps::open`] before any plane view is built; the tag
/// encodings are checked here.
///
/// # Errors
///
/// Every rot mode is a distinct [`BpsError`]; see [`bp_trace::bps`].
pub fn open_matrix(path: &Path, config: u64) -> Result<OpenedMatrix, BpsError> {
    let opened = open(path, LAYOUT, config)?;
    let window = usize::try_from(opened.extra[0])
        .map_err(|_| BpsError::Corrupt("window length overflows memory"))?;
    let mut branches: FxHashMap<_, BranchMatrix> =
        FxHashMap::with_capacity_and_hasher(opened.entries.len(), Default::default());
    for e in &opened.entries {
        let tags = opened
            .tag_words(e)
            .chunks_exact(2)
            .map(|tag| {
                let index = u16::try_from(tag[1] & 0xffff_ffff)
                    .map_err(|_| BpsError::Corrupt("tag index out of range"))?;
                let scheme = match tag[1] >> 32 {
                    0 => TagScheme::Occurrence,
                    1 => TagScheme::Iteration,
                    _ => return Err(BpsError::Corrupt("unknown tag scheme")),
                };
                Ok(InstanceTag {
                    pc: tag[0],
                    index,
                    scheme,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let planes = |first: usize| {
            (first..first + e.tags)
                .map(|p| opened.plane(e, p))
                .collect()
        };
        branches.insert(
            e.pc,
            BranchMatrix::from_planes(
                tags,
                e.executions,
                planes(1),
                planes(1 + e.tags),
                opened.plane(e, 0),
            ),
        );
    }
    Ok(OpenedMatrix {
        matrix: OutcomeMatrix::from_parts(branches, window),
        mapped: opened.bytes.is_mapped(),
    })
}
