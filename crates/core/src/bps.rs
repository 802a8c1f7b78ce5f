//! `.bps` codec for the oracle's [`OutcomeMatrix`] (kind 2).
//!
//! The matrix is the expensive artifact of the whole analysis — one
//! streaming pass over the trace per (window, cap) configuration — so it
//! is the one most worth persisting. The codec reuses the common `.bps`
//! machinery from [`bp_trace::bps`] (magic/kind header, declared length,
//! fingerprint sidecar, [`BpsBytes`] mmap-or-read backing) and adds the
//! kind-specific layout:
//!
//! ```text
//! word 0   magic "BPS1" + kind byte 2 + 3 zero bytes
//! word 1   total file length in BYTES
//! word 2   static branch count B
//! word 3   path-window length
//! word 4   total dynamic conditional executions
//! 4 words per branch, sorted by pc:
//!          [pc, executions, candidate tag count t, word offset]
//! then per branch, at its word offset:
//!          2 words per tag          [tag pc, index | scheme << 32]
//!          taken plane              W = executions.div_ceil(64) words
//!          t in-path planes         t × W words
//!          t direction planes       t × W words
//! ```
//!
//! The sidecar's content fingerprint covers the header, the index, and
//! every branch's tag words — everything that gives the planes *meaning*
//! — while the planes themselves ride on the declared-length, offset and
//! padding checks, exactly like the streams codec. All structure is
//! validated before any plane view is constructed, so re-opening a
//! 100M-branch matrix is a header walk plus one `mmap(2)`.

use std::io::Write;
use std::path::Path;

use bp_trace::bps::{fnv_words, header_word, BpsBytes, BpsError, Words, MATRIX_KIND};
use bp_trace::fx::FxHashMap;
use bp_trace::sidecar::{write_atomic, Sidecar, CONTENT_OFFSET};
use bp_trace::{InstanceTag, Pc, TagScheme};

use crate::matrix::{BranchMatrix, OutcomeMatrix};

const HEADER_WORDS: u64 = 5;
const INDEX_WORDS: u64 = 4;

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

/// Writes `matrix` as a `.bps` artifact at `path`, then its fingerprint
/// sidecar, each through [`write_atomic`], so a crash never leaves a
/// half-written file under the real name.
///
/// # Errors
///
/// Filesystem errors from the write or rename.
pub fn write_matrix(path: &Path, matrix: &OutcomeMatrix, config: u64) -> std::io::Result<()> {
    let mut branches: Vec<(Pc, &BranchMatrix)> = matrix.iter().collect();
    branches.sort_unstable_by_key(|&(pc, _)| pc);

    let index_base = HEADER_WORDS + INDEX_WORDS * branches.len() as u64;
    let mut meta: Vec<u64> = Vec::with_capacity(index_base as usize);
    meta.extend([
        header_word(MATRIX_KIND),
        0,
        branches.len() as u64,
        matrix.window() as u64,
        matrix.dynamic_count(),
    ]);
    let mut off = index_base;
    for &(pc, bm) in &branches {
        let t = bm.tags().len() as u64;
        let w = bm.words() as u64;
        meta.extend([pc, bm.executions() as u64, t, off]);
        off += 2 * t + w * (1 + 2 * t);
    }
    meta[1] = off * 8; // total file length in bytes

    let content = write_atomic(path, |out| -> std::io::Result<u64> {
        for w in &meta {
            out.write_all(&w.to_le_bytes())?;
        }
        let mut content = fnv_words(CONTENT_OFFSET, &meta);
        let mut tag_words: Vec<u64> = Vec::new();
        for &(_, bm) in &branches {
            tag_words.clear();
            for tag in bm.tags() {
                tag_words.push(tag.pc);
                tag_words.push(u64::from(tag.index) | scheme_code(tag.scheme) << 32);
            }
            content = fnv_words(content, &tag_words);
            for w in &tag_words {
                out.write_all(&w.to_le_bytes())?;
            }
            for w in bm.taken_plane() {
                out.write_all(&w.to_le_bytes())?;
            }
            for c in 0..bm.tags().len() {
                for w in bm.inpath_plane(c) {
                    out.write_all(&w.to_le_bytes())?;
                }
            }
            for c in 0..bm.tags().len() {
                for w in bm.dir_plane(c) {
                    out.write_all(&w.to_le_bytes())?;
                }
            }
        }
        Ok(content)
    })?;

    Sidecar { config, content }.write(path)
}

/// Re-opens a matrix artifact written by [`write_matrix`], validating
/// sidecar fingerprints and the whole index (sorted pcs, every region
/// offset and extent, tail-padding bits, the dynamic total, tag
/// encodings) before any plane view is constructed.
///
/// # Errors
///
/// Every rot mode is a distinct [`BpsError`]; see [`bp_trace::bps`].
pub fn open_matrix(path: &Path, config: u64) -> Result<OpenedMatrix, BpsError> {
    let sidecar = Sidecar::load(path)?;
    if sidecar.config != config {
        return Err(BpsError::ConfigMismatch);
    }
    let bytes = BpsBytes::open(path, MATRIX_KIND)?;
    let words = bytes.words();
    let total_words = words.len() as u64;
    if total_words < HEADER_WORDS {
        return Err(BpsError::Truncated("missing matrix header"));
    }
    let branch_count = words[2];
    let window = usize::try_from(words[3])
        .map_err(|_| BpsError::Corrupt("window length overflows memory"))?;
    let total_dynamic = words[4];
    let index_end = branch_count
        .checked_mul(INDEX_WORDS)
        .and_then(|iw| iw.checked_add(HEADER_WORDS))
        .ok_or(BpsError::Corrupt("branch count overflows the index"))?;
    if index_end > total_words {
        return Err(BpsError::Truncated("index past end of file"));
    }

    // Structural walk: offsets, extents and padding, accumulating the
    // content fingerprint over the header, index and tag words as the
    // regions are visited (their positions fall out of the walk).
    let mut content = fnv_words(CONTENT_OFFSET, &words[..index_end as usize]);
    let mut expected_off = index_end;
    let mut dynamic_sum = 0u64;
    let mut prev_pc: Option<Pc> = None;
    for i in 0..branch_count as usize {
        let at = HEADER_WORDS as usize + INDEX_WORDS as usize * i;
        let pc = words[at];
        let executions = words[at + 1];
        let tag_count = words[at + 2];
        let off = words[at + 3];
        if prev_pc.is_some_and(|p| p >= pc) {
            return Err(BpsError::Corrupt("index not sorted by pc"));
        }
        prev_pc = Some(pc);
        if off != expected_off {
            return Err(BpsError::Corrupt(
                "branch region offset does not match index",
            ));
        }
        usize::try_from(executions)
            .map_err(|_| BpsError::Corrupt("execution count overflows memory"))?;
        let plane_words = executions.div_ceil(64);
        let region = (|| {
            let tw = tag_count.checked_mul(2)?;
            let planes = tw.checked_add(1)?.checked_mul(plane_words)?;
            tw.checked_add(planes)
        })()
        .ok_or(BpsError::Corrupt("branch region overflows the file"))?;
        expected_off = expected_off
            .checked_add(region)
            .ok_or(BpsError::Corrupt("branch region overflows the file"))?;
        if expected_off > total_words {
            return Err(BpsError::Truncated("branch region past end of file"));
        }
        dynamic_sum = dynamic_sum
            .checked_add(executions)
            .ok_or(BpsError::Corrupt("dynamic count overflows"))?;
        let tag_end = (off + tag_count * 2) as usize;
        content = fnv_words(content, &words[off as usize..tag_end]);
        // Bits past the declared execution count must be zero in every
        // plane, as the builders guarantee — a lying count would silently
        // corrupt popcounts and run-length replays.
        let tail_bits = executions % 64;
        if tail_bits != 0 {
            let mask = !((1u64 << tail_bits) - 1);
            for p in 0..1 + 2 * tag_count {
                let last = words[(off + 2 * tag_count + (p + 1) * plane_words - 1) as usize];
                if last & mask != 0 {
                    return Err(BpsError::Corrupt("padding bits set past execution count"));
                }
            }
        }
    }
    if expected_off != total_words {
        return Err(BpsError::Corrupt("file length does not match the regions"));
    }
    if dynamic_sum != total_dynamic {
        return Err(BpsError::Corrupt(
            "dynamic total does not match the branches",
        ));
    }
    if content != sidecar.content {
        return Err(BpsError::ContentMismatch);
    }

    let mapped = bytes.is_mapped();
    let mut branches: FxHashMap<Pc, BranchMatrix> =
        FxHashMap::with_capacity_and_hasher(branch_count as usize, Default::default());
    for i in 0..branch_count as usize {
        let at = HEADER_WORDS as usize + INDEX_WORDS as usize * i;
        let pc = words[at];
        let executions = words[at + 1] as usize;
        let tag_count = words[at + 2] as usize;
        let off = words[at + 3] as usize;
        let w = executions.div_ceil(64);
        let mut tags = Vec::with_capacity(tag_count);
        for t in 0..tag_count {
            let tag_pc = words[off + 2 * t];
            let packed = words[off + 2 * t + 1];
            let index = u16::try_from(packed & 0xffff_ffff)
                .map_err(|_| BpsError::Corrupt("tag index out of range"))?;
            let scheme = match packed >> 32 {
                0 => TagScheme::Occurrence,
                1 => TagScheme::Iteration,
                _ => return Err(BpsError::Corrupt("unknown tag scheme")),
            };
            tags.push(InstanceTag {
                pc: tag_pc,
                index,
                scheme,
            });
        }
        let plane_base = off + 2 * tag_count;
        let taken = Words::mapped(bytes.clone(), plane_base, w);
        let inpath = (0..tag_count)
            .map(|c| Words::mapped(bytes.clone(), plane_base + w * (1 + c), w))
            .collect();
        let dir = (0..tag_count)
            .map(|c| Words::mapped(bytes.clone(), plane_base + w * (1 + tag_count + c), w))
            .collect();
        branches.insert(
            pc,
            BranchMatrix::from_planes(tags, executions, inpath, dir, taken),
        );
    }
    Ok(OpenedMatrix {
        matrix: OutcomeMatrix::from_parts(branches, window),
        mapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::TagCandidates;
    use bp_trace::{BranchRecord, Trace};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-matrix-bps-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_matrix() -> OutcomeMatrix {
        let mut recs = Vec::new();
        let mut state = 0xdead_beefu64;
        for _ in 0..700 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (state >> 33) & 1 == 1;
            let b = (state >> 34) & 1 == 1;
            recs.push(BranchRecord::conditional(0x100, a));
            recs.push(BranchRecord::conditional(0x200, b));
            recs.push(BranchRecord::conditional(0x300, a && b));
        }
        let trace = Trace::from_records(recs);
        let cands = TagCandidates::collect(&trace, 16, 12);
        OutcomeMatrix::build(&trace, &cands, 16)
    }

    #[test]
    fn matrix_round_trips_through_bps() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("m.matrix.bps");
        let built = sample_matrix();
        write_matrix(&path, &built, 0xfeed).expect("write");
        let opened = open_matrix(&path, 0xfeed).expect("open");
        assert_eq!(opened.matrix, built);
        assert_eq!(opened.mapped, bp_trace::mmap::mmap_supported());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_matrix_scores_identically() {
        use crate::oracle::{OracleConfig, OracleSelector};
        let dir = temp_dir("score");
        let path = dir.join("m.matrix.bps");
        let built = sample_matrix();
        write_matrix(&path, &built, 1).expect("write");
        let opened = open_matrix(&path, 1).expect("open");
        let cfg = OracleConfig::default();
        let a = OracleSelector::analyze_matrix(&built, &cfg);
        let b = OracleSelector::analyze_matrix(&opened.matrix, &cfg);
        for (pc, sa) in a.iter() {
            let sb = b.selection(pc).expect("branch present");
            for k in 0..3 {
                assert_eq!(
                    sa.best[k].correct, sb.best[k].correct,
                    "branch {pc:#x} k {k}"
                );
                assert_eq!(sa.best[k].tags, sb.best[k].tags, "branch {pc:#x} k {k}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_typed() {
        let dir = temp_dir("config");
        let path = dir.join("m.matrix.bps");
        write_matrix(&path, &sample_matrix(), 1).expect("write");
        assert!(matches!(
            open_matrix(&path, 2),
            Err(BpsError::ConfigMismatch)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_boundary_is_a_typed_error() {
        let dir = temp_dir("truncation");
        let path = dir.join("m.matrix.bps");
        write_matrix(&path, &sample_matrix(), 3).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        // Word-strided cuts keep the test fast; the byte-level boundary
        // behavior is shared with the streams codec and covered there.
        for cut in (0..bytes.len()).step_by(8) {
            std::fs::write(&path, &bytes[..cut]).expect("write truncated");
            let err = open_matrix(&path, 3).expect_err("truncated artifact must not open");
            assert!(
                matches!(
                    err,
                    BpsError::Truncated(_) | BpsError::Corrupt(_) | BpsError::Io(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
        std::fs::write(&path, &bytes).expect("restore");
        assert!(open_matrix(&path, 3).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_tag_words_are_content_mismatch() {
        let dir = temp_dir("tagflip");
        let path = dir.join("m.matrix.bps");
        write_matrix(&path, &sample_matrix(), 4).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        let branch_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        // First branch's first tag word sits right after the index.
        let tag_at = (HEADER_WORDS as usize + INDEX_WORDS as usize * branch_count) * 8;
        let mut bad = bytes.clone();
        bad[tag_at] ^= 0xff;
        std::fs::write(&path, &bad).expect("write");
        assert!(matches!(
            open_matrix(&path, 4),
            Err(BpsError::ContentMismatch)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_matrix_round_trips() {
        let dir = temp_dir("empty");
        let path = dir.join("empty.matrix.bps");
        let built = OutcomeMatrix::build(&Trace::new(), &TagCandidates::default(), 16);
        write_matrix(&path, &built, 9).expect("write");
        let opened = open_matrix(&path, 9).expect("open");
        assert_eq!(opened.matrix, built);
        std::fs::remove_dir_all(&dir).ok();
    }
}
