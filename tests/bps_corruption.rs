//! The `.bps` corruption matrix. Every case runs against a streams
//! artifact and a matrix artifact: every truncation boundary, magic,
//! version and kind flip, fingerprint mismatch, flipped header, index or
//! tag byte, lying length or offset, and set padding bit must surface as
//! a typed [`BpsError`] — never a panic, an oversized allocation, or a
//! silently wrong artifact. Structural lies are re-signed (the header's
//! content fingerprint recomputed over the patched words), so the shared
//! index walk itself has to reject them.

use std::path::{Path, PathBuf};

use bp_core::{open_matrix, write_matrix, OutcomeMatrix, TagCandidates};
use bp_trace::bps::{fnv_words, open_streams, write_streams, BpsError};
use bp_trace::sidecar::CONTENT_OFFSET;
use bp_trace::{BranchRecord, BranchStreams, Trace};

const CONFIG: u64 = 0x5eed_cafe;
const WINDOW: usize = 16;

/// 0x80 runs 128 times and is never taken, so its planes end on word
/// boundaries (no padding check) and are all zero: a region read two
/// words late still decodes. The other three run 300 times (padding in
/// the last word) with correlated outcomes, so the matrix has tags.
fn sample() -> Trace {
    let mut recs = Vec::new();
    let mut state = 0xdead_beefu64;
    for i in 0..300 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (a, b) = ((state >> 33) & 1 == 1, (state >> 34) & 1 == 1);
        if i < 128 {
            recs.push(BranchRecord::conditional(0x80, false));
        }
        recs.push(BranchRecord::conditional(0x100, a));
        recs.push(BranchRecord::conditional(0x200, b));
        recs.push(BranchRecord::conditional(0x300, a && b));
    }
    Trace::from_records(recs)
}

fn matrix_of(trace: &Trace) -> OutcomeMatrix {
    OutcomeMatrix::build(trace, &TagCandidates::collect(trace, WINDOW, 12), WINDOW)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Streams,
    Matrix,
}

/// An artifact as built, to write and to compare a reopened one with.
enum Built {
    Streams(BranchStreams),
    Matrix(OutcomeMatrix),
}

impl Built {
    fn of(kind: Kind, trace: &Trace) -> Built {
        match kind {
            Kind::Streams => Built::Streams(BranchStreams::of(trace)),
            Kind::Matrix => Built::Matrix(matrix_of(trace)),
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        match self {
            Built::Streams(streams) => write_streams(path, streams, CONFIG),
            Built::Matrix(matrix) => write_matrix(path, matrix, CONFIG),
        }
    }

    /// Opens the artifact at `path`: `Ok(true)` when it equals this one.
    fn reopen(&self, path: &Path, config: u64) -> Result<bool, BpsError> {
        let (equal, mapped) = match self {
            Built::Streams(streams) => {
                let opened = open_streams(path, config)?;
                (opened.streams == *streams, opened.mapped)
            }
            Built::Matrix(matrix) => {
                let opened = open_matrix(path, config)?;
                (opened.matrix == *matrix, opened.mapped)
            }
        };
        assert_eq!(mapped, bp_trace::mmap::mmap_supported());
        Ok(equal)
    }
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::Streams, Kind::Matrix];

    /// Words before the index: the container, the branch count, the
    /// matrix's window, the dynamic total.
    fn header_words(self) -> usize {
        match self {
            Kind::Streams => 6,
            Kind::Matrix => 7,
        }
    }

    fn entry_words(self) -> usize {
        match self {
            Kind::Streams => 3,
            Kind::Matrix => 4,
        }
    }

    /// The other kind's byte.
    fn other_kind_byte(self) -> u8 {
        match self {
            Kind::Streams => bp_trace::bps::MATRIX_KIND,
            Kind::Matrix => bp_trace::bps::STREAMS_KIND,
        }
    }
}

/// One written artifact: its kind, a path in a directory of its own, its
/// bytes, and what it was written from.
struct Artifact {
    kind: Kind,
    dir: PathBuf,
    path: PathBuf,
    bytes: Vec<u8>,
    built: Built,
}

impl Artifact {
    fn new(kind: Kind, test: &str, trace: Trace) -> Artifact {
        let dir = std::env::temp_dir().join(format!(
            "bps-corruption-{}-{test}-{kind:?}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("artifact.bps");
        let built = Built::of(kind, &trace);
        built.write(&path).expect("write artifact");
        let bytes = std::fs::read(&path).expect("read artifact back");
        Artifact {
            kind,
            dir,
            path,
            bytes,
            built,
        }
    }

    fn of_sample(kind: Kind, test: &str) -> Artifact {
        Artifact::new(kind, test, sample())
    }

    fn words(&self) -> Vec<u64> {
        words_of(&self.bytes)
    }

    /// The word just past the index.
    fn index_end(&self) -> usize {
        self.kind.header_words() + self.kind.entry_words() * self.words()[4] as usize
    }

    /// Index entry `i` as (word position of the entry, executions, tag
    /// count, region offset).
    fn entry(&self, i: usize) -> (usize, u64, u64, u64) {
        let at = self.kind.header_words() + self.kind.entry_words() * i;
        let w = self.words();
        let ew = self.kind.entry_words();
        let tags = if self.kind == Kind::Matrix {
            w[at + 2]
        } else {
            0
        };
        (at, w[at + 1], tags, w[at + ew - 1])
    }

    fn branch_count(&self) -> usize {
        self.words()[4] as usize
    }

    /// Writes `bytes` over the artifact and opens it.
    fn open_bytes(&self, bytes: &[u8]) -> Result<bool, BpsError> {
        std::fs::write(&self.path, bytes).expect("write mutated artifact");
        self.built.reopen(&self.path, CONFIG)
    }

    /// The artifact with word `at` set to `value`, re-signed.
    fn patched(&self, at: usize, value: u64) -> Vec<u8> {
        let mut words = self.words();
        words[at] = value;
        resign(self.kind, &mut words);
        bytes_of(&words)
    }
}

impl Drop for Artifact {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn words_of(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("a word")))
        .collect()
}

fn bytes_of(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Recomputes the content fingerprint (word 3) the way the reader does:
/// words 0–2, the words from 4 to the end of the index, then each
/// entry's tag words where its (possibly lying) offset points.
fn resign(kind: Kind, words: &mut [u64]) {
    let (hw, ew) = (kind.header_words(), kind.entry_words());
    let index_end = (words[4] as usize)
        .saturating_mul(ew)
        .saturating_add(hw)
        .min(words.len());
    let mut content = fnv_words(CONTENT_OFFSET, &words[..3]);
    content = fnv_words(content, &words[4..index_end]);
    if kind == Kind::Matrix {
        for e in words[hw..index_end].chunks_exact(ew) {
            let (tags, off) = (e[2] as usize, e[3] as usize);
            if let Some(tag_words) = words.get(off..off.saturating_add(tags.saturating_mul(2))) {
                content = fnv_words(content, tag_words);
            }
        }
    }
    words[3] = content;
}

#[test]
fn pristine_and_empty_artifacts_round_trip_as_one_file() {
    for kind in Kind::ALL {
        for (test, trace) in [("pristine", sample()), ("empty", Trace::new())] {
            let art = Artifact::new(kind, test, trace);
            assert!(art.bytes.len().is_multiple_of(8));
            assert_eq!(&art.bytes[..4], b"BPS2");
            assert_eq!(
                art.open_bytes(&art.bytes).ok(),
                Some(true),
                "{kind:?} {test}"
            );
            // One file per artifact: no fingerprint sidecar, no tmp file.
            let names: Vec<_> = std::fs::read_dir(&art.dir)
                .expect("list dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            assert_eq!(names, ["artifact.bps"], "{kind:?} {test}");
        }
    }
}

#[test]
fn a_failed_overwrite_leaves_the_previous_artifact_openable() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "failed-overwrite");
        // A directory where the writer's tmp file goes: the overwrite
        // fails before anything reaches the real name.
        let mut tmp = art.path.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::create_dir(&tmp).expect("block the tmp path");
        Built::of(kind, &Trace::new())
            .write(&art.path)
            .expect_err("the overwrite fails");
        assert_eq!(std::fs::read(&art.path).expect("old artifact"), art.bytes);
        assert_eq!(
            art.built.reopen(&art.path, CONFIG).ok(),
            Some(true),
            "{kind:?}: the previous artifact still opens"
        );
    }
}

#[test]
fn every_truncation_boundary_is_a_typed_error() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "truncation");
        // Prefixes that are not whole words fail the pre-mmap length
        // check; whole-word prefixes fail the declared length.
        for cut in 0..art.bytes.len() {
            let err = art
                .open_bytes(&art.bytes[..cut])
                .expect_err("a truncated artifact must not open");
            assert!(
                matches!(err, BpsError::Truncated(_) | BpsError::Corrupt(_)),
                "{kind:?}: cut at {cut} gave {err:?}"
            );
        }
        assert_eq!(art.open_bytes(&art.bytes).ok(), Some(true));
    }
}

#[test]
fn magic_version_and_kind_flips_are_rejected() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "magic");
        // Bytes 0..4 are the magic, byte 4 the kind, bytes 5..8 reserved
        // zeros.
        for byte in 0..8 {
            for flip in [0x01u8, 0x20, 0xff] {
                let mut bad = art.bytes.clone();
                bad[byte] ^= flip;
                let err = art
                    .open_bytes(&bad)
                    .expect_err("a flipped magic must not open");
                assert!(
                    matches!(err, BpsError::BadMagic | BpsError::WrongKind),
                    "{kind:?}: byte {byte} ^ {flip:#04x} gave {err:?}"
                );
            }
        }
        // The previous format revision is evicted and rebuilt, never read.
        let mut old = art.bytes.clone();
        old[..4].copy_from_slice(b"BPS1");
        assert!(matches!(art.open_bytes(&old), Err(BpsError::BadMagic)));
        let mut other = art.bytes.clone();
        other[4] = kind.other_kind_byte();
        assert!(matches!(art.open_bytes(&other), Err(BpsError::WrongKind)));
    }
}

#[test]
fn config_and_content_mismatches_are_typed() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "fingerprint");
        std::fs::write(&art.path, &art.bytes).expect("write");
        assert!(matches!(
            art.built.reopen(&art.path, CONFIG ^ 1),
            Err(BpsError::ConfigMismatch)
        ));
        let mut words = art.words();
        words[3] ^= 1;
        assert!(matches!(
            art.open_bytes(&bytes_of(&words)),
            Err(BpsError::ContentMismatch)
        ));
        // The config is checked from the header words alone: with every
        // word past the container garbage, a wrong config is still a
        // config mismatch.
        let mut words = art.words();
        words[4..].fill(u64::MAX);
        std::fs::write(&art.path, bytes_of(&words)).expect("write");
        assert!(matches!(
            art.built.reopen(&art.path, CONFIG ^ 1),
            Err(BpsError::ConfigMismatch)
        ));
        assert!(matches!(
            art.built.reopen(&art.path, CONFIG),
            Err(BpsError::Corrupt(_) | BpsError::Truncated(_))
        ));
    }
}

#[test]
fn every_flipped_header_index_or_tag_byte_is_rejected() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "header-strict");
        for pos in 0..art.index_end() * 8 {
            let mut bad = art.bytes.clone();
            bad[pos] ^= 0xff;
            assert!(
                art.open_bytes(&bad).is_err(),
                "{kind:?}: header or index byte {pos} flipped but the artifact opened"
            );
        }
        let mut tag_bytes = 0;
        for i in 0..art.branch_count() {
            let (_, _, tags, off) = art.entry(i);
            for pos in off as usize * 8..(off + 2 * tags) as usize * 8 {
                let mut bad = art.bytes.clone();
                bad[pos] ^= 0xff;
                assert!(
                    matches!(art.open_bytes(&bad), Err(BpsError::ContentMismatch)),
                    "{kind:?}: tag byte {pos}"
                );
                tag_bytes += 1;
            }
        }
        assert_eq!(tag_bytes > 0, kind == Kind::Matrix, "{kind:?}: tag bytes");
    }
}

#[test]
fn lying_lengths_and_offsets_are_corrupt_under_a_resigned_header() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "lying-index");
        let n = art.branch_count();
        assert!(n >= 2, "the sample has several branches");
        let words = art.words();
        let rejected = |bad: Vec<u8>, what: &str| {
            let err = art.open_bytes(&bad).expect_err(what);
            assert!(
                matches!(err, BpsError::Corrupt(_) | BpsError::Truncated(_)),
                "{kind:?}: {what} gave {err:?}"
            );
        };
        // An inflated execution count moves the next offset, or (for the
        // last entry) runs past the file; a huge one must not overflow.
        for entry in [0, n - 1] {
            let (at, executions, _, _) = art.entry(entry);
            rejected(art.patched(at + 1, executions + 64), "inflated executions");
            rejected(art.patched(at + 1, u64::MAX - 7), "huge executions");
        }
        if kind == Kind::Matrix {
            let (at, _, tags, _) = art.entry(0);
            rejected(art.patched(at + 2, tags + 1), "inflated tag count");
            rejected(art.patched(at + 2, u64::MAX / 2), "huge tag count");
        }
        // A shifted region offset breaks offset continuity.
        let (at, _, _, off) = art.entry(1);
        let off_at = at + kind.entry_words() - 1;
        rejected(art.patched(off_at, off + 1), "shifted offset");
        // An unsorted index (it would also break merge keys).
        rejected(art.patched(at, words[art.entry(0).0]), "unsorted index");
        // A lying branch count, declared length or dynamic total.
        rejected(art.patched(4, words[4] + 1), "branch count");
        rejected(art.patched(4, u64::MAX / 2), "huge branch count");
        rejected(art.patched(1, words[1] + 8), "declared length");
        let dynamic_at = kind.header_words() - 1;
        rejected(
            art.patched(dynamic_at, words[dynamic_at] + 1),
            "dynamic total",
        );
    }
}

#[test]
fn a_region_offset_past_its_place_is_corrupt_under_a_resigned_header() {
    // The first branch's region, read two words late, still decodes: its
    // planes end on word boundaries and are zero, so the matrix's shifted
    // tag words decode too. With the content fingerprint re-signed, only
    // the walk's offset check can reject the moved offset.
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "offset");
        let (at, executions, _, off) = art.entry(0);
        assert_eq!(art.words()[at], 0x80, "the index is sorted by pc");
        assert_eq!(executions % 64, 0);
        let off_at = at + kind.entry_words() - 1;
        assert!(
            matches!(
                art.open_bytes(&art.patched(off_at, off + 2)),
                Err(BpsError::Corrupt(_))
            ),
            "{kind:?}"
        );
    }
}

#[test]
fn padding_bits_past_the_execution_count_are_corrupt() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "padding");
        let mut planes_checked = 0;
        for i in 0..art.branch_count() {
            let (_, executions, tags, off) = art.entry(i);
            if executions % 64 == 0 {
                continue;
            }
            // Every plane of the region: taken, in-path and direction.
            let w = executions.div_ceil(64);
            for p in 1..=1 + 2 * tags {
                let last = (off + 2 * tags + p * w - 1) as usize;
                let mut words = art.words();
                words[last] |= 1 << 63;
                assert!(
                    matches!(art.open_bytes(&bytes_of(&words)), Err(BpsError::Corrupt(_))),
                    "{kind:?}: entry {i} plane {p}"
                );
                planes_checked += 1;
            }
        }
        assert!(planes_checked >= 3, "{kind:?}: the sample pads its planes");
    }
}

#[test]
fn tiny_files_error_cleanly() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "tiny");
        let mut container = art.bytes[..32].to_vec();
        container[8..16].copy_from_slice(&32u64.to_le_bytes());
        for bytes in [
            &b""[..],
            b"B",
            b"BPS2",
            b"BPS2\x01\x00\x00",
            b"BPS2\x01\x00\x00\x00",
            &art.bytes[..31],
            &container,
        ] {
            let err = art
                .open_bytes(bytes)
                .expect_err("a tiny file must not open");
            assert!(
                matches!(err, BpsError::Truncated(_)),
                "{kind:?}: {} bytes gave {err:?}",
                bytes.len()
            );
        }
    }
}

#[test]
fn single_byte_mutations_never_panic_and_errors_render() {
    for kind in Kind::ALL {
        let art = Artifact::of_sample(kind, "mutations");
        // Every byte of the header and index, then a stride through the
        // regions: any outcome but a panic is acceptable, and errors must
        // render. A plane flip is caught only when it hits padding bits:
        // the content fingerprint covers structure, not planes.
        let index_end = art.index_end() * 8;
        let positions = (0..index_end).chain((index_end..art.bytes.len()).step_by(37));
        for pos in positions {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = art.bytes.clone();
                bad[pos] ^= flip;
                if let Err(e) = art.open_bytes(&bad) {
                    assert!(!e.to_string().is_empty(), "{kind:?}: pos {pos}");
                }
            }
        }
    }
}
