//! The versioned `.bps` packed-artifact store.
//!
//! A `.bps` file holds a bit-plane artifact — [`BranchStreams`] here, the
//! oracle's `OutcomeMatrix` in `bp-core` — as one flat array of
//! little-endian u64 words, so that re-opening it is a header check, an
//! index walk, and an `mmap(2)`: a 1B-branch artifact is built once and
//! every later sweep or re-classification starts from the mapped planes
//! instead of a twenty-minute regeneration.
//!
//! Every kind shares one container and one index shape (all quantities
//! are words unless noted):
//!
//! ```text
//! word 0   magic "BPS2" + kind byte (1 = streams, 2 = matrix) + 3 zero bytes
//! word 1   total file length in BYTES (must equal the real file length)
//! word 2   config fingerprint: what question the artifact answers
//! word 3   content fingerprint: FNV-1a over words 0–2, then every word
//!          from 4 to the end of the index, then every tag word
//! word 4   static branch count B
//!          the kind's extra header words (matrix: the path-window length)
//!          total dynamic conditional executions
//! index    one entry per branch, sorted by pc:
//!          [pc, executions, tag count t (tagged kinds only), word offset]
//! regions  per branch, at its word offset: 2t tag words, then 1 + 2t
//!          planes of executions.div_ceil(64) words each
//! ```
//!
//! The streams kind (this module) has no extra header word and no tags:
//! each region is one packed outcome plane. The matrix kind's layout is
//! in `bp-core`.
//!
//! One [`write_atomic`] commits each artifact, fingerprints included, so
//! a failed save leaves the previous artifact exactly as it was. Opening
//! checks magic, kind, declared length and config from the first four
//! words before the body is mapped or read; then [`open`]'s one walk
//! validates the whole index (sorted pcs, offset continuity,
//! overflow-checked extents, padding bits, the dynamic total) and the
//! content fingerprint before any plane view is built. The fingerprint
//! covers the structure, not the planes: hashing the planes would turn a
//! zero-copy reopen into a full read. Every failure mode is a typed
//! [`BpsError`] — a rotten artifact is a *rebuild* signal, never a panic.

use std::fs::File;
use std::io::{Read, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::mmap::MappedBytes;
use crate::record::Pc;
use crate::sidecar::{fnv1a, write_atomic, CONTENT_OFFSET};
use crate::streams::BranchStreams;

/// Magic bytes opening every `.bps` file.
pub const BPS_MAGIC: [u8; 4] = *b"BPS2";
/// Kind byte of a [`BranchStreams`] artifact.
pub const STREAMS_KIND: u8 = 1;
/// Kind byte of an `OutcomeMatrix` artifact (codec in `bp-core`).
pub const MATRIX_KIND: u8 = 2;

/// Container words opening every kind: magic and kind, length, config
/// and content fingerprints.
const CONTAINER_WORDS: usize = 4;

/// Word 0 of a `.bps` file of the given kind.
fn header_word(kind: u8) -> u64 {
    u64::from_le_bytes([
        BPS_MAGIC[0],
        BPS_MAGIC[1],
        BPS_MAGIC[2],
        BPS_MAGIC[3],
        kind,
        0,
        0,
        0,
    ])
}

/// FNV-1a over the little-endian bytes of `words`, folded into `init` —
/// the content fingerprint primitive.
#[must_use]
pub fn fnv_words(init: u64, words: &[u64]) -> u64 {
    let mut hash = init;
    for w in words {
        hash = fnv1a(hash, &w.to_le_bytes());
    }
    hash
}

/// Why a `.bps` artifact could not be used. Every variant means "rebuild
/// the artifact"; none is ever worth a panic.
#[derive(Debug)]
pub enum BpsError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The file does not open with the `.bps` magic (wrong file, or a
    /// format revision this build does not read).
    BadMagic,
    /// Valid magic, but the kind byte is not the kind the caller asked
    /// for (e.g. a streams artifact where a matrix was expected).
    WrongKind,
    /// The file ends before the structure it declares.
    Truncated(&'static str),
    /// The structure is internally inconsistent.
    Corrupt(&'static str),
    /// The header's config fingerprint answers a different question
    /// (other seed, target, window, …).
    ConfigMismatch,
    /// The header's content fingerprint does not match the header, index
    /// and tag words.
    ContentMismatch,
}

impl std::fmt::Display for BpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpsError::Io(e) => write!(f, "artifact unreadable: {e}"),
            BpsError::BadMagic => write!(f, "not a .bps artifact"),
            BpsError::WrongKind => write!(f, "artifact kind mismatch"),
            BpsError::Truncated(what) => write!(f, "truncated artifact: {what}"),
            BpsError::Corrupt(what) => write!(f, "corrupt artifact: {what}"),
            BpsError::ConfigMismatch => write!(f, "config fingerprint mismatch"),
            BpsError::ContentMismatch => write!(f, "content fingerprint mismatch"),
        }
    }
}

impl std::error::Error for BpsError {}

impl From<std::io::Error> for BpsError {
    fn from(e: std::io::Error) -> Self {
        BpsError::Io(e)
    }
}

/// The backing bytes of an opened `.bps` file: the kernel's mapping where
/// available, an owned little-endian decode elsewhere. Cloning shares the
/// backing (it is an `Arc` internally), which is what lets every plane of
/// an artifact be a cheap [`Words`] view into one open file.
#[derive(Debug, Clone)]
pub struct BpsBytes {
    backing: Arc<Backing>,
}

#[derive(Debug)]
enum Backing {
    Mapped(MappedBytes),
    Owned(Vec<u64>),
}

impl BpsBytes {
    /// Opens a `.bps` file and checks its container from the first four
    /// words — file length (at least the container, whole words), magic,
    /// kind byte, declared-vs-real length and config fingerprint —
    /// **before** the body is mapped or read.
    fn open(path: &Path, kind: u8, config: u64) -> Result<BpsBytes, BpsError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < 8 * CONTAINER_WORDS as u64 {
            return Err(BpsError::Truncated("shorter than the artifact header"));
        }
        if !len.is_multiple_of(8) {
            return Err(BpsError::Truncated("length is not a whole number of words"));
        }
        let mut head = [0u8; 8 * CONTAINER_WORDS];
        file.read_exact(&mut head)?;
        let word = |i: usize| {
            u64::from_le_bytes(head[8 * i..8 * i + 8].try_into().expect("an 8-byte word"))
        };
        if head[0..4] != BPS_MAGIC || head[5..8] != [0, 0, 0] {
            return Err(BpsError::BadMagic);
        }
        if head[4] != kind {
            return Err(BpsError::WrongKind);
        }
        if word(1) != len {
            return Err(BpsError::Corrupt("declared length does not match the file"));
        }
        if word(2) != config {
            return Err(BpsError::ConfigMismatch);
        }
        let byte_len =
            usize::try_from(len).map_err(|_| BpsError::Corrupt("artifact larger than memory"))?;
        let backing = match MappedBytes::map(&file, len) {
            Some(mapped) => Backing::Mapped(mapped),
            None => {
                // Portable fallback: one buffered read after the header,
                // explicit little-endian decode (correct on any
                // endianness).
                let mut bytes = Vec::with_capacity(byte_len);
                bytes.extend_from_slice(&head);
                file.read_to_end(&mut bytes)?;
                if bytes.len() != byte_len {
                    return Err(BpsError::Truncated("file changed while reading"));
                }
                let words = bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                Backing::Owned(words)
            }
        };
        Ok(BpsBytes {
            backing: Arc::new(backing),
        })
    }

    /// The whole file as words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &*self.backing {
            Backing::Mapped(m) => m.words(),
            Backing::Owned(v) => v,
        }
    }

    /// Whether the backing is a kernel mapping (vs an owned decode).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(&*self.backing, Backing::Mapped(_))
    }
}

/// A bit plane that is either owned or a view into an opened `.bps`
/// file — the borrow-agnostic word storage behind
/// [`OutcomeStream`](crate::OutcomeStream) and `bp-core`'s
/// `BranchMatrix`. Kernels only ever see `&[u64]` (via `Deref`), so
/// the same AVX2/BMI2 paths run over freshly built and mapped planes
/// alike; the rare mutation of a mapped plane promotes it to an owned
/// copy first ([`Words::vec_mut`]).
#[derive(Clone)]
pub struct Words(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Vec<u64>),
    Mapped {
        file: BpsBytes,
        offset: usize,
        len: usize,
    },
}

impl Words {
    /// An owned plane.
    #[must_use]
    pub fn owned(words: Vec<u64>) -> Words {
        Words(Repr::Owned(words))
    }

    /// A zero-copy view of `len` words at word `offset` of an opened
    /// artifact.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds — callers validate plane
    /// extents against the file length before constructing views, so a
    /// panic here is a codec bug, not a corrupt file.
    #[must_use]
    pub fn mapped(file: BpsBytes, offset: usize, len: usize) -> Words {
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= file.words().len()),
            "plane view out of bounds"
        );
        Words(Repr::Mapped { file, offset, len })
    }

    /// The plane as a word slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped { file, offset, len } => &file.words()[*offset..*offset + *len],
        }
    }

    /// Mutable access as a `Vec`, promoting a mapped view to an owned
    /// copy first. Build paths only ever construct owned planes, so the
    /// copy never happens there; it exists so that a mapped artifact is
    /// still a fully general value.
    pub fn vec_mut(&mut self) -> &mut Vec<u64> {
        if let Repr::Mapped { .. } = self.0 {
            self.0 = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// Whether this plane is a view into a mapped file.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Repr::Mapped { .. })
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl Default for Words {
    fn default() -> Words {
        Words(Repr::Owned(Vec::new()))
    }
}

impl From<Vec<u64>> for Words {
    fn from(words: Vec<u64>) -> Words {
        Words::owned(words)
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Words {}

impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// What a `.bps` kind adds to the shared container and index shape.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The kind byte in word 0.
    pub kind: u8,
    /// Header words between the branch count and the dynamic total.
    pub extra_words: usize,
    /// Whether each index entry carries a tag count `t`, and each region
    /// `2t` tag words and `2t` more planes.
    pub tagged: bool,
}

impl Layout {
    fn header_words(self) -> usize {
        CONTAINER_WORDS + 2 + self.extra_words
    }

    fn entry_words(self) -> usize {
        3 + usize::from(self.tagged)
    }
}

const STREAMS: Layout = Layout {
    kind: STREAMS_KIND,
    extra_words: 0,
    tagged: false,
};

/// One branch's region, as [`write()`] lays it out.
#[derive(Debug)]
pub struct Region<'a> {
    /// The branch pc.
    pub pc: Pc,
    /// Executions: the bit length of every plane.
    pub executions: u64,
    /// Two words per tag (empty for an untagged kind).
    pub tag_words: Vec<u64>,
    /// The `1 + tag_words.len()` planes, in file order.
    pub planes: Vec<&'a [u64]>,
}

/// Writes one `.bps` artifact at `path` through a single
/// [`write_atomic`]: the container header with both fingerprints, the
/// branch count, `extra`, the dynamic total, the index, then every
/// region sorted by pc. A failed write leaves the file at `path` as it
/// was.
///
/// # Errors
///
/// Filesystem errors from the write or rename.
pub fn write(
    path: &Path,
    layout: Layout,
    config: u64,
    extra: &[u64],
    dynamic: u64,
    regions: &mut [Region<'_>],
) -> std::io::Result<()> {
    debug_assert_eq!(extra.len(), layout.extra_words);
    regions.sort_unstable_by_key(|r| r.pc);
    let mut meta = vec![header_word(layout.kind), 0, config, 0, regions.len() as u64];
    meta.extend_from_slice(extra);
    meta.push(dynamic);
    let mut off = (meta.len() + layout.entry_words() * regions.len()) as u64;
    for r in regions.iter() {
        meta.extend([r.pc, r.executions]);
        if layout.tagged {
            meta.push(r.tag_words.len() as u64 / 2);
        }
        meta.push(off);
        off += (r.tag_words.len() + r.planes.iter().map(|p| p.len()).sum::<usize>()) as u64;
    }
    meta[1] = off * 8; // total file length in bytes
    let mut content = fnv_words(fnv_words(CONTENT_OFFSET, &meta[..3]), &meta[4..]);
    for r in regions.iter() {
        content = fnv_words(content, &r.tag_words);
    }
    meta[3] = content;

    write_atomic(path, |out| -> std::io::Result<()> {
        let mut put = |words: &[u64]| -> std::io::Result<()> {
            words
                .iter()
                .try_for_each(|w| out.write_all(&w.to_le_bytes()))
        };
        put(&meta)?;
        for r in regions.iter() {
            put(&r.tag_words)?;
            for plane in &r.planes {
                put(plane)?;
            }
        }
        Ok(())
    })
}

/// One branch's index entry, validated against the file.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The branch pc.
    pub pc: Pc,
    /// Executions: the bit length of every plane.
    pub executions: usize,
    /// Tag count `t` (0 for an untagged kind).
    pub tags: usize,
    /// Word offset of the branch's region.
    pub offset: usize,
}

/// A `.bps` artifact whose container, index and content fingerprint
/// passed [`open`]: every [`Opened::plane`] is in bounds.
#[derive(Debug)]
pub struct Opened {
    /// The file's words.
    pub bytes: BpsBytes,
    /// The kind's extra header words.
    pub extra: Vec<u64>,
    /// The total dynamic executions.
    pub dynamic: u64,
    /// The index, sorted by pc.
    pub entries: Vec<Entry>,
}

impl Opened {
    /// The tag words of `entry`'s region.
    #[must_use]
    pub fn tag_words(&self, entry: &Entry) -> &[u64] {
        &self.bytes.words()[entry.offset..entry.offset + 2 * entry.tags]
    }

    /// Plane `p` (of `1 + 2t`) of `entry`'s region, viewing the file.
    #[must_use]
    pub fn plane(&self, entry: &Entry, p: usize) -> Words {
        let w = entry.executions.div_ceil(64);
        Words::mapped(self.bytes.clone(), entry.offset + 2 * entry.tags + p * w, w)
    }
}

/// Opens a `.bps` artifact of `layout`'s kind answering `config`. Magic,
/// kind, declared length and config are checked from the first four
/// words before the body is mapped or read; then one walk validates the
/// index (sorted pcs, every region's offset and extent, padding bits past
/// each plane's length, the dynamic total) and the content fingerprint
/// before any plane view is built.
///
/// # Errors
///
/// Every rot mode is a distinct [`BpsError`]; see the module docs.
pub fn open(path: &Path, layout: Layout, config: u64) -> Result<Opened, BpsError> {
    let bytes = BpsBytes::open(path, layout.kind, config)?;
    let words = bytes.words();
    let total = words.len() as u64;
    let header_words = layout.header_words();
    if words.len() < header_words {
        return Err(BpsError::Truncated("missing kind header"));
    }
    let branch_count = words[CONTAINER_WORDS];
    let extra = words[CONTAINER_WORDS + 1..header_words - 1].to_vec();
    let dynamic = words[header_words - 1];
    let entry_words = layout.entry_words();
    let index_end = branch_count
        .checked_mul(entry_words as u64)
        .and_then(|iw| iw.checked_add(header_words as u64))
        .ok_or(BpsError::Corrupt("branch count overflows the index"))?;
    if index_end > total {
        return Err(BpsError::Truncated("index past end of file"));
    }
    let index = &words[header_words..index_end as usize];

    let mut content = fnv_words(CONTENT_OFFSET, &words[..3]);
    content = fnv_words(content, &words[CONTAINER_WORDS..index_end as usize]);
    let mut entries: Vec<Entry> = Vec::with_capacity(index.len() / entry_words);
    let mut expected_off = index_end;
    let mut dynamic_sum = 0u64;
    for e in index.chunks_exact(entry_words) {
        let (pc, executions, off) = (e[0], e[1], e[entry_words - 1]);
        let tags = if layout.tagged { e[2] } else { 0 };
        if entries.last().is_some_and(|prev| prev.pc >= pc) {
            return Err(BpsError::Corrupt("index not sorted by pc"));
        }
        if off != expected_off {
            return Err(BpsError::Corrupt("region offset does not match the index"));
        }
        let plane_words = executions.div_ceil(64);
        expected_off = tags
            .checked_mul(2)
            .and_then(|tw| tw.checked_add(1)?.checked_mul(plane_words)?.checked_add(tw))
            .and_then(|region| expected_off.checked_add(region))
            .ok_or(BpsError::Corrupt("region overflows the file"))?;
        if expected_off > total {
            return Err(BpsError::Truncated("region past end of file"));
        }
        dynamic_sum = dynamic_sum
            .checked_add(executions)
            .ok_or(BpsError::Corrupt("dynamic count overflows"))?;
        // The region fits in the file, so its offset and tag count fit
        // in memory.
        let entry = Entry {
            pc,
            executions: usize::try_from(executions)
                .map_err(|_| BpsError::Corrupt("execution count overflows memory"))?,
            tags: tags as usize,
            offset: off as usize,
        };
        let first_plane = entry.offset + 2 * entry.tags;
        content = fnv_words(content, &words[entry.offset..first_plane]);
        // Bits past the declared execution count must be zero in every
        // plane, as the builders guarantee: a lying count would silently
        // corrupt popcounts and run-length replays.
        let tail_bits = executions % 64;
        if tail_bits != 0 {
            let mask = !((1u64 << tail_bits) - 1);
            let plane_words = plane_words as usize;
            for p in 1..=1 + 2 * entry.tags {
                if words[first_plane + p * plane_words - 1] & mask != 0 {
                    return Err(BpsError::Corrupt(
                        "padding bits set past the execution count",
                    ));
                }
            }
        }
        entries.push(entry);
    }
    if expected_off != total {
        return Err(BpsError::Corrupt("file length does not match the regions"));
    }
    if dynamic_sum != dynamic {
        return Err(BpsError::Corrupt(
            "dynamic total does not match the branches",
        ));
    }
    if content != words[3] {
        return Err(BpsError::ContentMismatch);
    }
    Ok(Opened {
        bytes,
        extra,
        dynamic,
        entries,
    })
}

/// A [`BranchStreams`] re-opened from a `.bps` artifact.
#[derive(Debug)]
pub struct OpenedStreams {
    /// The artifact, its planes viewing the opened file.
    pub streams: BranchStreams,
    /// Whether the planes are kernel-mapped (vs decoded into memory).
    pub mapped: bool,
}

/// Writes `streams` as a `.bps` artifact at `path` through one
/// [`write_atomic`], so a crash never leaves a half-written file under
/// the real name.
///
/// # Errors
///
/// Filesystem errors from the write or rename.
pub fn write_streams(path: &Path, streams: &BranchStreams, config: u64) -> std::io::Result<()> {
    let mut regions: Vec<Region<'_>> = streams
        .iter()
        .map(|(pc, s)| Region {
            pc,
            executions: s.len() as u64,
            tag_words: Vec::new(),
            planes: vec![s.words()],
        })
        .collect();
    write(
        path,
        STREAMS,
        config,
        &[],
        streams.dynamic_count(),
        &mut regions,
    )
}

/// Re-opens a streams artifact written by [`write_streams`], validated
/// by [`open`] before any plane view is built.
///
/// # Errors
///
/// Every rot mode is a distinct [`BpsError`]; see the module docs.
pub fn open_streams(path: &Path, config: u64) -> Result<OpenedStreams, BpsError> {
    let opened = open(path, STREAMS, config)?;
    let planes = opened
        .entries
        .iter()
        .map(|e| (e.pc, opened.plane(e, 0), e.executions));
    Ok(OpenedStreams {
        streams: BranchStreams::from_planes(planes),
        mapped: opened.bytes.is_mapped(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_owned_and_cow_promotion() {
        let mut w = Words::owned(vec![1, 2, 3]);
        assert_eq!(&w[..], &[1, 2, 3]);
        assert!(!w.is_mapped());
        w.vec_mut().push(4);
        assert_eq!(&w[..], &[1, 2, 3, 4]);
        assert_eq!(w, Words::owned(vec![1, 2, 3, 4]));
    }
}
