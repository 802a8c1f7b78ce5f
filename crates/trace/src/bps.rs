//! The versioned `.bps` packed-artifact store.
//!
//! A `.bps` file holds a bit-plane artifact — [`BranchStreams`] here, the
//! oracle's `OutcomeMatrix` in `bp-core` — as one flat array of
//! little-endian u64 words, so that re-opening it is a length check, a
//! header walk, and an `mmap(2)`: a 1B-branch artifact is built once and
//! every later sweep or re-classification starts from the mapped planes
//! instead of a twenty-minute regeneration.
//!
//! Layout common to every kind (all quantities are words unless noted):
//!
//! ```text
//! word 0   magic "BPS1" + kind byte (1 = streams, 2 = matrix) + 3 zero bytes
//! word 1   total file length in BYTES (must equal the real file length)
//! word 2+  kind-specific header, index, then the concatenated planes
//! ```
//!
//! The streams kind (this module) continues:
//!
//! ```text
//! word 2   static branch count B
//! word 3   total dynamic conditional executions
//! 3 words per branch, sorted by pc:  [pc, stream length in bits, word offset]
//! then each branch's packed outcome plane (len.div_ceil(64) words)
//! ```
//!
//! Trust is layered: an FNV-1a [`Sidecar`] next to the file pins the
//! *configuration* (what question the artifact answers) and the *content*
//! (a fingerprint of the header+index words — the planes' cheap
//! stand-in); the file then self-describes its length and every plane
//! offset, all of which is validated **before** any plane is sliced or the
//! file is handed to `mmap`. Every failure mode is a typed [`BpsError`] —
//! a rotten artifact is a *rebuild* signal, never a panic.

use std::fs::File;
use std::io::{Read, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::fx::FxHashMap;
use crate::mmap::MappedBytes;
use crate::record::Pc;
use crate::sidecar::{fnv1a, write_atomic, Sidecar, SidecarError, CONTENT_OFFSET};
use crate::streams::{BranchStreams, OutcomeStream};

/// Magic bytes opening every `.bps` file.
pub const BPS_MAGIC: [u8; 4] = *b"BPS1";
/// Kind byte of a [`BranchStreams`] artifact.
pub const STREAMS_KIND: u8 = 1;
/// Kind byte of an `OutcomeMatrix` artifact (codec in `bp-core`).
pub const MATRIX_KIND: u8 = 2;

/// Word 0 of a `.bps` file of the given kind.
#[must_use]
pub fn header_word(kind: u8) -> u64 {
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
/// the content fingerprint primitive shared by both `.bps` codecs.
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
    /// The fingerprint sidecar is missing, malformed, or future-versioned.
    Sidecar(SidecarError),
    /// The file does not open with the `.bps` magic (wrong file, or a
    /// future format revision).
    BadMagic,
    /// Valid magic, but the kind byte is not the kind the caller asked
    /// for (e.g. a streams artifact where a matrix was expected).
    WrongKind,
    /// The file ends before the structure it declares.
    Truncated(&'static str),
    /// The structure is internally inconsistent.
    Corrupt(&'static str),
    /// The sidecar's config fingerprint answers a different question
    /// (other seed, target, window, …).
    ConfigMismatch,
    /// The sidecar's content fingerprint does not match the file.
    ContentMismatch,
}

impl std::fmt::Display for BpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpsError::Io(e) => write!(f, "artifact unreadable: {e}"),
            BpsError::Sidecar(e) => write!(f, "{e}"),
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

impl From<SidecarError> for BpsError {
    fn from(e: SidecarError) -> Self {
        BpsError::Sidecar(e)
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
    /// Opens a `.bps` file of the given kind and validates the common
    /// header: file length (non-empty, whole words, fits in memory —
    /// checked **before** the file is mapped or sliced), magic, kind
    /// byte, and the declared-vs-real length. Kind-specific structure is
    /// the caller's job.
    ///
    /// # Errors
    ///
    /// [`BpsError::Io`] / [`BpsError::Truncated`] / [`BpsError::BadMagic`]
    /// / [`BpsError::WrongKind`] / [`BpsError::Corrupt`] as described.
    pub fn open(path: &Path, kind: u8) -> Result<BpsBytes, BpsError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < 16 {
            return Err(BpsError::Truncated("shorter than the artifact header"));
        }
        if !len.is_multiple_of(8) {
            return Err(BpsError::Truncated("length is not a whole number of words"));
        }
        let byte_len =
            usize::try_from(len).map_err(|_| BpsError::Corrupt("artifact larger than memory"))?;
        let backing = match MappedBytes::map(&file, len) {
            Some(mapped) => Backing::Mapped(mapped),
            None => {
                // Portable fallback: one buffered read, explicit
                // little-endian decode (correct on any endianness).
                let mut bytes = Vec::with_capacity(byte_len);
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
        let this = BpsBytes {
            backing: Arc::new(backing),
        };
        let words = this.words();
        let head = words[0].to_le_bytes();
        if head[0..4] != BPS_MAGIC || head[5..8] != [0, 0, 0] {
            return Err(BpsError::BadMagic);
        }
        if head[4] != kind {
            return Err(BpsError::WrongKind);
        }
        if words[1] != len {
            return Err(BpsError::Corrupt("declared length does not match the file"));
        }
        Ok(this)
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
/// file — the borrow-agnostic word storage behind [`OutcomeStream`] and
/// `bp-core`'s `BranchMatrix`. Kernels only ever see `&[u64]` (via
/// `Deref`), so the same AVX2/BMI2 paths run over freshly built and
/// mapped planes alike; the rare mutation of a mapped plane promotes it
/// to an owned copy first ([`Words::vec_mut`]).
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

/// A [`BranchStreams`] re-opened from a `.bps` artifact.
#[derive(Debug)]
pub struct OpenedStreams {
    /// The artifact, its planes viewing the opened file.
    pub streams: BranchStreams,
    /// Whether the planes are kernel-mapped (vs decoded into memory).
    pub mapped: bool,
}

/// Writes `streams` as a `.bps` artifact at `path`, then its fingerprint
/// sidecar, each through [`write_atomic`], so a crash never leaves a
/// half-written file under the real name.
///
/// # Errors
///
/// Filesystem errors from the write or rename.
pub fn write_streams(path: &Path, streams: &BranchStreams, config: u64) -> std::io::Result<()> {
    let mut branches: Vec<(Pc, &OutcomeStream)> = streams.iter().collect();
    branches.sort_unstable_by_key(|&(pc, _)| pc);

    let index_base = 4u64 + 3 * branches.len() as u64;
    let mut meta: Vec<u64> = Vec::with_capacity(index_base as usize);
    meta.extend([
        header_word(STREAMS_KIND),
        0,
        branches.len() as u64,
        streams.dynamic_count(),
    ]);
    let mut off = index_base;
    for &(pc, s) in &branches {
        meta.extend([pc, s.len() as u64, off]);
        off += s.words().len() as u64;
    }
    meta[1] = off * 8; // total file length in bytes

    write_atomic(path, |out| -> std::io::Result<()> {
        for w in &meta {
            out.write_all(&w.to_le_bytes())?;
        }
        for &(_, s) in &branches {
            for w in s.words() {
                out.write_all(&w.to_le_bytes())?;
            }
        }
        Ok(())
    })?;

    let content = fnv_words(CONTENT_OFFSET, &meta);
    Sidecar { config, content }.write(path)
}

/// Re-opens a streams artifact written by [`write_streams`], validating
/// sidecar fingerprints and the whole index (sorted pcs, every plane
/// offset and length, tail-padding bits, the dynamic total) before any
/// plane view is constructed.
///
/// # Errors
///
/// Every rot mode is a distinct [`BpsError`]; see the module docs.
pub fn open_streams(path: &Path, config: u64) -> Result<OpenedStreams, BpsError> {
    let sidecar = Sidecar::load(path)?;
    if sidecar.config != config {
        return Err(BpsError::ConfigMismatch);
    }
    let bytes = BpsBytes::open(path, STREAMS_KIND)?;
    let words = bytes.words();
    let total_words = words.len() as u64;
    if total_words < 4 {
        return Err(BpsError::Truncated("missing streams header"));
    }
    let branch_count = words[2];
    let total_dynamic = words[3];
    let index_end = branch_count
        .checked_mul(3)
        .and_then(|iw| iw.checked_add(4))
        .ok_or(BpsError::Corrupt("branch count overflows the index"))?;
    if index_end > total_words {
        return Err(BpsError::Truncated("index past end of file"));
    }
    let meta_end = index_end as usize;

    let mut expected_off = index_end;
    let mut dynamic_sum = 0u64;
    let mut prev_pc: Option<Pc> = None;
    for i in 0..branch_count as usize {
        let pc = words[4 + 3 * i];
        let len = words[4 + 3 * i + 1];
        let off = words[4 + 3 * i + 2];
        if prev_pc.is_some_and(|p| p >= pc) {
            return Err(BpsError::Corrupt("index not sorted by pc"));
        }
        prev_pc = Some(pc);
        if off != expected_off {
            return Err(BpsError::Corrupt("plane offset does not match index"));
        }
        let plane_words = len.div_ceil(64);
        expected_off = expected_off
            .checked_add(plane_words)
            .ok_or(BpsError::Corrupt("plane length overflows the file"))?;
        if expected_off > total_words {
            return Err(BpsError::Truncated("plane past end of file"));
        }
        dynamic_sum = dynamic_sum
            .checked_add(len)
            .ok_or(BpsError::Corrupt("dynamic count overflows"))?;
        // Bits past the declared length must be zero, as the builders
        // guarantee — a lying length would silently corrupt popcounts.
        let tail_bits = len % 64;
        if tail_bits != 0 {
            let last = words[(off + plane_words - 1) as usize];
            if last & !((1u64 << tail_bits) - 1) != 0 {
                return Err(BpsError::Corrupt("padding bits set past stream length"));
            }
        }
    }
    if expected_off != total_words {
        return Err(BpsError::Corrupt("file length does not match the planes"));
    }
    if dynamic_sum != total_dynamic {
        return Err(BpsError::Corrupt(
            "dynamic total does not match the streams",
        ));
    }
    if fnv_words(CONTENT_OFFSET, &words[..meta_end]) != sidecar.content {
        return Err(BpsError::ContentMismatch);
    }

    let mapped = bytes.is_mapped();
    let mut map: FxHashMap<Pc, OutcomeStream> =
        FxHashMap::with_capacity_and_hasher(branch_count as usize, Default::default());
    for i in 0..branch_count as usize {
        let pc = words[4 + 3 * i];
        let len = words[4 + 3 * i + 1] as usize;
        let off = words[4 + 3 * i + 2] as usize;
        let plane = Words::mapped(bytes.clone(), off, len.div_ceil(64));
        map.insert(pc, OutcomeStream::from_words(plane, len));
    }
    Ok(OpenedStreams {
        streams: BranchStreams::from_parts(map, total_dynamic),
        mapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;
    use crate::trace::Trace;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-bps-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_streams() -> BranchStreams {
        let recs: Vec<BranchRecord> = (0..3000u64)
            .map(|i| BranchRecord::conditional(0x10 + (i % 7) * 8, i % 3 != 0))
            .collect();
        BranchStreams::of(&Trace::from_records(recs))
    }

    #[test]
    fn words_owned_and_cow_promotion() {
        let mut w = Words::owned(vec![1, 2, 3]);
        assert_eq!(&w[..], &[1, 2, 3]);
        assert!(!w.is_mapped());
        w.vec_mut().push(4);
        assert_eq!(&w[..], &[1, 2, 3, 4]);
        assert_eq!(w, Words::owned(vec![1, 2, 3, 4]));
    }

    #[test]
    fn streams_round_trip_through_bps() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("m.streams.bps");
        let built = sample_streams();
        write_streams(&path, &built, 0xfeed).expect("write");
        let opened = open_streams(&path, 0xfeed).expect("open");
        assert_eq!(opened.streams, built);
        assert_eq!(opened.mapped, crate::mmap::mmap_supported());
        assert_eq!(opened.streams.profile(), built.profile());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_typed() {
        let dir = temp_dir("config");
        let path = dir.join("m.streams.bps");
        write_streams(&path, &sample_streams(), 1).expect("write");
        assert!(matches!(
            open_streams(&path, 2),
            Err(BpsError::ConfigMismatch)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_streams_round_trip() {
        let dir = temp_dir("empty");
        let path = dir.join("empty.streams.bps");
        let built = BranchStreams::of(&Trace::new());
        write_streams(&path, &built, 7).expect("write");
        let opened = open_streams(&path, 7).expect("open");
        assert_eq!(opened.streams, built);
        std::fs::remove_dir_all(&dir).ok();
    }
}
