//! The shared FNV-1a fingerprint *sidecar* format.
//!
//! A sidecar is a tiny text file sitting next to a cached artifact
//! (`artifact.bps` → `artifact.bps.fp`) recording two 64-bit FNV-1a
//! fingerprints behind a version tag:
//!
//! ```text
//! bpfp1 <config:016x> <content:016x>\n
//! ```
//!
//! * `config` fingerprints everything the artifact *depends on* (workload
//!   seed, target, benchmark identity, …) — a mismatch means the cached
//!   bytes answer a different question and must be regenerated.
//! * `content` fingerprints the artifact bytes, or a cheap stand-in for
//!   them: a `.bps` artifact fingerprints its header and index words,
//!   not its planes — a mismatch means the bytes rotted or were swapped.
//!
//! The `.bps` artifacts ([`crate::bps`]) carry sidecars; the serving
//! tier's persistent result cache inlines the same two fingerprints into
//! each entry and shares [`fnv1a`] and [`write_atomic`] from here, so the
//! implementation lives where both crates can reach it. Every failure
//! mode is a typed [`SidecarError`] — a corrupt or stale sidecar is a
//! *regenerate* signal, never a panic.
//!
//! Every cache file — each artifact and each sidecar — is committed
//! through [`write_atomic`], so a reader only ever sees a complete old
//! file or a complete new one under the real name.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit offset basis: the seed for *config* fingerprints.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// A distinct seed for *content* fingerprints, so the two hash streams
/// can never be confused even over identical bytes.
pub const CONTENT_OFFSET: u64 = 0x6c62_272e_07bb_0142;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;
/// The version tag heading every sidecar this build writes.
pub const SIDECAR_VERSION: &str = "bpfp1";

/// FNV-1a over `bytes`, folded into `init`. Chain calls to fingerprint
/// several fields into one stream:
///
/// ```
/// use bp_trace::sidecar::{fnv1a, FNV_OFFSET};
/// let fp = fnv1a(fnv1a(FNV_OFFSET, b"gcc"), &42u64.to_le_bytes());
/// assert_ne!(fp, FNV_OFFSET);
/// ```
#[must_use]
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    let mut hash = init;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Writes a file atomically: creates `path` + `.tmp`, runs `fill` on a
/// buffered writer over it, flushes, `sync_all`s, and renames the tmp
/// file over `path`, returning what `fill` returned.
///
/// On any error — from `fill`, the flush, the sync or the rename — the
/// tmp file is removed and `path` is left exactly as it was. A crash
/// mid-write can leave a stray `.tmp` behind or lose the rename, but
/// never a partial file under the real name; every caller treats a
/// missing or stale file as a cache miss and regenerates it.
///
/// # Errors
///
/// The first error from `fill` or from the filesystem.
pub fn write_atomic<T, E, F>(path: &Path, fill: F) -> Result<T, E>
where
    E: From<io::Error>,
    F: FnOnce(&mut BufWriter<File>) -> Result<T, E>,
{
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let commit = || -> Result<T, E> {
        let mut out = BufWriter::new(File::create(&tmp)?);
        let value = fill(&mut out)?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(value)
    };
    let result = commit();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Why a sidecar could not be used. All variants mean "do not trust the
/// cached artifact"; [`SidecarError::Missing`] additionally means there
/// was nothing to distrust (a first run, not corruption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SidecarError {
    /// The sidecar file does not exist or could not be read.
    Missing,
    /// The sidecar exists but does not parse as `bpfp1 <hex> <hex>`.
    Malformed,
    /// The sidecar parses but carries a version tag this build does not
    /// know (written by a future format revision).
    WrongVersion,
}

impl fmt::Display for SidecarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SidecarError::Missing => write!(f, "missing fingerprint sidecar"),
            SidecarError::Malformed => write!(f, "malformed fingerprint sidecar"),
            SidecarError::WrongVersion => write!(f, "unknown fingerprint sidecar version"),
        }
    }
}

impl std::error::Error for SidecarError {}

/// The two fingerprints a sidecar records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sidecar {
    /// Fingerprint of everything the artifact depends on.
    pub config: u64,
    /// Fingerprint of the artifact content (or a caller-chosen stand-in
    /// such as a record count).
    pub content: u64,
}

impl Sidecar {
    /// The sidecar path for an artifact: the artifact path with `.fp`
    /// appended (`dir/gcc.streams.bps` → `dir/gcc.streams.bps.fp`).
    #[must_use]
    pub fn path_for(artifact: &Path) -> PathBuf {
        let mut os = artifact.as_os_str().to_owned();
        os.push(".fp");
        PathBuf::from(os)
    }

    /// The serialized sidecar text, exactly as written to disk.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{SIDECAR_VERSION} {:016x} {:016x}\n",
            self.config, self.content
        )
    }

    /// Parses sidecar text.
    ///
    /// # Errors
    ///
    /// [`SidecarError::WrongVersion`] for an unknown leading tag,
    /// [`SidecarError::Malformed`] for anything else that is not
    /// `bpfp1 <hex> <hex>`.
    pub fn parse(text: &str) -> Result<Self, SidecarError> {
        let mut parts = text.split_whitespace();
        match parts.next() {
            Some(SIDECAR_VERSION) => {}
            // A hex-only first token is the pre-versioned format (or a
            // truncated file): stale either way.
            Some(_) if text.starts_with("bpfp") => return Err(SidecarError::WrongVersion),
            _ => return Err(SidecarError::Malformed),
        }
        let (Some(config), Some(content), None) = (
            parts.next().and_then(|s| u64::from_str_radix(s, 16).ok()),
            parts.next().and_then(|s| u64::from_str_radix(s, 16).ok()),
            parts.next(),
        ) else {
            return Err(SidecarError::Malformed);
        };
        Ok(Sidecar { config, content })
    }

    /// Writes the sidecar next to `artifact` (through [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Filesystem errors from the write.
    pub fn write(&self, artifact: &Path) -> io::Result<()> {
        write_atomic(&Self::path_for(artifact), |out| {
            out.write_all(self.render().as_bytes())
        })
    }

    /// Loads and parses the sidecar next to `artifact`.
    ///
    /// # Errors
    ///
    /// [`SidecarError::Missing`] when there is no sidecar file, else as
    /// [`Sidecar::parse`].
    pub fn load(artifact: &Path) -> Result<Self, SidecarError> {
        let text =
            std::fs::read_to_string(Self::path_for(artifact)).map_err(|_| SidecarError::Missing)?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_standard_vectors() {
        // The canonical FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn render_parse_round_trip() {
        let sc = Sidecar {
            config: 0xdead_beef_0123_4567,
            content: 42,
        };
        assert_eq!(Sidecar::parse(&sc.render()), Ok(sc));
    }

    #[test]
    fn parse_rejects_each_failure_mode() {
        assert_eq!(Sidecar::parse(""), Err(SidecarError::Malformed));
        // The pre-versioned two-hash format is stale, not valid.
        assert_eq!(
            Sidecar::parse("0123456789abcdef 0123456789abcdef\n"),
            Err(SidecarError::Malformed)
        );
        assert_eq!(
            Sidecar::parse("bpfp9 0 0\n"),
            Err(SidecarError::WrongVersion)
        );
        assert_eq!(
            Sidecar::parse("bpfp1 xyz 0\n"),
            Err(SidecarError::Malformed)
        );
        assert_eq!(Sidecar::parse("bpfp1 0\n"), Err(SidecarError::Malformed));
        assert_eq!(
            Sidecar::parse("bpfp1 0 0 extra\n"),
            Err(SidecarError::Malformed)
        );
    }

    /// A fresh directory per test: tests run in parallel.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-atomic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_atomic_failed_fill_keeps_the_old_file_and_no_tmp() {
        let dir = scratch_dir("fill");
        let path = dir.join("artifact.bps");
        std::fs::write(&path, b"old bytes").expect("seed old file");
        let err = write_atomic(&path, |out| -> io::Result<()> {
            out.write_all(&vec![0xa5; 1 << 20])?;
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        })
        .expect_err("a failing fill must surface its error");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(&path).expect("old file"), b"old bytes");
        assert_eq!(entries(&dir), ["artifact.bps"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_failed_rename_keeps_the_directory_and_no_tmp() {
        let dir = scratch_dir("rename");
        let path = dir.join("artifact.bps");
        std::fs::create_dir(&path).expect("directory in the way");
        std::fs::write(path.join("inner"), b"keep").expect("fill the directory");
        write_atomic(&path, |out| out.write_all(b"new bytes"))
            .expect_err("renaming a file over a directory must fail");
        assert_eq!(std::fs::read(path.join("inner")).expect("inner"), b"keep");
        assert_eq!(entries(&path), ["inner"]);
        assert_eq!(entries(&dir), ["artifact.bps"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_success_replaces_the_file_exactly() {
        let dir = scratch_dir("ok");
        let path = dir.join("artifact.bps");
        std::fs::write(&path, b"a longer old file").expect("seed old file");
        let value =
            write_atomic(&path, |out| out.write_all(b"new").map(|()| 7)).expect("write succeeds");
        assert_eq!(value, 7, "fill's value is returned");
        assert_eq!(std::fs::read(&path).expect("new file"), b"new");
        assert_eq!(entries(&dir), ["artifact.bps"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip_and_missing() {
        let dir = std::env::temp_dir().join(format!("bp-sidecar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let artifact = dir.join("thing.bpt");
        assert_eq!(Sidecar::load(&artifact), Err(SidecarError::Missing));
        let sc = Sidecar {
            config: 7,
            content: 9,
        };
        sc.write(&artifact).expect("write sidecar");
        assert_eq!(Sidecar::load(&artifact), Ok(sc));
        assert_eq!(
            Sidecar::path_for(&artifact),
            dir.join("thing.bpt.fp"),
            "sidecar sits next to the artifact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
