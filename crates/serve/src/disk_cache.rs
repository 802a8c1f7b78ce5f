//! The persistent rendered-output cache: an in-memory LRU over a byte
//! budget, write-through to one self-contained file per entry, and
//! warm-start on boot.
//!
//! Cold evaluations run at ~2 requests/second while warm cache hits run
//! four orders of magnitude faster, so a daemon restart used to be an
//! outage-shaped cliff: every cached answer was gone. This module makes
//! the rendered-output cache survive restarts — [`ResultCache::open`]
//! reloads every valid entry from disk, and a restarted daemon answers
//! its prior working set at warm latency immediately.
//!
//! ## On-disk format (`.bpo`, "branch-predictor output")
//!
//! One entry per file, all integers little-endian:
//!
//! ```text
//! magic        4  b"BPOC"
//! version      2  = 1
//! reserved     2  = 0
//! exp_len      2  experiment-id length
//! experiment   …  UTF-8 experiment id
//! seed         8  workload seed
//! target       8  workload target
//! config_fp    8  FNV-1a over (experiment, seed, target)
//! payload_len  8  rendered-output length
//! payload      …  UTF-8 rendered output
//! content_fp   8  FNV-1a over payload (distinct offset basis)
//! ```
//!
//! The fingerprints reuse the shared FNV-1a chain
//! ([`bp_trace::sidecar`]) — the same `config` / `content` split a
//! `.bps` artifact keeps in its header words, here inlined into the
//! entry so each file is self-validating. Every failure mode is a typed
//! [`DiskCacheError`]; a corrupt entry is removed with a one-line
//! notice and regenerated on the next request — never a panic, and the
//! announced `payload_len` is validated against the real file size
//! before any slicing, so a lying header cannot cause overallocation.

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bp_trace::sidecar::{fnv1a, write_atomic, CONTENT_OFFSET, FNV_OFFSET};

use crate::stats::CacheGauges;

/// Identity of one evaluation: (experiment id, seed, target). Everything
/// the rendered output depends on, and nothing else.
pub type EvalKey = (String, u64, u64);

/// Entry-file magic.
pub const MAGIC: [u8; 4] = *b"BPOC";
/// Entry-file format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Why a disk cache entry could not be used. Every variant is a
/// *regenerate* signal: the entry is removed and the next request for
/// its key recomputes and rewrites it.
#[derive(Debug)]
pub enum DiskCacheError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file does not start with `BPOC`.
    BadMagic,
    /// The file's version is not one this build knows.
    BadVersion(u16),
    /// The file ends inside the named section.
    Truncated(&'static str),
    /// The announced payload length disagrees with the real file size.
    LyingLength {
        /// Length the header announced.
        announced: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The named fingerprint does not match a recomputation.
    FingerprintMismatch(&'static str),
    /// The experiment id or payload is not UTF-8.
    NotUtf8,
}

impl fmt::Display for DiskCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskCacheError::Io(e) => write!(f, "i/o failed: {e}"),
            DiskCacheError::BadMagic => write!(f, "bad magic (not a .bpo entry)"),
            DiskCacheError::BadVersion(v) => write!(f, "unknown entry version {v}"),
            DiskCacheError::Truncated(section) => write!(f, "truncated in {section}"),
            DiskCacheError::LyingLength { announced, actual } => {
                write!(f, "announced {announced}-byte payload but {actual} present")
            }
            DiskCacheError::FingerprintMismatch(which) => {
                write!(f, "{which} fingerprint mismatch")
            }
            DiskCacheError::NotUtf8 => write!(f, "non-utf-8 text field"),
        }
    }
}

impl std::error::Error for DiskCacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskCacheError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// The config fingerprint of a key: the shared FNV-1a chain over the
/// experiment id, seed, and target.
#[must_use]
pub fn config_fingerprint(key: &EvalKey) -> u64 {
    let fp = fnv1a(FNV_OFFSET, key.0.as_bytes());
    let fp = fnv1a(fp, &key.1.to_le_bytes());
    fnv1a(fp, &key.2.to_le_bytes())
}

/// Serializes one cache entry.
#[must_use]
pub fn encode_entry(key: &EvalKey, payload: &str) -> Vec<u8> {
    let exp = key.0.as_bytes();
    let exp_len = u16::try_from(exp.len()).expect("experiment ids are short");
    let mut out = Vec::with_capacity(48 + exp.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&exp_len.to_le_bytes());
    out.extend_from_slice(exp);
    out.extend_from_slice(&key.1.to_le_bytes());
    out.extend_from_slice(&key.2.to_le_bytes());
    out.extend_from_slice(&config_fingerprint(key).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out.extend_from_slice(&fnv1a(CONTENT_OFFSET, payload.as_bytes()).to_le_bytes());
    out
}

struct EntryReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> EntryReader<'a> {
    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], DiskCacheError> {
        if self.bytes.len() - self.pos < n {
            return Err(DiskCacheError::Truncated(section));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self, section: &'static str) -> Result<u16, DiskCacheError> {
        Ok(u16::from_le_bytes(
            self.take(2, section)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, DiskCacheError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Deserializes and fully validates one cache entry.
///
/// # Errors
///
/// A typed [`DiskCacheError`] for every way the bytes can be wrong:
/// truncation at any boundary, flipped magic, unknown version, a
/// payload length that disagrees with the file size, fingerprint
/// mismatches, and non-UTF-8 text.
pub fn decode_entry(bytes: &[u8]) -> Result<(EvalKey, String), DiskCacheError> {
    let mut r = EntryReader { bytes, pos: 0 };
    if r.take(4, "magic")? != MAGIC {
        return Err(DiskCacheError::BadMagic);
    }
    let version = r.u16("version")?;
    if version != VERSION {
        return Err(DiskCacheError::BadVersion(version));
    }
    let _reserved = r.u16("reserved")?;
    let exp_len = r.u16("experiment length")? as usize;
    let exp = std::str::from_utf8(r.take(exp_len, "experiment id")?)
        .map_err(|_| DiskCacheError::NotUtf8)?
        .to_owned();
    let seed = r.u64("seed")?;
    let target = r.u64("target")?;
    let config_fp = r.u64("config fingerprint")?;
    let announced = r.u64("payload length")?;
    // The real payload is whatever sits between here and the 8-byte
    // content-fingerprint trailer. Comparing against the announced
    // length *before* slicing means a lying header can neither
    // overallocate nor shift the trailer.
    let actual = (bytes.len() - r.pos).saturating_sub(8) as u64;
    if announced != actual {
        return Err(DiskCacheError::LyingLength { announced, actual });
    }
    let payload_bytes = r.take(actual as usize, "payload")?;
    let content_fp = r.u64("content fingerprint")?;

    let key: EvalKey = (exp, seed, target);
    if config_fp != config_fingerprint(&key) {
        return Err(DiskCacheError::FingerprintMismatch("config"));
    }
    if content_fp != fnv1a(CONTENT_OFFSET, payload_bytes) {
        return Err(DiskCacheError::FingerprintMismatch("content"));
    }
    let payload = std::str::from_utf8(payload_bytes)
        .map_err(|_| DiskCacheError::NotUtf8)?
        .to_owned();
    Ok((key, payload))
}

/// Which tier answered a [`ResultCache::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU.
    Memory,
    /// Reloaded from a persisted entry (and promoted into memory).
    Disk,
}

/// Cache tunables.
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Directory holding `.bpo` entries; `None` = memory-only (the
    /// pre-persistence behavior).
    pub dir: Option<PathBuf>,
    /// Byte budget for rendered output held in memory. The newest entry
    /// is always kept, so a single oversized output still serves warm.
    pub memory_budget: usize,
}

struct MemEntry {
    output: Arc<String>,
    last_used: u64,
}

struct MemLru {
    map: HashMap<EvalKey, MemEntry>,
    bytes: usize,
    tick: u64,
}

impl MemLru {
    fn touch(&mut self, key: &EvalKey) -> Option<Arc<String>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.output)
        })
    }

    /// Inserts and evicts least-recently-used entries down to `budget`,
    /// never evicting the entry just inserted. Returns evictions.
    fn insert(&mut self, key: EvalKey, output: Arc<String>, budget: usize) -> u64 {
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key.clone(),
            MemEntry {
                output: Arc::clone(&output),
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.output.len();
        }
        self.bytes += output.len();
        let mut evicted = 0;
        while self.bytes > budget && self.map.len() > 1 {
            let Some(victim) = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.output.len();
                evicted += 1;
            }
        }
        evicted
    }
}

/// The two-tier rendered-output cache.
pub struct ResultCache {
    dir: Option<PathBuf>,
    budget: usize,
    mem: Mutex<MemLru>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
    warm_started: AtomicU64,
    notices: Mutex<Vec<String>>,
}

impl ResultCache {
    /// Opens the cache, creating `dir` if needed and warm-starting from
    /// every valid persisted entry. Corrupt entries are removed (each
    /// leaves a one-line notice; see [`ResultCache::take_notices`]).
    pub fn open(cfg: CacheConfig) -> Self {
        let cache = ResultCache {
            dir: cfg.dir,
            budget: cfg.memory_budget,
            mem: Mutex::new(MemLru {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warm_started: AtomicU64::new(0),
            notices: Mutex::new(Vec::new()),
        };
        cache.warm_start();
        cache
    }

    fn notice(&self, line: String) {
        self.notices.lock().expect("cache notices lock").push(line);
    }

    /// Drains the accumulated one-line notices (corrupt entries removed,
    /// failed writes). The server logs these; tests assert on them.
    pub fn take_notices(&self) -> Vec<String> {
        std::mem::take(&mut *self.notices.lock().expect("cache notices lock"))
    }

    fn warm_start(&self) {
        let Some(dir) = self.dir.clone() else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            self.notice(format!("cache dir {}: {e}", dir.display()));
            return;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "bpo"))
            .collect();
        paths.sort();
        for path in paths {
            match std::fs::read(&path)
                .map_err(DiskCacheError::Io)
                .and_then(|b| decode_entry(&b))
            {
                Ok((key, payload)) => {
                    let evicted = self.mem.lock().expect("cache memory lock").insert(
                        key,
                        Arc::new(payload),
                        self.budget,
                    );
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    self.warm_started.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    let _ = std::fs::remove_file(&path);
                    self.notice(format!(
                        "removed corrupt cache entry {}: {e}",
                        path.display()
                    ));
                }
            }
        }
    }

    fn path_of(&self, key: &EvalKey) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let exp: String = key
            .0
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(format!("{exp}-{:016x}-{:016x}.bpo", key.1, key.2)))
    }

    /// Looks the key up: memory first, then disk (a disk hit is
    /// promoted into memory). A corrupt disk entry is removed with a
    /// notice and reported as a miss — the caller recomputes.
    pub fn get(&self, key: &EvalKey) -> Option<(Arc<String>, CacheTier)> {
        if let Some(hit) = self.mem.lock().expect("cache memory lock").touch(key) {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some((hit, CacheTier::Memory));
        }
        let path = self.path_of(key)?;
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.notice(format!("cache read {}: {e}", path.display()));
                return None;
            }
        };
        match decode_entry(&bytes) {
            Ok((stored_key, payload)) if stored_key == *key => {
                let output = Arc::new(payload);
                let evicted = self.mem.lock().expect("cache memory lock").insert(
                    key.clone(),
                    Arc::clone(&output),
                    self.budget,
                );
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some((output, CacheTier::Disk))
            }
            Ok(_) => {
                // A filename collision stored a different key here;
                // treat as corruption and let the caller regenerate.
                let _ = std::fs::remove_file(&path);
                self.notice(format!(
                    "removed cache entry {} holding a different key",
                    path.display()
                ));
                None
            }
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                self.notice(format!(
                    "removed corrupt cache entry {}: {e}",
                    path.display()
                ));
                None
            }
        }
    }

    /// Stores a freshly rendered output: into memory (evicting LRU
    /// entries past the budget) and through to disk via
    /// [`write_atomic`], so a crash mid-write never leaves a half entry
    /// under the final name.
    pub fn put(&self, key: &EvalKey, output: &Arc<String>) {
        let evicted = self.mem.lock().expect("cache memory lock").insert(
            key.clone(),
            Arc::clone(output),
            self.budget,
        );
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        let Some(path) = self.path_of(key) else {
            return;
        };
        let bytes = encode_entry(key, output);
        if let Err(e) = write_atomic(&path, |out| out.write_all(&bytes)) {
            self.notice(format!("cache write {}: {e}", path.display()));
        }
    }

    /// Point-in-time cache counters for the `stats` endpoint.
    pub fn gauges(&self) -> CacheGauges {
        let (entries, bytes) = {
            let mem = self.mem.lock().expect("cache memory lock");
            (mem.map.len() as u64, mem.bytes as u64)
        };
        CacheGauges {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            entries,
            bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            warm_start_entries: self.warm_started.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(exp: &str, seed: u64, target: u64) -> EvalKey {
        (exp.to_owned(), seed, target)
    }

    #[test]
    fn encode_decode_round_trip() {
        let k = key("fig4", 0x1234_5678_9abc_def0, 40_000);
        let payload = "line one\nline two\n";
        let bytes = encode_entry(&k, payload);
        let (dk, dp) = decode_entry(&bytes).expect("decodes");
        assert_eq!(dk, k);
        assert_eq!(dp, payload);
    }

    #[test]
    fn memory_only_cache_works_without_a_dir() {
        let cache = ResultCache::open(CacheConfig {
            dir: None,
            memory_budget: 1 << 20,
        });
        let k = key("fig4", 1, 100);
        assert!(cache.get(&k).is_none());
        cache.put(&k, &Arc::new("out".to_owned()));
        let (out, tier) = cache.get(&k).expect("hit");
        assert_eq!(*out, "out");
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(cache.gauges().entries, 1);
        assert!(cache.take_notices().is_empty());
    }
}
