//! On-disk reuse of `.bps` packed artifacts for paper-scale runs.
//!
//! A 100M–1B-branch run spends nearly all its generation time producing
//! two artifacts — the packed [`BranchStreams`] and the oracle's
//! [`OutcomeMatrix`] — that are pure functions of the workload
//! configuration. An [`ArtifactStore`] keeps them in a directory as
//! versioned `.bps` files (see [`bp_trace::bps`]). An engine given a
//! store ([`crate::Engine::with_artifacts`], which `scale --artifacts
//! DIR` sets up) reopens them through `mmap(2)` in milliseconds instead
//! of regenerating the trace, and saves what it had to build.
//!
//! Each artifact is one file carrying its own fingerprints. Any typed
//! open failure — truncation, magic/version flip, fingerprint mismatch,
//! lying plane lengths — prints a one-line `notice:` to stderr, removes
//! the rotten file, and reports a miss so the caller rebuilds; a
//! simply-missing file is a silent miss. Saving is best-effort (a
//! warning, never a failure): an artifact store must never make a run
//! less reliable than running without one. A load only reads: a warm
//! run leaves the store exactly as it found it.

use std::path::{Path, PathBuf};

use bp_core::{open_matrix, write_matrix, OutcomeMatrix};
use bp_trace::bps::{open_streams, write_streams};
use bp_trace::sidecar::{fnv1a, FNV_OFFSET};
use bp_trace::BranchStreams;

use crate::cli::note;

/// A directory of reusable `.bps` artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

/// Config fingerprint of a streams artifact: the workload coordinates
/// that determine the trace, nothing else.
pub fn streams_config_fp(bench: &str, seed: u64, target: usize) -> u64 {
    let fp = fnv1a(FNV_OFFSET, bench.as_bytes());
    let fp = fnv1a(fp, &seed.to_le_bytes());
    fnv1a(fp, &(target as u64).to_le_bytes())
}

/// Config fingerprint of a matrix artifact: the workload coordinates plus
/// the oracle question (window, candidate cap; both tagging schemes are
/// implied — [`crate::Engine::oracle`] always uses [`bp_trace::TagScheme::ALL`]).
pub fn matrix_config_fp(bench: &str, seed: u64, target: usize, window: usize, cap: usize) -> u64 {
    let fp = streams_config_fp(bench, seed, target);
    let fp = fnv1a(fp, &(window as u64).to_le_bytes());
    fnv1a(fp, &(cap as u64).to_le_bytes())
}

impl ArtifactStore {
    /// Opens (creating if needed) the artifact directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// Path of the streams artifact for `bench`.
    pub fn streams_path(&self, bench: &str) -> PathBuf {
        self.dir.join(format!("{bench}.streams.bps"))
    }

    /// Path of the matrix artifact for `bench` at one oracle config.
    pub fn matrix_path(&self, bench: &str, window: usize, cap: usize) -> PathBuf {
        self.dir.join(format!("{bench}.w{window}c{cap}.matrix.bps"))
    }

    /// Re-opens the streams artifact, or reports a miss. Returns the
    /// streams and whether their planes are kernel-mapped.
    pub fn load_streams(&self, bench: &str, config: u64) -> Option<(BranchStreams, bool)> {
        let path = self.streams_path(bench);
        if !path.exists() {
            return None;
        }
        match open_streams(&path, config) {
            Ok(o) => Some((o.streams, o.mapped)),
            Err(why) => {
                self.evict(&path, &why.to_string());
                None
            }
        }
    }

    /// Writes the streams artifact, best-effort.
    pub fn save_streams(&self, bench: &str, streams: &BranchStreams, config: u64) {
        let path = self.streams_path(bench);
        if let Err(e) = write_streams(&path, streams, config) {
            note(format_args!(
                "warning: could not save artifact {}: {e}",
                path.display()
            ));
        }
    }

    /// Re-opens the matrix artifact, or reports a miss. Returns the
    /// matrix and whether its planes are kernel-mapped.
    pub fn load_matrix(
        &self,
        bench: &str,
        window: usize,
        cap: usize,
        config: u64,
    ) -> Option<(OutcomeMatrix, bool)> {
        let path = self.matrix_path(bench, window, cap);
        if !path.exists() {
            return None;
        }
        match open_matrix(&path, config) {
            Ok(o) => Some((o.matrix, o.mapped)),
            Err(why) => {
                self.evict(&path, &why.to_string());
                None
            }
        }
    }

    /// Writes the matrix artifact, best-effort.
    pub fn save_matrix(
        &self,
        bench: &str,
        window: usize,
        cap: usize,
        matrix: &OutcomeMatrix,
        config: u64,
    ) {
        let path = self.matrix_path(bench, window, cap);
        if let Err(e) = write_matrix(&path, matrix, config) {
            note(format_args!(
                "warning: could not save artifact {}: {e}",
                path.display()
            ));
        }
    }

    /// One-line notice, then removal of the artifact so the rebuild
    /// starts clean.
    fn evict(&self, path: &Path, why: &str) {
        note(format_args!(
            "notice: regenerating artifact {} ({why})",
            path.display()
        ));
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{BranchRecord, Trace};

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("bp-artifacts-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ArtifactStore::open(dir).expect("create store")
    }

    fn sample_streams() -> BranchStreams {
        let recs: Vec<BranchRecord> = (0..2000u64)
            .map(|i| BranchRecord::conditional(0x40 + (i % 9) * 4, i % 3 != 1))
            .collect();
        BranchStreams::of(&Trace::from_records(recs))
    }

    #[test]
    fn streams_round_trip_and_config_miss() {
        let store = temp_store("streams");
        let built = sample_streams();
        let fp = streams_config_fp("m88ksim", 1, 2000);
        assert!(store.load_streams("m88ksim", fp).is_none(), "cold store");
        store.save_streams("m88ksim", &built, fp);
        let (loaded, _) = store.load_streams("m88ksim", fp).expect("warm store");
        assert_eq!(loaded, built);
        // A different workload config is a miss that evicts the artifact.
        let other = streams_config_fp("m88ksim", 2, 2000);
        assert_ne!(fp, other);
        assert!(store.load_streams("m88ksim", other).is_none());
        assert!(
            !store.streams_path("m88ksim").exists(),
            "rotten artifact evicted"
        );
        std::fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn corrupt_artifact_is_evicted_and_reported_as_miss() {
        let store = temp_store("corrupt");
        let fp = streams_config_fp("gcc", 7, 2000);
        store.save_streams("gcc", &sample_streams(), fp);
        let path = store.streams_path("gcc");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(store.load_streams("gcc", fp).is_none());
        assert!(!path.exists(), "rotten artifact evicted");
        std::fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn matrix_fingerprint_separates_oracle_configs() {
        let a = matrix_config_fp("go", 1, 1000, 16, 48);
        let b = matrix_config_fp("go", 1, 1000, 16, 12);
        let c = matrix_config_fp("go", 1, 1000, 8, 48);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
