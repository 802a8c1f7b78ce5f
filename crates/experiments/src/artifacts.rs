//! On-disk reuse of `.bps` packed artifacts for paper-scale runs.
//!
//! A 100M–1B-branch run spends nearly all its generation time producing
//! two artifacts — the packed [`BranchStreams`] and the oracle's
//! [`OutcomeMatrix`] — that are pure functions of the workload
//! configuration. An [`ArtifactStore`] keeps them in a directory as
//! versioned `.bps` files (see [`bp_trace::bps`]), so a second run with
//! `scale --artifacts DIR` re-opens them through `mmap(2)` in
//! milliseconds instead of regenerating the trace.
//!
//! Each artifact is one file carrying its own fingerprints. Any typed
//! open failure — truncation, magic/version flip, fingerprint mismatch,
//! lying plane lengths — prints a one-line `notice:` to stderr, removes
//! the rotten file, and reports a miss so the caller rebuilds; a
//! simply-missing file is a silent miss. Saving is best-effort (a
//! warning, never a failure): an artifact store must never make a run
//! less reliable than running without one.

use std::path::{Path, PathBuf};

use bp_core::{open_matrix, write_matrix, OutcomeMatrix};
use bp_trace::bps::{open_streams, write_streams};
use bp_trace::sidecar::{fnv1a, FNV_OFFSET};
use bp_trace::BranchStreams;

/// A directory of reusable `.bps` artifacts, optionally capped at a
/// byte budget. When a save pushes the directory over budget, the
/// least-recently-used artifacts — by modification time, which loads
/// refresh — are evicted with a one-line notice until the store fits
/// again. The artifact just written is never evicted, even if it alone
/// exceeds the budget: the run that produced it gets to reuse it at
/// least once.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
    budget_bytes: Option<u64>,
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
/// implied — the `scale` pipeline always uses [`bp_trace::TagScheme::ALL`]).
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
        Ok(ArtifactStore {
            dir,
            budget_bytes: None,
        })
    }

    /// Caps the store at `bytes` total (the sum of its `.bps` file
    /// sizes); `None` removes the cap.
    #[must_use]
    pub fn with_budget(mut self, bytes: Option<u64>) -> ArtifactStore {
        self.budget_bytes = bytes;
        self
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
            Ok(o) => {
                touch(&path);
                Some((o.streams, o.mapped))
            }
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
            eprintln!("warning: could not save artifact {}: {e}", path.display());
        }
        self.enforce_budget(&path);
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
            Ok(o) => {
                touch(&path);
                Some((o.matrix, o.mapped))
            }
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
            eprintln!("warning: could not save artifact {}: {e}", path.display());
        }
        self.enforce_budget(&path);
    }

    /// One-line notice, then removal of the artifact so the rebuild
    /// starts clean.
    fn evict(&self, path: &Path, why: &str) {
        eprintln!("notice: regenerating artifact {} ({why})", path.display());
        std::fs::remove_file(path).ok();
    }

    /// Evicts least-recently-used artifacts until the store fits its
    /// byte budget, sparing `just_written`. A no-op without a budget.
    fn enforce_budget(&self, just_written: &Path) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut artifacts: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("bps") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let bytes = meta.len();
            total += bytes;
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            artifacts.push((mtime, path, bytes));
        }
        // Oldest first; the path tiebreak keeps eviction order
        // deterministic on coarse-mtime filesystems.
        artifacts.sort();
        for (_, path, bytes) in artifacts {
            if total <= budget {
                break;
            }
            if path == just_written {
                continue;
            }
            eprintln!(
                "notice: artifact budget exceeded ({total} > {budget} bytes): evicting {}",
                path.display()
            );
            std::fs::remove_file(&path).ok();
            total = total.saturating_sub(bytes);
        }
    }
}

/// Refreshes an artifact's mtime so budget eviction is least-recently-
/// *used*, not least-recently-written. Best-effort: a store on a
/// read-only filesystem still loads fine.
fn touch(path: &Path) {
    let now = std::time::SystemTime::now();
    if let Ok(file) = std::fs::File::options().append(true).open(path) {
        let times = std::fs::FileTimes::new()
            .set_accessed(now)
            .set_modified(now);
        let _ = file.set_times(times);
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

    fn backdate(path: &Path, secs_ago: u64) {
        let then = std::time::SystemTime::now() - std::time::Duration::from_secs(secs_ago);
        let file = std::fs::File::options()
            .append(true)
            .open(path)
            .expect("open");
        file.set_times(
            std::fs::FileTimes::new()
                .set_accessed(then)
                .set_modified(then),
        )
        .expect("set mtime");
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let store = temp_store("budget");
        let built = sample_streams();
        for bench in ["alpha", "beta", "gamma"] {
            store.save_streams(bench, &built, streams_config_fp(bench, 1, 2000));
        }
        // All three are the same size; budget fits exactly two.
        let one = std::fs::metadata(store.streams_path("alpha"))
            .expect("artifact")
            .len();
        let store = store.with_budget(Some(2 * one));
        backdate(&store.streams_path("alpha"), 300);
        backdate(&store.streams_path("beta"), 200);
        backdate(&store.streams_path("gamma"), 100);
        // Loading alpha refreshes its mtime, making beta the LRU victim
        // when the next save busts the budget.
        let fp = streams_config_fp("alpha", 1, 2000);
        assert!(store.load_streams("alpha", fp).is_some());
        store.save_streams("delta", &built, streams_config_fp("delta", 1, 2000));
        assert!(
            store.streams_path("alpha").exists(),
            "recently used survives"
        );
        assert!(!store.streams_path("beta").exists(), "LRU evicted");
        assert!(!store.streams_path("gamma").exists(), "next-LRU evicted");
        assert!(
            store.streams_path("delta").exists(),
            "just-written survives"
        );
        std::fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn just_written_artifact_survives_even_over_budget() {
        let store = temp_store("budget-tight").with_budget(Some(1));
        let built = sample_streams();
        store.save_streams("solo", &built, streams_config_fp("solo", 1, 2000));
        assert!(store.streams_path("solo").exists(), "newest never evicted");
        std::fs::remove_dir_all(&store.dir).ok();
    }

    #[test]
    fn no_budget_means_no_eviction() {
        let store = temp_store("no-budget");
        let built = sample_streams();
        for bench in ["a", "b", "c", "d"] {
            store.save_streams(bench, &built, streams_config_fp(bench, 1, 2000));
        }
        for bench in ["a", "b", "c", "d"] {
            assert!(store.streams_path(bench).exists());
        }
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
