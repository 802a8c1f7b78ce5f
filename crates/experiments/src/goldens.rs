//! Golden snapshots of rendered experiment output.
//!
//! Every figure and table the `repro` driver can render is pinned by a
//! compact FNV-1a fingerprint of its exact output text at a recorded
//! (seed, target) configuration. The fingerprints live in a small text
//! file committed under `tests/goldens/`, so any change to an
//! experiment's numbers — an optimized kernel drifting from its
//! specification, a renderer reordering rows — shows up as a one-line
//! diff instead of a silent regression.
//!
//! The file format is line-oriented and diff-friendly:
//!
//! ```text
//! # bp-goldens v1 seed=247472536 target=40000
//! table1 89ab4c3f21d0e576
//! fig4 0f1e2d3c4b5a6978
//! ```
//!
//! Consumers: `repro --verify-goldens` / `--write-goldens`
//! ([`crate::repro`]), which is also the `bp-conformance sweep` golden
//! suite.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bp_trace::sidecar::{fnv1a, FNV_OFFSET};

use crate::{ExperimentConfig, EXPERIMENT_IDS};

/// 64-bit FNV-1a fingerprint of one rendered experiment.
pub fn fingerprint(rendered: &str) -> u64 {
    fnv1a(FNV_OFFSET, rendered.as_bytes())
}

/// The committed goldens file: `tests/goldens/quick.fp` at the
/// workspace root, resolved relative to this crate's manifest so it
/// works from any working directory.
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/quick.fp")
}

/// A parsed (or freshly captured) set of golden fingerprints together
/// with the workload configuration they were rendered at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goldens {
    /// Workload seed the fingerprints were captured with.
    pub seed: u64,
    /// `target_branches` the fingerprints were captured with.
    pub target: usize,
    entries: BTreeMap<String, u64>,
}

impl Goldens {
    /// An empty golden set for the given configuration.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        Goldens {
            seed: cfg.workload.seed,
            target: cfg.workload.target_branches,
            entries: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) one experiment's fingerprint.
    pub fn record(&mut self, id: &str, fp: u64) {
        self.entries.insert(id.to_owned(), fp);
    }

    /// The recorded fingerprint for `id`, if any.
    pub fn entry(&self, id: &str) -> Option<u64> {
        self.entries.get(id).copied()
    }

    /// Number of recorded fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no fingerprints are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `Err` with a human-readable explanation when `cfg` does not match
    /// the configuration the goldens were captured at.
    pub fn check_config(&self, cfg: &ExperimentConfig) -> Result<(), String> {
        if self.seed != cfg.workload.seed || self.target != cfg.workload.target_branches {
            return Err(format!(
                "goldens were captured at seed={} target={}, run is seed={} target={}",
                self.seed, self.target, cfg.workload.seed, cfg.workload.target_branches
            ));
        }
        Ok(())
    }

    /// Compares one rendered experiment against the recorded entry. The
    /// error names the experiment and both fingerprints.
    pub fn verify(&self, id: &str, rendered: &str) -> Result<(), String> {
        let actual = fingerprint(rendered);
        match self.entry(id) {
            Some(expected) if expected == actual => Ok(()),
            Some(expected) => Err(format!(
                "{id}: fingerprint {actual:016x} != golden {expected:016x}"
            )),
            None => Err(format!(
                "{id}: fingerprint {actual:016x} has no golden entry"
            )),
        }
    }

    /// Parses the goldens file format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty goldens file")?;
        let rest = header
            .strip_prefix("# bp-goldens v1 ")
            .ok_or_else(|| format!("bad goldens header: {header:?}"))?;
        let mut seed = None;
        let mut target = None;
        for field in rest.split_whitespace() {
            if let Some(v) = field.strip_prefix("seed=") {
                seed = v.parse::<u64>().ok();
            } else if let Some(v) = field.strip_prefix("target=") {
                target = v.parse::<usize>().ok();
            }
        }
        let (seed, target) = match (seed, target) {
            (Some(s), Some(t)) => (s, t),
            _ => return Err(format!("bad goldens header: {header:?}")),
        };
        let mut entries = BTreeMap::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (id, fp) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad goldens line: {line:?}"))?;
            let fp = u64::from_str_radix(fp.trim(), 16)
                .map_err(|_| format!("bad goldens fingerprint: {line:?}"))?;
            entries.insert(id.to_owned(), fp);
        }
        Ok(Goldens {
            seed,
            target,
            entries,
        })
    }

    /// Loads and parses a goldens file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read goldens {}: {e}", path.display()))?;
        Goldens::parse(&text)
    }

    /// Renders the goldens file format, entries in `EXPERIMENT_IDS`
    /// order (unknown ids last, alphabetically) for stable diffs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# bp-goldens v1 seed={} target={}\n",
            self.seed, self.target
        );
        for id in EXPERIMENT_IDS {
            if let Some(fp) = self.entry(id) {
                out.push_str(&format!("{id} {fp:016x}\n"));
            }
        }
        for (id, fp) in &self.entries {
            if !EXPERIMENT_IDS.contains(&id.as_str()) {
                out.push_str(&format!("{id} {fp:016x}\n"));
            }
        }
        out
    }

    /// Writes the rendered goldens file, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_matches_fnv1a_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn render_parse_roundtrip() {
        let cfg = ExperimentConfig::quick();
        let mut g = Goldens::new(&cfg);
        g.record("table1", 0x1234);
        g.record("fig4", 0xdead_beef);
        let parsed = Goldens::parse(&g.render()).unwrap();
        assert_eq!(parsed, g);
        assert!(parsed.check_config(&cfg).is_ok());
        assert!(parsed.check_config(&ExperimentConfig::default()).is_err());
    }

    #[test]
    fn verify_reports_mismatches() {
        let cfg = ExperimentConfig::quick();
        let mut committed = Goldens::new(&cfg);
        committed.record("table1", fingerprint("stable output"));
        assert!(committed.verify("table1", "stable output").is_ok());
        let err = committed.verify("table1", "drifted output").unwrap_err();
        let golden = fingerprint("stable output");
        assert!(err.ends_with(&format!("!= golden {golden:016x}")), "{err}");
        let err = committed.verify("fig4", "anything").unwrap_err();
        assert!(err.ends_with("has no golden entry"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Goldens::parse("").is_err());
        assert!(Goldens::parse("nonsense\n").is_err());
        assert!(Goldens::parse("# bp-goldens v1 seed=1\n").is_err());
        assert!(Goldens::parse("# bp-goldens v1 seed=1 target=2\nbad-line\n").is_err());
        assert!(Goldens::parse("# bp-goldens v1 seed=1 target=2\nfig4 nothex\n").is_err());
    }
}
