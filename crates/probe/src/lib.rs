//! Black-box predictor probing: measure the zoo the way the hardware
//! reverse-engineering work measures real front-ends.
//!
//! The paper's §3 explains *analytically* why two-level predictors work
//! — correlation between branches within the history window. This crate
//! asks the same question as a *measurement*: synthesize a probe
//! program whose structure encodes one capacity question, sweep one
//! parameter, and find the cliff where the predictor stops answering.
//! The probe families ([`program`]) mirror the eigenform/perfect
//! hardware probes (SNIPPETS.md §1–2) and their academic descendants:
//!
//! * **Padding sweep** — a correlated pair separated by a growing wall
//!   of always-taken padding branches. A global-history predictor
//!   cliffs at exactly its history depth; the single-PC echo variant
//!   makes per-address predictors cliff at theirs.
//! * **History-capacity sweep** — a loop whose trip count grows until
//!   the all-taken history saturates and the exit becomes invisible
//!   (cliff at `h + 1`, capacity `h`).
//! * **PC-aliasing sweep** — an anti-correlated pair whose addresses
//!   differ in one index bit; bimodal tables cliff at their index
//!   width, two-level predictors shrug (history disambiguates).
//! * **Random-vs-patterned base** — the global padding probe with a
//!   fair-coin trigger instead of a 5-periodic one, exposing
//!   training-time dilution (§3.6.3) as the gap between the modes. (The
//!   echo probe always uses the fair-coin base; see
//!   [`program::padding_local`].)
//!
//! Sweeps ([`sweep`]) fan grid points across worker threads with
//! deterministic merge; cliff detection is the largest adjacent drop
//! over a noise floor; rendering ([`render`]) is byte-stable and
//! golden-friendly. The whole crate consumes predictors strictly
//! through the [`bp_predictors::Predictor`] trait — predict, update,
//! nothing else — so what it measures is what any trace would get.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod program;
pub mod render;
pub mod sweep;
pub mod zoo;

pub use program::{
    aliasing, history_loop, padding_global, padding_local, simulate_measured, BaseOutcomes,
    ProbeTrace,
};
pub use sweep::{parse_grid, run_sweep, Cliff, ProbeKind, SweepConfig, SweepPoint, SweepResult};
pub use zoo::ZooConfig;

/// Full configuration of a probe report.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Shared sweep parameters (rounds, seed, base, jobs, threshold).
    pub sweep: SweepConfig,
    /// Predictor geometries under test.
    pub zoo: ZooConfig,
    /// Grid for both padding probes (padding branch counts).
    pub padding_grid: Vec<usize>,
    /// Grid for the loop probe (trip counts).
    pub history_grid: Vec<usize>,
    /// Grid for the aliasing probe (index bits).
    pub aliasing_grid: Vec<usize>,
}

impl Default for ReportConfig {
    /// Grids sized so every default-geometry cliff (gshare 16, gas/pas
    /// 12, smith 12, loop capacity 12/16, tage and perceptron at their
    /// 32-branch maximum histories) falls strictly inside them.
    fn default() -> Self {
        ReportConfig {
            sweep: SweepConfig::default(),
            zoo: ZooConfig::default(),
            padding_grid: (0..=36).collect(),
            history_grid: (2..=36).collect(),
            aliasing_grid: (0..=16).collect(),
        }
    }
}

impl ReportConfig {
    /// The grid a probe kind sweeps over.
    pub fn grid(&self, kind: ProbeKind) -> &[usize] {
        match kind {
            ProbeKind::PaddingGlobal | ProbeKind::PaddingLocal => &self.padding_grid,
            ProbeKind::HistoryLoop => &self.history_grid,
            ProbeKind::Aliasing => &self.aliasing_grid,
        }
    }
}

/// One completed sweep with its detected cliffs.
#[derive(Debug, Clone)]
pub struct ReportSection {
    /// The sweep data.
    pub result: SweepResult,
    /// Cliffs per zoo column (label order).
    pub cliffs: Vec<Option<Cliff>>,
}

/// A full probe run: header plus one section per probe family.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    header: String,
    /// Sections in run order.
    pub sections: Vec<ReportSection>,
}

/// Runs the given probe families under one configuration. Wall-clock
/// per section goes to stderr; the returned report is deterministic.
pub fn run_probes(kinds: &[ProbeKind], cfg: &ReportConfig) -> ProbeReport {
    let sections = kinds
        .iter()
        .map(|&kind| {
            let t0 = std::time::Instant::now();
            let grid = cfg.grid(kind);
            let result = run_sweep(kind, grid, &cfg.sweep, &cfg.zoo);
            let cliffs = result.cliffs(cfg.sweep.min_drop);
            eprintln!(
                "[{}: {:.1}s, {} threads]",
                kind.param_family(),
                t0.elapsed().as_secs_f64(),
                bp_trace::par_threads(cfg.sweep.jobs, grid.len())
            );
            ReportSection { result, cliffs }
        })
        .collect();
    ProbeReport {
        header: format!(
            "# bp-probe: rounds={} seed={} base={} min-drop={:.1}",
            cfg.sweep.rounds,
            cfg.sweep.seed,
            cfg.sweep.base.label(),
            cfg.sweep.min_drop
        ),
        sections,
    }
}

impl ProbeReport {
    /// Renders the full deterministic report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header);
        out.push('\n');
        for section in &self.sections {
            out.push('\n');
            out.push_str(&render::section(&section.result, &section.cliffs));
        }
        out
    }

    /// Checks a `label=value` cliff assertion against every section that
    /// probed `label`: at least one section must place the cliff at
    /// exactly `value`, and no section may place it anywhere else.
    ///
    /// # Errors
    ///
    /// A human-readable explanation of the first violated expectation.
    pub fn check_assertion(&self, label: &str, value: usize) -> Result<(), String> {
        let mut hit = false;
        let mut seen = false;
        for section in &self.sections {
            let Some(col) = section.result.labels.iter().position(|l| l == label) else {
                continue;
            };
            seen = true;
            if let Some(cliff) = section.cliffs[col] {
                if cliff.at == value {
                    hit = true;
                } else {
                    return Err(format!(
                        "{}: {label} cliff at {} (expected {value})",
                        section.result.kind.title(),
                        cliff.at
                    ));
                }
            }
        }
        if !seen {
            return Err(format!("no probed predictor is labeled '{label}'"));
        }
        if !hit {
            return Err(format!("no section detected a {label} cliff at {value}"));
        }
        Ok(())
    }

    /// Checks a `label>value` headroom assertion: every detected cliff
    /// for `label` must sit strictly beyond `value`, and at least one
    /// section must have detected one. Used to pin that a modern
    /// predictor's recovered history capacity exceeds a 1998 baseline's
    /// without hard-coding its exact cliff in the invocation.
    ///
    /// # Errors
    ///
    /// A human-readable explanation of the first violated expectation.
    pub fn check_assertion_exceeds(&self, label: &str, value: usize) -> Result<(), String> {
        let mut hit = false;
        let mut seen = false;
        for section in &self.sections {
            let Some(col) = section.result.labels.iter().position(|l| l == label) else {
                continue;
            };
            seen = true;
            if let Some(cliff) = section.cliffs[col] {
                if cliff.at > value {
                    hit = true;
                } else {
                    return Err(format!(
                        "{}: {label} cliff at {} (expected > {value})",
                        section.result.kind.title(),
                        cliff.at
                    ));
                }
            }
        }
        if !seen {
            return Err(format!("no probed predictor is labeled '{label}'"));
        }
        if !hit {
            return Err(format!(
                "no section detected a {label} cliff beyond {value}"
            ));
        }
        Ok(())
    }
}

impl ProbeKind {
    /// Short machine-ish name for stderr timing lines and CLI parsing.
    pub fn param_family(self) -> &'static str {
        match self {
            ProbeKind::PaddingGlobal => "padding-global",
            ProbeKind::PaddingLocal => "padding-local",
            ProbeKind::HistoryLoop => "history",
            ProbeKind::Aliasing => "aliasing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ReportConfig {
        ReportConfig {
            sweep: SweepConfig {
                rounds: 600,
                ..SweepConfig::default()
            },
            zoo: ZooConfig {
                gshare_bits: 5,
                gas_bits: (4, 2),
                pas_bits: (4, 6, 2),
                if_pas_bits: 4,
                smith_bits: 6,
                tage: (1, 6),
                perceptron_bits: 6,
            },
            padding_grid: (0..=8).collect(),
            history_grid: (2..=8).collect(),
            aliasing_grid: (0..=8).collect(),
        }
    }

    #[test]
    fn assertions_pass_where_the_physics_says() {
        let cfg = tiny_config();
        let report = run_probes(&[ProbeKind::PaddingGlobal, ProbeKind::PaddingLocal], &cfg);
        report
            .check_assertion("gshare(5)", 5)
            .expect("gshare cliff at h");
        report
            .check_assertion("pas(4,6,2)", 4)
            .expect("pas cliff at h");
        assert!(report.check_assertion("gshare(5)", 7).is_err());
        assert!(report.check_assertion("nonesuch", 1).is_err());
        // The headroom form: perceptron(6) sees two branches past the
        // gshare(5) window, so its cliff sits strictly beyond 5.
        report
            .check_assertion_exceeds("perceptron(6)", 5)
            .expect("perceptron cliff beyond gshare's");
        assert!(report.check_assertion_exceeds("perceptron(6)", 20).is_err());
        assert!(report.check_assertion_exceeds("nonesuch", 1).is_err());
    }

    #[test]
    fn report_renders_header_and_sections() {
        let cfg = tiny_config();
        let report = run_probes(&[ProbeKind::Aliasing], &cfg);
        let text = report.render();
        assert!(text.starts_with("# bp-probe: rounds=600"));
        assert!(text.contains("PC-aliasing sweep"));
        report
            .check_assertion("smith(6)", 6)
            .expect("smith cliff at index width");
    }
}
