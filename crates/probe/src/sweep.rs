//! Parameter-grid sweeps over probe programs, with cliff detection.
//!
//! A sweep runs one probe family over a grid of its parameter (padding
//! count, loop trip, alias bit), scoring every zoo predictor at every
//! point. Points are independent, so they fan out across `--jobs`
//! worker threads ([`bp_trace::par_map`]) and come back in grid order,
//! so the report is byte-identical for any job count (the determinism
//! test pins this).
//!
//! The cliff detector is deliberately dumb: the largest accuracy drop
//! between *adjacent* grid points, reported only when it clears a
//! noise threshold. Probe programs are built so that the interesting
//! transition is a step function — a predictor either sees the
//! correlated outcome inside its history window or it does not — and a
//! dumb detector on a sharp signal beats a clever one on a mushy
//! signal.

use bp_predictors::PredictionStats;
use bp_trace::par_map;

use crate::program::{
    aliasing, history_loop, padding_global, padding_local, BaseOutcomes, ProbeTrace,
};
use crate::zoo::ZooConfig;

/// The probe families a sweep can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Correlated pair + global padding ([`padding_global`]); the swept
    /// parameter is the padding count.
    PaddingGlobal,
    /// Single-PC echo probe ([`padding_local`]); the swept parameter is
    /// the padding count.
    PaddingLocal,
    /// Loop-trip capacity probe ([`history_loop`]); the swept parameter
    /// is the trip count.
    HistoryLoop,
    /// PC-aliasing probe ([`aliasing`]); the swept parameter is the
    /// differing index bit.
    Aliasing,
}

impl ProbeKind {
    /// Human title for report sections.
    pub fn title(self) -> &'static str {
        match self {
            ProbeKind::PaddingGlobal => "Padding sweep (global correlated pair)",
            ProbeKind::PaddingLocal => "Padding sweep (per-address echo)",
            ProbeKind::HistoryLoop => "History-capacity sweep (loop trip)",
            ProbeKind::Aliasing => "PC-aliasing sweep (anti-correlated pair)",
        }
    }

    /// Name of the swept parameter, for table headers.
    pub fn param(self) -> &'static str {
        match self {
            ProbeKind::PaddingGlobal | ProbeKind::PaddingLocal => "pads",
            ProbeKind::HistoryLoop => "trip",
            ProbeKind::Aliasing => "bit",
        }
    }

    /// Number of records in the probe trace at grid value `value`,
    /// computed without building it (saturating, so any size compares
    /// against [`MAX_PROBE_RECORDS`]).
    pub fn records(self, value: usize, rounds: usize) -> usize {
        match self {
            ProbeKind::PaddingGlobal | ProbeKind::PaddingLocal => {
                rounds.saturating_mul(value.saturating_add(2))
            }
            ProbeKind::HistoryLoop => {
                let period = value.saturating_add(1);
                (rounds / period).max(64).saturating_mul(period)
            }
            ProbeKind::Aliasing => rounds.saturating_mul(2),
        }
    }

    /// Builds the probe trace at one grid value.
    fn build(self, value: usize, cfg: &SweepConfig) -> ProbeTrace {
        match self {
            ProbeKind::PaddingGlobal => padding_global(value, cfg.rounds, cfg.base, cfg.seed),
            ProbeKind::PaddingLocal => padding_local(value, cfg.rounds, cfg.seed),
            ProbeKind::HistoryLoop => history_loop(value, cfg.rounds),
            ProbeKind::Aliasing => aliasing(value as u32, cfg.rounds),
        }
    }
}

/// Shared sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Rounds per probe point (for the loop probe: target dynamic
    /// branches per point).
    pub rounds: usize,
    /// Seed for the random base-outcome mode.
    pub seed: u64,
    /// Trigger outcome mode for the padding probes.
    pub base: BaseOutcomes,
    /// Worker threads; affects wall-clock only, never output.
    pub jobs: usize,
    /// Minimum adjacent drop (percentage points) recognized as a cliff.
    pub min_drop: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            rounds: 3000,
            seed: 0xB9,
            base: BaseOutcomes::Pattern,
            jobs: 1,
            min_drop: 10.0,
        }
    }
}

/// Accuracy of every zoo predictor at one grid value.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: usize,
    /// Accuracy (percent) per predictor, in zoo order.
    pub accuracy_pct: Vec<f64>,
}

/// One probe family swept over its grid.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Which probe ran.
    pub kind: ProbeKind,
    /// Zoo labels, in column order.
    pub labels: Vec<String>,
    /// One point per grid value, in grid order.
    pub points: Vec<SweepPoint>,
}

/// A detected capacity/aliasing cliff for one predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cliff {
    /// Grid value at which accuracy first collapsed (the right edge of
    /// the largest adjacent drop).
    pub at: usize,
    /// Size of the drop in percentage points.
    pub drop_pp: f64,
    /// Accuracy (percent) just before the cliff.
    pub before_pct: f64,
    /// Accuracy (percent) at the cliff.
    pub after_pct: f64,
}

impl SweepResult {
    /// The largest adjacent drop for predictor column `col`, if it
    /// clears `min_drop` percentage points.
    pub fn cliff(&self, col: usize, min_drop: f64) -> Option<Cliff> {
        let mut best: Option<Cliff> = None;
        for pair in self.points.windows(2) {
            let drop = pair[0].accuracy_pct[col] - pair[1].accuracy_pct[col];
            if drop >= min_drop && best.is_none_or(|b| drop > b.drop_pp) {
                best = Some(Cliff {
                    at: pair[1].value,
                    drop_pp: drop,
                    before_pct: pair[0].accuracy_pct[col],
                    after_pct: pair[1].accuracy_pct[col],
                });
            }
        }
        best
    }

    /// Cliffs for every zoo column, in label order.
    pub fn cliffs(&self, min_drop: f64) -> Vec<Option<Cliff>> {
        (0..self.labels.len())
            .map(|col| self.cliff(col, min_drop))
            .collect()
    }
}

/// Runs `kind` over `grid`, fanning points out across `cfg.jobs`
/// threads. Each point steps the whole zoo in one pass over its probe
/// trace ([`Zoo::simulate_measured`](crate::Zoo::simulate_measured)).
/// Output is a pure function of (`kind`, `grid`, `cfg`, `zoo`): points
/// come back in grid order.
pub fn run_sweep(
    kind: ProbeKind,
    grid: &[usize],
    cfg: &SweepConfig,
    zoo: &ZooConfig,
) -> SweepResult {
    let (points, _) = par_map(
        grid,
        cfg.jobs,
        || (),
        |_, &value| {
            let probe = kind.build(value, cfg);
            let accuracy_pct = zoo
                .members(&probe)
                .simulate_measured(&probe)
                .iter()
                .map(PredictionStats::accuracy_pct)
                .collect();
            SweepPoint {
                value,
                accuracy_pct,
            }
        },
    );
    SweepResult {
        kind,
        labels: zoo.labels(),
        points,
    }
}

/// The largest probe trace a sweep may build, in records (24 bytes each,
/// so about 100 MiB per worker thread). A probe trace at grid value `v`
/// holds more than `v` records in every family but aliasing, whose bit
/// is bounded separately.
pub const MAX_PROBE_RECORDS: usize = 1 << 22;

/// Parses a grid expression: `A..B` (inclusive) or `A..B:STEP`, with
/// `A <= B` and a positive step. An end beyond [`MAX_PROBE_RECORDS`] is
/// rejected before the grid is built: no probe point that large fits
/// under the record cap.
pub fn parse_grid(s: &str) -> Option<Vec<usize>> {
    let (range, step) = match s.split_once(':') {
        Some((r, st)) => (r, st.parse::<usize>().ok()?),
        None => (s, 1),
    };
    let (a, b) = range.split_once("..")?;
    let (a, b): (usize, usize) = (a.parse().ok()?, b.parse().ok()?);
    (step > 0 && a <= b && b <= MAX_PROBE_RECORDS).then(|| (a..=b).step_by(step).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_parses_ranges_and_steps() {
        assert_eq!(parse_grid("0..4"), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(parse_grid("2..10:4"), Some(vec![2, 6, 10]));
        assert_eq!(parse_grid("5..1"), None);
        assert_eq!(parse_grid("1..5:0"), None);
        assert_eq!(parse_grid("nope"), None);
        assert!(parse_grid(&format!("0..{MAX_PROBE_RECORDS}")).is_some());
        assert_eq!(parse_grid(&format!("0..{}", MAX_PROBE_RECORDS + 1)), None);
    }

    #[test]
    fn record_counts_match_the_built_traces() {
        for rounds in [1, 7, 100, 600] {
            let cfg = SweepConfig {
                rounds,
                ..SweepConfig::default()
            };
            for kind in [
                ProbeKind::PaddingGlobal,
                ProbeKind::PaddingLocal,
                ProbeKind::HistoryLoop,
                ProbeKind::Aliasing,
            ] {
                // The aliasing probe's bit shifts a 64-bit address.
                let values: &[usize] = match kind {
                    ProbeKind::Aliasing => &[0, 1, 16, 28],
                    _ => &[0, 1, 2, 5, 16, 36, 70, 130],
                };
                for &value in values {
                    let built = kind.build(value, &cfg).trace.len();
                    assert_eq!(
                        kind.records(value, rounds),
                        built,
                        "{kind:?} {value} {rounds}"
                    );
                }
            }
        }
        assert_eq!(ProbeKind::PaddingGlobal.records(usize::MAX, 3), usize::MAX);
        assert_eq!(ProbeKind::HistoryLoop.records(usize::MAX, 3), usize::MAX);
    }

    #[test]
    fn cliff_is_largest_adjacent_drop_over_threshold() {
        let mk = |accs: &[f64]| SweepResult {
            kind: ProbeKind::PaddingGlobal,
            labels: vec!["p".into()],
            points: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| SweepPoint {
                    value: i,
                    accuracy_pct: vec![a],
                })
                .collect(),
        };
        let r = mk(&[99.0, 98.0, 97.0, 60.0, 59.0]);
        let c = r.cliff(0, 10.0).expect("cliff");
        assert_eq!(c.at, 3);
        assert!((c.drop_pp - 37.0).abs() < 1e-9);
        assert!(
            mk(&[99.0, 95.0, 92.0]).cliff(0, 10.0).is_none(),
            "no drop clears 10pp"
        );
        let tie = mk(&[100.0, 80.0, 60.0, 55.0])
            .cliff(0, 10.0)
            .expect("cliff");
        assert_eq!(tie.at, 1, "equal drops: the cliff is the earlier one");
    }

    #[test]
    fn sweep_output_is_independent_of_job_count() {
        let zoo = ZooConfig {
            gshare_bits: 5,
            gas_bits: (4, 2),
            pas_bits: (4, 6, 2),
            if_pas_bits: 4,
            smith_bits: 6,
            tage: (1, 6),
            perceptron_bits: 6,
        };
        let grid: Vec<usize> = (0..8).collect();
        let mut cfg = SweepConfig {
            rounds: 400,
            ..SweepConfig::default()
        };
        cfg.jobs = 1;
        let serial = run_sweep(ProbeKind::PaddingGlobal, &grid, &cfg, &zoo);
        cfg.jobs = 4;
        let parallel = run_sweep(ProbeKind::PaddingGlobal, &grid, &cfg, &zoo);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.accuracy_pct, b.accuracy_pct);
        }
    }
}
