//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation from the synthetic workloads.
//!
//! Each experiment is a module with a
//! `run(&ExperimentConfig, &Engine) -> …Result` function whose result
//! renders (via `Display`) the same rows/series the paper reports,
//! alongside the paper's own numbers where applicable. The shared
//! [`Engine`] fans work out across benchmarks and memoizes every artifact
//! two experiments would otherwise both compute (see [`engine`]). The
//! `repro` binary drives any subset through [`repro::run`]:
//!
//! ```text
//! repro all            # every experiment
//! repro table2 fig4    # a subset
//! repro --quick fig6   # shorter traces
//! repro --jobs 4 all   # four worker threads (output identical to --jobs 1)
//! repro --timings t.json all   # machine-readable timings + cache stats
//! ```
//!
//! | id | paper artifact | module |
//! |---|---|---|
//! | `table1` | Table 1 — benchmark inventory | [`table1`] |
//! | `fig4` | Figure 4 — selective history vs gshare | [`fig4`] |
//! | `fig5` | Figure 5 — history-length sweep | [`fig5`] |
//! | `table2` | Table 2 — gshare w/ and w/o correlation | [`table2`] |
//! | `fig6` | Figure 6 — per-address class distribution | [`fig6`] |
//! | `table3` | Table 3 — PAs w/ and w/o loop predictor | [`table3`] |
//! | `fig7` | Figure 7 — best of gshare/PAs/static | [`fig7`] |
//! | `fig8` | Figure 8 — best of global/per-address/static | [`fig8`] |
//! | `fig9` | Figure 9 — gshare−PAs percentile curve | [`fig9`] |
//! | `hybrids` | extension — hybrid & related designs | [`ext_hybrids`] |
//! | `interference` | extension — PHT interference accounting | [`ext_interference`] |
//! | `distance` | extension — distance to correlated branches | [`ext_distance`] |
//! | `adaptivity` | extension — static vs adaptive PHTs | [`ext_adaptivity`] |
//! | `family` | extension — family sweeps vs history length | [`ext_family`] |
//! | `warmup` | extension — warmup curves & miss burstiness | [`ext_warmup`] |
//! | `modern` | extension — TAGE/perceptron per-class accuracy | [`modern`] |
//! | `charact` | extension — workload predictability characterization | [`charact`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod artifacts;
pub mod charact;
pub mod engine;
pub mod ext_adaptivity;
pub mod ext_distance;
pub mod ext_family;
pub mod ext_hybrids;
pub mod ext_interference;
pub mod ext_warmup;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod modern;
pub mod render;
pub mod repro;
pub mod scale;
pub mod table1;
pub mod table2;
pub mod table3;

mod traceset;

pub use engine::{
    CacheStats, ClassifyPhaseStats, Engine, EvalCache, FanoutStats, OraclePhaseStats, PredictorKey,
};
pub use traceset::{TraceSet, TraceSetSource};

use bp_core::{ClassifierConfig, OracleConfig};
use bp_workloads::WorkloadConfig;

/// Shared configuration for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Workload generation (seed, trace length).
    pub workload: WorkloadConfig,
    /// Oracle selective-history analysis settings (§3).
    pub oracle: OracleConfig,
    /// Per-address classification settings (§4).
    pub classifier: ClassifierConfig,
    /// gshare / interference-free gshare history length.
    pub gshare_bits: u32,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            workload: WorkloadConfig::default(),
            oracle: OracleConfig::default(),
            classifier: ClassifierConfig::default(),
            gshare_bits: 16,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for smoke tests and `--quick` runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            workload: WorkloadConfig::default().with_target(40_000),
            ..ExperimentConfig::default()
        }
    }
}

/// A two-worker engine over `cfg`'s workload, for the module smoke tests
/// (two workers so the parallel fan-out path is exercised everywhere).
#[cfg(test)]
pub(crate) fn test_engine(cfg: &ExperimentConfig) -> Engine {
    Engine::new(TraceSet::new(cfg.workload), 2)
}

/// Runs one experiment by id and renders its result exactly as the
/// `repro` binary prints it (the `Display` output of the experiment's
/// result type; no trailing newline — callers add one, as `println!`
/// does).
///
/// This is the single dispatch point shared by `repro` and the `bp-serve`
/// evaluation service: both call through here, so a served response is
/// byte-identical to the corresponding `repro` stdout section by
/// construction. Returns `None` for an unknown id (the valid ids are
/// [`EXPERIMENT_IDS`]).
pub fn run_experiment(id: &str, cfg: &ExperimentConfig, engine: &Engine) -> Option<String> {
    let rendered = match id {
        "table1" => table1::run(cfg, engine).to_string(),
        "fig4" => fig4::run(cfg, engine).to_string(),
        "fig5" => fig5::run(cfg, engine).to_string(),
        "table2" => table2::run(cfg, engine).to_string(),
        "fig6" => fig6::run(cfg, engine).to_string(),
        "table3" => table3::run(cfg, engine).to_string(),
        "fig7" => fig7::run(cfg, engine).to_string(),
        "fig8" => fig8::run(cfg, engine).to_string(),
        "fig9" => fig9::run(cfg, engine).to_string(),
        "hybrids" => ext_hybrids::run(cfg, engine).to_string(),
        "interference" => ext_interference::run(cfg, engine).to_string(),
        "distance" => ext_distance::run(cfg, engine).to_string(),
        "adaptivity" => ext_adaptivity::run(cfg, engine).to_string(),
        "family" => ext_family::run(cfg, engine).to_string(),
        "warmup" => ext_warmup::run(cfg, engine).to_string(),
        "modern" => modern::run(cfg, engine).to_string(),
        "charact" => charact::run(cfg, engine).to_string(),
        _ => return None,
    };
    Some(rendered)
}

/// The experiments whose oracle is [`ExperimentConfig::default`]'s, which
/// is figure 5's n = 16 sweep point (cap max(48, 2·16 + 16) = 48).
const DEFAULT_ORACLE_USERS: [&str; 4] = ["fig4", "table2", "fig8", "distance"];

/// The order in which `repro` evaluates `ids` (as indices into it): the
/// given order, except that `fig5` moves ahead of the first experiment
/// before it that wants the default oracle. fig5's window sweep then
/// builds window 16 once for all of them, and their oracles are cache
/// hits instead of a second window-16 candidate and matrix build.
/// Callers still print in the given order.
pub fn evaluation_order<S: AsRef<str>>(ids: &[S]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    let Some(fig5) = ids.iter().position(|id| id.as_ref() == "fig5") else {
        return order;
    };
    if let Some(first) = ids[..fig5]
        .iter()
        .position(|id| DEFAULT_ORACLE_USERS.contains(&id.as_ref()))
    {
        order.remove(fig5);
        order.insert(first, fig5);
    }
    order
}

/// Identifiers of every reproducible experiment, in paper order, followed
/// by the extensions (hybrid study, interference accounting,
/// correlation-distance profile, adaptivity comparison, modern zoo,
/// workload characterization).
pub const EXPERIMENT_IDS: [&str; 17] = [
    "table1",
    "fig4",
    "fig5",
    "table2",
    "fig6",
    "table3",
    "fig7",
    "fig8",
    "fig9",
    "hybrids",
    "interference",
    "distance",
    "adaptivity",
    "family",
    "warmup",
    "modern",
    "charact",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_is_evaluated_before_the_default_oracle_users() {
        let order = evaluation_order(&EXPERIMENT_IDS);
        let pos = |id: &str| {
            let i = EXPERIMENT_IDS.iter().position(|e| *e == id).unwrap();
            order.iter().position(|&o| o == i).unwrap()
        };
        for user in DEFAULT_ORACLE_USERS {
            assert!(pos("fig5") < pos(user), "{user}");
        }
        // Everything else keeps its place: table1, fig5, fig4, table2, ...
        assert_eq!(&order[..4], &[0, 2, 1, 3]);
        assert!(order[4..].windows(2).all(|p| p[0] < p[1]));

        assert_eq!(evaluation_order(&["fig4", "table2", "fig5"]), [2, 0, 1]);
        // Nothing to save: the given order.
        assert_eq!(evaluation_order(&["fig4", "table2", "fig7"]), [0, 1, 2]);
        assert_eq!(evaluation_order(&["fig5", "fig4"]), [0, 1]);
        assert_eq!(evaluation_order(&["fig6", "fig5"]), [0, 1]);
        assert!(evaluation_order::<&str>(&[]).is_empty());
    }
}
