//! The probed predictor zoo: one fresh instance per sweep point.
//!
//! Probes measure *capacity*, so state must not leak between sweep
//! points: every (probe point, predictor) pair gets a cold predictor,
//! built from a [`ZooConfig`] that records the geometries under test.
//! The oracle row — [`IdealStatic`] built a-posteriori from the probe
//! trace's own profile — is the control: the best any per-branch
//! *static* assignment can score on the measured positions, i.e. the
//! "unconditional rate" the correlated branch is expected to collapse
//! to when its history support falls out of the window.
//!
//! A sweep point steps the members together: [`ZooConfig::members`]
//! builds them by concrete type and [`Zoo::simulate_measured`] makes one
//! pass over the probe trace. [`ZooConfig::build`] boxes the same members
//! for the per-member path, [`simulate_measured`](crate::simulate_measured).

use bp_predictors::{
    BranchSite, Gas, Gshare, IdealStatic, Pas, PasInterferenceFree, Perceptron, PredictionStats,
    Predictor, Smith, Tage,
};
use bp_trace::BranchProfile;

use crate::program::ProbeTrace;

/// Geometries of the probed predictors (defaults are the workspace
/// reference configurations, so cliffs land where DESIGN.md §7 says the
/// capacities are).
#[derive(Debug, Clone, Copy)]
pub struct ZooConfig {
    /// gshare global history bits (PHT is `2^bits` counters).
    pub gshare_bits: u32,
    /// GAs global history bits and PC table-select bits.
    pub gas_bits: (u32, u32),
    /// PAs per-address history bits, BHT index bits, table-select bits.
    pub pas_bits: (u32, u32, u32),
    /// Interference-free PAs history bits.
    pub if_pas_bits: u32,
    /// Smith bimodal PC index bits.
    pub smith_bits: u32,
    /// TAGE tagged-table count and bimodal base index bits (histories are
    /// geometric, `4 << i`).
    pub tage: (u32, u32),
    /// Perceptron global history bits.
    pub perceptron_bits: u32,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            gshare_bits: 16,
            gas_bits: (12, 4),
            pas_bits: (12, 10, 4),
            if_pas_bits: 12,
            smith_bits: 12,
            tage: (4, 12),
            perceptron_bits: 32,
        }
    }
}

impl ZooConfig {
    /// One cold instance of every zoo member, by concrete type, with the
    /// oracle profiled from `probe`'s trace: the one place the geometry
    /// and the member order are written down.
    pub fn members(&self, probe: &ProbeTrace) -> Zoo {
        let (gh, gt) = self.gas_bits;
        let (ph, pb, pt) = self.pas_bits;
        Zoo {
            smith: Smith::new(self.smith_bits),
            gshare: Gshare::new(self.gshare_bits),
            gas: Gas::new(gh, gt),
            pas: Pas::new(ph, pb, pt),
            if_pas: PasInterferenceFree::new(self.if_pas_bits),
            tage: Tage::new(self.tage.0, self.tage.1),
            perceptron: Perceptron::new(self.perceptron_bits),
            ideal_static: IdealStatic::from_profile(&BranchProfile::of(&probe.trace)),
        }
    }

    /// Builds one cold instance of every zoo member, in report order,
    /// with the oracle profiled from `probe`'s trace: the per-member path,
    /// [`ZooConfig::members`] boxed.
    pub fn build(&self, probe: &ProbeTrace) -> Vec<Box<dyn Predictor>> {
        let z = self.members(probe);
        vec![
            Box::new(z.smith),
            Box::new(z.gshare),
            Box::new(z.gas),
            Box::new(z.pas),
            Box::new(z.if_pas),
            Box::new(z.tage),
            Box::new(z.perceptron),
            Box::new(z.ideal_static),
        ]
    }

    /// The zoo's report labels, in the same order as [`ZooConfig::build`].
    pub fn labels(&self) -> Vec<String> {
        // A throwaway probe isn't needed for names: every zoo member's
        // name is a pure function of its geometry.
        let (gh, gt) = self.gas_bits;
        let (ph, pb, pt) = self.pas_bits;
        vec![
            format!("smith({})", self.smith_bits),
            format!("gshare({})", self.gshare_bits),
            format!("gas({gh},{gt})"),
            format!("pas({ph},{pb},{pt})"),
            format!("if-pas({})", self.if_pas_bits),
            // Tage's name depends on its derived max history; building an
            // instance keeps the label correct by construction. `Tage::new`
            // allocates its tables eagerly (4 × 1024 entries at the default
            // geometry), a cost paid once per sweep, not per point.
            Tage::new(self.tage.0, self.tage.1).name(),
            format!("perceptron({})", self.perceptron_bits),
            "ideal-static".to_owned(),
        ]
    }
}

/// The zoo's members in report order, each by its concrete type, so one
/// pass over a probe trace steps all of them with no dynamic dispatch.
#[derive(Debug)]
pub struct Zoo {
    smith: Smith,
    gshare: Gshare,
    gas: Gas,
    pas: Pas,
    if_pas: PasInterferenceFree,
    tage: Tage,
    perceptron: Perceptron,
    ideal_static: IdealStatic,
}

impl Zoo {
    /// Number of members.
    pub const LEN: usize = 8;

    /// Simulates every member over the whole probe trace in one pass —
    /// each predicts and trains on every conditional — scoring only the
    /// measured positions. Member `i`'s statistics equal
    /// [`simulate_measured`](crate::simulate_measured) on the `i`-th box of
    /// [`ZooConfig::build`].
    pub fn simulate_measured(mut self, probe: &ProbeTrace) -> [PredictionStats; Zoo::LEN] {
        let mut stats = [PredictionStats::default(); Zoo::LEN];
        for (rec, &measured) in probe.trace.records().iter().zip(&probe.measured) {
            if !rec.is_conditional() {
                continue;
            }
            let predictions = self.step(BranchSite::from(rec), rec.taken);
            if measured {
                for (s, prediction) in stats.iter_mut().zip(predictions) {
                    s.record(prediction == rec.taken);
                }
            }
        }
        stats
    }

    /// One `predict_update` per member, in report order.
    #[inline]
    fn step(&mut self, site: BranchSite, taken: bool) -> [bool; Zoo::LEN] {
        [
            self.smith.predict_update(site, taken),
            self.gshare.predict_update(site, taken),
            self.gas.predict_update(site, taken),
            self.pas.predict_update(site, taken),
            self.if_pas.predict_update(site, taken),
            self.tage.predict_update(site, taken),
            self.perceptron.predict_update(site, taken),
            self.ideal_static.predict_update(site, taken),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{padding_global, BaseOutcomes};

    #[test]
    fn labels_match_predictor_names() {
        let cfg = ZooConfig::default();
        let probe = padding_global(0, 50, BaseOutcomes::Pattern, 1);
        let zoo = cfg.build(&probe);
        let names: Vec<String> = zoo.iter().map(|p| p.name()).collect();
        assert_eq!(names, cfg.labels());
    }
}
