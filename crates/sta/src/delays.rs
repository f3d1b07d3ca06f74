//! Per-net delay calculation, fresh and under aging.

use aix_aging::{AgingModel, AgingScenario, CombinedAgingModel, Lifetime, StressPair};
use aix_cells::DegradationAwareLibrary;
use aix_netlist::{Gate, NetDriver, Netlist};

/// Where each gate's stress comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum StressSource {
    /// Every gate under the same stress pair (worst-case / balanced /
    /// uniform analyses).
    Uniform(StressPair),
    /// Per-gate stress pairs, indexed by gate id — the *actual case*,
    /// extracted from simulated switching activity.
    PerGate(Vec<StressPair>),
}

impl StressSource {
    /// The stress pair for gate `gate_index`.
    ///
    /// # Panics
    ///
    /// Panics if a per-gate source is shorter than the gate count.
    pub fn pair_for(&self, gate_index: usize) -> StressPair {
        match self {
            StressSource::Uniform(pair) => *pair,
            StressSource::PerGate(pairs) => pairs[gate_index],
        }
    }
}

/// The delay of one output arc of `cell` driving `load_ff`, derated by the
/// driving gate's aging `factor` (clamped to at least 1: aging never speeds
/// a gate up). The one per-net formula behind [`NetDelays::fresh`],
/// [`NetDelays::aged`], [`NetDelays::aged_combined`] and the incremental
/// timer.
pub(crate) fn arc_delay_ps(cell: &aix_cells::Cell, load_ff: f64, factor: f64) -> f64 {
    cell.aged_delay_ps(load_ff, factor.max(1.0))
}

/// The propagation delay contributed by the driver of each net, in
/// picoseconds. Primary inputs and constants contribute zero.
///
/// This is the "annotated netlist" of the paper's flow: fresh delays come
/// from the original library, aged delays from scaling each arc by the
/// degradation factor of its driving cell under that cell's stress.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDelays {
    delays_ps: Vec<f64>,
}

impl NetDelays {
    /// Fresh (design-time) delays: the synthesis-library view.
    pub fn fresh(netlist: &Netlist) -> Self {
        Self::build(netlist, &netlist.net_loads_ff(), |_, _| 1.0)
    }

    /// Delays under a uniform aging scenario evaluated analytically from
    /// `model`.
    pub fn aged(netlist: &Netlist, model: &AgingModel, scenario: AgingScenario) -> Self {
        match scenario {
            AgingScenario::Fresh => Self::fresh(netlist),
            AgingScenario::Aged { stress, lifetime } => Self::aged_with_stress(
                netlist,
                model,
                &StressSource::Uniform(stress.stress_pair()),
                lifetime,
            ),
        }
    }

    /// Delays under an arbitrary stress source (uniform or per-gate),
    /// evaluated analytically from `model`. Cell-specific BTI sensitivity
    /// is applied on top, as in the degradation-aware library.
    pub fn aged_with_stress(
        netlist: &Netlist,
        model: &AgingModel,
        stress: &StressSource,
        lifetime: Lifetime,
    ) -> Self {
        // `build` applies the cell's BTI sensitivity via `aged_delay_ps`;
        // the closure supplies the raw physics factor.
        let loads = netlist.net_loads_ff();
        match stress {
            // Every gate shares one pair, so the physics is evaluated once.
            StressSource::Uniform(pair) => {
                let factor = model.pair_delay_factor(*pair, lifetime);
                Self::build(netlist, &loads, |_, _| factor)
            }
            StressSource::PerGate(pairs) => Self::build(netlist, &loads, |gate_index, _| {
                model.pair_delay_factor(pairs[gate_index], lifetime)
            }),
        }
    }

    /// Delays under the combined BTI + HCI model: duty-cycle stress per
    /// gate plus per-net toggle rates (HCI damage accrues on transitions).
    /// `toggle_rates` is indexed by net id, as produced by an
    /// activity extraction; a gate's rate is the maximum over its outputs.
    ///
    /// # Panics
    ///
    /// Panics if `toggle_rates` is shorter than the net count.
    pub fn aged_combined(
        netlist: &Netlist,
        model: &CombinedAgingModel,
        stress: &StressSource,
        toggle_rates: &[f64],
        lifetime: Lifetime,
    ) -> Self {
        assert!(
            toggle_rates.len() >= netlist.net_count(),
            "toggle rates must cover every net"
        );
        Self::build(netlist, &netlist.net_loads_ff(), |gate_index, gate| {
            let rate = gate
                .outputs
                .iter()
                .map(|n| toggle_rates[n.index()])
                .fold(0.0f64, f64::max);
            model.delay_factor(stress.pair_for(gate_index), rate, lifetime)
        })
    }

    /// Delays looked up from pre-generated degradation tables — the exact
    /// artifact path of the paper (STA with the degradation-aware cell
    /// library), including bilinear interpolation between grid points.
    pub fn aged_from_tables(
        netlist: &Netlist,
        tables: &DegradationAwareLibrary,
        stress: &StressSource,
    ) -> Self {
        let mut delays = vec![0.0; netlist.net_count()];
        let loads = netlist.net_loads_ff();
        for (id, net) in netlist.nets() {
            if let NetDriver::Gate { gate, .. } = net.driver {
                let g = netlist.gate(gate);
                let cell = netlist.library().cell(g.cell);
                let factor = tables.delay_factor(g.cell, stress.pair_for(gate.index()));
                delays[id.index()] = cell.delay_ps(loads[id.index()]) * factor;
            }
        }
        Self { delays_ps: delays }
    }

    /// Derives every gate-driven net's delay from its per-net `loads` and
    /// its driver's `factor(gate_index, gate)`.
    pub(crate) fn build(
        netlist: &Netlist,
        loads: &[f64],
        factor: impl Fn(usize, &Gate) -> f64,
    ) -> Self {
        let mut delays = vec![0.0; netlist.net_count()];
        for (id, net) in netlist.nets() {
            if let NetDriver::Gate { gate, .. } = net.driver {
                let g = netlist.gate(gate);
                let cell = netlist.library().cell(g.cell);
                delays[id.index()] = arc_delay_ps(cell, loads[id.index()], factor(gate.index(), g));
            }
        }
        Self { delays_ps: delays }
    }

    /// Mutable per-net delays, for the incremental timer's in-place updates.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.delays_ps
    }

    /// Builds an annotation directly from per-net delays (indexed by net
    /// id). Used by verification layers that derate or fault existing
    /// annotations; normal flows should prefer the `fresh`/`aged`
    /// constructors.
    pub fn from_raw(delays_ps: Vec<f64>) -> Self {
        Self { delays_ps }
    }

    /// A copy with every gate-driven net's delay multiplied by
    /// `factor(gate_index)` — the hook Monte-Carlo derating and delay-fault
    /// injection build on. Primary inputs and constants stay at zero.
    pub fn scaled_by_gate(&self, netlist: &Netlist, factor: impl Fn(usize) -> f64) -> Self {
        let mut delays = self.delays_ps.clone();
        for (id, net) in netlist.nets() {
            if let NetDriver::Gate { gate, .. } = net.driver {
                delays[id.index()] *= factor(gate.index());
            }
        }
        Self { delays_ps: delays }
    }

    /// The delay contributed by the driver of net `net_index`.
    pub fn of(&self, net_index: usize) -> f64 {
        self.delays_ps[net_index]
    }

    /// All per-net delays (indexed by net id).
    pub fn as_slice(&self) -> &[f64] {
        &self.delays_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_aging::StressFactor;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_obs::{fnv1a, FNV_OFFSET};
    use std::sync::Arc;

    fn adder() -> aix_netlist::Netlist {
        let lib = Arc::new(Library::nangate45_like());
        build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap()
    }

    #[test]
    fn fresh_delays_zero_only_for_sources() {
        let nl = adder();
        let delays = NetDelays::fresh(&nl);
        for (id, net) in nl.nets() {
            let d = delays.of(id.index());
            match net.driver {
                aix_netlist::NetDriver::Gate { .. } => assert!(d > 0.0),
                _ => assert_eq!(d, 0.0),
            }
        }
    }

    #[test]
    fn aged_worst_case_scales_every_arc() {
        let nl = adder();
        let model = AgingModel::calibrated();
        let fresh = NetDelays::fresh(&nl);
        let aged = NetDelays::aged(
            &nl,
            &model,
            AgingScenario::worst_case(Lifetime::YEARS_10),
        );
        for (id, net) in nl.nets() {
            if matches!(net.driver, aix_netlist::NetDriver::Gate { .. }) {
                let ratio = aged.of(id.index()) / fresh.of(id.index());
                assert!(ratio > 1.1 && ratio < 1.3, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn fresh_scenario_equals_fresh() {
        let nl = adder();
        let model = AgingModel::calibrated();
        assert_eq!(
            NetDelays::aged(&nl, &model, AgingScenario::Fresh),
            NetDelays::fresh(&nl)
        );
    }

    #[test]
    fn table_lookup_close_to_analytic() {
        let nl = adder();
        let model = AgingModel::calibrated();
        let tables =
            DegradationAwareLibrary::generate(nl.library(), &model, Lifetime::YEARS_10);
        let stress = StressSource::Uniform(StressPair::uniform(
            StressFactor::new(0.63).unwrap(),
        ));
        let from_tables = NetDelays::aged_from_tables(&nl, &tables, &stress);
        let analytic =
            NetDelays::aged_with_stress(&nl, &model, &stress, Lifetime::YEARS_10);
        for (id, net) in nl.nets() {
            if matches!(net.driver, aix_netlist::NetDriver::Gate { .. }) {
                let t = from_tables.of(id.index());
                let a = analytic.of(id.index());
                assert!((t - a).abs() / a < 0.01, "table {t} vs analytic {a}");
            }
        }
    }

    #[test]
    fn combined_model_adds_hci_on_top_of_bti() {
        let nl = adder();
        let bti = AgingModel::calibrated();
        let combined = CombinedAgingModel::calibrated();
        let stress = StressSource::Uniform(StressPair::BALANCED);
        let bti_only =
            NetDelays::aged_with_stress(&nl, &bti, &stress, Lifetime::YEARS_10);
        let idle = NetDelays::aged_combined(
            &nl,
            &combined,
            &stress,
            &vec![0.0; nl.net_count()],
            Lifetime::YEARS_10,
        );
        let busy = NetDelays::aged_combined(
            &nl,
            &combined,
            &stress,
            &vec![1.0; nl.net_count()],
            Lifetime::YEARS_10,
        );
        for (id, net) in nl.nets() {
            if matches!(net.driver, aix_netlist::NetDriver::Gate { .. }) {
                let i = id.index();
                assert!((idle.of(i) - bti_only.of(i)).abs() < 1e-9, "idle = BTI only");
                assert!(busy.of(i) > idle.of(i), "toggling gates age faster");
            }
        }
    }

    /// Pins every bit of a combined BTI + HCI annotation of a carry-select
    /// adder-16 under varied per-gate stress and per-net toggle rates. The
    /// digest was recorded while `aged_combined` still ran its own per-net
    /// loop, before it moved onto `build`, and must never drift.
    #[test]
    fn combined_model_delays_match_their_pinned_bits() {
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let level = |i: usize| StressFactor::new((i % 5) as f64 / 4.0).unwrap();
        let stress = StressSource::PerGate(
            (0..nl.gate_count())
                .map(|g| StressPair::new(level(g), level(g / 3 + 1)))
                .collect(),
        );
        let toggle_rates: Vec<f64> = (0..nl.net_count()).map(|n| (n % 7) as f64 / 4.0).collect();
        let delays = NetDelays::aged_combined(
            &nl,
            &CombinedAgingModel::calibrated(),
            &stress,
            &toggle_rates,
            Lifetime::YEARS_10,
        );
        let digest = delays.as_slice().iter().fold(FNV_OFFSET, |hash, d| {
            fnv1a(hash, &d.to_bits().to_le_bytes())
        });
        assert_eq!(digest, 0x352e_e920_5fa9_79b4);
    }

    #[test]
    fn per_gate_stress_is_respected() {
        let nl = adder();
        let model = AgingModel::calibrated();
        // All gates fresh except gate 0 at worst stress.
        let mut pairs = vec![StressPair::default(); nl.gate_count()];
        pairs[0] = StressPair::WORST;
        let delays = NetDelays::aged_with_stress(
            &nl,
            &model,
            &StressSource::PerGate(pairs),
            Lifetime::YEARS_10,
        );
        let fresh = NetDelays::fresh(&nl);
        for (id, net) in nl.nets() {
            if let aix_netlist::NetDriver::Gate { gate, .. } = net.driver {
                let ratio = delays.of(id.index()) / fresh.of(id.index());
                if gate.index() == 0 {
                    assert!(ratio > 1.1);
                } else {
                    assert!((ratio - 1.0).abs() < 1e-12);
                }
            }
        }
    }
}
