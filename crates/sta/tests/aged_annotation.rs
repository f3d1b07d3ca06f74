//! Bit-identity of aged annotations. `NetDelays::aged_with_stress` must give
//! every gate-driven net exactly the delay of the per-net formula evaluated
//! with its driver's own stress pair, whether the source is uniform or per
//! gate, so how often the aging physics is evaluated can never change a
//! single bit. The oracle is built from public APIs only: `net_loads_ff`
//! plus `Cell::aged_delay_ps` per gate-driven net, derated by that gate's
//! `AgingModel::pair_delay_factor` (clamped to at least 1).
//!
//! These properties were first run against the annotation that evaluated
//! the physics once per gate for every source, before a uniform source
//! started evaluating it once per annotation.

use aix_aging::{AgingModel, Lifetime, StressFactor, StressPair};
use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_netlist::{NetDriver, Netlist};
use aix_sta::{NetDelays, StressSource};
use proptest::prelude::*;
use std::sync::Arc;

/// Small generated adders and multipliers.
fn netlist(kind: usize, width: usize) -> Netlist {
    let lib = Arc::new(Library::nangate45_like());
    match kind {
        0 => build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(width)),
        1 => build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(width)),
        2 => build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(width)),
        3 => build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(width)),
        _ => build_multiplier(&lib, MultiplierKind::Wallace, ComponentSpec::full(width)),
    }
    .expect("build")
}

/// A stress factor: zero, full or half stress, or anything in between.
fn stress((pick, value): (u8, f64)) -> StressFactor {
    match pick {
        0 => StressFactor::RECOVERY,
        1 => StressFactor::WORST,
        2 => StressFactor::BALANCED,
        _ => StressFactor::new(value).expect("in [0, 1]"),
    }
}

fn pair((pmos, nmos): ((u8, f64), (u8, f64))) -> StressPair {
    StressPair::new(stress(pmos), stress(nmos))
}

/// A lifetime: fresh, the paper's two evaluation points, or any up to 20 y.
fn lifetime((pick, years): (u8, f64)) -> Lifetime {
    match pick {
        0 => Lifetime::FRESH,
        1 => Lifetime::YEARS_1,
        2 => Lifetime::YEARS_10,
        _ => Lifetime::from_years(years),
    }
}

fn bits(delays: &NetDelays) -> Vec<u64> {
    delays.as_slice().iter().map(|d| d.to_bits()).collect()
}

/// The per-net oracle: each gate-driven net's delay under `pair_of` its
/// driving gate; primary inputs and constants stay at zero.
fn oracle(
    nl: &Netlist,
    model: &AgingModel,
    pair_of: impl Fn(usize) -> StressPair,
    lifetime: Lifetime,
) -> Vec<u64> {
    let loads = nl.net_loads_ff();
    nl.nets()
        .map(|(id, net)| match net.driver {
            NetDriver::Gate { gate, .. } => {
                let cell = nl.library().cell(nl.gate(gate).cell);
                let factor = model.pair_delay_factor(pair_of(gate.index()), lifetime);
                cell.aged_delay_ps(loads[id.index()], factor.max(1.0))
                    .to_bits()
            }
            _ => 0.0f64.to_bits(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A uniform source equals the per-net oracle, and equals a per-gate
    /// source holding the same pair for every gate.
    #[test]
    fn uniform_stress_matches_the_per_net_oracle(
        kind in 0usize..5,
        width in 2usize..=8,
        raw_pair in ((0u8..4, 0.0f64..=1.0), (0u8..4, 0.0f64..=1.0)),
        raw_lifetime in (0u8..4, 0.0f64..=20.0),
    ) {
        let nl = netlist(kind, width);
        let model = AgingModel::calibrated();
        let pair = pair(raw_pair);
        let lifetime = lifetime(raw_lifetime);
        let uniform =
            NetDelays::aged_with_stress(&nl, &model, &StressSource::Uniform(pair), lifetime);
        prop_assert_eq!(bits(&uniform), oracle(&nl, &model, |_| pair, lifetime));
        let per_gate = NetDelays::aged_with_stress(
            &nl,
            &model,
            &StressSource::PerGate(vec![pair; nl.gate_count()]),
            lifetime,
        );
        prop_assert_eq!(bits(&uniform), bits(&per_gate));
    }

    /// A per-gate source gives each net its own driver's pair.
    #[test]
    fn per_gate_stress_matches_the_per_net_oracle(
        kind in 0usize..5,
        width in 2usize..=8,
        raw_pairs in proptest::collection::vec(
            ((0u8..4, 0.0f64..=1.0), (0u8..4, 0.0f64..=1.0)),
            1usize..48,
        ),
        raw_lifetime in (0u8..4, 0.0f64..=20.0),
    ) {
        let nl = netlist(kind, width);
        let model = AgingModel::calibrated();
        let lifetime = lifetime(raw_lifetime);
        let pairs: Vec<StressPair> = (0..nl.gate_count())
            .map(|gate| pair(raw_pairs[gate % raw_pairs.len()]))
            .collect();
        let delays = NetDelays::aged_with_stress(
            &nl,
            &model,
            &StressSource::PerGate(pairs.clone()),
            lifetime,
        );
        prop_assert_eq!(bits(&delays), oracle(&nl, &model, |gate| pairs[gate], lifetime));
    }
}
