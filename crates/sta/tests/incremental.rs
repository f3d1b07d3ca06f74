//! Differential tests for the incremental timer: after every resize, its
//! loads, delays, arrivals, critical delay, critical output and critical
//! path must equal — bit for bit — what `net_loads_ff`, the `NetDelays`
//! constructors and `analyze` compute from scratch.

use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::{CellFunction, CellId, DriveStrength, Library};
use aix_netlist::{GateId, Netlist, NetlistError};
use aix_sta::{analyze, critical_path, IncrementalTimer, NetDelays};
use proptest::prelude::*;
use std::sync::Arc;

fn cells() -> Arc<Library> {
    Arc::new(Library::nangate45_like())
}

/// Small instances of the four structures synthesis sizes most: ripple
/// and Kogge-Stone adders, array and Wallace multipliers.
fn netlist(kind: usize, width: usize) -> Netlist {
    let lib = cells();
    match kind {
        0 => build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(width)),
        1 => build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(width)),
        2 => build_multiplier(&lib, MultiplierKind::Array, ComponentSpec::full(width)),
        _ => build_multiplier(&lib, MultiplierKind::Wallace, ComponentSpec::full(width)),
    }
    .expect("build")
}

fn scenario(aged: bool) -> AgingScenario {
    if aged {
        AgingScenario::worst_case(Lifetime::YEARS_10)
    } else {
        AgingScenario::Fresh
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts the timer's state equals a from-scratch analysis of its netlist.
fn assert_matches_scratch(timer: &IncrementalTimer<'_>, scenario: AgingScenario) {
    let nl = timer.netlist();
    let model = AgingModel::calibrated();
    let delays = NetDelays::aged(nl, &model, scenario);
    let report = analyze(nl, &delays).expect("acyclic");
    assert_eq!(bits(timer.loads_ff()), bits(&nl.net_loads_ff()), "loads");
    assert_eq!(
        bits(timer.delays().as_slice()),
        bits(delays.as_slice()),
        "delays"
    );
    assert_eq!(
        bits(timer.report().arrivals()),
        bits(report.arrivals()),
        "arrivals"
    );
    assert_eq!(
        bits(timer.report().per_output_ps()),
        bits(report.per_output_ps()),
        "per-output arrivals"
    );
    assert_eq!(
        timer.report().max_delay_ps().to_bits(),
        report.max_delay_ps().to_bits(),
        "max delay"
    );
    assert_eq!(timer.report().critical_output(), report.critical_output());
    assert_eq!(
        critical_path(nl, timer.report()),
        critical_path(nl, &report)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random up/down resizes with reverts, fresh and uniformly aged.
    #[test]
    fn resizes_match_a_from_scratch_analysis(
        kind in 0usize..4,
        width in 3usize..=8,
        aged in any::<bool>(),
        steps in proptest::collection::vec((any::<u32>(), 0u8..3), 1usize..40),
    ) {
        let scenario = scenario(aged);
        let factor = AgingModel::calibrated().scenario_delay_factor(scenario);
        let mut nl = netlist(kind, width);
        let lib = Arc::clone(nl.library());
        let mut timer = IncrementalTimer::new(&mut nl, |_| factor).expect("acyclic");
        assert_matches_scratch(&timer, scenario);
        let mut history: Vec<(GateId, CellId)> = Vec::new();
        for (pick, action) in steps {
            let gate = GateId::from_raw(pick % timer.netlist().gate_count() as u32);
            let cell = timer.netlist().gate(gate).cell;
            let next = match action {
                0 => lib.upsize(cell).map(|c| (gate, c)),
                1 => lib.downsize(cell).map(|c| (gate, c)),
                // Revert the latest move, as a rejected sizing move does.
                _ => history.pop(),
            };
            let Some((gate, target)) = next else { continue };
            if action < 2 {
                history.push((gate, cell));
            }
            timer.resize_gate(gate, target).expect("same function");
            assert_matches_scratch(&timer, scenario);
        }
    }

    /// A batch of moves, re-timed once at the end, matches a from-scratch
    /// analysis too.
    #[test]
    fn batched_resizes_match_a_from_scratch_analysis(
        kind in 0usize..4,
        width in 3usize..=8,
        aged in any::<bool>(),
        picks in proptest::collection::vec(any::<u32>(), 1usize..60),
    ) {
        let scenario = scenario(aged);
        let factor = AgingModel::calibrated().scenario_delay_factor(scenario);
        let mut nl = netlist(kind, width);
        let lib = Arc::clone(nl.library());
        let mut timer = IncrementalTimer::new(&mut nl, |_| factor).expect("acyclic");
        let count = timer.netlist().gate_count() as u32;
        let moves: Vec<(GateId, CellId)> = picks
            .iter()
            .filter_map(|&p| {
                let gate = GateId::from_raw(p % count);
                lib.upsize(timer.netlist().gate(gate).cell).map(|c| (gate, c))
            })
            .collect();
        timer.resize_gates(moves.iter().copied()).expect("same function");
        assert_matches_scratch(&timer, scenario);
    }
}

#[test]
fn shared_and_repeated_sinks_sum_in_net_loads_order() {
    // One net read twice by the same gate, by a second gate, and by two
    // output ports: every contribution must be re-summed after a resize.
    let lib = cells();
    let x1 = |f| lib.find(f, DriveStrength::X1).unwrap();
    let mut nl = Netlist::new("fan", Arc::clone(&lib));
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let n = nl.add_gate(x1(CellFunction::Nand2), &[a, b]).unwrap()[0];
    let y = nl.add_gate(x1(CellFunction::Xor2), &[n, n]).unwrap()[0];
    let z = nl.add_gate(x1(CellFunction::Inv), &[n]).unwrap()[0];
    nl.mark_output("n0", n);
    nl.mark_output("y", y);
    nl.mark_output("n1", n);
    nl.mark_output("z", z);
    let mut timer = IncrementalTimer::new(&mut nl, |_| 1.0).unwrap();
    for gate in [1, 2, 0, 1] {
        let gate = GateId::from_raw(gate);
        let stronger = lib.upsize(timer.netlist().gate(gate).cell).unwrap();
        timer.resize_gate(gate, stronger).unwrap();
        assert_matches_scratch(&timer, AgingScenario::Fresh);
    }
}

#[test]
fn a_move_to_another_function_is_an_error_and_keeps_the_timer_exact() {
    let mut nl = netlist(0, 4);
    let lib = Arc::clone(nl.library());
    let mut timer = IncrementalTimer::new(&mut nl, |_| 1.0).unwrap();
    let first = GateId::from_raw(0);
    let second = GateId::from_raw(1);
    let first_cell = timer.netlist().gate(first).cell;
    let stronger = lib.upsize(first_cell).unwrap();
    let foreign = lib
        .iter()
        .find(|(_, c)| c.function != lib.cell(timer.netlist().gate(second).cell).function)
        .map(|(id, _)| id)
        .unwrap();
    let err = timer
        .resize_gates([(first, stronger), (second, foreign)])
        .unwrap_err();
    assert!(matches!(err, NetlistError::CellFunctionMismatch { gate, .. } if gate == second));
    assert_eq!(
        timer.netlist().gate(first).cell,
        stronger,
        "earlier moves stay applied"
    );
    assert_ne!(timer.netlist().gate(second).cell, foreign);
    assert_matches_scratch(&timer, AgingScenario::Fresh);
}

#[test]
fn resizing_keeps_the_cached_schedule() {
    let mut nl = netlist(1, 6);
    let lib = Arc::clone(nl.library());
    let before = nl.schedule().unwrap();
    let gate = GateId::from_raw(3);
    let stronger = lib.upsize(nl.gate(gate).cell).unwrap();
    {
        let mut timer = IncrementalTimer::new(&mut nl, |_| 1.0).unwrap();
        timer.resize_gate(gate, stronger).unwrap();
    }
    assert!(Arc::ptr_eq(&before, &nl.schedule().unwrap()));
}
