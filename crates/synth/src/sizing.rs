//! Timing-driven drive-strength sizing.

use aix_netlist::{Netlist, NetlistError};
use aix_sta::{critical_path, IncrementalTimer, SlackReport};

/// Result of a sizing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingOutcome {
    /// Critical-path delay before sizing, in ps.
    pub initial_delay_ps: f64,
    /// Critical-path delay after sizing, in ps.
    pub final_delay_ps: f64,
    /// Number of gates whose drive strength was increased.
    pub upsized_gates: usize,
    /// Number of sizing iterations executed.
    pub iterations: usize,
}

impl SizingOutcome {
    /// Fractional delay improvement achieved.
    pub fn improvement(&self) -> f64 {
        1.0 - self.final_delay_ps / self.initial_delay_ps
    }
}

/// Greedily upsizes gates on the critical path until no move improves the
/// critical-path delay.
///
/// This models the timing-driven optimization of a high-effort synthesis
/// run. A side effect — important for the paper's motivational study — is
/// the *slack wall*: once the longest paths have been squeezed, many paths
/// end up within a few percent of the critical delay, so aging-induced
/// violations are actually exercised by real stimuli.
///
/// `factor(gate_index)` derates each gate's delays: 1.0 everywhere for
/// ordinary (fresh) synthesis, the aged factor for the aging-aware
/// baseline. Every move is timed by one [`IncrementalTimer`].
///
/// # Errors
///
/// Propagates STA errors (cyclic netlists).
pub fn size_for_performance(
    netlist: &mut Netlist,
    factor: impl Fn(usize) -> f64,
    max_iterations: usize,
) -> Result<SizingOutcome, NetlistError> {
    let mut timer = IncrementalTimer::new(netlist, factor)?;
    let initial = timer.report().max_delay_ps();
    let mut current = initial;
    let mut upsized = 0usize;
    let mut iterations = 0usize;
    // Gates proven unhelpful to upsize (reverted moves).
    let mut locked = vec![false; timer.netlist().gate_count()];
    while iterations < max_iterations {
        iterations += 1;
        let netlist = timer.netlist();
        let path = critical_path(netlist, timer.report());
        // Candidate: the path gate with the largest arc delay that can
        // still be upsized and is not locked.
        let mut candidate = None;
        let mut worst = 0.0f64;
        for &gate_id in &path {
            if locked[gate_id.index()] {
                continue;
            }
            let gate = netlist.gate(gate_id);
            let arc: f64 = gate
                .outputs
                .iter()
                .map(|n| timer.delays().of(n.index()))
                .fold(0.0, f64::max);
            if arc > worst {
                if let Some(stronger) = netlist.library().upsize(gate.cell) {
                    worst = arc;
                    candidate = Some((gate_id, gate.cell, stronger));
                }
            }
        }
        let Some((gate_id, old_cell, new_cell)) = candidate else {
            break;
        };
        timer.resize_gate(gate_id, new_cell)?;
        let new_delay = timer.report().max_delay_ps();
        if new_delay < current - 1e-9 {
            current = new_delay;
            upsized += 1;
        } else {
            // Revert: upsizing here hurt (input capacitance outweighed
            // drive) or did not help.
            timer.resize_gate(gate_id, old_cell)?;
            locked[gate_id.index()] = true;
        }
    }
    Ok(SizingOutcome {
        initial_delay_ps: initial,
        final_delay_ps: current,
        upsized_gates: upsized,
        iterations,
    })
}

/// Result of an area-recovery run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Gates downsized.
    pub downsized_gates: usize,
    /// Area before recovery, in µm².
    pub area_before_um2: f64,
    /// Area after recovery, in µm².
    pub area_after_um2: f64,
    /// Critical-path delay after recovery, in ps (never exceeds the target).
    pub final_delay_ps: f64,
}

/// Downsizes gates with positive timing slack until every path sits close
/// to `target_ps` — commercial synthesis' *area recovery*, and the origin
/// of the "slack wall" in timing-closed netlists: after recovery, the
/// delays actually exercised by data hug the constraint, which is why
/// removing the aging guardband immediately produces errors (paper §II).
///
/// The pass runs in rounds: each round computes per-net slack against
/// `target_ps`, downsizes every gate whose arc slack safely covers the
/// delay increase, then verifies the critical path; a round that overshoots
/// is rolled back gate-by-gate. `factor` derates gate delays as in
/// [`size_for_performance`]; one [`IncrementalTimer`] times every move.
///
/// # Errors
///
/// Propagates STA errors (cyclic netlists).
pub fn recover_area(
    netlist: &mut Netlist,
    factor: impl Fn(usize) -> f64,
    target_ps: f64,
    max_rounds: usize,
) -> Result<RecoveryOutcome, NetlistError> {
    let area_before = netlist.stats().area_um2;
    let mut timer = IncrementalTimer::new(netlist, factor)?;
    let mut downsized = 0usize;
    for _ in 0..max_rounds {
        if timer.report().max_delay_ps() > target_ps {
            break;
        }
        let netlist = timer.netlist();
        let slack = SlackReport::compute(netlist, timer.delays(), timer.report(), target_ps)?;
        let loads = timer.loads_ff();
        // Candidate gates: every output arc has enough slack to absorb a
        // conservative estimate of the downsizing penalty.
        let mut moved = Vec::new();
        for (gate_id, gate) in netlist.gates() {
            let Some(weaker) = netlist.library().downsize(gate.cell) else {
                continue;
            };
            let old_cell = netlist.library().cell(gate.cell);
            let new_cell = netlist.library().cell(weaker);
            let worst_penalty = gate
                .outputs
                .iter()
                .map(|n| {
                    new_cell.delay_ps(loads[n.index()]) - old_cell.delay_ps(loads[n.index()])
                })
                .fold(0.0f64, f64::max);
            let min_slack = gate
                .outputs
                .iter()
                .map(|n| slack.slack_ps(*n))
                .fold(f64::INFINITY, f64::min);
            // Safety factor 2: serial gates in one round share slack.
            if min_slack > 2.0 * worst_penalty.max(0.0) + 1e-9 {
                moved.push((gate_id, gate.cell, weaker));
            }
        }
        if moved.is_empty() {
            break;
        }
        timer.resize_gates(moved.iter().map(|&(gate_id, _, weaker)| (gate_id, weaker)))?;
        // Roll back overshoots one gate at a time (rare thanks to the
        // safety factor).
        while timer.report().max_delay_ps() > target_ps {
            let Some((gate_id, original, _)) = moved.pop() else {
                break;
            };
            timer.resize_gate(gate_id, original)?;
        }
        downsized += moved.len();
        if moved.is_empty() {
            break;
        }
    }
    let final_delay = timer.report().max_delay_ps();
    Ok(RecoveryOutcome {
        downsized_gates: downsized,
        area_before_um2: area_before,
        area_after_um2: timer.netlist().stats().area_um2,
        final_delay_ps: final_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aix_arith::{build_adder, AdderKind, ComponentSpec};
    use aix_cells::Library;
    use aix_netlist::{bus_from_u64, bus_to_u64};
    use aix_sta::{analyze, NetDelays};
    use std::sync::Arc;

    const FRESH: fn(usize) -> f64 = |_| 1.0;

    #[test]
    fn sizing_improves_critical_path() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl =
            build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let outcome = size_for_performance(&mut nl, FRESH, 200).unwrap();
        assert!(outcome.final_delay_ps <= outcome.initial_delay_ps);
        assert!(
            outcome.improvement() > 0.02,
            "expected some improvement, got {:.4}",
            outcome.improvement()
        );
        assert!(outcome.upsized_gates > 0);
    }

    #[test]
    fn sizing_preserves_function() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = Arc::new(Library::nangate45_like());
        let mut nl =
            build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(12)).unwrap();
        size_for_performance(&mut nl, FRESH, 100).unwrap();
        nl.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = u64::from(rng.gen::<u16>() & 0xFFF);
            let b = u64::from(rng.gen::<u16>() & 0xFFF);
            let mut inputs = bus_from_u64(a, 12);
            inputs.extend(bus_from_u64(b, 12));
            assert_eq!(bus_to_u64(&nl.eval(&inputs).unwrap()), a + b);
        }
    }

    #[test]
    fn sizing_grows_area() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl =
            build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
        let before = nl.stats().area_um2;
        size_for_performance(&mut nl, FRESH, 200).unwrap();
        assert!(nl.stats().area_um2 > before, "faster costs area");
    }

    #[test]
    fn area_recovery_shrinks_area_and_meets_target() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl =
            build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(16)).unwrap();
        size_for_performance(&mut nl, FRESH, 200).unwrap();
        let target = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        let outcome = recover_area(&mut nl, FRESH, target, 20).unwrap();
        assert!(outcome.downsized_gates > 0, "short paths must downsize");
        assert!(outcome.area_after_um2 < outcome.area_before_um2);
        assert!(outcome.final_delay_ps <= target + 1e-9);
    }

    #[test]
    fn area_recovery_preserves_function() {
        use aix_netlist::{bus_from_u64, bus_to_u64};
        let lib = Arc::new(Library::nangate45_like());
        let mut nl =
            build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(12)).unwrap();
        let target = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        recover_area(&mut nl, FRESH, target, 20).unwrap();
        for (a, b) in [(0u64, 0u64), (4095, 1), (1234, 2345)] {
            let mut inputs = bus_from_u64(a, 12);
            inputs.extend(bus_from_u64(b, 12));
            assert_eq!(bus_to_u64(&nl.eval(&inputs).unwrap()), a + b);
        }
    }

    #[test]
    fn zero_iterations_is_identity() {
        let lib = Arc::new(Library::nangate45_like());
        let mut nl =
            build_adder(&lib, AdderKind::RippleCarry, ComponentSpec::full(8)).unwrap();
        let before = nl.clone();
        let outcome = size_for_performance(&mut nl, FRESH, 0).unwrap();
        assert_eq!(outcome.upsized_gates, 0);
        assert_eq!(outcome.initial_delay_ps, outcome.final_delay_ps);
        assert_eq!(before.gate_count(), nl.gate_count());
    }
}
