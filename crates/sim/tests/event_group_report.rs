//! The packed error measurement splits its stream over several simulators
//! but reports its event-group work once, as the call's total: the largest
//! reported `timed_event_groups` value equals what one simulator stepping
//! the whole stream reports.
//!
//! The recorder is process-global, so this file holds a single test.

use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::{build_multiplier, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_sim::{
    measure_errors_with, OperandSource, PackedTimedSimulator, SimEngine, UniformOperands, LANES,
};
use aix_sta::{analyze, NetDelays};
use std::sync::Arc;

/// Runs `work` under an in-memory recorder and returns the values of
/// every `timed_event_groups` report.
fn group_reports(work: impl FnOnce()) -> Vec<i64> {
    aix_obs::install(aix_obs::Recorder::in_memory("event-groups", false));
    work();
    let recorder = aix_obs::uninstall().expect("the recorder installed above");
    recorder
        .events()
        .iter()
        .filter(|event| event.name == aix_obs::names::sim::TIMED_EVENT_GROUPS)
        .filter_map(|event| event.int_field("groups"))
        .collect()
}

#[test]
fn a_chunked_measurement_reports_its_summed_total_once() {
    // Three workers split the stream into several chunks on any machine.
    std::env::set_var("AIX_JOBS", "3");
    let lib = Arc::new(Library::nangate45_like());
    let nl = build_multiplier(&lib, MultiplierKind::Wallace, ComponentSpec::full(8)).unwrap();
    let clock = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
    let delays = NetDelays::aged(
        &nl,
        &AgingModel::calibrated(),
        AgingScenario::worst_case(Lifetime::YEARS_10),
    );
    let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 3).vectors(4000).collect();

    let single = group_reports(|| {
        let mut sim = PackedTimedSimulator::new(&nl, &delays).unwrap();
        for batch in vectors.chunks(LANES) {
            sim.step_stream_batch(batch, clock).unwrap();
        }
    });
    let chunked = group_reports(|| {
        measure_errors_with(
            &nl,
            &delays,
            clock,
            vectors.iter().cloned(),
            SimEngine::Packed,
        )
        .unwrap();
    });
    let total = *single.iter().max().expect("one report per step");
    assert!(total > 0);
    assert_eq!(chunked, vec![total], "one report, of the summed total");
}
