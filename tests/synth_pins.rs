//! Pinned synthesis output. Timing-driven sizing and area recovery make
//! thousands of single-gate moves per netlist, each decided by comparing
//! critical-path delays; a sizing move that changes, or a timing update
//! that differs from a from-scratch analysis in one bit, changes which
//! gates end up at which drive strength. These digests pin the emitted
//! Verilog of the "ultra compile" netlists the characterization library
//! and the gate-level DCT are built from.
//!
//! The values were recorded before sizing and area recovery moved onto
//! the incremental timer (`aix_sta::IncrementalTimer`), with the
//! full-recompute implementation they replaced, and must never drift.

use aix::aging::{AgingModel, AgingScenario, Lifetime};
use aix::arith::{build_adder, AdderKind, ComponentSpec};
use aix::cells::Library;
use aix::dct::{GateLevelConfig, GateLevelPipeline};
use aix::netlist::{to_verilog, Netlist};
use aix::obs::{fnv1a, FNV_OFFSET};
use aix::sta::{analyze, NetDelays};
use aix::synth::{aging_aware_synthesize, Effort, Synthesizer};
use std::sync::Arc;

fn verilog_digest(netlist: &Netlist) -> u64 {
    fnv1a(FNV_OFFSET, to_verilog(netlist).as_bytes())
}

fn spec(width: usize, precision: usize) -> ComponentSpec {
    ComponentSpec::new(width, precision).expect("valid pinned spec")
}

#[test]
fn ultra_adders_match_their_pinned_netlists() {
    let synth = Synthesizer::new(Arc::new(Library::nangate45_like()), Effort::Ultra);
    for (width, precision, pinned) in [
        (32, 32, 0x1437_869f_3cae_6f96_u64),
        (32, 22, 0x9279_13ba_92c2_8a0a),
        (16, 6, 0x78d2_cdd9_63b2_8e54),
    ] {
        let netlist = synth.adder(spec(width, precision)).unwrap();
        assert_eq!(
            verilog_digest(&netlist),
            pinned,
            "adder-{width} at p{precision}"
        );
    }
}

#[test]
fn ultra_multipliers_match_their_pinned_netlists() {
    let synth = Synthesizer::new(Arc::new(Library::nangate45_like()), Effort::Ultra);
    for (precision, pinned) in [(32, 0xa157_cd7c_2763_4dc7_u64), (27, 0x6b56_5023_759b_4ca9)] {
        let netlist = synth.multiplier(spec(32, precision)).unwrap();
        assert_eq!(
            verilog_digest(&netlist),
            pinned,
            "multiplier-32 at p{precision}"
        );
    }
}

#[test]
fn ultra_mac_matches_its_pinned_netlist() {
    let synth = Synthesizer::new(Arc::new(Library::nangate45_like()), Effort::Ultra);
    let netlist = synth.mac(ComponentSpec::full(32)).unwrap();
    assert_eq!(verilog_digest(&netlist), 0xeece_d50c_3637_ed4e);
}

#[test]
fn gate_level_dct_mac_matches_its_pinned_netlist() {
    let lib = Arc::new(Library::nangate45_like());
    let pipeline = GateLevelPipeline::new(&lib, GateLevelConfig::fresh()).unwrap();
    assert_eq!(verilog_digest(pipeline.netlist()), 0x3d0a_0969_3efc_37dd);
}

#[test]
fn aging_aware_baseline_matches_its_pinned_outcome() {
    let lib = Arc::new(Library::nangate45_like());
    let mut netlist = build_adder(&lib, AdderKind::CarrySelect, ComponentSpec::full(16)).unwrap();
    let fresh_cp = analyze(&netlist, &NetDelays::fresh(&netlist))
        .unwrap()
        .max_delay_ps();
    let outcome = aging_aware_synthesize(
        &mut netlist,
        &AgingModel::calibrated(),
        AgingScenario::worst_case(Lifetime::YEARS_10),
        fresh_cp,
        300,
    )
    .unwrap();
    assert_eq!(outcome.upsized_gates, 8);
    assert_eq!(format!("{:.6}", outcome.aged_delay_after_ps), "249.301358");
    assert_eq!(format!("{:.6}", outcome.aged_delay_before_ps), "323.768705");
    assert!(outcome.constraint_met);
    assert_eq!(verilog_digest(&netlist), 0x6e4b_a96b_3986_1b2f);
}
