//! Property-based differential tests: on arbitrary small random netlists
//! with arbitrary stimuli, every lane of the packed evaluator must equal
//! the scalar evaluator, the packed popcount activity accounting must
//! match the scalar per-vector accounting, and under arbitrary per-net
//! delays and clocks every lane of the packed timed engine must equal a
//! scalar timed simulator.

use aix_cells::{CellFunction, DriveStrength, Library};
use aix_netlist::{Evaluator, Netlist};
use aix_sim::{Activity, PackedEvaluator, PackedTimedSimulator, SimEngine, TimedSimulator, LANES};
use aix_sta::NetDelays;
use proptest::prelude::*;
use std::sync::Arc;

/// Combinational functions only — the evaluators reject sequential cells.
const COMB: [CellFunction; 15] = [
    CellFunction::Inv,
    CellFunction::Buf,
    CellFunction::Nand2,
    CellFunction::Nand3,
    CellFunction::Nor2,
    CellFunction::Nor3,
    CellFunction::And2,
    CellFunction::Or2,
    CellFunction::Xor2,
    CellFunction::Xnor2,
    CellFunction::Aoi21,
    CellFunction::Oai21,
    CellFunction::Mux2,
    CellFunction::HalfAdder,
    CellFunction::FullAdder,
];

/// A reproducible netlist recipe: each gate picks a function and draws its
/// operands (by index, modulo the growing net pool) from everything built
/// so far, so any recipe yields a valid acyclic netlist.
#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    constants: bool,
    gates: Vec<(usize, [usize; 3])>,
}

fn build(recipe: &Recipe, library: &Arc<Library>) -> Netlist {
    let mut nl = Netlist::new("random", library.clone());
    let mut pool = Vec::new();
    for i in 0..recipe.inputs {
        pool.push(nl.add_input(format!("in{i}")));
    }
    if recipe.constants {
        pool.push(nl.constant(false));
        pool.push(nl.constant(true));
    }
    for (index, (function_pick, operand_picks)) in recipe.gates.iter().enumerate() {
        let function = COMB[function_pick % COMB.len()];
        let cell = library
            .find(function, DriveStrength::X1)
            .expect("library covers every combinational function");
        let operands: Vec<_> = operand_picks[..function.input_count()]
            .iter()
            .map(|pick| pool[pick % pool.len()])
            .collect();
        let outputs = nl.add_gate(cell, &operands).expect("arity matches");
        for (pin, net) in outputs.iter().enumerate() {
            nl.mark_output(format!("g{index}_{pin}"), *net);
            pool.push(*net);
        }
    }
    nl.validate().expect("recipe builds a valid netlist");
    nl
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (1usize..=4, any::<bool>(), 1usize..=12).prop_flat_map(|(inputs, constants, gate_count)| {
        proptest::collection::vec(
            (0usize..64, [0usize..64, 0usize..64, 0usize..64]),
            gate_count,
        )
        .prop_map(move |gates| Recipe {
            inputs,
            constants,
            gates,
        })
    })
}

fn stimuli_strategy(inputs: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), inputs),
        1..(2 * LANES + 3),
    )
}

/// Delays several nets share, so reconvergent paths often tie.
const SHARED_DELAYS_PS: [f64; 3] = [4.0, 7.5, 12.0];

/// Enough per-net delays for any recipe: at most 4 inputs, 2 constants
/// and 12 two-output gates.
const MAX_NETS: usize = 32;

/// One net's delay: zero 3 times in 20, a shared value 6 times, uniform
/// in 0–40 ps 10 times, and once a log-uniform outlier of 10⁴–10⁶ ps,
/// far beyond the packed engine's calendar horizon.
fn delay_strategy() -> impl Strategy<Value = f64> {
    (0u32..20, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
        0..=2 => 0.0,
        3..=8 => SHARED_DELAYS_PS[(kind % 3) as usize],
        9..=18 => 40.0 * u,
        _ => 1.0e4 * 100f64.powf(u),
    })
}

/// A clock inside the delay range 9 times in 10, else one past the
/// outliers.
fn clock_strategy() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..1.0).prop_map(|(kind, u)| {
        if kind == 0 {
            1.0e4 + 2.0e6 * u
        } else {
            120.0 * u
        }
    })
}

#[derive(Debug, Clone)]
struct TimedCase {
    recipe: Recipe,
    delays: Vec<f64>,
    clock_ps: f64,
    /// Independent streams in `step_streams` mode.
    streams: usize,
    /// `streams × steps` vectors: one logical stream in stream-batch mode,
    /// and step *s* of stream *l* at `s * streams + l` in streams mode.
    stimuli: Vec<Vec<bool>>,
}

fn timed_case_strategy() -> impl Strategy<Value = TimedCase> {
    (recipe_strategy(), 1usize..=LANES, 1usize..=6).prop_flat_map(|(recipe, streams, steps)| {
        let inputs = recipe.inputs;
        (
            proptest::collection::vec(delay_strategy(), MAX_NETS),
            clock_strategy(),
            proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), inputs),
                streams * steps,
            ),
        )
            .prop_map(move |(delays, clock_ps, stimuli)| TimedCase {
                recipe: recipe.clone(),
                delays,
                clock_ps,
                streams,
                stimuli,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packed lane reproduces the scalar evaluation of its vector.
    #[test]
    fn packed_lanes_equal_scalar_eval(
        case in recipe_strategy()
            .prop_flat_map(|r| {
                let inputs = r.inputs;
                (Just(r), stimuli_strategy(inputs))
            })
    ) {
        let (recipe, stimuli) = case;
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&recipe, &library);
        let mut scalar = Evaluator::new(&netlist).unwrap();
        let mut packed = PackedEvaluator::new(&netlist).unwrap();
        for batch in stimuli.chunks(LANES) {
            packed.eval_batch(batch).unwrap();
            for (lane, vector) in batch.iter().enumerate() {
                let expected = scalar.eval(vector).unwrap().to_vec();
                prop_assert_eq!(
                    packed.output_lane_values(lane),
                    expected,
                    "lane {} of a {}-vector batch diverges",
                    lane,
                    batch.len()
                );
            }
        }
    }

    /// Packed popcount ones/toggle accounting equals the scalar walk.
    #[test]
    fn packed_activity_equals_scalar(
        case in recipe_strategy()
            .prop_flat_map(|r| {
                let inputs = r.inputs;
                (Just(r), stimuli_strategy(inputs))
            })
    ) {
        let (recipe, stimuli) = case;
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&recipe, &library);
        let scalar =
            Activity::collect_with(&netlist, stimuli.iter().cloned(), SimEngine::Scalar).unwrap();
        let packed =
            Activity::collect_with(&netlist, stimuli.iter().cloned(), SimEngine::Packed).unwrap();
        prop_assert_eq!(scalar, packed);
    }

    /// Every lane of the packed timed engine equals a scalar timed
    /// simulator, and so do the per-net transition counts, in both
    /// feeding modes: one stream chunked 64 vectors at a time, and
    /// independent streams each checked against its own scalar simulator.
    #[test]
    fn packed_timed_lanes_equal_scalar(case in timed_case_strategy()) {
        let library = Arc::new(Library::nangate45_like());
        let netlist = build(&case.recipe, &library);
        let nets = netlist.net_count();
        prop_assert!(nets <= MAX_NETS, "{} nets exceed MAX_NETS", nets);
        let delays = NetDelays::from_raw(case.delays[..nets].to_vec());
        let clock = case.clock_ps;

        let mut scalar = TimedSimulator::new(&netlist, &delays).unwrap();
        let mut packed = PackedTimedSimulator::new(&netlist, &delays).unwrap();
        for (index, batch) in case.stimuli.chunks(LANES).enumerate() {
            let outcome = packed.step_stream_batch(batch, clock).unwrap();
            for (lane, vector) in batch.iter().enumerate() {
                prop_assert_eq!(
                    outcome.outcome_for_lane(lane),
                    scalar.step(vector, clock).unwrap(),
                    "stream batch {} lane {} diverges",
                    index,
                    lane
                );
            }
        }
        prop_assert_eq!(packed.transition_counts(), scalar.transition_counts());

        let mut scalars: Vec<TimedSimulator> = (0..case.streams)
            .map(|_| TimedSimulator::new(&netlist, &delays).unwrap())
            .collect();
        let mut packed = PackedTimedSimulator::new(&netlist, &delays).unwrap();
        for (step, batch) in case.stimuli.chunks(case.streams).enumerate() {
            let outcome = packed.step_streams(batch, clock).unwrap();
            for (lane, (vector, scalar)) in batch.iter().zip(&mut scalars).enumerate() {
                prop_assert_eq!(
                    outcome.outcome_for_lane(lane),
                    scalar.step(vector, clock).unwrap(),
                    "step {} of stream {} diverges",
                    step,
                    lane
                );
            }
        }
        let mut totals = vec![0u64; nets];
        for scalar in &scalars {
            for (total, &count) in totals.iter_mut().zip(scalar.transition_counts()) {
                *total += count;
            }
        }
        prop_assert_eq!(packed.transition_counts(), &totals[..]);
    }
}
