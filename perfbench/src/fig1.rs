//! `fig1`: bulk timed simulation of the paper's Fig. 1 — the error rate of
//! 32-bit adders and multipliers clocked at their fresh critical path while
//! their gates age uniformly.
//!
//! Set-up synthesizes the four Fig. 1 netlists (carry-select and
//! Kogge-Stone adder, Wallace and prefix-merge multiplier), derives each
//! fresh clock with `analyze`, annotates the four aged delay sets with
//! `NetDelays::aged` and generates the seeded operands. A measured pass is
//! the 16 rows of `measure_errors_with(.., SimEngine::Packed)`.

use crate::trace::{traced, with_event_groups, Tracer};
use crate::{measure_phase, median, Ctx, Measured, Ops, Outcome};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_arith::{AdderKind, ComponentSpec, MultiplierKind};
use aix_cells::Library;
use aix_netlist::{Netlist, NetlistError};
use aix_sim::{measure_errors_with, ErrorStats, OperandSource, SignedNormalOperands, SimEngine};
use aix_sta::{analyze, NetDelays};
use aix_synth::{Effort, Synthesizer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Operand width of the Fig. 1 components.
const WIDTH: usize = 32;
/// Vectors per row of a measured pass.
const VECTORS: usize = 2048;
/// Vector prefix the scalar oracle re-simulates per row.
const ORACLE_VECTORS: usize = 256;

/// The four aging scenarios of the motivational study, with the paper's
/// worst-case references (adder 20 % → 28 %, multiplier 4 % → 8 %).
fn scenarios() -> [(&'static str, AgingScenario); 4] {
    [
        ("1y balance", AgingScenario::balanced(Lifetime::YEARS_1)),
        ("10y balance", AgingScenario::balanced(Lifetime::YEARS_10)),
        ("1y worst", AgingScenario::worst_case(Lifetime::YEARS_1)),
        ("10y worst", AgingScenario::worst_case(Lifetime::YEARS_10)),
    ]
}

#[derive(Clone, Copy)]
enum Design {
    CarrySelect,
    KoggeStone,
    Wallace,
    PrefixMerge,
}

const DESIGNS: [(&str, Design); 4] = [
    ("adder-32 (carry-select)", Design::CarrySelect),
    ("adder-32 (Kogge-Stone)", Design::KoggeStone),
    ("multiplier-32 (Wallace)", Design::Wallace),
    ("multiplier-32 (prefix-merge)", Design::PrefixMerge),
];

fn synthesize(synth: &Synthesizer, design: Design) -> Result<Netlist, NetlistError> {
    let spec = ComponentSpec::full(WIDTH);
    match design {
        Design::CarrySelect => synth.adder_with(AdderKind::CarrySelect, spec),
        Design::KoggeStone => synth.adder_with(AdderKind::KoggeStone, spec),
        Design::Wallace => synth.multiplier_with(MultiplierKind::Wallace, spec),
        Design::PrefixMerge => synth.multiplier_with(MultiplierKind::WallacePrefix, spec),
    }
}

/// One Fig. 1 netlist with everything its four rows need.
struct Row {
    netlist: Netlist,
    clock_ps: f64,
    aged: Vec<NetDelays>,
    stimuli: Vec<Vec<bool>>,
}

/// Builds the fixtures, recording layer spans when `tracer` is given.
fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Vec<Row>, String> {
    let cells = Arc::new(Library::nangate45_like());
    let model = AgingModel::calibrated();
    let synth = Synthesizer::new(cells, Effort::Ultra);
    let mut rows = Vec::new();
    for (index, &(label, design)) in DESIGNS.iter().enumerate() {
        let netlist = traced(tracer, "synth", || synthesize(&synth, design))
            .map_err(|e| format!("synthesize {label}: {e}"))?;
        if let Some(t) = tracer {
            t.add("synth.gates", netlist.gate_count() as f64);
        }
        let clock_ps = traced(tracer, "sta", || {
            analyze(&netlist, &NetDelays::fresh(&netlist))
        })
        .map_err(|e| format!("STA {label}: {e}"))?
        .max_delay_ps();
        let aged = scenarios()
            .iter()
            .map(|&(_, scenario)| {
                traced(tracer, "aging", || {
                    NetDelays::aged(&netlist, &model, scenario)
                })
            })
            .collect();
        let padding = netlist.inputs().len() - 2 * WIDTH;
        let stimuli = SignedNormalOperands::for_width(WIDTH, seed.wrapping_add(index as u64))
            .vectors_with_zeros(VECTORS, padding)
            .collect();
        rows.push(Row {
            netlist,
            clock_ps,
            aged,
            stimuli,
        });
    }
    Ok(rows)
}

fn measure(
    row: &Row,
    scenario: usize,
    vectors: usize,
    engine: SimEngine,
) -> Result<ErrorStats, String> {
    measure_errors_with(
        &row.netlist,
        &row.aged[scenario],
        row.clock_ps,
        row.stimuli[..vectors].iter().cloned(),
        engine,
    )
    .map_err(|e| format!("measure_errors: {e}"))
}

/// One measured pass: every (netlist, scenario) row.
fn run_pass(rows: &[Row]) -> Vec<Result<ErrorStats, String>> {
    rows.iter()
        .flat_map(|row| {
            (0..row.aged.len()).map(move |s| measure(row, s, VECTORS, SimEngine::Packed))
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let Measured {
        fixture: rows,
        setup_s,
        pass_s,
        pass_rss_mb,
        results,
    } = measure_phase(
        ctx.seconds,
        3,
        || setup(ctx.seed, None),
        |rows, _| run_pass(rows),
    )?;

    let mut ops = Ops::default();
    let first: Vec<Option<ErrorStats>> = results[0]
        .iter()
        .map(|r| r.as_ref().ok().copied())
        .collect();
    for (p, pass) in results.iter().enumerate() {
        for (r, result) in pass.iter().enumerate() {
            match result {
                Ok(stats) => ops.check(
                    first[r] == Some(*stats) && stats.vectors == VECTORS as u64,
                    || format!("pass {p} row {r}: {stats:?} differs from pass 0"),
                ),
                Err(e) => ops.check(false, || format!("pass {p} row {r}: {e}")),
            }
        }
    }

    // The scalar engine is the oracle: on a vector prefix, every row's
    // packed statistics must equal the scalar ones exactly.
    for (d, row) in rows.iter().enumerate() {
        for s in 0..row.aged.len() {
            let packed = measure(row, s, ORACLE_VECTORS, SimEngine::Packed);
            let scalar = measure(row, s, ORACLE_VECTORS, SimEngine::Scalar);
            ops.check(packed.is_ok() && packed == scalar, || {
                format!(
                    "{} @ {}: packed {packed:?} vs scalar {scalar:?}",
                    DESIGNS[d].0,
                    scenarios()[s].0
                )
            });
        }
    }

    let mut stats = vec![format!(
        "Fig. 1 error rate at the fresh clock, {VECTORS} vectors per row (paper, worst case: adder 20% @1y -> 28% @10y; multiplier 4% -> 8%)"
    )];
    for (d, (label, _)) in DESIGNS.iter().enumerate() {
        let cells: Vec<String> = scenarios()
            .iter()
            .enumerate()
            .map(|(s, (name, _))| match first[d * 4 + s] {
                Some(st) => format!(
                    "{name} {:.2}% ({} erroneous)",
                    st.error_percent(),
                    st.erroneous
                ),
                None => format!("{name} -"),
            })
            .collect();
        stats.push(format!("{label}: {}", cells.join(", ")));
    }

    let mut layers = BTreeMap::new();
    if ctx.trace {
        let tracer = Tracer::new();
        let traced_rows = setup(ctx.seed, Some(&tracer))?;
        let start = Instant::now();
        let mut groups = 0u64;
        let mut traced_stats = Vec::new();
        for row in &traced_rows {
            for s in 0..row.aged.len() {
                let (result, g) = with_event_groups(|| {
                    tracer.span("sim.timed", || measure(row, s, VECTORS, SimEngine::Packed))
                });
                groups += g;
                traced_stats.push(result.ok());
            }
        }
        let traced_s = start.elapsed().as_secs_f64();
        ops.check(traced_stats == first, || {
            "traced pass: error counts differ from the untraced pass".to_owned()
        });
        let vectors: u64 = traced_stats.iter().flatten().map(|s| s.vectors).sum();
        let errors: u64 = traced_stats.iter().flatten().map(|s| s.erroneous).sum();
        let sim_s = tracer.busy_s("sim.timed");
        layers.extend([
            ("synth.calls", tracer.calls("synth")),
            ("synth.busy_s", tracer.busy_s("synth")),
            ("synth.gates", tracer.counter("synth.gates")),
            ("aging.calls", tracer.calls("aging")),
            ("aging.busy_s", tracer.busy_s("aging")),
            ("sta.passes", tracer.calls("sta")),
            ("sta.busy_s", tracer.busy_s("sta")),
            ("sim.timed.vectors", vectors as f64),
            ("sim.timed.busy_s", sim_s),
            ("sim.timed.kvec_per_s", vectors as f64 / sim_s / 1e3),
            ("sim.timed.error_vectors", errors as f64),
            ("sim.timed.event_groups", groups as f64),
            ("trace.run_s", traced_s),
            ("trace.overhead_s", traced_s - median(&pass_s)),
        ]);
    }

    Ok(Outcome {
        setup_s,
        pass_s,
        pass_rss_mb,
        ops,
        stats,
        layers,
    })
}
