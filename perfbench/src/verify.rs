//! `verify`: Monte-Carlo verification of a characterized library — aged
//! STA under per-gate delay variation for every deployment point, then a
//! timed cross-check under the worst perturbed delays for every violating
//! entry.
//!
//! Set-up characterizes the library subset (one worker, no on-disk cache,
//! no journal). A measured pass is one `verify_library` whose seed derives
//! from the command line's seed and the pass index. The traced pass replays
//! the first pass's campaign through
//! `NetlistCache::synthesize`, `NetDelays::aged`, `analyze`,
//! `Perturbation::perturb` and `measure_errors_with`, and checks the replayed
//! margins against `measure_margins`.

use crate::trace::{with_event_groups, Tracer};
use crate::{measure_phase, median, sub_seed, Ctx, Measured, Ops, Outcome};
use aix_aging::AgingModel;
use aix_cells::Library;
use aix_core::{
    ApproxLibrary, CharacterizationConfig, CharacterizationEngine, CharacterizationScenario,
    ComponentCharacterization, ComponentKind, EngineOptions, NetlistCache,
};
use aix_netlist::Netlist;
use aix_sim::{measure_errors_with, OperandSource, SignedNormalOperands, SimEngine};
use aix_sta::{analyze, NetDelays};
use aix_verify::{
    entry_rng, measure_margins, verify_library, CampaignReport, EntryVerdict, MarginStats,
    VerdictKind, VerifyConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the set-up characterization. One worker keeps the
/// allocator's heap layout independent of thread timing, so the peak memory
/// of the single-threaded passes repeats exactly for a seed (two workers
/// made it vary by ±5 %).
const JOBS: usize = 1;
/// Monte-Carlo samples per entry.
const SAMPLES: usize = 64;
/// Vectors of each timed cross-check.
const SIM_VECTORS: usize = 128;
/// The characterized subset: (kind, width), each at the paper's default
/// setup.
const SUBSET: [(ComponentKind, usize); 2] =
    [(ComponentKind::Adder, 32), (ComponentKind::Multiplier, 32)];

struct Fixture {
    cells: Arc<Library>,
    model: AgingModel,
    library: ApproxLibrary,
}

fn setup() -> Result<Fixture, String> {
    let cells = Arc::new(Library::nangate45_like());
    let engine = CharacterizationEngine::new(
        Arc::clone(&cells),
        EngineOptions {
            jobs: JOBS,
            ..EngineOptions::sequential()
        },
    );
    let configs: Vec<CharacterizationConfig> = SUBSET
        .iter()
        .map(|&(kind, width)| CharacterizationConfig::paper_default(kind, width))
        .collect();
    let (library, _) = engine
        .characterize_all(&configs)
        .map_err(|e| format!("characterize_all: {e}"))?;
    Ok(Fixture {
        cells,
        model: AgingModel::calibrated(),
        library,
    })
}

fn config(seed: u64) -> VerifyConfig {
    VerifyConfig {
        samples: SAMPLES,
        sim_vectors: SIM_VECTORS,
        seed,
        sim_engine: SimEngine::Packed,
        ..VerifyConfig::default()
    }
}

/// The deployment points `verify_library` visits: every distinct aged
/// scenario of every characterization, in entry order.
fn worklist(
    library: &ApproxLibrary,
) -> Vec<(&ComponentCharacterization, CharacterizationScenario)> {
    let mut list = Vec::new();
    for c in library.iter() {
        let mut seen: Vec<String> = Vec::new();
        for entry in c.entries() {
            let label = entry.scenario.to_string();
            if entry.scenario == CharacterizationScenario::FRESH || seen.contains(&label) {
                continue;
            }
            seen.push(label);
            list.push((c, entry.scenario));
        }
    }
    list
}

/// An exact, NaN-safe fingerprint of verdicts for equality checks.
fn fingerprint(entries: &[EntryVerdict]) -> String {
    format!("{entries:?}")
}

/// One traced aged STA pass, returning the critical-path delay.
fn sta(tracer: &Tracer, netlist: &Netlist, delays: &NetDelays) -> Result<f64, String> {
    tracer
        .span("sta", || analyze(netlist, delays))
        .map(|r| r.max_delay_ps())
        .map_err(|e| format!("STA: {e}"))
}

/// Replays one deployment point through the public layer functions.
fn replay_entry(
    fixture: &Fixture,
    config: &VerifyConfig,
    netlists: &NetlistCache,
    characterization: &ComponentCharacterization,
    scenario: CharacterizationScenario,
    tracer: &Tracer,
    excluded_s: &mut f64,
) -> Result<EntryVerdict, String> {
    let (kind, width, effort) = (
        characterization.kind(),
        characterization.width(),
        characterization.effort(),
    );
    let scenario_label = scenario.to_string();
    let synthesize = |precision| {
        let netlist = tracer
            .span("synth", || {
                netlists.synthesize(&fixture.cells, kind, width, precision, effort)
            })
            .map_err(|e| format!("synthesize {kind}-{width} K={precision}: {e}"))?;
        tracer.add("synth.gates", netlist.gate_count() as f64);
        Ok::<_, String>(netlist)
    };
    let full = synthesize(width)?;
    let constraint_ps = sta(tracer, &full, &NetDelays::fresh(&full))?;
    let Some(precision) = characterization.required_precision(scenario) else {
        return Ok(EntryVerdict {
            kind,
            width,
            scenario: scenario_label,
            precision: None,
            constraint_ps,
            nominal_aged_ps: f64::NAN,
            verdict: VerdictKind::Uncompensable,
            stats: None,
            samples: 0,
            violation_error_rate: None,
            passed: true,
        });
    };
    let CharacterizationScenario::Uniform(aging) = scenario else {
        return Err(format!(
            "{scenario_label}: the subset holds only uniform scenarios"
        ));
    };
    let netlist = synthesize(precision)?;
    let label = format!("{kind}-{width}-K{precision}@{scenario_label}");

    // Monte-Carlo margins, as `measure_margins` computes them.
    let base = tracer.span("aging", || NetDelays::aged(&netlist, &fixture.model, aging));
    let nominal = sta(tracer, &netlist, &base)?;
    let mut rng = entry_rng(config.seed, &label);
    let mut margins = Vec::with_capacity(config.samples);
    for _ in 0..config.samples {
        let perturbed = tracer.span("verify.perturb", || {
            config.perturbation.perturb(&mut rng, &netlist, &base)
        });
        margins.push(constraint_ps - sta(tracer, &netlist, &perturbed)?);
    }
    tracer.add("verify.samples", config.samples as f64);
    let check_start = Instant::now();
    let direct = measure_margins(
        &netlist,
        &fixture.model,
        aging,
        constraint_ps,
        config,
        &label,
    )
    .map_err(|e| format!("measure_margins: {e}"))?;
    *excluded_s += check_start.elapsed().as_secs_f64();
    if direct.0.to_bits() != nominal.to_bits() || direct.1 != margins {
        return Err(format!(
            "{label}: replayed margins differ from measure_margins"
        ));
    }
    let stats = MarginStats::from_margins(&margins, config.margin_target_ps);
    let passed = stats.first_failure.is_none();

    // Timed cross-check of the worst sample of a violating entry.
    let violation_error_rate = if passed || config.sim_vectors == 0 {
        None
    } else {
        let start = Instant::now();
        let base = tracer.span("aging", || NetDelays::aged(&netlist, &fixture.model, aging));
        let mut rng = entry_rng(config.seed, &label);
        let mut worst: Option<(f64, NetDelays)> = None;
        for &margin in &margins {
            let perturbed = tracer.span("verify.perturb", || {
                config.perturbation.perturb(&mut rng, &netlist, &base)
            });
            if worst.as_ref().is_none_or(|(m, _)| margin < *m) {
                worst = Some((margin, perturbed));
            }
        }
        let (_, delays) = worst.expect("at least one sample");
        let padding = netlist.inputs().len().saturating_sub(2 * width);
        let stimuli = SignedNormalOperands::for_width(width, config.seed)
            .vectors_with_zeros(config.sim_vectors, padding);
        let (errors, groups) = with_event_groups(|| {
            tracer.span("sim.timed", || {
                measure_errors_with(&netlist, &delays, constraint_ps, stimuli, config.sim_engine)
            })
        });
        let errors = errors.map_err(|e| format!("cross-check: {e}"))?;
        tracer.add("sim.timed.vectors", errors.vectors as f64);
        tracer.add("sim.timed.error_vectors", errors.erroneous as f64);
        tracer.add("sim.timed.event_groups", groups as f64);
        tracer.add("verify.violating", 1.0);
        tracer.add("verify.cross_check_s", start.elapsed().as_secs_f64());
        Some(errors.error_rate())
    };
    Ok(EntryVerdict {
        kind,
        width,
        scenario: scenario_label,
        precision: Some(precision),
        constraint_ps,
        nominal_aged_ps: nominal,
        verdict: VerdictKind::MonteCarlo,
        stats: Some(stats),
        samples: margins.len(),
        violation_error_rate,
        passed,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Every pass is a campaign with its own seed. Both the time of a
    // campaign and the memory of its cross-checks depend on the seed (how
    // many entries violate, and how glitch-heavy their worst samples are),
    // so a run's medians over several seeds repeat from run to run where one
    // seed's figures would not.
    let Measured {
        fixture,
        setup_s,
        pass_s,
        pass_rss_mb,
        results,
    } = measure_phase(ctx.seconds, 3, setup, |fixture, index| {
        let config = config(sub_seed(ctx.seed, index));
        verify_library(&fixture.cells, &fixture.library, &fixture.model, &config)
            .map_err(|e| format!("verify_library: {e}"))
    })?;
    let expected_entries = worklist(&fixture.library).len();
    // The statistics and the traced replay use the first pass's campaign.
    let config = config(sub_seed(ctx.seed, 0));

    let mut ops = Ops::default();
    let first: Option<CampaignReport> = results[0].as_ref().ok().cloned();
    for (p, result) in results.iter().enumerate() {
        match result {
            Ok(report) => ops.check(
                report.entries.len() == expected_entries && report.cancelled_entries == 0,
                || {
                    format!(
                        "pass {p}: {} entries for a worklist of {expected_entries}, {} cancelled",
                        report.entries.len(),
                        report.cancelled_entries
                    )
                },
            ),
            Err(e) => ops.check(false, || format!("pass {p}: {e}")),
        }
    }
    let Some(first) = first else {
        return Err(format!("no pass succeeded: {:?}", ops.problems));
    };

    let count =
        |pred: &dyn Fn(&EntryVerdict) -> bool| first.entries.iter().filter(|e| pred(e)).count();
    let mut stats = vec![format!(
        "verify_library (first pass): seed {}, {SAMPLES} samples, {SIM_VECTORS} cross-check vectors, library {}",
        config.seed,
        SUBSET
            .iter()
            .map(|(k, w)| format!("{k}-{w}"))
            .collect::<Vec<_>>()
            .join(" + ")
    )];
    stats.push(format!(
        "verdicts: {} entries, {} PASS, {} FAIL, {} UNCOMPENSABLE (a FAIL is a simulated result, not a failed operation)",
        first.entries.len(),
        count(&|e| e.passed && e.verdict != VerdictKind::Uncompensable),
        count(&|e| !e.passed),
        count(&|e| e.verdict == VerdictKind::Uncompensable),
    ));
    for entry in first.entries.iter().filter(|e| !e.passed) {
        stats.push(format!(
            "FAIL {}-{} @ {} K={}: min margin {:+.2} ps, observable error rate {}",
            entry.kind,
            entry.width,
            entry.scenario,
            entry
                .precision
                .map_or_else(|| "-".to_owned(), |k| k.to_string()),
            entry.stats.map_or(f64::NAN, |s| s.min_ps),
            entry
                .violation_error_rate
                .map_or_else(|| "-".to_owned(), |r| format!("{:.2}%", r * 100.0)),
        ));
    }

    let mut layers = BTreeMap::new();
    if ctx.trace {
        let tracer = Tracer::new();
        let netlists = NetlistCache::new();
        let mut excluded_s = 0.0;
        let start = Instant::now();
        let replayed: Result<Vec<EntryVerdict>, String> = worklist(&fixture.library)
            .into_iter()
            .map(|(c, scenario)| {
                replay_entry(
                    &fixture,
                    &config,
                    &netlists,
                    c,
                    scenario,
                    &tracer,
                    &mut excluded_s,
                )
            })
            .collect();
        let traced_s = start.elapsed().as_secs_f64() - excluded_s;
        match replayed {
            Ok(entries) => ops.check(fingerprint(&entries) == fingerprint(&first.entries), || {
                "traced replay: verdicts differ from verify_library".to_owned()
            }),
            Err(e) => ops.check(false, || format!("traced replay: {e}")),
        }
        let sim_s = tracer.busy_s("sim.timed");
        let vectors = tracer.counter("sim.timed.vectors");
        layers.extend([
            ("synth.calls", tracer.calls("synth")),
            ("synth.busy_s", tracer.busy_s("synth")),
            ("synth.gates", tracer.counter("synth.gates")),
            ("aging.calls", tracer.calls("aging")),
            ("aging.busy_s", tracer.busy_s("aging")),
            ("sta.passes", tracer.calls("sta")),
            ("sta.busy_s", tracer.busy_s("sta")),
            ("sim.timed.vectors", vectors),
            ("sim.timed.busy_s", sim_s),
            (
                "sim.timed.kvec_per_s",
                if sim_s > 0.0 {
                    vectors / sim_s / 1e3
                } else {
                    0.0
                },
            ),
            (
                "sim.timed.error_vectors",
                tracer.counter("sim.timed.error_vectors"),
            ),
            (
                "sim.timed.event_groups",
                tracer.counter("sim.timed.event_groups"),
            ),
            ("verify.entries", expected_entries as f64),
            ("verify.samples", tracer.counter("verify.samples")),
            ("verify.violating", tracer.counter("verify.violating")),
            (
                "verify.cross_check_s",
                tracer.counter("verify.cross_check_s"),
            ),
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
