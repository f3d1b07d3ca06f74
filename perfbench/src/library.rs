//! `library`: a cold characterization of the paper library, as
//! `aix characterize` runs it, followed by actual-case aging of every
//! full-width component.
//!
//! Set-up builds the cell library, the aging model and the campaign
//! configs. A measured pass runs `CharacterizationEngine::characterize_all`
//! (two workers, a fresh empty on-disk cache, no journal) and then, for each
//! full-width component, `ActualCaseStress::extract`, `actual_case_delays`
//! and `analyze`. The traced pass replays the campaign through
//! `NetlistCache::synthesize`, `NetDelays::aged` and `analyze`, and the
//! extraction through `Activity::collect` and `stress_pairs`.

use crate::trace::{with_event_groups, Tracer};
use crate::{measure_phase, median, sub_seed, Ctx, Measured, Ops, Outcome};
use aix_aging::{AgingModel, AgingScenario, Lifetime};
use aix_cells::Library;
use aix_core::{
    actual_case_delays, parallel_map, ActualCaseStress, ApproxLibrary, CharacterizationConfig,
    CharacterizationEngine, CharacterizationEntry, ComponentCharacterization, ComponentKind,
    EngineOptions, EngineReport, NetlistCache, StimulusKind,
};
use aix_netlist::Netlist;
use aix_sim::{stress_pairs, Activity, OperandSource, SignedNormalOperands};
use aix_sta::{analyze, NetDelays, StressSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the characterization engine (the reference host has two
/// cores).
const JOBS: usize = 2;
/// Stimulus vectors of each actual-case activity extraction.
const ACTIVITY_VECTORS: usize = 2000;
/// Lifetime of the actual-case aging analysis.
const ACTUAL_LIFETIME: Lifetime = Lifetime::YEARS_10;

struct Fixture {
    cells: Arc<Library>,
    model: AgingModel,
    configs: Vec<CharacterizationConfig>,
}

/// One measured pass's outputs.
struct PassResult {
    library: ApproxLibrary,
    report: EngineReport,
    /// Actual-case aged delay of each full-width component, in config order.
    actual_ps: Vec<f64>,
}

/// The paper library: adder, multiplier and MAC at 32 bits plus the 16-bit
/// adder of the IDCT rounding stage, all at the paper's default setup.
fn paper_configs() -> Vec<CharacterizationConfig> {
    let mut configs: Vec<CharacterizationConfig> = ComponentKind::ALL
        .iter()
        .map(|&kind| CharacterizationConfig::paper_default(kind, 32))
        .collect();
    configs.push(CharacterizationConfig::paper_default(
        ComponentKind::Adder,
        16,
    ));
    configs
}

fn engine_options(cache_dir: &Path) -> EngineOptions {
    EngineOptions {
        jobs: JOBS,
        cache_dir: Some(cache_dir.to_owned()),
        journal_dir: None,
        ..EngineOptions::sequential()
    }
}

fn run_pass(fixture: &Fixture, seed: u64, cache_dir: &Path) -> Result<PassResult, String> {
    let engine = CharacterizationEngine::new(Arc::clone(&fixture.cells), engine_options(cache_dir));
    let (library, report) = engine
        .characterize_all(&fixture.configs)
        .map_err(|e| format!("characterize_all: {e}"))?;
    let mut actual_ps = Vec::with_capacity(fixture.configs.len());
    for (index, config) in fixture.configs.iter().enumerate() {
        // A memoized hit: the campaign synthesized every full-width netlist.
        let netlist = engine
            .netlists()
            .synthesize(
                &fixture.cells,
                config.kind,
                config.width,
                config.width,
                config.effort,
            )
            .map_err(|e| format!("netlist {} {}: {e}", config.kind, config.width))?;
        let stress = ActualCaseStress::extract(
            &netlist,
            StimulusKind::NormalDistribution,
            config.width,
            ACTIVITY_VECTORS,
            sub_seed(seed, index),
        )
        .map_err(|e| format!("activity extraction: {e}"))?;
        let delays = actual_case_delays(&netlist, &stress, &fixture.model, ACTUAL_LIFETIME);
        let delay = analyze(&netlist, &delays)
            .map_err(|e| format!("actual-case STA: {e}"))?
            .max_delay_ps();
        actual_ps.push(delay);
    }
    Ok(PassResult {
        library,
        report,
        actual_ps,
    })
}

/// The engine's delay rounding: six decimals, so cache round trips are
/// exact.
fn quantize_ps(delay: f64) -> f64 {
    format!("{delay:.6}")
        .parse()
        .expect("fixed-decimal formatting always reparses")
}

/// Replays one pass through the public layer functions, recording spans.
fn traced_pass(fixture: &Fixture, seed: u64, tracer: &Tracer) -> Result<PassResult, String> {
    let configs = &fixture.configs;
    let netlists = NetlistCache::new();
    // Synthesis stage: one job per (config, precision), as the engine plans.
    let synth_jobs: Vec<(usize, usize)> = configs
        .iter()
        .enumerate()
        .flat_map(|(c, config)| config.precisions.iter().map(move |&p| (c, p)))
        .collect();
    let synthesized = parallel_map(JOBS, synth_jobs.clone(), |(c, precision)| {
        let config = &configs[c];
        let netlist = tracer.span("synth", || {
            netlists.synthesize(
                &fixture.cells,
                config.kind,
                config.width,
                precision,
                config.effort,
            )
        });
        netlist.map_err(|e| {
            format!(
                "synthesize {} {} K={precision}: {e}",
                config.kind, config.width
            )
        })
    });
    let mut netlist_of: BTreeMap<(usize, usize), Arc<Netlist>> = BTreeMap::new();
    for (job, netlist) in synth_jobs.iter().zip(synthesized) {
        let netlist = netlist?;
        tracer.add("synth.gates", netlist.gate_count() as f64);
        netlist_of.insert(*job, netlist);
    }
    // STA stage: one aged analysis per (config, precision, scenario).
    let sta_jobs: Vec<(usize, usize, usize)> = synth_jobs
        .iter()
        .flat_map(|&(c, p)| (0..configs[c].scenarios.len()).map(move |s| (c, p, s)))
        .collect();
    let delays = parallel_map(JOBS, sta_jobs.clone(), |(c, precision, s)| {
        let netlist = &netlist_of[&(c, precision)];
        let scenario = configs[c].scenarios[s];
        let delays = tracer.span("aging", || {
            NetDelays::aged(netlist, &fixture.model, scenario)
        });
        tracer
            .span("sta", || analyze(netlist, &delays))
            .map(|report| quantize_ps(report.max_delay_ps()))
            .map_err(|e| format!("STA: {e}"))
    });
    // Merge in plan order, as the engine does.
    let mut characterizations: Vec<ComponentCharacterization> = configs
        .iter()
        .map(|c| ComponentCharacterization::new(c.kind, c.width, c.effort))
        .collect();
    for (&(c, precision, s), delay) in sta_jobs.iter().zip(delays) {
        characterizations[c].add_entry(CharacterizationEntry {
            precision,
            scenario: configs[c].scenarios[s].into(),
            delay_ps: delay?,
        });
    }
    let mut library = ApproxLibrary::new();
    for mut characterization in characterizations {
        characterization.enforce_synthesis_monotonicity();
        library.insert(characterization);
    }
    // Actual-case aging, replaying `ActualCaseStress::extract`.
    let mut actual_ps = Vec::with_capacity(configs.len());
    for (index, config) in configs.iter().enumerate() {
        let netlist = &netlist_of[&(index, config.width)];
        let padding = netlist.inputs().len() - 2 * config.width;
        let stimuli: Vec<Vec<bool>> =
            SignedNormalOperands::for_width(config.width, sub_seed(seed, index))
                .vectors_with_zeros(ACTIVITY_VECTORS, padding)
                .collect();
        let pairs = tracer
            .span("sim.value", || {
                Activity::collect(netlist, stimuli).map(|a| stress_pairs(netlist, &a))
            })
            .map_err(|e| format!("activity: {e}"))?;
        tracer.add("sim.value.vectors", ACTIVITY_VECTORS as f64);
        let delays = tracer.span("aging", || {
            NetDelays::aged_with_stress(
                netlist,
                &fixture.model,
                &StressSource::PerGate(pairs),
                ACTUAL_LIFETIME,
            )
        });
        let delay = tracer
            .span("sta", || analyze(netlist, &delays))
            .map_err(|e| format!("actual-case STA: {e}"))?
            .max_delay_ps();
        actual_ps.push(delay);
    }
    Ok(PassResult {
        library,
        report: EngineReport::default(),
        actual_ps,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Each pass gets a fresh cache directory; they are removed after the
    // timed phase so that the deletion is not timed with the campaign.
    let caches = ctx.work_dir.join("caches");
    let measured = measure_phase(
        ctx.seconds,
        3,
        || {
            Ok(Fixture {
                cells: Arc::new(Library::nangate45_like()),
                model: AgingModel::calibrated(),
                configs: paper_configs(),
            })
        },
        |fixture, index| run_pass(fixture, ctx.seed, &caches.join(index.to_string())),
    );
    let _ = std::fs::remove_dir_all(&caches);
    let Measured {
        fixture,
        setup_s,
        pass_s,
        pass_rss_mb,
        results,
    } = measured?;

    let mut ops = Ops::default();
    let mut passes = Vec::new();
    for result in results {
        match result {
            Ok(pass) => passes.push(pass),
            // One campaign plus one extraction per component.
            Err(e) => ops.check_many(1 + fixture.configs.len() as u64, false, || e),
        }
    }
    let Some(first) = passes.first() else {
        return Err(format!("no pass succeeded: {:?}", ops.problems));
    };
    let text = first.library.to_text();

    // Output checks, per pass: the campaign is complete and deterministic,
    // the library round-trips through its text format, and Eq. 2 finds a
    // precision for every component at 10 y worst case; every actual-case
    // delay is positive and repeats exactly.
    let wc10 = AgingScenario::worst_case(Lifetime::YEARS_10);
    for (index, pass) in passes.iter().enumerate() {
        let pass_text = pass.library.to_text();
        let round_trip = ApproxLibrary::from_text(&pass_text).map(|l| l.to_text());
        let complete = pass.library.len() == fixture.configs.len()
            && pass.report.job_failures == 0
            && pass.report.cache_misses == pass.report.synth_planned;
        let eq2 = fixture.configs.iter().all(|c| {
            pass.library
                .get(c.kind, c.width)
                .and_then(|ch| ch.required_precision(wc10))
                .is_some()
        });
        ops.check(
            complete && pass_text == text && round_trip.as_ref() == Ok(&pass_text) && eq2,
            || format!("pass {index}: library incomplete, non-deterministic, not round-tripping or without an Eq. 2 precision"),
        );
        for (c, &delay) in pass.actual_ps.iter().enumerate() {
            ops.check(
                delay.is_finite() && delay > 0.0 && delay.to_bits() == first.actual_ps[c].to_bits(),
                || format!("pass {index}: actual-case delay of config {c} is {delay}"),
            );
        }
    }

    let mut stats =
        vec!["Eq. 2 precisions K (paper, adder-32: 24 bits @1y WC, 22 bits @10y WC)".to_owned()];
    for (config, &actual) in fixture.configs.iter().zip(&first.actual_ps) {
        let ch = first
            .library
            .get(config.kind, config.width)
            .expect("checked complete above");
        let k = |scenario: AgingScenario| {
            ch.required_precision(scenario)
                .map_or_else(|| "-".to_owned(), |k| k.to_string())
        };
        stats.push(format!(
            "{}-{}: fresh {:.1} ps; Eq. 2 K = {} @1y WC, {} @10y WC, {} @10y balanced; 10y actual-case (normal stimuli) {actual:.1} ps",
            config.kind,
            config.width,
            ch.fresh_full_delay_ps(),
            k(AgingScenario::worst_case(Lifetime::YEARS_1)),
            k(wc10),
            k(AgingScenario::balanced(Lifetime::YEARS_10)),
        ));
    }
    stats.push(format!(
        "engine: {} synthesis jobs, {} STA jobs, {} cache misses per pass",
        first.report.synth_executed, first.report.sta_executed, first.report.cache_misses
    ));

    let mut layers = BTreeMap::new();
    if ctx.trace {
        let tracer = Tracer::new();
        let start = Instant::now();
        let (traced, groups) = with_event_groups(|| traced_pass(&fixture, ctx.seed, &tracer));
        let traced_s = start.elapsed().as_secs_f64();
        match traced {
            Ok(traced) => {
                ops.check(traced.library.to_text() == text, || {
                    "traced replay: library text differs from the engine's".to_owned()
                });
                ops.check(
                    traced
                        .actual_ps
                        .iter()
                        .zip(&first.actual_ps)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    || "traced replay: actual-case delays differ".to_owned(),
                );
            }
            Err(e) => ops.check(false, || format!("traced replay: {e}")),
        }
        let per = |f: fn(&EngineReport) -> f64| {
            median(&passes.iter().map(|p| f(&p.report)).collect::<Vec<_>>())
        };
        layers.extend([
            ("synth.calls", tracer.calls("synth")),
            ("synth.busy_s", tracer.busy_s("synth")),
            ("synth.gates", tracer.counter("synth.gates")),
            ("engine.plan_ms", per(|r| r.plan_ms)),
            ("engine.synth_ms", per(|r| r.synth_ms)),
            ("engine.sta_ms", per(|r| r.sta_ms)),
            ("engine.merge_ms", per(|r| r.merge_ms)),
            ("engine.synth_executed", first.report.synth_executed as f64),
            ("engine.sta_executed", first.report.sta_executed as f64),
            ("engine.cache_misses", first.report.cache_misses as f64),
            ("aging.calls", tracer.calls("aging")),
            ("aging.busy_s", tracer.busy_s("aging")),
            ("sta.passes", tracer.calls("sta")),
            ("sta.busy_s", tracer.busy_s("sta")),
            ("sim.value.vectors", tracer.counter("sim.value.vectors")),
            ("sim.value.busy_s", tracer.busy_s("sim.value")),
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
