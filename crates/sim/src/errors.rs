//! Timing-error statistics: the paper's motivational measurement (Fig. 1).

use crate::golden::{golden_lane_word, golden_word};
use crate::packed::{SimEngine, LANES};
use crate::timed_packed::{PackedTimedSimulator, TimedTables};
use crate::TimedSimulator;
use aix_netlist::{Netlist, NetlistError};
use aix_sta::NetDelays;
use std::sync::{Arc, Mutex};

/// Error statistics of a component clocked at a fixed period while its
/// gates carry (possibly aged) delays.
///
/// The paper reports the *percentage of erroneous outputs*: the fraction of
/// applied input vectors for which at least one output bit is latched
/// before it settles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Vectors simulated.
    pub vectors: u64,
    /// Vectors whose sampled output differed from the settled output.
    pub erroneous: u64,
    /// Total output bits that were wrong, across all vectors.
    pub wrong_bits: u64,
    /// Mean absolute numeric error of the sampled output word, interpreting
    /// outputs as unsigned integers (capped at 64 bits).
    pub mean_abs_error: f64,
    /// Maximum absolute numeric error observed.
    pub max_abs_error: u64,
}

impl ErrorStats {
    /// Fraction of vectors with at least one wrong output bit, in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.vectors == 0 {
            0.0
        } else {
            self.erroneous as f64 / self.vectors as f64
        }
    }

    /// Error rate as a percentage, as reported in the paper's figures.
    pub fn error_percent(&self) -> f64 {
        self.error_rate() * 100.0
    }
}

/// Clocks `netlist` at `clock_ps` with the given delay annotation and
/// measures how often sampled outputs are wrong over `stimuli`, using the
/// engine selected by `AIX_SIM_ENGINE` (packed by default).
///
/// Numeric error statistics are only meaningful for netlists whose outputs
/// form one unsigned word (ports in LSB-first order), which holds for every
/// generator in `aix-arith`; for wider outputs the word is truncated to the
/// low 64 bits.
///
/// # Errors
///
/// Propagates simulator construction and width errors.
pub fn measure_errors<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    measure_errors_with(netlist, delays, clock_ps, stimuli, SimEngine::from_env_or_default())
}

/// [`measure_errors`] with an explicit engine choice.
///
/// `Packed` runs the lane-parallel timed engine
/// ([`PackedTimedSimulator`]): 64 vectors advance through one shared event
/// calendar per batch, with per-lane sample-at-clock and settle state, and
/// contiguous chunks of batches run on the worker pool (`AIX_JOBS`, else
/// every core; inline inside a pool worker). The two paths are
/// byte-identical for any worker count — every per-lane outcome equals
/// the scalar engine's, and floating-point accumulation happens in
/// stimulus order on both. `Scalar` stays sequential: it is the oracle.
///
/// # Errors
///
/// Propagates simulator construction and width errors.
pub fn measure_errors_with<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
    engine: SimEngine,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    match engine {
        SimEngine::Scalar => measure_errors_scalar(netlist, delays, clock_ps, stimuli),
        SimEngine::Packed => measure_errors_packed(netlist, delays, clock_ps, stimuli),
    }
}

fn new_stats() -> (ErrorStats, f64) {
    (
        ErrorStats {
            vectors: 0,
            erroneous: 0,
            wrong_bits: 0,
            mean_abs_error: 0.0,
            max_abs_error: 0,
        },
        0.0f64,
    )
}

fn measure_errors_scalar<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    let mut sim = TimedSimulator::new(netlist, delays)?;
    let (mut stats, mut total_abs_error) = new_stats();
    for vector in stimuli {
        let outcome = sim.step(&vector, clock_ps)?;
        stats.vectors += 1;
        if outcome.timing_error {
            stats.erroneous += 1;
            stats.wrong_bits += outcome
                .sampled
                .iter()
                .zip(&outcome.settled)
                .filter(|(s, g)| s != g)
                .count() as u64;
            let err = golden_word(&outcome.sampled).abs_diff(golden_word(&outcome.settled));
            total_abs_error += err as f64;
            stats.max_abs_error = stats.max_abs_error.max(err);
        }
    }
    if stats.vectors > 0 {
        stats.mean_abs_error = total_abs_error / stats.vectors as f64;
    }
    Ok(stats)
}

/// Whole 64-vector batches a window holds per worker: the stream is read
/// (and held) one window at a time.
const WINDOW_BATCHES: usize = 16;

/// Whole batches per chunk. Workers self-schedule a window's chunks, so a
/// slow chunk, or a core taken by another process, delays the window by at
/// most one chunk.
const CHUNK_BATCHES: usize = 4;

/// A window of fewer batches runs inline on one simulator: a worker thread
/// costs more than it saves on so short a stream.
const INLINE_BATCHES: usize = 8;

/// How [`measure_errors_chunked`] splits its stream, in whole batches.
#[derive(Debug, Clone, Copy)]
struct Chunking {
    workers: usize,
    window_batches: usize,
    chunk_batches: usize,
    inline_batches: usize,
}

impl Chunking {
    /// The pool's worker count (`AIX_JOBS`, else the machine's
    /// parallelism), or one inside a pool worker, where a nested pool call
    /// would run inline anyway.
    fn from_pool() -> Self {
        let workers = if aix_obs::in_pool_worker() {
            1
        } else {
            aix_obs::resolve_jobs(0)
        };
        Self {
            workers,
            window_batches: WINDOW_BATCHES,
            chunk_batches: CHUNK_BATCHES,
            inline_batches: INLINE_BATCHES,
        }
    }
}

/// One simulator of a chunked measurement and the stream position it
/// would continue at without priming.
struct ChunkSim<'nl> {
    sim: PackedTimedSimulator<'nl>,
    next: usize,
}

/// Error tallies of one chunk: its integer counts, plus the numeric error
/// of each erroneous lane in stimulus order so the merge can accumulate
/// the floating-point total in the scalar engine's order.
#[derive(Debug, Default)]
struct ChunkTally {
    vectors: u64,
    erroneous: u64,
    wrong_bits: u64,
    max_abs_error: u64,
    abs_errors: Vec<u64>,
}

impl ChunkTally {
    /// Adds this chunk, the next in stimulus order, to the running
    /// statistics. Each error is added on its own: summing a chunk first
    /// would round differently once the total passes 2⁵³.
    fn merge_into(self, stats: &mut ErrorStats, total_abs_error: &mut f64) {
        stats.vectors += self.vectors;
        stats.erroneous += self.erroneous;
        stats.wrong_bits += self.wrong_bits;
        stats.max_abs_error = stats.max_abs_error.max(self.max_abs_error);
        for err in self.abs_errors {
            *total_abs_error += err as f64;
        }
    }
}

fn measure_errors_packed<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    measure_errors_chunked(netlist, delays, clock_ps, stimuli, Chunking::from_pool())
}

/// The packed engine over contiguous chunks of the stream on the worker
/// pool. The stream is read one window of `workers × window_batches`
/// batches at a time and each window splits into chunks of
/// `chunk_batches` whole batches; a window of fewer than `inline_batches`
/// batches is one chunk. A chunk runs on any idle simulator,
/// primed from the vector just before the chunk
/// ([`PackedTimedSimulator::prime_stream`]), so every lane sees exactly
/// the previous state one continuous run gives it. Tallies merge in
/// stimulus order, which keeps `mean_abs_error` bit-identical to the
/// scalar engine for any chunking.
fn measure_errors_chunked<I>(
    netlist: &Netlist,
    delays: &NetDelays,
    clock_ps: f64,
    stimuli: I,
    chunking: Chunking,
) -> Result<ErrorStats, NetlistError>
where
    I: IntoIterator<Item = Vec<bool>>,
{
    let _span = aix_obs::span!(
        aix_obs::names::sim::SPAN_TIMED_PACKED,
        consumer = "measure_errors",
        nets = netlist.net_count()
    );
    let tables = Arc::new(TimedTables::new(netlist, delays)?);
    let window_len = chunking.workers * chunking.window_batches * LANES;
    let mut stimuli = stimuli.into_iter();
    let mut window: Vec<Vec<bool>> = Vec::new();
    // The vector just before the window, and the window's stream position.
    let mut previous: Option<Vec<bool>> = None;
    let mut position = 0usize;
    let mut sims: Vec<ChunkSim> = Vec::new();
    let (mut stats, mut total_abs_error) = new_stats();
    loop {
        window.extend(stimuli.by_ref().take(window_len));
        if window.is_empty() {
            break;
        }
        let chunk_len = if window.len() < chunking.inline_batches * LANES {
            window.len()
        } else {
            chunking.chunk_batches * LANES
        };
        let ranges: Vec<std::ops::Range<usize>> = (0..window.len())
            .step_by(chunk_len)
            .map(|start| start..(start + chunk_len).min(window.len()))
            .collect();
        let workers = chunking.workers.min(ranges.len());
        while sims.len() < workers {
            sims.push(ChunkSim {
                sim: PackedTimedSimulator::with_tables(netlist, Arc::clone(&tables))?,
                next: 0,
            });
        }
        // At most `workers` chunks run at once, so an idle simulator is
        // always at hand.
        let idle = Mutex::new(std::mem::take(&mut sims));
        let tallies = aix_obs::parallel_map(workers, ranges, |range| {
            let mut chunk = lock(&idle).pop().expect("one simulator per worker");
            let prior = match range.start {
                0 => previous.as_deref(),
                start => Some(window[start - 1].as_slice()),
            };
            let tally = run_chunk(
                &mut chunk,
                prior,
                position + range.start,
                &window[range],
                clock_ps,
            );
            lock(&idle).push(chunk);
            tally
        });
        sims = idle
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for tally in tallies {
            tally?.merge_into(&mut stats, &mut total_abs_error);
        }
        position += window.len();
        previous = window.pop();
        window.clear();
    }
    // One report of the call's total: with several simulators, none's
    // running count is the call's.
    aix_obs::count!(
        aix_obs::names::sim::TIMED_EVENT_GROUPS,
        groups = sims.iter().map(|c| c.sim.groups_applied()).sum::<u64>(),
        vectors = stats.vectors
    );
    if stats.vectors > 0 {
        stats.mean_abs_error = total_abs_error / stats.vectors as f64;
    }
    Ok(stats)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Simulates `vectors`, the stream from position `start`, on `chunk`.
/// Unless the simulator already stands at `start`, it is primed from
/// `prior` (the vector before `start`), or reset when `start` opens the
/// stream: a simulator that already ran a later chunk must take the
/// untimed first step afresh.
fn run_chunk(
    chunk: &mut ChunkSim,
    prior: Option<&[bool]>,
    start: usize,
    vectors: &[Vec<bool>],
    clock_ps: f64,
) -> Result<ChunkTally, NetlistError> {
    if chunk.next != start {
        match prior {
            Some(prior) => chunk.sim.prime_stream(prior)?,
            None => chunk.sim.reset(),
        }
    }
    chunk.next = start + vectors.len();
    let mut tally = ChunkTally::default();
    for batch in vectors.chunks(LANES) {
        // The packed timed engine advances all lanes through one shared
        // event calendar; sampled and settled words come out together.
        let outcome = chunk.sim.step_stream_batch(batch, clock_ps)?;
        let sampled_words = outcome.sampled_words();
        let settled_words = outcome.settled_words();
        let erroneous_lanes = outcome.error_lanes();
        for (&sampled, &settled) in sampled_words.iter().zip(settled_words) {
            let diff = (sampled ^ settled) & crate::lane_mask(batch.len());
            tally.wrong_bits += u64::from(diff.count_ones());
        }
        tally.vectors += batch.len() as u64;
        tally.erroneous += u64::from(erroneous_lanes.count_ones());
        let mut remaining = erroneous_lanes;
        while remaining != 0 {
            let lane = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let err = golden_lane_word(sampled_words, lane)
                .abs_diff(golden_lane_word(settled_words, lane));
            tally.abs_errors.push(err);
            tally.max_abs_error = tally.max_abs_error.max(err);
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NormalOperands, OperandSource, UniformOperands};
    use aix_aging::{AgingModel, AgingScenario, Lifetime};
    use aix_arith::{build_adder, build_multiplier, AdderKind, ComponentSpec, MultiplierKind};
    use aix_cells::Library;
    use aix_sta::analyze;

    fn setup(width: usize) -> (Netlist, f64) {
        // Kogge-Stone: a balanced tree whose paths sit near the critical
        // path, so aging-induced violations are actually exercised.
        let lib = Arc::new(Library::nangate45_like());
        let nl = build_adder(&lib, AdderKind::KoggeStone, ComponentSpec::full(width)).unwrap();
        let clock = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        (nl, clock)
    }

    #[test]
    fn fresh_circuit_at_fresh_clock_is_error_free() {
        let (nl, clock) = setup(12);
        // 1 ps of margin over the STA critical path absorbs both the
        // edge-exclusive sampling rule and per-arc tick rounding.
        let stats = measure_errors(
            &nl,
            &NetDelays::fresh(&nl),
            clock + 1.0,
            NormalOperands::new(12, 1).vectors(300),
        )
        .unwrap();
        assert_eq!(stats.erroneous, 0);
        assert_eq!(stats.error_rate(), 0.0);
        assert_eq!(stats.vectors, 300);
    }

    #[test]
    fn aged_circuit_at_fresh_clock_errs_and_grows_with_lifetime() {
        let (nl, clock) = setup(32);
        let model = AgingModel::calibrated();
        let rate = |years: f64| {
            let delays = NetDelays::aged(
                &nl,
                &model,
                AgingScenario::worst_case(Lifetime::from_years(years)),
            );
            measure_errors(
                &nl,
                &delays,
                clock,
                NormalOperands::new(32, 2).vectors(2000),
            )
            .unwrap()
            .error_rate()
        };
        let y1 = rate(1.0);
        let y10 = rate(10.0);
        assert!(y10 > 0.0, "10-year worst-case aging must produce errors");
        assert!(y10 >= y1, "errors must not shrink with lifetime: {y1} vs {y10}");
    }

    #[test]
    fn balanced_stress_errs_no_more_than_worst() {
        let (nl, clock) = setup(16);
        let model = AgingModel::calibrated();
        let rate = |scenario| {
            let delays = NetDelays::aged(&nl, &model, scenario);
            measure_errors(
                &nl,
                &delays,
                clock,
                NormalOperands::new(16, 3).vectors(400),
            )
            .unwrap()
            .error_rate()
        };
        let balanced = rate(AgingScenario::balanced(Lifetime::YEARS_10));
        let worst = rate(AgingScenario::worst_case(Lifetime::YEARS_10));
        assert!(balanced <= worst, "balanced {balanced} vs worst {worst}");
    }

    #[test]
    fn error_magnitude_tracked() {
        let (nl, clock) = setup(16);
        let model = AgingModel::calibrated();
        let delays = NetDelays::aged(
            &nl,
            &model,
            AgingScenario::worst_case(Lifetime::YEARS_10),
        );
        let stats = measure_errors(
            &nl,
            &delays,
            clock,
            NormalOperands::new(16, 4).vectors(400),
        )
        .unwrap();
        if stats.erroneous > 0 {
            assert!(stats.wrong_bits >= stats.erroneous);
            assert!(stats.max_abs_error > 0);
            assert!(stats.mean_abs_error > 0.0);
        }
    }

    fn production(workers: usize) -> Chunking {
        Chunking {
            workers,
            window_batches: WINDOW_BATCHES,
            chunk_batches: CHUNK_BATCHES,
            inline_batches: INLINE_BATCHES,
        }
    }

    /// Windows of two batches per worker and one-batch chunks: many chunk
    /// and window boundaries at small vector counts.
    fn fine(workers: usize) -> Chunking {
        Chunking {
            workers,
            window_batches: 2,
            chunk_batches: 1,
            inline_batches: 2,
        }
    }

    #[test]
    fn chunked_runs_match_the_scalar_oracle_and_one_worker() {
        let lib = Arc::new(Library::nangate45_like());
        let spec = ComponentSpec::full(8);
        let netlists = [
            build_adder(&lib, AdderKind::RippleCarry, spec).unwrap(),
            build_adder(&lib, AdderKind::KoggeStone, spec).unwrap(),
            build_multiplier(&lib, MultiplierKind::Array, spec).unwrap(),
            build_multiplier(&lib, MultiplierKind::Wallace, spec).unwrap(),
        ];
        // Two full production windows of three workers, plus or minus one.
        let multi_window = 2 * 3 * WINDOW_BATCHES * LANES;
        let counts = [
            0,
            1,
            63,
            64,
            65,
            511,
            512,
            513,
            multi_window - 1,
            multi_window + 1,
        ];
        let model = AgingModel::calibrated();
        for nl in &netlists {
            let clock = analyze(nl, &NetDelays::fresh(nl)).unwrap().max_delay_ps();
            let fresh = NetDelays::fresh(nl);
            let aged = NetDelays::aged(nl, &model, AgingScenario::worst_case(Lifetime::YEARS_10));
            // Errors must occur, or the comparison of error magnitudes
            // proves nothing.
            let mut aged_errors = 0;
            for (is_aged, delays) in [(false, &fresh), (true, &aged)] {
                for count in counts {
                    let stimuli =
                        || UniformOperands::new(nl.inputs().len() / 2, count as u64).vectors(count);
                    let scalar = measure_errors_scalar(nl, delays, clock, stimuli()).unwrap();
                    let one = measure_errors_chunked(nl, delays, clock, stimuli(), production(1))
                        .unwrap();
                    for chunking in [1, 2, 3].into_iter().flat_map(|w| [production(w), fine(w)]) {
                        let chunked =
                            measure_errors_chunked(nl, delays, clock, stimuli(), chunking).unwrap();
                        for (reference, name) in [(&scalar, "scalar"), (&one, "one worker")] {
                            assert_eq!(
                                &chunked, reference,
                                "{count} vectors, {chunking:?} vs {name}"
                            );
                            assert_eq!(
                                chunked.mean_abs_error.to_bits(),
                                reference.mean_abs_error.to_bits(),
                                "{count} vectors, {chunking:?} vs {name}"
                            );
                        }
                    }
                    assert_eq!(scalar.vectors, count as u64);
                    if is_aged {
                        aged_errors += scalar.erroneous;
                    }
                }
            }
            assert!(aged_errors > 0, "{} gates: no aged errors", nl.gate_count());
        }
    }

    /// 64-bit output words whose high bits latch late: the error total
    /// passes f64's exact-integer range.
    #[test]
    fn chunked_runs_match_the_scalar_oracle_on_64_bit_outputs() {
        let lib = Arc::new(Library::nangate45_like());
        let nl =
            build_multiplier(&lib, MultiplierKind::WallacePrefix, ComponentSpec::full(32)).unwrap();
        let clock = analyze(&nl, &NetDelays::fresh(&nl)).unwrap().max_delay_ps();
        let aged = NetDelays::aged(
            &nl,
            &AgingModel::calibrated(),
            AgingScenario::worst_case(Lifetime::YEARS_10),
        );
        let stimuli = || NormalOperands::new(32, 9).vectors(1100);
        let scalar = measure_errors_scalar(&nl, &aged, clock, stimuli()).unwrap();
        assert!(
            scalar.mean_abs_error * scalar.vectors as f64 > 2f64.powi(53),
            "the total must exceed f64's exact-integer range: {scalar:?}"
        );
        for chunking in [fine(3), production(2), production(3)] {
            let chunked = measure_errors_chunked(&nl, &aged, clock, stimuli(), chunking).unwrap();
            assert_eq!(chunked, scalar, "{chunking:?}");
            assert_eq!(
                chunked.mean_abs_error.to_bits(),
                scalar.mean_abs_error.to_bits(),
                "{chunking:?}"
            );
        }
    }

    #[test]
    fn tallies_merge_each_error_in_stimulus_order() {
        // 2⁵³ + 1 rounds back to 2⁵³, so adding 1 twice leaves 2⁵³, while
        // adding the second chunk's sum 2 at once gives 2⁵³ + 2.
        let big = 1u64 << 53;
        let tally = |abs_errors: Vec<u64>| ChunkTally {
            vectors: abs_errors.len() as u64,
            erroneous: abs_errors.len() as u64,
            wrong_bits: abs_errors.len() as u64,
            max_abs_error: abs_errors.iter().copied().max().unwrap_or(0),
            abs_errors,
        };
        let (mut stats, mut total) = new_stats();
        tally(vec![big]).merge_into(&mut stats, &mut total);
        tally(vec![1, 1]).merge_into(&mut stats, &mut total);
        assert_eq!(total.to_bits(), (big as f64).to_bits());
        assert_eq!(
            (stats.vectors, stats.erroneous, stats.max_abs_error),
            (3, 3, big)
        );
    }

    /// A worker can finish a later chunk before the calling thread picks
    /// a simulator for the stream's first chunk, so the first chunk may
    /// land on a used simulator; it must still start afresh.
    #[test]
    fn the_first_chunk_starts_afresh_on_a_used_simulator() {
        let (nl, clock) = setup(8);
        let delays = NetDelays::aged(
            &nl,
            &AgingModel::calibrated(),
            AgingScenario::worst_case(Lifetime::YEARS_10),
        );
        let vectors: Vec<Vec<bool>> = UniformOperands::new(8, 512).vectors(512).collect();
        let tables = Arc::new(TimedTables::new(&nl, &delays).unwrap());
        let chunk_sim = || ChunkSim {
            sim: PackedTimedSimulator::with_tables(&nl, Arc::clone(&tables)).unwrap(),
            next: 0,
        };
        let fresh = run_chunk(&mut chunk_sim(), None, 0, &vectors[..256], clock).unwrap();
        let mut used = chunk_sim();
        run_chunk(&mut used, Some(&vectors[255]), 256, &vectors[256..], clock).unwrap();
        let again = run_chunk(&mut used, None, 0, &vectors[..256], clock).unwrap();
        assert_eq!(
            (again.erroneous, again.wrong_bits, &again.abs_errors),
            (fresh.erroneous, fresh.wrong_bits, &fresh.abs_errors)
        );
        let scalar =
            measure_errors_scalar(&nl, &delays, clock, vectors[..256].iter().cloned()).unwrap();
        assert_eq!(fresh.erroneous, scalar.erroneous);
    }

    #[test]
    fn chunked_runs_surface_width_errors() {
        let (nl, clock) = setup(8);
        let mut vectors: Vec<Vec<bool>> = NormalOperands::new(8, 5).vectors(700).collect();
        vectors[600].pop();
        let result = measure_errors_chunked(&nl, &NetDelays::fresh(&nl), clock, vectors, fine(3));
        assert!(matches!(
            result,
            Err(NetlistError::InputWidthMismatch { .. })
        ));
    }
}
