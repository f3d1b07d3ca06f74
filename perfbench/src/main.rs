//! Benchmark of the aging-induced approximation pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <library|fig1|fig2|verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its fixtures, then repeats its measured pass until
//! the passes have taken `--seconds`, timing the set-up again between
//! passes; both report medians. Outputs are checked after the timed phase. With
//! `--trace 1` it additionally runs one traced pass that records a span
//! around every public layer call and prints the per-layer metrics instead
//! of the end-to-end ones. The last line of standard output is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod fig1;
mod fig2;
mod library;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Every per-layer metric the traced run prints, with its unit. A workload
/// that does not reach a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("synth.calls", "count"),
    ("synth.busy_s", "s"),
    ("synth.gates", "count"),
    ("engine.plan_ms", "ms"),
    ("engine.synth_ms", "ms"),
    ("engine.sta_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("engine.synth_executed", "count"),
    ("engine.sta_executed", "count"),
    ("engine.cache_misses", "count"),
    ("aging.calls", "count"),
    ("aging.busy_s", "s"),
    ("sta.passes", "count"),
    ("sta.busy_s", "s"),
    ("sim.value.vectors", "count"),
    ("sim.value.busy_s", "s"),
    ("sim.timed.vectors", "count"),
    ("sim.timed.busy_s", "s"),
    ("sim.timed.kvec_per_s", "kvec/s"),
    ("sim.timed.error_vectors", "count"),
    ("sim.timed.event_groups", "count"),
    ("dct.mac_ops", "count"),
    ("dct.timing_errors", "count"),
    ("dct.busy_s", "s"),
    ("dct.kmac_per_s", "kmac/s"),
    ("verify.entries", "count"),
    ("verify.samples", "count"),
    ("verify.violating", "count"),
    ("verify.cross_check_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The run parameters every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work_dir: PathBuf,
}

/// Operation accounting: every measured call and every output check is an
/// operation; an error or a failed check fails it.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ops {
    /// Records one operation that succeeded when `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records `count` operations, all failed or all succeeded.
    pub fn check_many(&mut self, count: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += count;
        if !ok {
            self.failed += count;
            self.problems.push(what());
        }
    }
}

/// The result of one workload run.
pub struct Outcome {
    /// Seconds of each timed set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each untraced measured pass.
    pub pass_s: Vec<f64>,
    /// Peak resident memory of each untraced measured pass, in MiB.
    pub pass_rss_mb: Vec<f64>,
    pub ops: Ops,
    /// Simulated statistics, printed beside the timings.
    pub stats: Vec<String>,
    /// Per-layer metrics of the traced pass (`--trace 1` only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Shortest batch one set-up timing covers: set-ups cheaper than this are
/// repeated inside the batch and timed as the batch mean, so a set-up of a
/// few microseconds still reads steadily.
const MIN_SETUP_BATCH_S: f64 = 0.1;

/// Share of the measured passes' time that repeated set-ups may take.
const SETUP_SHARE: f64 = 0.5;

/// The fixture and timings of one workload's measured phase.
pub struct Measured<F, T> {
    pub fixture: F,
    /// Seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each measured pass.
    pub pass_s: Vec<f64>,
    /// Peak resident memory of the process during each measured pass, in
    /// MiB.
    pub pass_rss_mb: Vec<f64>,
    /// Each pass's result.
    pub results: Vec<T>,
}

/// Times one set-up batch, returning the last fixture, the seconds per
/// set-up and the batch's seconds.
fn timed_setup<F>(
    setup: &mut impl FnMut() -> Result<F, String>,
) -> Result<(F, f64, f64), String> {
    let start = Instant::now();
    let mut count = 0u32;
    loop {
        let fixture = std::hint::black_box(setup()?);
        count += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_SETUP_BATCH_S {
            return Ok((fixture, elapsed / f64::from(count), elapsed));
        }
    }
}

/// Builds the fixture with `setup`, then repeats `pass` on it until the
/// passes have taken `seconds` and at least `min_passes` ran.
///
/// After a pass the set-up is timed once more (its fixture dropped) while
/// set-ups have taken less than [`SETUP_SHARE`] of the passes' time. The
/// set-up timings thus sample the same stretch of host time as the passes,
/// and a slow swing of the host moves both medians alike instead of hitting
/// a short set-up phase alone.
pub fn measure_phase<F, T>(
    seconds: f64,
    min_passes: usize,
    mut setup: impl FnMut() -> Result<F, String>,
    mut pass: impl FnMut(&F, usize) -> T,
) -> Result<Measured<F, T>, String> {
    let (fixture, first_s, mut setup_total) = timed_setup(&mut setup)?;
    let mut setup_s = vec![first_s];
    let mut pass_s = Vec::new();
    let mut pass_rss_mb = Vec::new();
    let mut results = Vec::new();
    let mut pass_total = 0.0;
    while pass_s.len() < min_passes || pass_total < seconds {
        reset_peak_rss()?;
        let start = Instant::now();
        let result = std::hint::black_box(pass(&fixture, pass_s.len()));
        let elapsed = start.elapsed().as_secs_f64();
        pass_rss_mb.push(peak_rss_mb()?);
        pass_total += elapsed;
        pass_s.push(elapsed);
        results.push(result);
        if setup_total < SETUP_SHARE * pass_total {
            let (extra, each, batch) = timed_setup(&mut setup)?;
            drop(extra);
            setup_s.push(each);
            setup_total += batch;
        }
    }
    Ok(Measured {
        fixture,
        setup_s,
        pass_s,
        pass_rss_mb,
        results,
    })
}

/// The `index`-th seed derived from the run's `seed`.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index as u64)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Resets this process's peak resident set size to its current size, so
/// that [`peak_rss_mb`] then reads the peak of what runs after the reset.
///
/// A per-pass peak keeps a pass whose memory depends on its inputs from
/// setting the figure for the whole run.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_owned())
}

fn run(args: &Args, work_dir: &Path) -> Result<Outcome, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.to_owned(),
    };
    let outcome = match args.workload.as_str() {
        "library" => library::run(&ctx)?,
        "fig1" => fig1::run(&ctx)?,
        "fig2" => fig2::run(&ctx)?,
        "verify" => verify::run(&ctx)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (library|fig1|fig2|verify)"
            ))
        }
    };
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))
        .and_then(|()| run(&args, &work_dir));
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = match result {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&args, &outcome);
    ExitCode::SUCCESS
}

fn print_report(args: &Args, outcome: &Outcome) {
    let ops = &outcome.ops;
    let setup_s = median(&outcome.setup_s);
    let run_s = median(&outcome.pass_s);
    let rss_mb = median(&outcome.pass_rss_mb);
    let success_ratio = (ops.attempted - ops.failed) as f64 / ops.attempted as f64;
    let range = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("min {min:.4}, max {max:.4}")
    };
    println!(
        "perfbench {} · seed {} · {} s measured · tracing {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    println!(
        "  setup_s        {setup_s:.6} s   (median of {} set-ups; {})",
        outcome.setup_s.len(),
        range(&outcome.setup_s)
    );
    println!(
        "  run_s          {run_s:.4} s   (median of {} measured passes; {})",
        outcome.pass_s.len(),
        range(&outcome.pass_s)
    );
    println!(
        "  peak_rss_mb    {rss_mb:.2} MiB   (median over the measured passes; {})",
        range(&outcome.pass_rss_mb)
    );
    println!(
        "  fail_ratio     {} ({} failed of {} operations); success_ratio {success_ratio}",
        ops.failed as f64 / ops.attempted as f64,
        ops.failed,
        ops.attempted
    );
    for problem in &ops.problems {
        println!("  FAILED: {problem}");
    }
    println!(
        "simulated statistics (host-independent; this substrate is not validated against silicon):"
    );
    for line in &outcome.stats {
        println!("  {line}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        println!("per-layer metrics of the traced pass:");
        for &(name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<26} {value:.6} {unit}");
            metrics.push((name.to_owned(), value, unit));
        }
    } else {
        metrics.push(("setup_s".to_owned(), setup_s, "s"));
        metrics.push(("run_s".to_owned(), run_s, "s"));
        metrics.push(("peak_rss_mb".to_owned(), rss_mb, "MiB"));
        metrics.push(("success_ratio".to_owned(), success_ratio, "ratio"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// The traced run prints exactly the per-layer metrics `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec
            .split("\"per_layer\"")
            .nth(1)
            .expect("BENCHMARK.json has a per_layer list");
        let entries: Vec<&str> = declared.split("{\"name\": ").skip(1).collect();
        assert_eq!(entries.len(), PER_LAYER.len());
        for (entry, (name, unit)) in entries.iter().zip(PER_LAYER) {
            assert!(
                entry.starts_with(&format!("\"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) vs {entry}"
            );
        }
    }
}
