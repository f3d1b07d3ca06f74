//! The benchmark's own tracer: spans timed around each public layer call,
//! plus named counters.
//!
//! Each layer accumulates its call count and busy time, the sum of its
//! spans' durations; spans of one layer never nest inside each other, so
//! that sum is the layer's self time. Work that runs on two threads (the
//! library replay) is summed per thread, so busy time can exceed wall time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer (calls, busy seconds) and counter recorder for one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    layers: Mutex<BTreeMap<&'static str, (f64, f64)>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `work` inside a span of `layer`.
    pub fn span<R>(&self, layer: &'static str, work: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = work();
        let seconds = start.elapsed().as_secs_f64();
        let mut layers = self.layers.lock().expect("no layer holder panics");
        let (calls, busy) = layers.entry(layer).or_insert((0.0, 0.0));
        *calls += 1.0;
        *busy += seconds;
        result
    }

    /// Adds `value` to counter `name`.
    pub fn add(&self, name: &str, value: f64) {
        *self
            .counters
            .lock()
            .expect("no counter holder panics")
            .entry(name.to_owned())
            .or_insert(0.0) += value;
    }

    fn layer(&self, layer: &str) -> (f64, f64) {
        self.layers
            .lock()
            .expect("no layer holder panics")
            .get(layer)
            .copied()
            .unwrap_or((0.0, 0.0))
    }

    /// Total seconds spent in spans of `layer`.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.layer(layer).1
    }

    /// Number of spans of `layer`.
    pub fn calls(&self, layer: &str) -> f64 {
        self.layer(layer).0
    }

    /// The value of counter `name` (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("no counter holder panics")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Runs `work` with an in-memory `aix-obs` recorder installed and returns
/// its result plus the number of event groups the packed timed engine
/// applied.
///
/// The engine reports `timed_event_groups` once per step with a running
/// total per simulator instance; each call measured here builds exactly one
/// packed simulator, so the call's total is the largest value reported.
pub fn with_event_groups<R>(work: impl FnOnce() -> R) -> (R, u64) {
    aix_obs::install(aix_obs::Recorder::in_memory("perfbench", false));
    let result = work();
    let recorder = aix_obs::uninstall().expect("the recorder installed above");
    let groups = recorder
        .events()
        .iter()
        .filter(|event| event.name == aix_obs::names::sim::TIMED_EVENT_GROUPS)
        .filter_map(|event| event.int_field("groups"))
        .max()
        .map_or(0, |groups| u64::try_from(groups).unwrap_or(0));
    (result, groups)
}

/// Runs `work` inside a span of `layer` when a tracer is given, plainly
/// otherwise.
pub fn traced<R>(tracer: Option<&Tracer>, layer: &'static str, work: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.span(layer, work),
        None => work(),
    }
}
