//! Canonical event-name vocabulary for every span, counter and gauge.
//!
//! Producers (the engine, the simulators, the serve daemon) and consumers
//! (trace summaries, tests, dashboards) must agree on event names
//! byte-for-byte or the trace silently fragments; naming them once here
//! makes the compiler enforce the agreement. Every `span!`/`count!`/
//! `gauge!` call site names its event through a constant of this module
//! (a workspace test rejects string literals there).

/// Characterization-engine events (`aix-core::engine` and its job guard):
/// one span per campaign and per stage, one per synthesis/STA job, and
/// counters for cache, journal, retry and timeout outcomes.
pub mod engine {
    /// Span over one whole `characterize_all` campaign.
    pub const SPAN_CAMPAIGN: &str = "campaign";
    /// Span over planning: fingerprinting jobs and probing cache/journal.
    pub const SPAN_PLAN: &str = "plan";
    /// Span over the synthesis stage (all synthesis jobs).
    pub const SPAN_SYNTH_STAGE: &str = "synth_stage";
    /// Span over one synthesis job.
    pub const SPAN_SYNTH: &str = "synth";
    /// Span over the STA stage (all aged-timing jobs).
    pub const SPAN_STA_STAGE: &str = "sta_stage";
    /// Span over one STA job.
    pub const SPAN_STA: &str = "sta";
    /// Span over merging job results into the approximation library.
    pub const SPAN_MERGE: &str = "merge";
    /// Counter: a job's result was served from the on-disk cache.
    pub const CACHE_HIT: &str = "cache_hit";
    /// Counter: a job missed the cache and will be executed.
    pub const CACHE_MISS: &str = "cache_miss";
    /// Counter: a job's result was recovered from the resumed journal.
    pub const JOURNAL_HIT: &str = "journal_hit";
    /// Gauge: synthesis jobs planned for the campaign.
    pub const SYNTH_PLANNED: &str = "synth_planned";
    /// Counter: the job guard retried a job after a transient failure.
    pub const JOB_RETRY: &str = "job_retry";
    /// Counter: a job exhausted its attempts on the wall-clock watchdog.
    pub const JOB_TIMEOUT: &str = "job_timeout";
}

/// Savings-comparison events (`aix-core::savings`).
pub mod savings {
    /// Span over measuring one design's area, power and energy.
    pub const SPAN_DESIGN_METRICS: &str = "design_metrics";
    /// Span over the approximated-vs-aging-aware comparison.
    pub const SPAN_COMPARE: &str = "savings_compare";
}

/// Synthesis events (`aix-synth`).
pub mod synth {
    /// Span over one `Synthesizer` run.
    pub const SPAN_SYNTHESIZE: &str = "synthesize";
    /// Span over one aging-aware (guardbanded) synthesis baseline.
    pub const SPAN_AGING_AWARE: &str = "aging_aware";
}

/// Guarantee-verification events (`aix-verify::campaign`).
pub mod verify {
    /// Span over one whole verification campaign.
    pub const SPAN_CAMPAIGN: &str = "verify_campaign";
    /// Span over verifying one library entry.
    pub const SPAN_ENTRY: &str = "verify_entry";
    /// Counter: an entry's guarantee held.
    pub const PASS: &str = "verify_pass";
    /// Counter: an entry's guarantee was violated.
    pub const FAIL: &str = "verify_fail";
    /// Counter: entries skipped because the campaign was cancelled.
    pub const CANCELLED: &str = "verify_cancelled";
}

/// Simulation-engine events: spans over packed (lane-parallel) value and
/// timed runs, activity collection, and counters sized in lane words or
/// event groups.
pub mod sim {
    /// Span over one packed *value-mode* (zero-delay) run; its `consumer`
    /// field names the caller (activity collection, fault simulation).
    pub const SPAN_PACKED: &str = "sim_packed";
    /// Counter: 64-lane words evaluated by the packed value engine.
    pub const PACKED_WORDS: &str = "packed_words";
    /// Span over zero-delay switching-activity collection.
    pub const SPAN_ACTIVITY_COLLECT: &str = "activity_collect";
    /// Span over glitch-aware (timed) switching-activity collection.
    pub const SPAN_ACTIVITY_TIMED: &str = "activity_timed";
    /// Span over one packed *timed* (event-driven) measurement — the
    /// lane-parallel twin of a scalar `TimedSimulator` sweep.
    pub const SPAN_TIMED_PACKED: &str = "sim_timed_packed";
    /// Counter: event groups applied by the packed timed engine (one group
    /// covers up to 64 lanes of the same net at the same tick).
    pub const TIMED_EVENT_GROUPS: &str = "timed_event_groups";
}

/// `aix serve` daemon events: one request span per accepted request, plus
/// lifecycle counters matched by `aix serve status` statistics.
pub mod serve {
    /// Span over one request's full handling, from dequeue to response.
    pub const SPAN_REQUEST: &str = "serve_request";
    /// Span over replaying one journaled request at daemon startup.
    pub const SPAN_REPLAY: &str = "serve_replay";
    /// Counter: a request was accepted into the queue.
    pub const ACCEPTED: &str = "serve_accepted";
    /// Counter: a request was shed with an `overloaded` response because
    /// the bounded queue was full.
    pub const SHED: &str = "serve_shed";
    /// Counter: a request joined an identical in-flight execution instead
    /// of enqueueing its own.
    pub const COALESCED: &str = "serve_coalesce_hit";
    /// Counter: a request hit its deadline before or during execution.
    pub const DEADLINE: &str = "serve_deadline_exceeded";
    /// Counter: a request ran to completion (any terminal status).
    pub const COMPLETED: &str = "serve_completed";
    /// Counter: the daemon began a graceful drain.
    pub const DRAIN: &str = "serve_drain";
    /// Gauge: current depth of the bounded request queue.
    pub const QUEUE_DEPTH: &str = "serve_queue_depth";
    /// Gauge: current depth of the interactive (priority) tier.
    pub const QUEUE_DEPTH_INTERACTIVE: &str = "serve_queue_depth_interactive";
    /// Gauge: current depth of the bulk tier.
    pub const QUEUE_DEPTH_BULK: &str = "serve_queue_depth_bulk";
}

/// Design-space explorer events (`aix-explore`): one span per search, one
/// per candidate evaluation, and counters matching the outcome report.
pub mod explore {
    /// Span over one full Pareto search, from seeding to the final front.
    pub const SPAN_SEARCH: &str = "explore_search";
    /// Span over one candidate evaluation (build, optimize, simulate, STA).
    pub const SPAN_CANDIDATE: &str = "explore_candidate";
    /// Counter: a candidate was evaluated (freshly scored, not from cache).
    pub const EVALUATED: &str = "explore_evaluated";
    /// Counter: a candidate's score was served from the on-disk cache.
    pub const CACHE_HIT: &str = "explore_cache_hit";
    /// Counter: a candidate evaluation panicked or failed and was
    /// quarantined; the search continued without it.
    pub const QUARANTINED: &str = "explore_quarantined";
    /// Counter: a candidate was skipped because the search was cancelled.
    pub const SKIPPED: &str = "explore_skipped";
    /// Gauge: size of the Pareto front after each generation.
    pub const FRONT_SIZE: &str = "explore_front_size";
}

/// Netlist import front-end events: one span per imported file plus one
/// per stage (parse, map, validate), and counters sized in structural
/// elements so a trace shows how large each imported design was.
pub mod import {
    /// Span over one whole file import, from bytes to validated netlist.
    pub const SPAN_IMPORT: &str = "import_file";
    /// Span over lexing + parsing the source text into the design AST.
    pub const SPAN_PARSE: &str = "import_parse";
    /// Span over mapping the design AST onto library cells and nets.
    pub const SPAN_MAP: &str = "import_map";
    /// Span over structural validation of the mapped netlist.
    pub const SPAN_VALIDATE: &str = "import_validate";
    /// Counter: gates instantiated by the mapper.
    pub const GATES: &str = "import_gates";
    /// Counter: nets created by the mapper.
    pub const NETS: &str = "import_nets";
    /// Counter: a cell name resolved through the alias table rather than
    /// an exact library-name match.
    pub const ALIAS_HIT: &str = "import_alias_hit";
    /// Counter: an import failed with a structured `ImportError`.
    pub const FAILED: &str = "import_failed";
}
