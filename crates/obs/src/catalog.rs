//! The metric catalog: every counter, gauge and histogram the workspace
//! records, as fixed enums.
//!
//! A fixed catalog (instead of string-keyed maps) is what keeps the hot
//! path cheap — a counter bump is one indexed atomic add, no hashing, no
//! allocation — and what makes the set of observables documentable: the
//! table in `BENCH_NOTES.md` is generated from these `name`/`unit`/
//! `subsystem` projections, and a unit test pins their uniqueness.

/// A monotonic counter. Names are `subsystem.metric`, dot-separated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Engines compiled (fault-table lowering passes).
    EngineCompiles,
    /// Micro-op programs lowered (lazy IR compilation passes).
    IrLowerings,
    /// Nanoseconds spent compiling engines and concatenated programs.
    CompileNanos,
    /// Nanoseconds spent lowering micro-op programs.
    LowerNanos,
    /// Monte-Carlo estimation calls entered.
    EstimateCalls,
    /// Nanoseconds spent inside estimation calls.
    EstimateNanos,
    /// 64-lane words executed by the word loops.
    ExecutedWords,
    /// Trials (lanes) executed inside the budget.
    ExecutedTrials,
    /// Lanes judged as logical failures.
    LaneFailures,
    /// Lanes that experienced at least one fault.
    FaultedLanes,
    /// Individual `(op, lane)` fault injections.
    FaultEvents,
    /// Fused-segment executions that stayed on the affine fast path
    /// (clean or exact-propagation patch).
    FusedSegments,
    /// Fused-segment executions that fell back to native replay.
    ReplayedSegments,
    /// Words executed under a conditional (stratified) mask schedule.
    MaskedWords,
    /// Plain-estimator runs.
    PlainRuns,
    /// Stratified-estimator runs.
    StratifiedRuns,
    /// Stratified Neyman-reallocation rounds executed.
    StratifiedRounds,
    /// Words allocated across strata by the round planner.
    AllocatedWords,
    /// Runs that stopped early at their target relative error.
    EarlyStops,
    /// Compile-cache lookups that found an artifact.
    CacheHits,
    /// Compile-cache lookups that had to compile.
    CacheMisses,
    /// Compile-cache entries evicted by the cost-based LRU policy.
    CacheEvictions,
    /// HTTP requests the serve daemon accepted a connection for.
    ServeRequests,
    /// Requests the daemon refused (draining, over capacity, malformed).
    ServeRejected,
    /// Streamed jobs whose client disconnected before the final interval
    /// (the job was cancelled and its budget freed).
    ServeEarlyDisconnects,
    /// Requests shed by admission control (accept queue or job cap full);
    /// each was answered `503` with `Retry-After`.
    ServeShed,
    /// Requests or jobs ended by a timeout: slow-loris/stalled reads
    /// answered `408`, and jobs cancelled at their wall-clock deadline.
    ServeTimeouts,
    /// Parity-checked circuits synthesized and wrapped by the detection
    /// subsystem (adder constructions + invariant-checker wraps).
    DetectSyntheses,
    /// Planned single-fault cases evaluated by exhaustive detection-
    /// coverage enumeration.
    DetectCoverageCases,
    /// Monte-Carlo estimation calls over parity-checked circuits.
    DetectEstimates,
    /// Work items executed by the cross-point scheduler.
    SchedItems,
    /// Items a worker pulled beyond its first (work stolen from the
    /// shared queue tail).
    SchedSteals,
    /// Nanoseconds of per-point work under the scheduler.
    PointNanos,
}

impl Metric {
    /// Number of counters in the catalog.
    pub const COUNT: usize = 33;

    /// Every counter, in catalog order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::EngineCompiles,
        Metric::IrLowerings,
        Metric::CompileNanos,
        Metric::LowerNanos,
        Metric::EstimateCalls,
        Metric::EstimateNanos,
        Metric::ExecutedWords,
        Metric::ExecutedTrials,
        Metric::LaneFailures,
        Metric::FaultedLanes,
        Metric::FaultEvents,
        Metric::FusedSegments,
        Metric::ReplayedSegments,
        Metric::MaskedWords,
        Metric::PlainRuns,
        Metric::StratifiedRuns,
        Metric::StratifiedRounds,
        Metric::AllocatedWords,
        Metric::EarlyStops,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::CacheEvictions,
        Metric::ServeRequests,
        Metric::ServeRejected,
        Metric::ServeEarlyDisconnects,
        Metric::ServeShed,
        Metric::ServeTimeouts,
        Metric::DetectSyntheses,
        Metric::DetectCoverageCases,
        Metric::DetectEstimates,
        Metric::SchedItems,
        Metric::SchedSteals,
        Metric::PointNanos,
    ];

    /// Stable dotted name (`subsystem.metric`).
    pub const fn name(self) -> &'static str {
        match self {
            Metric::EngineCompiles => "engine.compiles",
            Metric::IrLowerings => "engine.ir_lowerings",
            Metric::CompileNanos => "engine.compile_ns",
            Metric::LowerNanos => "engine.lower_ns",
            Metric::EstimateCalls => "engine.estimates",
            Metric::EstimateNanos => "engine.estimate_ns",
            Metric::ExecutedWords => "engine.executed_words",
            Metric::ExecutedTrials => "engine.executed_trials",
            Metric::LaneFailures => "engine.lane_failures",
            Metric::FaultedLanes => "engine.faulted_lanes",
            Metric::FaultEvents => "engine.fault_events",
            Metric::FusedSegments => "engine.fused_segments",
            Metric::ReplayedSegments => "engine.replayed_segments",
            Metric::MaskedWords => "engine.masked_words",
            Metric::PlainRuns => "estimator.plain_runs",
            Metric::StratifiedRuns => "estimator.stratified_runs",
            Metric::StratifiedRounds => "estimator.rounds",
            Metric::AllocatedWords => "estimator.allocated_words",
            Metric::EarlyStops => "estimator.early_stops",
            Metric::CacheHits => "cache.hits",
            Metric::CacheMisses => "cache.misses",
            Metric::CacheEvictions => "cache.evictions",
            Metric::ServeRequests => "serve.requests",
            Metric::ServeRejected => "serve.rejected",
            Metric::ServeEarlyDisconnects => "serve.early_disconnects",
            Metric::ServeShed => "serve.shed",
            Metric::ServeTimeouts => "serve.timeouts",
            Metric::DetectSyntheses => "detect.syntheses",
            Metric::DetectCoverageCases => "detect.coverage_cases",
            Metric::DetectEstimates => "detect.estimates",
            Metric::SchedItems => "sched.items",
            Metric::SchedSteals => "sched.steals",
            Metric::PointNanos => "sched.point_ns",
        }
    }

    /// Unit of the counted quantity.
    pub const fn unit(self) -> &'static str {
        match self {
            Metric::EngineCompiles => "engines",
            Metric::IrLowerings => "programs",
            Metric::CompileNanos | Metric::LowerNanos | Metric::EstimateNanos => "ns",
            Metric::PointNanos => "ns",
            Metric::EstimateCalls => "calls",
            Metric::ExecutedWords | Metric::MaskedWords | Metric::AllocatedWords => "words",
            Metric::ExecutedTrials | Metric::LaneFailures | Metric::FaultedLanes => "lanes",
            Metric::FaultEvents => "events",
            Metric::FusedSegments | Metric::ReplayedSegments => "segments",
            Metric::PlainRuns | Metric::StratifiedRuns | Metric::EarlyStops => "runs",
            Metric::StratifiedRounds => "rounds",
            Metric::CacheHits => "lookups",
            Metric::CacheMisses => "compiles",
            Metric::CacheEvictions => "entries",
            Metric::ServeRequests | Metric::ServeRejected => "requests",
            Metric::ServeShed | Metric::ServeTimeouts => "requests",
            Metric::ServeEarlyDisconnects => "jobs",
            Metric::DetectSyntheses => "circuits",
            Metric::DetectCoverageCases => "cases",
            Metric::DetectEstimates => "calls",
            Metric::SchedItems | Metric::SchedSteals => "items",
        }
    }

    /// Owning subsystem (the prefix of [`Metric::name`]).
    pub const fn subsystem(self) -> &'static str {
        match self {
            Metric::EngineCompiles
            | Metric::IrLowerings
            | Metric::CompileNanos
            | Metric::LowerNanos
            | Metric::EstimateCalls
            | Metric::EstimateNanos
            | Metric::ExecutedWords
            | Metric::ExecutedTrials
            | Metric::LaneFailures
            | Metric::FaultedLanes
            | Metric::FaultEvents
            | Metric::FusedSegments
            | Metric::ReplayedSegments
            | Metric::MaskedWords => "engine",
            Metric::PlainRuns
            | Metric::StratifiedRuns
            | Metric::StratifiedRounds
            | Metric::AllocatedWords
            | Metric::EarlyStops => "estimator",
            Metric::CacheHits | Metric::CacheMisses | Metric::CacheEvictions => "cache",
            Metric::ServeRequests
            | Metric::ServeRejected
            | Metric::ServeEarlyDisconnects
            | Metric::ServeShed
            | Metric::ServeTimeouts => "serve",
            Metric::DetectSyntheses | Metric::DetectCoverageCases | Metric::DetectEstimates => {
                "detect"
            }
            Metric::SchedItems | Metric::SchedSteals | Metric::PointNanos => "sched",
        }
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Probability mass the stratified estimator resolved analytically
    /// (elided strata) in the most recent stratified run.
    ElidedMass,
    /// Distinct concatenated programs currently cached.
    CachedPrograms,
    /// Distinct compiled engines currently cached.
    CachedEngines,
    /// Approximate bytes held by the compile cache (programs + engines).
    CacheBytes,
    /// Estimation jobs currently running in the serve daemon.
    JobsActive,
    /// Accepted connections waiting in the serve daemon's bounded accept
    /// queue for a free pool worker.
    ServeQueueDepth,
    /// Connections a serve-daemon pool worker is currently handling.
    ServeConnectionsActive,
    /// Age in milliseconds of the oldest job currently streaming
    /// (refreshed on each `/stats` snapshot; 0 when idle).
    ServeOldestJobMs,
}

impl Gauge {
    /// Number of gauges in the catalog.
    pub const COUNT: usize = 8;

    /// Every gauge, in catalog order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::ElidedMass,
        Gauge::CachedPrograms,
        Gauge::CachedEngines,
        Gauge::CacheBytes,
        Gauge::JobsActive,
        Gauge::ServeQueueDepth,
        Gauge::ServeConnectionsActive,
        Gauge::ServeOldestJobMs,
    ];

    /// Stable dotted name.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ElidedMass => "estimator.elided_mass",
            Gauge::CachedPrograms => "cache.programs",
            Gauge::CachedEngines => "cache.engines",
            Gauge::CacheBytes => "cache.bytes",
            Gauge::JobsActive => "serve.jobs_active",
            Gauge::ServeQueueDepth => "serve.queue_depth",
            Gauge::ServeConnectionsActive => "serve.connections_active",
            Gauge::ServeOldestJobMs => "serve.oldest_job_ms",
        }
    }

    /// Unit of the gauged quantity.
    pub const fn unit(self) -> &'static str {
        match self {
            Gauge::ElidedMass => "probability",
            Gauge::CachedPrograms => "programs",
            Gauge::CachedEngines => "engines",
            Gauge::CacheBytes => "bytes",
            Gauge::JobsActive => "jobs",
            Gauge::ServeQueueDepth | Gauge::ServeConnectionsActive => "connections",
            Gauge::ServeOldestJobMs => "ms",
        }
    }

    /// Owning subsystem.
    pub const fn subsystem(self) -> &'static str {
        match self {
            Gauge::ElidedMass => "estimator",
            Gauge::CachedPrograms | Gauge::CachedEngines | Gauge::CacheBytes => "cache",
            Gauge::JobsActive
            | Gauge::ServeQueueDepth
            | Gauge::ServeConnectionsActive
            | Gauge::ServeOldestJobMs => "serve",
        }
    }
}

/// A power-of-two-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Items left in the scheduler queue when a worker pulled one.
    QueueDepth,
    /// Words a single stratum was allocated in one stratified round.
    RoundWords,
    /// Items one scheduler worker executed over its lifetime.
    ItemsPerWorker,
    /// Wall-clock microseconds one serve-daemon request took, end to end
    /// (connection accepted to response flushed).
    RequestMicros,
    /// Wall-clock microseconds one served job round waited for its
    /// thread-budget permit.
    BudgetWaitMicros,
}

impl Hist {
    /// Number of histograms in the catalog.
    pub const COUNT: usize = 5;

    /// Every histogram, in catalog order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::QueueDepth,
        Hist::RoundWords,
        Hist::ItemsPerWorker,
        Hist::RequestMicros,
        Hist::BudgetWaitMicros,
    ];

    /// Stable dotted name.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::QueueDepth => "sched.queue_depth",
            Hist::RoundWords => "estimator.round_words",
            Hist::ItemsPerWorker => "sched.items_per_worker",
            Hist::RequestMicros => "serve.request_us",
            Hist::BudgetWaitMicros => "serve.budget_wait_us",
        }
    }

    /// Unit of the observed quantity.
    pub const fn unit(self) -> &'static str {
        match self {
            Hist::QueueDepth => "items",
            Hist::RoundWords => "words",
            Hist::ItemsPerWorker => "items",
            Hist::RequestMicros | Hist::BudgetWaitMicros => "us",
        }
    }

    /// Owning subsystem.
    pub const fn subsystem(self) -> &'static str {
        match self {
            Hist::QueueDepth | Hist::ItemsPerWorker => "sched",
            Hist::RoundWords => "estimator",
            Hist::RequestMicros | Hist::BudgetWaitMicros => "serve",
        }
    }
}
