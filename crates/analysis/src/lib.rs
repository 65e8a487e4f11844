//! # rft-analysis — Monte Carlo, statistics and experiment reproductions
//!
//! The measurement layer of the *“Reversible Fault-Tolerant Logic”*
//! reproduction:
//!
//! - [`stats`] — binomial estimates with Wilson intervals, their
//!   stratified (weighted) generalization, and slope fits;
//! - [`montecarlo`] — logical-error-rate estimation for compiled
//!   concatenated programs and local cycles, expressed on the unified
//!   [`Engine`](rft_revsim::engine::Engine) facade: compile once, run
//!   many on one compiled word loop with typed
//!   [`McOptions`](rft_revsim::engine::McOptions) (trials, seed, threads,
//!   optional adaptive early stopping, and an
//!   [`Estimator`](rft_revsim::engine::Estimator) policy that routes
//!   deep-sub-threshold points to fault-count-stratified rare-event
//!   sampling);
//! - [`sweep`] — log-grid sweeps and pseudo-threshold crossing detection;
//! - [`entropy_meas`] — empirical reset-entropy measurement (§4);
//! - [`report`] — the schema-versioned [`Report`](report::Report)
//!   artifact (tables + numeric series + self-[`Check`](report::Check)s)
//!   and its pure renderers to aligned text, CSV and JSON;
//! - [`experiment`] — the first-class [`Experiment`](experiment::Experiment)
//!   trait, the [`registry`](experiment::registry) of all reproductions,
//!   the shared [`CompileCache`](experiment::CompileCache), and the
//!   cross-point parallel runner
//!   ([`run_experiments`](experiment::run_experiments));
//! - [`cache`] — the byte-bounded, cost-based (GreedyDual-Size) LRU the
//!   compile cache evicts through when given a byte budget;
//! - [`job`] — replayable estimation-job records and the round-streaming
//!   runner behind the `rft-serve` daemon and `repro replay`;
//! - [`experiments`] — one module per table/figure of the paper, each a
//!   registered [`Experiment`](experiment::Experiment) with a typed
//!   result convertible to a [`Report`](report::Report). The `repro`
//!   binary in `rft-bench` drives them through the registry.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod entropy_meas;
pub mod experiment;
pub mod experiments;
pub mod job;
pub mod montecarlo;
pub mod report;
pub mod stats;
pub mod sweep;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::entropy_meas::{measure_reset_entropy, EntropyMeasurement};
    pub use crate::experiment::{
        find, registry, run_experiments, run_experiments_with, CompileCache, Experiment,
        ExperimentContext, ExperimentRun, ManifestEntry, RunManifest, RunnerOptions,
    };
    pub use crate::experiments::RunConfig;
    pub use crate::job::{
        run_job, run_job_streaming, CircuitSpec, IntervalUpdate, JobControl, JobRecord, JobResult,
        JobSpec, NoiseSpec, JOB_SCHEMA_VERSION,
    };
    pub use crate::montecarlo::{
        estimate_cycle_error, estimate_cycle_error_outcome, unprotected_error, ConcatMc,
        ConcatTrial, BATCH_TRIAL_THRESHOLD,
    };
    pub use crate::report::{Check, Report, ResourceUsage, Series, Table, SCHEMA_VERSION};
    pub use crate::stats::{linear_slope, stratified_estimate, wilson_interval, ErrorEstimate};
    pub use crate::sweep::{find_crossing, log_grid, sweep, SweepPoint};
    pub use rft_revsim::engine::{BackendKind, Engine, Estimator, McOptions, McOutcome};
}
