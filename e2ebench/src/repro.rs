//! The traced per-experiment ledger: the whole experiment registry
//! through `run_experiments_with` at `RunConfig::full()` — what a paper
//! reproducer waits for — one experiment at a time and as a whole.

use crate::gen::Digest;
use crate::stats::Outcome;
use rft_analysis::experiment::{
    find, registry, run_experiments_with, ExperimentRun, RunnerOptions,
};
use rft_analysis::experiments::RunConfig;
use rft_obs::{Collector, Metric};
use std::time::{Duration, Instant};

/// The Monte-Carlo experiments the ledger runs one at a time.
const LEDGER: [&str; 10] = [
    "entropy",
    "local",
    "threshold",
    "suppression",
    "detectwidth",
    "detecthybrid",
    "detectoverhead",
    "detectcov",
    "ablation",
    "nand",
];

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..RunConfig::full()
    }
}

fn print_digest(cfg: &RunConfig) {
    let mut d = Digest::new();
    d.update(format!("{cfg:?}").as_bytes());
    for exp in registry() {
        d.update(exp.id().as_bytes());
    }
    d.print("registry");
}

/// Counts experiments with a failed self-check.
fn failed_checks(runs: &[ExperimentRun]) -> u64 {
    let mut failed = 0;
    for run in runs {
        for check in run.report.failed_checks() {
            eprintln!(
                "self-check failed [{}] {}: got {}, want {}",
                run.id, check.name, check.got, check.want
            );
        }
        failed += u64::from(!run.report.passed());
    }
    failed
}

/// Runs `experiments` once under `obs`; returns the wall, the runs, and
/// the collector's aggregate snapshot.
fn observed(
    experiments: &[&'static dyn rft_analysis::experiment::Experiment],
    cfg: &RunConfig,
    obs: Collector,
) -> (Duration, Vec<ExperimentRun>, rft_obs::Snapshot) {
    let opts = RunnerOptions {
        obs: obs.clone(),
        ..RunnerOptions::default()
    };
    let start = Instant::now();
    let runs = run_experiments_with(experiments, cfg, &opts);
    (start.elapsed(), runs, obs.snapshot())
}

/// The traced ledger: each Monte-Carlo experiment alone under a live
/// collector, then an untraced and a traced full-registry run for the run
/// totals and the collector's overhead.
pub fn ledger(seed: u64) -> Outcome {
    let mut out = Outcome::new();
    let cfg = config(seed);
    print_digest(&cfg);
    for id in LEDGER {
        let exp = find(id).expect("ledger ids are registry ids");
        let (wall, runs, snap) = observed(&[exp], &cfg, Collector::new());
        out.count(1, failed_checks(&runs));
        // `engine.lower_ns` nests inside `engine.estimate_ns` (the lazy
        // lowering runs inside the estimate span), so compile + estimate
        // is the attributed union. Spans on concurrent threads can sum
        // past the wall; the share is clamped at 0.
        let attributed = snap.counter(Metric::CompileNanos) + snap.counter(Metric::EstimateNanos);
        let wall_ns = wall.as_nanos().max(1) as f64;
        out.metric(format!("experiment.{id}.wall_s"), wall.as_secs_f64(), "s");
        out.metric(
            format!("experiment.{id}.unattributed_frac"),
            (1.0 - attributed as f64 / wall_ns).clamp(0.0, 1.0),
            "ratio",
        );
    }
    let (plain_wall, runs, _) = observed(registry(), &cfg, Collector::disabled());
    out.count(runs.len() as u64, failed_checks(&runs));
    let (traced_wall, runs, snap) = observed(registry(), &cfg, Collector::new());
    out.count(runs.len() as u64, failed_checks(&runs));
    for run in runs.iter().filter(|r| r.id == "entropy") {
        println!(
            "repro ledger: entropy took {:.3} s of the {:.3} s traced full-registry wall",
            run.wall.as_secs_f64(),
            traced_wall.as_secs_f64()
        );
    }
    let ns = |m| snap.counter(m) as f64 / 1e9;
    let hits = snap.counter(Metric::CacheHits) as f64;
    let lookups = hits + snap.counter(Metric::CacheMisses) as f64;
    out.metric(
        "engine.compiles",
        snap.counter(Metric::EngineCompiles) as f64,
        "count",
    );
    out.metric(
        "microop.lowerings",
        snap.counter(Metric::IrLowerings) as f64,
        "count",
    );
    out.metric("engine.compile_s", ns(Metric::CompileNanos), "s");
    out.metric("microop.lower_s", ns(Metric::LowerNanos), "s");
    out.metric("engine.estimate_s", ns(Metric::EstimateNanos), "s");
    out.metric(
        "engine.executed_words",
        snap.counter(Metric::ExecutedWords) as f64,
        "count",
    );
    out.metric(
        "experiment.cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    out.metric(
        "sched.steals",
        snap.counter(Metric::SchedSteals) as f64,
        "count",
    );
    out.metric(
        "obs.overhead_frac",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    out
}
