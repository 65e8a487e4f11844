//! Seed-pin: `repro --json` artifacts must stay **byte-identical** to the
//! pre-PR-5 goldens at the default seed.
//!
//! The compiled micro-op pipeline (linear-segment fusion, wide-word
//! kernels, RNG fast paths) is allowed to change only *throughput*; the
//! goldens under `tests/goldens/` were generated by the pre-IR engine
//! (`repro --quick --json`), so any drift in a single byte of any report
//! means a fault mask, random plane or estimator decision moved — a
//! correctness bug, not a perf change.
//!
//! Reports are deterministic per seed and thread-count independent (wall
//! times live in the manifest, which is deliberately not pinned), so the
//! comparison is exact.

use rft_analysis::experiment::{registry, run_experiments, run_experiments_with, RunnerOptions};
use rft_analysis::experiments::RunConfig;
use rft_obs::{Collector, Metric};

#[test]
fn quick_reports_are_byte_identical_to_pre_ir_goldens() {
    let cfg = RunConfig {
        threads: 2,
        ..RunConfig::quick()
    };
    let runs = run_experiments(registry(), &cfg);
    assert_eq!(runs.len(), 16, "registry changed — regenerate goldens");
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    for run in &runs {
        let path = golden_dir.join(format!("{}.json", run.id));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let fresh = run.report.to_json();
        assert_eq!(
            fresh, golden,
            "report {} drifted from its pre-IR golden — the compiled \
             pipeline changed results, not just throughput",
            run.id
        );
    }
}

/// The observability invariant: running with a **live** collector (the
/// `--trace`/`--metrics` path) must produce the same bytes as running
/// with collection disabled. Instrumentation reads the Monte-Carlo
/// streams, never steers them.
#[test]
fn quick_reports_are_byte_identical_with_live_collector() {
    let cfg = RunConfig {
        threads: 2,
        ..RunConfig::quick()
    };
    let obs = Collector::tracing();
    let opts = RunnerOptions {
        obs: obs.clone(),
        progress: false,
        attach_resources: false,
    };
    let runs = run_experiments_with(registry(), &cfg, &opts);
    // The collector really was live — this test is vacuous otherwise.
    let snap = obs.snapshot();
    assert!(
        snap.counter(Metric::ExecutedWords) > 0,
        "live collector saw no executed words — instrumentation is dark"
    );
    assert!(
        !obs.span_events().is_empty(),
        "live collector recorded no spans"
    );
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    for run in &runs {
        let path = golden_dir.join(format!("{}.json", run.id));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            run.report.to_json(),
            golden,
            "report {} changed under a live collector — instrumentation \
             perturbed an estimate",
            run.id
        );
    }
}
