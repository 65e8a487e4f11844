//! Schema tests for the Chrome-trace-event output of the observability
//! layer: span nesting must be well-formed (intervals on one thread are
//! disjoint or properly contained, never partially overlapping), thread
//! ids must be stable for a fixed `--threads`, and the emitted JSON must
//! carry exactly one complete event per recorded span plus one
//! `thread_name` metadata record per thread.

use rft_analysis::experiment::{registry, run_experiments_with, RunnerOptions};
use rft_analysis::experiments::RunConfig;
use rft_obs::{Collector, SpanEvent};
use std::collections::BTreeSet;

fn traced_quick_run(threads: usize) -> (Collector, usize) {
    let cfg = RunConfig {
        threads,
        ..RunConfig::quick()
    };
    let obs = Collector::tracing();
    let opts = RunnerOptions {
        obs: obs.clone(),
        progress: false,
        attach_resources: false,
    };
    let runs = run_experiments_with(registry(), &cfg, &opts);
    (obs, runs.len())
}

/// Two intervals on the same thread either nest or are disjoint. Shared
/// endpoints are allowed: a child may start the same nanosecond its
/// parent does.
fn properly_nested(a: &SpanEvent, b: &SpanEvent) -> bool {
    let (a0, a1) = (a.ts_ns, a.ts_ns + a.dur_ns);
    let (b0, b1) = (b.ts_ns, b.ts_ns + b.dur_ns);
    let disjoint = a1 <= b0 || b1 <= a0;
    let a_in_b = b0 <= a0 && a1 <= b1;
    let b_in_a = a0 <= b0 && b1 <= a1;
    disjoint || a_in_b || b_in_a
}

#[test]
fn span_nesting_is_well_formed_per_thread() {
    let (obs, n_experiments) = traced_quick_run(2);
    let events = obs.span_events();
    assert!(!events.is_empty(), "run recorded no spans");
    // Every experiment got its attribution span.
    let experiment_spans = events.iter().filter(|e| e.name == "experiment").count();
    assert_eq!(experiment_spans, n_experiments);
    // Pairwise nesting check per thread. Quick runs produce a few
    // hundred spans, so quadratic is fine and keeps the check obvious.
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for tid in tids {
        let on_thread: Vec<&SpanEvent> = events.iter().filter(|e| e.tid == tid).collect();
        for (i, a) in on_thread.iter().enumerate() {
            for b in &on_thread[i + 1..] {
                assert!(
                    properly_nested(a, b),
                    "spans {:?} and {:?} partially overlap on tid {tid}",
                    (a.name, a.ts_ns, a.dur_ns),
                    (b.name, b.ts_ns, b.dur_ns)
                );
            }
        }
    }
}

#[test]
fn thread_ids_are_stable_for_fixed_threads() {
    // threads = 1 pins all work to the calling thread: one tid, and the
    // same tid again on a second run in the same process.
    let (first, _) = traced_quick_run(1);
    let first_tids: BTreeSet<u64> = first.span_events().iter().map(|e| e.tid).collect();
    assert_eq!(first_tids.len(), 1, "threads=1 must use exactly one thread");
    let (second, _) = traced_quick_run(1);
    let second_tids: BTreeSet<u64> = second.span_events().iter().map(|e| e.tid).collect();
    assert_eq!(
        first_tids, second_tids,
        "tid for the calling thread drifted between identical runs"
    );
}

#[test]
fn trace_json_round_trips_the_recorded_spans() {
    let (obs, _) = traced_quick_run(2);
    let events = obs.span_events();
    let json = obs.trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    // One complete ("ph":"X") event per span, one metadata ("ph":"M")
    // record per distinct thread.
    let complete = json.matches("\"ph\":\"X\"").count();
    assert_eq!(complete, events.len());
    let tids: BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    let metadata = json.matches("\"ph\":\"M\"").count();
    assert_eq!(metadata, tids.len());
    for tid in &tids {
        assert!(
            json.contains(&format!("\"tid\":{tid}")),
            "tid {tid} missing from trace JSON"
        );
    }
    // Span names survive verbatim; labels are attached as args.
    for name in [
        "engine.estimate",
        "engine.words",
        "sched.point",
        "experiment",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "span {name:?} missing from trace JSON"
        );
    }
    assert!(json.contains("\"args\":{\"label\":"));
    // Timestamps are microseconds with fixed 3-decimal precision — spot
    // check the first complete event against its span record.
    let first = events
        .iter()
        .min_by_key(|e| (e.ts_ns, e.tid, e.dur_ns))
        .unwrap();
    let ts_us = format!("\"ts\":{}.{:03}", first.ts_ns / 1_000, first.ts_ns % 1_000);
    assert!(
        json.contains(&ts_us),
        "first span's timestamp {ts_us} not found in trace JSON"
    );
}
