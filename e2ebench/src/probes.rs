//! Direct probes: the harness times single calls into the public API of
//! each layer, from outside — no tracing inside the program.

use crate::stats::{median, Outcome};
use rft_analysis::entropy_meas::measure_reset_entropy;
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, JobRecord};
use rft_analysis::montecarlo::ConcatMc;
use rft_core::concat::FtBuilder;
use rft_detect::{exhaustive_coverage, AdderKind, CheckedAdder};
use rft_obs::Collector;
use rft_revsim::engine::{Engine, Estimator, McOptions, WordTrial, DEFAULT_STRATA_CAP};
use rft_revsim::gate::Gate;
use rft_revsim::noise::UniformNoise;
use rft_revsim::state::BitState;
use rft_revsim::wire::w;
use rft_serve::fair::ThreadBudget;
use rft_serve::http::{read_request, Limits};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

/// Median over `samples` of the nanoseconds per call of `f`; each sample
/// repeats `f` until `min_sample` has passed, after one warm-up call.
fn per_call_ns<R>(samples: usize, min_sample: Duration, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            black_box(f());
            calls += 1;
            if start.elapsed() >= min_sample {
                break;
            }
        }
        out.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&out)
}

/// Median nanoseconds of one call of `f` on fresh state from `setup`;
/// neither the set-up nor dropping its state or the result is timed.
fn fresh_ns<S, R>(
    samples: usize,
    mut setup: impl FnMut(usize) -> S,
    mut f: impl FnMut(&S) -> R,
) -> f64 {
    let mut out = Vec::with_capacity(samples);
    for i in 0..samples {
        let state = setup(i);
        let start = Instant::now();
        let result = black_box(f(&state));
        out.push(start.elapsed().as_nanos() as f64);
        drop(result);
    }
    median(&out)
}

/// Engine, IR, cache, entropy and detection probes.
pub fn engine_layers(seed: u64) -> Outcome {
    let mut out = Outcome::new();

    // §4 entropy measurement on the level-1 Toffoli 3-cycle program.
    let program = {
        let mut b = FtBuilder::new(1, 3);
        for _ in 0..3 {
            b.apply(&toffoli());
        }
        b.finish()
    };
    let input = program.encode(&BitState::zeros(3));
    let noise = UniformNoise::new(1e-2);
    const ENTROPY_TRIALS: u64 = 2000;
    let ns = per_call_ns(5, Duration::from_millis(20), || {
        measure_reset_entropy(program.circuit(), &input, &noise, ENTROPY_TRIALS, seed)
    });
    out.metric(
        "entropy_meas.ns_per_trial",
        ns / ENTROPY_TRIALS as f64,
        "ns",
    );

    // Plain word loop: level-1 Toffoli at g = 1/165, one thread.
    let l1 = ConcatMc::new(1, toffoli(), 1);
    let l1_noise = UniformNoise::new(1.0 / 165.0);
    let engine = l1.engine(&l1_noise);
    let trial = l1.trial();
    let opts = McOptions::new(64 * 256)
        .seed(seed)
        .threads(1)
        .estimator(Estimator::Plain);
    let words = engine.estimate(&trial, &opts).executed_words.max(1);
    let ns = per_call_ns(7, Duration::from_millis(10), || {
        engine.estimate(&trial, &opts)
    });
    out.metric("engine.plain_ns_per_word", ns / words as f64, "ns");

    // Stratified word loop: level-2 Toffoli at g = 1e-3, with the elision
    // `Estimator::Auto` picks for this trial.
    let l2 = ConcatMc::new(2, toffoli(), 1);
    let l2_noise = UniformNoise::new(1e-3);
    let engine = l2.engine(&l2_noise);
    let trial = l2.trial();
    let opts = McOptions::new(64 * 256)
        .seed(seed)
        .threads(1)
        .estimator(Estimator::Stratified {
            min_faults: trial.min_failing_faults(),
            strata_cap: DEFAULT_STRATA_CAP,
        });
    let words = engine.estimate(&trial, &opts).executed_words.max(1);
    let ns = per_call_ns(7, Duration::from_millis(10), || {
        engine.estimate(&trial, &opts)
    });
    out.metric("engine.stratified_ns_per_word", ns / words as f64, "ns");

    // Compile and the lazy IR lowering on the level-2 stream.
    let l2_circuit = l2.program().circuit();
    println!(
        "probes: the level-2 Toffoli stream has {} ops",
        l2_circuit.len()
    );
    let ns = fresh_ns(21, |_| (), |_| Engine::compile(l2_circuit, &l2_noise));
    out.metric("engine.compile_us", ns / 1e3, "us");
    let ns = fresh_ns(
        21,
        |_| Engine::compile(l2_circuit, &l2_noise),
        |engine| {
            black_box(engine.compile_stats());
        },
    );
    out.metric("microop.lower_us", ns / 1e3, "us");

    // Compile-cache lookups: a resident level-1 key, and fresh level-2
    // keys (every sample a new rate, so every lookup compiles).
    let cache = CompileCache::new();
    let ns = per_call_ns(7, Duration::from_millis(5), || {
        cache.engine(l1.program().circuit(), &l1_noise)
    });
    out.metric("experiment.cache_hit_us", ns / 1e3, "us");
    let ns = fresh_ns(
        11,
        |i| UniformNoise::new(1e-3 * (1.0 + (i + 1) as f64 * 1e-9)),
        |noise| cache.engine(l2_circuit, noise),
    );
    out.metric("experiment.cache_miss_ms", ns / 1e6, "ms");

    // Exhaustive single-fault coverage of the width-2 checked ripple.
    let ca = CheckedAdder::new(AdderKind::Ripple, 2);
    let (ins, outs) = (ca.adder.input_wires(), ca.adder.output_wires());
    let ns = fresh_ns(5, |_| (), |_| exhaustive_coverage(&ca.checked, &ins, &outs));
    out.metric("detect.coverage_ms", ns / 1e6, "ms");
    out
}

/// Serving-path probes on one hot request: parse, a warm-cache job, the
/// final-line encoding, and an uncontended thread-budget acquire.
pub fn serve_layers(request: &[u8], record: &JobRecord, threads: usize) -> Outcome {
    let mut out = Outcome::new();
    let limits = Limits::default();
    let ns = per_call_ns(7, Duration::from_millis(5), || {
        read_request(&mut &request[..], &limits).expect("the hot request parses")
    });
    out.metric("http.read_request_us", ns / 1e3, "us");

    let cache = CompileCache::new();
    let obs = Collector::new();
    let run = || run_job(&cache, &obs, record, threads).expect("the hot record is valid");
    let final_update = run();
    let ns = per_call_ns(7, Duration::from_millis(10), run);
    out.metric("job.hot_run_us", ns / 1e3, "us");
    let ns = per_call_ns(7, Duration::from_millis(5), || final_update.to_line());
    out.metric("job.final_encode_us", ns / 1e3, "us");

    let budget = ThreadBudget::new(threads);
    let ns = per_call_ns(7, Duration::from_millis(5), || {
        drop(budget.acquire(threads))
    });
    out.metric("fair.acquire_ns", ns, "ns");
    out
}
