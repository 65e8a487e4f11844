//! Engine facade overhead: what compile-once costs, and what the facade
//! adds on top of the word loop.
//!
//! `engine_compile` measures [`Engine::compile`] alone — a single pass
//! over the op stream building the fault table — for the three circuit
//! scales the reproduction actually runs (27-op Figure-2 cycle, level-1
//! and level-2 concatenated programs). `engine_estimate` measures a full
//! facade round trip (auto-routed estimation and the adaptive variant)
//! so regressions in dispatch or the round driver show up next to the
//! word-loop rows of `benches/fused.rs`. `entropy` times the §4
//! reset-entropy measurement and the NAND-optimality search.
//!
//! Estimate rows draw a fresh seed per iteration from a counter the row
//! closure owns, so the branch predictor cannot learn one seed's words.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rft_analysis::prelude::*;
use rft_core::entropy::optimal_nand_dissipation;
use rft_core::ftcheck::transversal_cycle;
use rft_core::prelude::*;
use rft_revsim::prelude::*;
use std::hint::black_box;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

/// Compile-once cost across circuit scales.
fn engine_compile_overhead(c: &mut Criterion) {
    let noise = &UniformNoise::new(1.0 / 165.0);
    let mut group = c.benchmark_group("engine_compile");

    let spec = transversal_cycle(&toffoli());
    group.throughput(Throughput::Elements(spec.circuit().len() as u64));
    group.bench_function("fig2_cycle_27_ops", move |b| {
        b.iter(|| black_box(Engine::compile(spec.circuit(), noise).n_ops()));
    });

    for level in [1u8, 2] {
        let mc = ConcatMc::new(level, toffoli(), 1);
        group.throughput(Throughput::Elements(mc.program().circuit().len() as u64));
        group.bench_function(BenchmarkId::new("concat_level", level), move |b| {
            b.iter(|| black_box(mc.engine(noise).n_ops()));
        });
    }
    group.finish();
}

/// Full facade round trips: compile + estimate.
///
/// These pin [`Estimator::Plain`] so the numbers stay comparable with the
/// checked-in BENCH_engine.json baseline; the stratified estimator has
/// its own rows in `stratified_width` (`benches/fused.rs`).
fn engine_estimate_roundtrip(c: &mut Criterion) {
    let spec = &transversal_cycle(&toffoli());
    let noise = &UniformNoise::new(1.0 / 165.0);
    const TRIALS: u64 = 4_096;
    let plain = McOptions::new(TRIALS)
        .threads(1)
        .estimator(Estimator::Plain);
    let mut group = c.benchmark_group("engine_estimate");
    group.throughput(Throughput::Elements(TRIALS));
    for (name, mut opts) in [
        ("auto_4k_trials", plain),
        ("adaptive_rel20_4k_cap", plain.target_rel_error(0.392)),
    ] {
        group.bench_function(name, move |b| {
            b.iter(|| {
                opts.seed += 1;
                black_box(estimate_cycle_error(spec, noise, &opts).failures)
            });
        });
    }
    group.finish();
}

/// Instrumented vs disabled collection on the same `engine_estimate`
/// workload.
///
/// The two benches differ **only** in the collector handed to
/// [`Engine::estimate_obs`]: `disabled_4k_trials` passes
/// `Collector::disabled()` (the branch-only fast path `Engine::estimate`
/// takes), `enabled_4k_trials` passes a live collector that records every
/// counter, histogram and span and keeps every span event (the costlier
/// form that `repro --trace` uses). Both walk the same seed sequence. CI
/// gates their within-run ratio at ≤2% (`check_bench_regression.py
/// --pair`), pinning the "zero-cost when watched" claim: word-loop
/// tallies are plain integers flushed once per run, so collection must
/// stay in the noise.
fn obs_overhead(c: &mut Criterion) {
    let spec = &transversal_cycle(&toffoli());
    const TRIALS: u64 = 4_096;
    let engine = &Engine::compile(spec.circuit(), &UniformNoise::new(1.0 / 165.0));
    let opts = McOptions::new(TRIALS)
        .threads(1)
        .estimator(Estimator::Plain);
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(TRIALS));
    for (name, obs) in [
        ("disabled_4k_trials", rft_obs::Collector::disabled()),
        ("enabled_4k_trials", rft_obs::Collector::tracing()),
    ] {
        let mut opts = opts;
        group.bench_function(name, move |b| {
            b.iter(|| {
                opts.seed += 1;
                black_box(engine.estimate_obs(spec, &opts, &obs).failures)
            });
        });
    }
    group.finish();
}

/// §4: the reset-entropy measurement (compile of the copy-out circuit
/// plus 16 words on the compiled word loop) and the exhaustive
/// NAND-optimality search.
fn entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("entropy");
    group.bench_function("nand_exhaustive_search", |b| {
        b.iter(|| black_box(optimal_nand_dissipation().0));
    });
    let mut builder = FtBuilder::new(1, 3);
    builder.apply(&toffoli()).apply(&toffoli());
    let program = builder.finish();
    let input = program.encode(&BitState::zeros(3));
    let noise = UniformNoise::new(1e-2);
    group.bench_function("reset_entropy_1k_trials", move |b| {
        b.iter(|| {
            black_box(
                measure_reset_entropy(program.circuit(), &input, &noise, 1000, 7).bits_per_run,
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    engine_compile_overhead,
    engine_estimate_roundtrip,
    obs_overhead,
    entropy
);
criterion_main!(benches);
