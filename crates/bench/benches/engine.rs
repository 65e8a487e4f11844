//! Engine facade overhead: what compile-once costs, and what the facade
//! adds on top of raw backend execution.
//!
//! `engine_compile` measures [`Engine::compile`] alone — a single pass
//! over the op stream building the fault table — for the three circuit
//! scales the reproduction actually runs (27-op Figure-2 cycle, level-1
//! and level-2 concatenated programs). `engine_estimate` measures a full
//! facade round trip (compile + auto-routed batch estimation + adaptive
//! variant) so regressions in dispatch or the word runner show up next to
//! the raw numbers in BENCH_batch.json. `entropy` times the §4
//! reset-entropy measurement and the NAND-optimality search.

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
    let mut group = c.benchmark_group("engine_compile");
    group.sample_size(20);
    let noise = UniformNoise::new(1.0 / 165.0);

    let spec = transversal_cycle(&toffoli());
    group.throughput(Throughput::Elements(spec.circuit().len() as u64));
    group.bench_function("fig2_cycle_27_ops", |b| {
        b.iter(|| black_box(Engine::compile(spec.circuit(), &noise).n_ops()));
    });

    for level in [1u8, 2] {
        let mc = ConcatMc::new(level, toffoli(), 1);
        let ops = mc.program().circuit().len() as u64;
        group.throughput(Throughput::Elements(ops));
        group.bench_with_input(BenchmarkId::new("concat_level", level), &level, |b, _| {
            b.iter(|| black_box(mc.engine(&noise).n_ops()));
        });
    }
    group.finish();
}

/// Full facade round trips: compile + estimate.
///
/// These pin [`Estimator::Plain`] so the numbers stay comparable with the
/// checked-in BENCH_engine.json baseline (and with `batch_raw_exec` in
/// BENCH_batch.json); the stratified estimator has its own bench in
/// `benches/rare_event.rs`.
fn engine_estimate_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_estimate");
    group.sample_size(10);
    let spec = transversal_cycle(&toffoli());
    let noise = UniformNoise::new(1.0 / 165.0);
    const TRIALS: u64 = 4_096;
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function("auto_4k_trials", |b| {
        let opts = McOptions::new(TRIALS)
            .seed(1)
            .threads(1)
            .estimator(Estimator::Plain);
        b.iter(|| black_box(estimate_cycle_error(&spec, &noise, &opts).failures));
    });
    group.bench_function("adaptive_rel20_4k_cap", |b| {
        let opts = McOptions::new(TRIALS)
            .seed(1)
            .threads(1)
            .estimator(Estimator::Plain)
            .target_rel_error(0.392);
        b.iter(|| black_box(estimate_cycle_error(&spec, &noise, &opts).failures));
    });
    group.finish();
}

/// Instrumented vs disabled collection on the same `engine_estimate`
/// workload.
///
/// The two benches differ **only** in the collector handed to
/// [`Engine::estimate_obs`]: `disabled_4k_trials` passes
/// `Collector::disabled()` (the branch-only fast path `Engine::estimate`
/// takes), `enabled_4k_trials` passes a live collector recording every
/// counter, histogram and span. CI gates their within-run ratio at ≤2%
/// (`check_bench_regression.py --pair`), pinning the "zero-cost when
/// watched" claim: word-loop tallies are plain integers flushed once per
/// run, so collection must stay in the noise.
fn obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    let spec = transversal_cycle(&toffoli());
    let noise = UniformNoise::new(1.0 / 165.0);
    const TRIALS: u64 = 4_096;
    group.throughput(Throughput::Elements(TRIALS));
    let engine = Engine::compile(spec.circuit(), &noise);
    let opts = McOptions::new(TRIALS)
        .seed(1)
        .threads(1)
        .estimator(Estimator::Plain);
    let off = rft_obs::Collector::disabled();
    group.bench_function("disabled_4k_trials", |b| {
        b.iter(|| black_box(engine.estimate_obs(&spec, &opts, &off).failures));
    });
    let live = rft_obs::Collector::new();
    group.bench_function("enabled_4k_trials", |b| {
        b.iter(|| black_box(engine.estimate_obs(&spec, &opts, &live).failures));
    });
    group.finish();
}

/// §4: the reset-entropy measurement (compile of the copy-out circuit
/// plus 16 words on the compiled word loop) and the exhaustive
/// NAND-optimality search.
fn entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("entropy");
    group.sample_size(10);
    group.bench_function("nand_exhaustive_search", |b| {
        b.iter(|| black_box(optimal_nand_dissipation().0));
    });
    let mut builder = FtBuilder::new(1, 3);
    builder.apply(&toffoli()).apply(&toffoli());
    let program = builder.finish();
    let input = program.encode(&BitState::zeros(3));
    let noise = UniformNoise::new(1e-2);
    group.bench_function("reset_entropy_1k_trials", |b| {
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
