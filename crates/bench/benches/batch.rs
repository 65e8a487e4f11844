//! Bit-parallel Monte-Carlo throughput, through the unified engine
//! facade.
//!
//! Noisy trials of the Figure-2 recovery cycle (the §2.2
//! transversal-Toffoli extended rectangle) and of the compiled
//! level-1/level-2 concatenated programs on the engine's word loop, plus
//! the per-trial scalar executor against one raw 64-lane batch run.
//! Throughput is reported in trials per second (`Throughput::Elements` =
//! trials per iteration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rft_analysis::prelude::*;
use rft_core::ftcheck::transversal_cycle;
use rft_revsim::prelude::*;
use std::hint::black_box;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

fn opts(trials: u64) -> McOptions {
    McOptions::new(trials)
        .seed(1)
        .threads(1)
        .backend(BackendKind::Batch)
}

/// Figure-2 recovery cycle (27 wires, 27 ops), single thread.
fn fig2_cycle_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_fig2_cycle");
    group.sample_size(10);
    let spec = transversal_cycle(&toffoli());
    let noise = UniformNoise::new(1.0 / 165.0);
    const TRIALS: u64 = 4_096;
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function("batch_4k_trials", |b| {
        let o = opts(TRIALS);
        b.iter(|| black_box(estimate_cycle_error(&spec, &noise, &o).failures));
    });
    group.finish();
}

/// Compiled concatenated programs at levels 1 and 2.
fn concat_mc_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_concat_mc");
    group.sample_size(10);
    let noise = UniformNoise::new(1.0 / 165.0);
    for level in [1u8, 2] {
        let mc = ConcatMc::new(level, toffoli(), 1);
        let trials: u64 = if level == 1 { 4_096 } else { 512 };
        group.throughput(Throughput::Elements(trials));
        group.bench_with_input(BenchmarkId::new("batch", level), &level, |b, _| {
            let o = opts(trials);
            b.iter(|| black_box(mc.estimate(&noise, &o).failures));
        });
    }
    group.finish();
}

/// Raw executor throughput on the recovery cycle, without encode/decode:
/// 64 scalar runs vs one 64-lane batch run (same trial count), on one
/// pre-compiled engine.
fn raw_executor_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_raw_exec");
    group.sample_size(10);
    let spec = transversal_cycle(&toffoli());
    let noise = UniformNoise::new(1.0 / 165.0);
    let engine = Engine::compile(spec.circuit(), &noise);
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    group.throughput(Throughput::Elements(64));
    group.bench_function("scalar_64_runs", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..64 {
                let mut s = BitState::zeros(engine.n_wires());
                acc += engine.run_scalar(&mut s, &mut rng).fault_count();
            }
            black_box(acc)
        });
    });
    group.bench_function("batch_64_lanes", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut batch = BatchState::zeros(engine.n_wires(), 1);
            black_box(engine.run_batch(&mut batch, &mut rng).fault_events)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    fig2_cycle_throughput,
    concat_mc_throughput,
    raw_executor_throughput
);
criterion_main!(benches);
