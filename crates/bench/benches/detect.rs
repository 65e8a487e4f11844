//! Detection-subsystem throughput: what a parity-checked adder costs to
//! estimate, next to its unchecked baseline.
//!
//! `detect_estimate/checked_w8_4k_trials` is the subsystem's headline
//! number — a width-8 checked ripple adder, 4096 Monte-Carlo trials of
//! the undetected-and-wrong judge at `g = 10⁻³` — and
//! `detect_estimate/plain_w8_4k_trials` is the same budget over the bare
//! (Toffoli/CNOT) ripple adder, so the gap between the two *is* the
//! runtime cost of parity protection: the checker rail's CNOT scan plus
//! the wider parity-preserving gate set. Each row draws a fresh seed per
//! iteration; the CI regression gate compares both against
//! `BENCH_detect.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rft_detect::{Adder, AdderKind, AdderTrial, CheckedAdder, TrialMode};
use rft_revsim::engine::{Engine, McOptions};
use rft_revsim::noise::UniformNoise;
use std::hint::black_box;

const TRIALS: u64 = 4096;
const G: f64 = 1e-3;

fn detect_benches(c: &mut Criterion) {
    let noise = UniformNoise::new(G);
    let ca = CheckedAdder::new(AdderKind::Ripple, 8);
    let engine = Engine::compile(&ca.checked.circuit, &noise);
    let trial = ca.trial(TrialMode::UndetectedWrong);
    let plain = Adder::new(AdderKind::PlainRipple, 8);
    let plain_engine = Engine::compile(&plain.circuit, &noise);
    let plain_trial = AdderTrial::unchecked(&plain, TrialMode::Wrong);
    let mut opts = McOptions::new(TRIALS).seed(2004);
    let mut plain_opts = opts;

    let mut group = c.benchmark_group("detect_estimate");
    group.throughput(Throughput::Elements(TRIALS));
    group.bench_function("checked_w8_4k_trials", |b| {
        b.iter(|| {
            opts.seed += 1;
            black_box(engine.estimate(&trial, &opts).failures)
        });
    });
    group.bench_function("plain_w8_4k_trials", |b| {
        b.iter(|| {
            plain_opts.seed += 1;
            black_box(plain_engine.estimate(&plain_trial, &plain_opts).failures)
        });
    });
    group.finish();
}

criterion_group!(benches, detect_benches);
criterion_main!(benches);
