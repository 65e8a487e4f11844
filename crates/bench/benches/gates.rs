//! Raw simulator throughput: gate application and circuit execution.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rft_revsim::prelude::*;
use std::hint::black_box;

fn gate_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_application");
    group.sample_size(20);
    let gates: [(&str, Gate); 4] = [
        ("not", Gate::Not(w(0))),
        (
            "cnot",
            Gate::Cnot {
                control: w(0),
                target: w(1),
            },
        ),
        (
            "toffoli",
            Gate::Toffoli {
                controls: [w(0), w(1)],
                target: w(2),
            },
        ),
        ("maj", Gate::Maj(w(0), w(1), w(2))),
    ];
    for (name, gate) in gates {
        group.throughput(Throughput::Elements(1));
        group.bench_function(name, |b| {
            let mut state = BitState::from_u64(0b101, 3);
            b.iter(|| {
                gate.apply(&mut state);
                black_box(state.get(w(0)))
            });
        });
    }
    group.finish();
}

fn circuit_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_execution");
    group.sample_size(20);
    // A dense 64-wire circuit of 10_000 MAJ gates.
    let n = 64usize;
    let mut circuit = Circuit::with_capacity(n, 10_000);
    for i in 0..10_000u32 {
        let a = (i * 7) % n as u32;
        let b = (a + 1 + (i % 11)) % n as u32;
        let cc = (b + 1 + (i % 5)) % n as u32;
        if a != b && b != cc && a != cc {
            circuit.maj(w(a), w(b), w(cc));
        }
    }
    group.throughput(Throughput::Elements(circuit.len() as u64));
    group.bench_function("ideal_10k_maj", |b| {
        b.iter(|| {
            let mut s = BitState::zeros(n);
            circuit.run(&mut s);
            black_box(s.count_ones())
        });
    });
    group.bench_function("noisy_bernoulli_g1e-3", |b| {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let engine = Engine::compile(&circuit, &UniformNoise::new(1e-3));
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            let mut s = BitState::zeros(n);
            black_box(engine.run_scalar(&mut s, &mut rng).fault_count())
        });
    });
    group.finish();
}

criterion_group!(benches, gate_application, circuit_execution);
criterion_main!(benches);
