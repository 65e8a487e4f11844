//! Compiled micro-op word loops vs the raw op-at-a-time loops.
//!
//! The `fused_vs_raw` group is the PR 5 headline, on the two op streams
//! the reproduction actually runs hot (27-op Figure-2 recovery cycle,
//! 585-op level-2 concatenated Toffoli):
//!
//! - `run_*` — the **sampled** word loop at `g = 1/165`: `run_raw_w1` is
//!   [`Engine::run_batch`], the lane-major schedule then the op-at-a-time
//!   masked loop; `run_fused_w1`/`run_fused_w4` is the same schedule and
//!   the compiled program via [`Engine::run_batch_fused`].
//! - `masked_*` — the **masked** word loop (the stratified rare-event
//!   executor, [`Engine::run_batch_masked`] vs the raw reference):
//!   `clean` runs an all-clear schedule (the fused floor — what a
//!   schedule-clean word costs), `sparse` a plain-MC-like `g = 10⁻³`
//!   schedule. This is where fusion + wide words pay ≥ 2×.
//!   `masked_dense_rotating` runs stratified-like schedules (4–7 faults
//!   per lane) and cycles through 8 of them, so branch prediction cannot
//!   learn one schedule the way it learns the fixed ones.
//! - `stratified_schedule_only` and `stratified_judge_only` split the
//!   level-2 stratified word into its other two phases: the fault-table
//!   fill alone (conditional placement + plane draws, strata `k = 4..7+`
//!   in turn) and judging one faulted word alone.
//!   `plain_schedule_only` is the fill of a plain level-2 word at
//!   `g = 10⁻²` (faulted lanes, `K | K ≥ 1` placement, plane draws).
//!
//! Throughput is lanes (trials) per iteration so criterion's elements/s
//! are comparable across widths. `stratified_width` times the full
//! stratified estimate (mask building included) at widths 1 and 4.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rft_analysis::prelude::*;
use rft_core::ftcheck::transversal_cycle;
use rft_revsim::engine::WordWidth;
use rft_revsim::prelude::*;
use std::hint::black_box;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

fn streams() -> Vec<(&'static str, Circuit)> {
    let fig2 = transversal_cycle(&toffoli()).circuit().clone();
    let level2 = ConcatMc::new(2, toffoli(), 1).program().circuit().clone();
    vec![("fig2_27_ops", fig2), ("level2_585_ops", level2)]
}

/// Stratified-like schedules: in each of `W` words, every lane faults at
/// 4–7 distinct ops (flat wide layout `masks[i * W + w]`).
fn dense_schedule(n_ops: usize, width: usize, seeder: &mut SmallRng) -> Vec<u64> {
    let mut masks = vec![0u64; n_ops * width];
    for w in 0..width {
        for lane in 0..64 {
            let faults = seeder.random_range(4..8);
            let mut placed = 0;
            while placed < faults {
                let slot = seeder.random_range(0..n_ops) * width + w;
                if masks[slot] & (1u64 << lane) == 0 {
                    masks[slot] |= 1u64 << lane;
                    placed += 1;
                }
            }
        }
    }
    masks
}

/// One op stream with the engines and schedules its rows run on.
struct Stream {
    name: &'static str,
    n_wires: usize,
    /// Compiled at the sampled rows' `g = 1/165`.
    sampled: Engine,
    /// Compiled at the masked rows' `g = 10⁻³` (BENCH_rare_event.json).
    masked: Engine,
    clean: Vec<u64>,
    sparse: Vec<u64>,
    /// Eight stratified-like width-4 schedules (level 2 only).
    dense: Vec<Vec<u64>>,
}

impl Stream {
    fn new(name: &'static str, circuit: Circuit) -> Stream {
        let sampled = Engine::compile(&circuit, &UniformNoise::new(1.0 / 165.0));
        assert!(
            sampled.compile_stats().max_segment_len > 1,
            "{name}: fusion disabled (no >1-op segments)"
        );
        let n_ops = circuit.len();
        let mut seeder = SmallRng::seed_from_u64(99);
        let sparse = (0..n_ops)
            .map(|_| {
                (0..64).fold(0u64, |v, _| {
                    (v << 1) | u64::from(seeder.random::<f64>() < 1e-3)
                })
            })
            .collect();
        let dense = if name == "level2_585_ops" {
            (0..8)
                .map(|_| dense_schedule(n_ops, 4, &mut seeder))
                .collect()
        } else {
            Vec::new()
        };
        Stream {
            name,
            n_wires: circuit.n_wires(),
            sampled,
            masked: Engine::compile(&circuit, &UniformNoise::new(1e-3)),
            clean: vec![0u64; n_ops],
            sparse,
            dense,
        }
    }
}

/// Raw vs fused word execution, sampled and masked paths.
fn fused_vs_raw(c: &mut Criterion) {
    let streams: Vec<Stream> = streams()
        .into_iter()
        .map(|(name, circuit)| Stream::new(name, circuit))
        .collect();
    let level2 = ConcatMc::new(2, toffoli(), 1);
    let mut group = c.benchmark_group("fused_vs_raw");
    for s in &streams {
        let (name, n) = (s.name, s.n_wires);
        group.throughput(Throughput::Elements(64));
        group.bench_function(format!("run_raw_w1/{name}"), move |b| {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut batch = BatchState::zeros(n, 1);
            b.iter(|| black_box(s.sampled.run_batch(&mut batch, &mut rng).fault_events));
        });
        group.bench_function(format!("run_fused_w1/{name}"), move |b| {
            let mut rngs = [SmallRng::seed_from_u64(3)];
            let mut batch = BatchState::zeros(n, 1);
            b.iter(|| {
                black_box(
                    s.sampled
                        .run_batch_fused(&mut batch, &mut rngs)
                        .fault_events,
                )
            });
        });
        group.throughput(Throughput::Elements(256));
        group.bench_function(format!("run_fused_w4/{name}"), move |b| {
            let mut rngs: [SmallRng; 4] =
                std::array::from_fn(|k| SmallRng::seed_from_u64(3 + k as u64));
            let mut batch = BatchState::zeros(n, 4);
            b.iter(|| {
                black_box(
                    s.sampled
                        .run_batch_fused(&mut batch, &mut rngs[..])
                        .fault_events,
                )
            });
        });

        for (sched, masks) in [("clean", &s.clean), ("sparse_g1e-3", &s.sparse)] {
            group.throughput(Throughput::Elements(64));
            group.bench_function(format!("masked_{sched}_raw_w1/{name}"), move |b| {
                let mut rng = SmallRng::seed_from_u64(5);
                let mut batch = BatchState::zeros(n, 1);
                b.iter(|| {
                    black_box(
                        s.masked
                            .run_batch_masked_raw(&mut batch, masks, &mut rng)
                            .fault_events,
                    )
                });
            });
            group.throughput(Throughput::Elements(256));
            group.bench_function(format!("masked_{sched}_fused_w4/{name}"), move |b| {
                let mut rngs: [SmallRng; 4] =
                    std::array::from_fn(|k| SmallRng::seed_from_u64(5 + k as u64));
                let mut batch = BatchState::zeros(n, 4);
                let flat: Vec<u64> = masks.iter().flat_map(|&m| [m; 4]).collect();
                b.iter(|| {
                    black_box(
                        s.masked
                            .run_batch_masked(&mut batch, &flat, &mut rngs[..])
                            .fault_events,
                    )
                });
            });
        }
        if s.dense.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(256));
        group.bench_function(format!("masked_dense_rotating_fused_w4/{name}"), move |b| {
            let mut rngs: [SmallRng; 4] =
                std::array::from_fn(|k| SmallRng::seed_from_u64(7 + k as u64));
            let mut batch = BatchState::zeros(n, 4);
            let mut next = 0;
            b.iter(|| {
                next = (next + 1) % s.dense.len();
                black_box(
                    s.masked
                        .run_batch_masked(&mut batch, &s.dense[next], &mut rngs[..])
                        .fault_events,
                )
            });
        });
    }
    stratified_split(&mut group, &level2);
    group.finish();
}

/// The two non-kernel phases of a level-2 stratified word, and the fill
/// of a plain level-2 word, timed alone.
fn stratified_split<'a>(group: &mut BenchmarkGroup<'a>, mc: &'a ConcatMc) {
    let plain = mc.engine(&UniformNoise::new(1e-2));
    group.throughput(Throughput::Elements(256));
    group.bench_function("plain_schedule_only/level2", move |b| {
        let mut rngs: [SmallRng; 4] =
            std::array::from_fn(|k| SmallRng::seed_from_u64(17 + k as u64));
        b.iter(|| black_box(plain.schedule_plain_only(&mut rngs[..])));
    });
    let engine = mc.engine(&UniformNoise::new(1e-3));
    // One word after a dense faulted run: every lane is a candidate, as
    // in a stratified word.
    let trial = mc.trial();
    let mut batch = BatchState::zeros(engine.n_wires(), 1);
    let mut rng = SmallRng::seed_from_u64(13);
    let inputs = trial.prepare(&mut batch, &mut rng);
    let masks = dense_schedule(engine.n_ops(), 1, &mut rng);
    engine.run_batch_masked(&mut batch, &masks, std::slice::from_mut(&mut rng));
    group.bench_function("stratified_schedule_only/level2", move |b| {
        let mut rngs: [SmallRng; 4] =
            std::array::from_fn(|k| SmallRng::seed_from_u64(11 + k as u64));
        let mut stratum = 0;
        b.iter(|| {
            stratum = (stratum + 1) % 4;
            black_box(engine.schedule_stratified(4, 4, stratum, &mut rngs[..]))
        });
    });
    group.throughput(Throughput::Elements(64));
    group.bench_function("stratified_judge_only/level2", move |b| {
        b.iter(|| black_box(trial.judge_masked(&batch, &inputs, u64::MAX)));
    });
}

/// The full stratified (masked-schedule) estimate at widths 1 and 4 —
/// the rare-event path end to end, conditional mask building included.
fn stratified_width(c: &mut Criterion) {
    let mc = &ConcatMc::new(2, toffoli(), 1);
    let engine = &mc.engine(&UniformNoise::new(1e-3));
    const TRIALS: u64 = 16_384;
    let mut group = c.benchmark_group("stratified_width");
    group.throughput(Throughput::Elements(TRIALS));
    for width in [WordWidth::W1, WordWidth::W4] {
        let opts = McOptions::new(TRIALS)
            .seed(1)
            .threads(1)
            .stratified(4, 4)
            .width(width);
        group.bench_function(format!("level2_g1e-3_w{width}"), move |b| {
            b.iter(|| black_box(engine.estimate(&mc.trial(), &opts).failures));
        });
    }
    group.finish();
}

criterion_group!(benches, fused_vs_raw, stratified_width);
criterion_main!(benches);
