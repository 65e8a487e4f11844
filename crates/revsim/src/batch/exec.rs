//! The op-at-a-time reference executors on bit planes, and the
//! [`BatchExecReport`] they share with the engine's word loop.
//!
//! [`run_ideal_batch`] runs a circuit without noise. The masked word loop
//! runs one 64-lane word under a precomputed fault-mask schedule; it is
//! what [`Engine::run_batch`](crate::engine::Engine::run_batch) and
//! [`Engine::run_batch_masked_raw`](crate::engine::Engine::run_batch_masked_raw)
//! execute. No estimate runs on either: production runs the compiled
//! micro-op word loop ([`crate::microop`]), which tests and the
//! `fused_vs_raw` bench check against these loops.
//!
//! Fault semantics match the scalar executors lane-for-lane: every
//! operation fails independently with its
//! [`NoiseModel`](crate::noise::NoiseModel) probability in each lane; a
//! failing operation skips execution and replaces its support bits with
//! independent uniform random bits.

use super::{kernels, BatchState};
use crate::circuit::Circuit;
use crate::schedule::fill_fault_planes;
use rand::rngs::SmallRng;

/// What happened during one noisy batch run (sampled faults via
/// [`Engine::run_batch`](crate::engine::Engine::run_batch) or a
/// precomputed conditional schedule via
/// [`Engine::run_batch_masked`](crate::engine::Engine::run_batch_masked)).
///
/// The `faulted_lanes` masks drive two elisions in the engine's hot
/// loops: elision-eligible trials judge only faulted lanes, and the
/// stratified rare-event estimator skips fault-free words entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchExecReport {
    /// Total `(operation, lane)` fault events across the whole run.
    pub fault_events: u64,
    /// Per plane word: mask of lanes that experienced at least one fault.
    pub faulted_lanes: Vec<u64>,
}

/// Runs `circuit` on every lane of `batch` without noise.
///
/// # Panics
///
/// Panics if the batch width does not match the circuit width.
pub fn run_ideal_batch(circuit: &Circuit, batch: &mut BatchState) {
    assert_eq!(
        batch.n_wires(),
        circuit.n_wires(),
        "batch width must match circuit width"
    );
    for op in circuit.ops() {
        for word in 0..batch.words_per_wire() {
            super::kernels::apply_word(batch, op, word);
        }
    }
}

/// Executes one 64-lane word under a **precomputed** per-op fault-mask
/// schedule, op at a time — the reference behind
/// [`Engine::run_batch_masked_raw`](crate::engine::Engine::run_batch_masked_raw).
/// Fault planes are drawn from `rng` in op order via
/// [`fill_fault_planes`], as the compiled masked loop does.
pub(crate) fn run_masked_word_batch(
    circuit: &Circuit,
    batch: &mut BatchState,
    masks: &[u64],
    rng: &mut SmallRng,
) -> BatchExecReport {
    assert_eq!(
        batch.words_per_wire(),
        1,
        "masked execution drives single-word batches"
    );
    assert_eq!(
        batch.n_wires(),
        circuit.n_wires(),
        "batch width must match circuit width"
    );
    assert_eq!(
        masks.len(),
        circuit.len(),
        "mask schedule does not match this circuit"
    );
    let mut report = BatchExecReport {
        fault_events: 0,
        faulted_lanes: vec![0; 1],
    };
    for (op, &fault) in circuit.ops().iter().zip(masks) {
        if fault == 0 {
            kernels::apply_word(batch, op, 0);
            continue;
        }
        let mut rand_planes = [0u64; 4];
        fill_fault_planes(op.arity(), fault, rng, &mut rand_planes);
        kernels::apply_word_masked(batch, op, 0, fault, &rand_planes);
        report.fault_events += fault.count_ones() as u64;
        report.faulted_lanes[0] |= fault;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::noise::UniformNoise;
    use crate::state::BitState;
    use crate::wire::w;
    use rand::{Rng, SeedableRng};

    fn recovery_like_circuit() -> Circuit {
        let mut c = Circuit::new(9);
        c.init(&[w(3), w(4), w(5)])
            .init(&[w(6), w(7), w(8)])
            .maj_inv(w(0), w(3), w(6))
            .maj_inv(w(1), w(4), w(7))
            .maj_inv(w(2), w(5), w(8))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5))
            .maj(w(6), w(7), w(8));
        c
    }

    #[test]
    fn ideal_batch_matches_scalar_lanes() {
        let c = recovery_like_circuit();
        let states: Vec<BitState> = (0..64u64).map(|v| BitState::from_u64(v % 8, 9)).collect();
        let mut batch = BatchState::from_states(&states);
        run_ideal_batch(&c, &mut batch);
        for (lane, state) in states.iter().enumerate() {
            let mut expect = state.clone();
            c.run(&mut expect);
            assert_eq!(batch.lane(lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn clean_lanes_match_the_ideal_run() {
        let c = recovery_like_circuit();
        let states: Vec<BitState> = (0..64u64)
            .map(|v| BitState::from_u64((v * 3) % 8, 9))
            .collect();
        let mut noisy = BatchState::from_states(&states);
        let mut ideal = BatchState::from_states(&states);
        run_ideal_batch(&c, &mut ideal);
        let mut rng = SmallRng::seed_from_u64(3);
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        let report = engine.run_batch(&mut noisy, &mut rng);
        let clean = !report.faulted_lanes[0];
        assert_ne!(clean, 0, "some lane should be fault-free at g=0.05");
        for lane in 0..64 {
            if (clean >> lane) & 1 == 1 {
                assert_eq!(noisy.lane(lane), ideal.lane(lane), "clean lane {lane}");
            }
        }
    }

    #[test]
    fn engine_batch_run_is_seed_deterministic() {
        // One shared implementation behind the engine: identical seeds,
        // identical streams, identical results.
        let c = recovery_like_circuit();
        let noise = UniformNoise::new(0.1);
        let engine = Engine::compile(&c, &noise);
        let mut batch_a = BatchState::zeros(9, 1);
        let mut batch_b = BatchState::zeros(9, 1);
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        let a = engine.run_batch(&mut batch_a, &mut rng_a);
        let b = engine.run_batch(&mut batch_b, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(batch_a, batch_b);
        assert!(a.fault_events > 0, "g = 0.1 over 64 lanes should fault");
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn width_mismatch_panics() {
        let c = Circuit::new(3);
        let mut batch = BatchState::zeros(4, 1);
        run_ideal_batch(&c, &mut batch);
    }

    #[test]
    fn fused_masked_run_matches_raw_masked_reference() {
        // The compiled masked loop must match the op-at-a-time raw
        // reference bit for bit.
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        for seed in 0..10u64 {
            let mut masks = vec![0u64; c.len()];
            let mut seeder = SmallRng::seed_from_u64(seed.wrapping_mul(31));
            for m in masks.iter_mut() {
                *m = seeder.random::<u64>() & seeder.random::<u64>() & seeder.random::<u64>();
            }
            let mut raw = BatchState::zeros(9, 1);
            let mut fused = BatchState::zeros(9, 1);
            let mut rng_r = SmallRng::seed_from_u64(seed);
            let mut rng_f = SmallRng::seed_from_u64(seed);
            let rr = run_masked_word_batch(&c, &mut raw, &masks, &mut rng_r);
            let rf = engine.run_batch_masked(&mut fused, &masks, std::slice::from_mut(&mut rng_f));
            assert_eq!(rr, rf, "seed {seed}: reports differ");
            assert_eq!(raw, fused, "seed {seed}: states differ");
        }
    }
}
