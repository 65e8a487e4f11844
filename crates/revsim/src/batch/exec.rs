//! Batch executors: ideal bit-parallel runs and the [`BatchExecReport`]
//! shared with the engine's noisy word loops.
//!
//! Fault semantics match the scalar executors lane-for-lane: every
//! operation fails independently with its
//! [`NoiseModel`](crate::noise::NoiseModel) probability in each lane; a
//! failing operation skips execution and replaces its support bits with
//! independent uniform random bits. The noisy implementation lives in
//! [`crate::engine`] — compile an [`Engine`](crate::engine::Engine) and
//! call [`Engine::run_batch`](crate::engine::Engine::run_batch).

use super::BatchState;
use crate::circuit::Circuit;

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

impl BatchExecReport {
    /// Lanes (within plane word `word`) that executed the entire circuit
    /// fault-free.
    #[must_use]
    pub fn clean_lanes(&self, word: usize) -> u64 {
        !self.faulted_lanes[word]
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::noise::UniformNoise;
    use crate::state::BitState;
    use crate::wire::w;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
        let clean = report.clean_lanes(0);
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
        let mut batch_a = BatchState::zeros(9, 2);
        let mut batch_b = BatchState::zeros(9, 2);
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        let a = engine.run_batch(&mut batch_a, &mut rng_a);
        let b = engine.run_batch(&mut batch_b, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(batch_a, batch_b);
        assert!(a.fault_events > 0, "g = 0.1 over 2 words should fault");
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn width_mismatch_panics() {
        let c = Circuit::new(3);
        let mut batch = BatchState::zeros(4, 1);
        run_ideal_batch(&c, &mut batch);
    }
}
