//! The report of a per-trial noisy run. The ideal scalar run is
//! [`Circuit::run`](crate::circuit::Circuit::run).
//!
//! Fault semantics follow the paper exactly: a failing operation does not
//! execute; instead every bit in its support is replaced by an independent
//! uniformly random bit ("the output is one of eight equally likely
//! outputs", §4). A failing initialization likewise leaves random bits
//! instead of zeros.
//!
//! Noisy execution lives on the [`Engine`] facade: every estimate and the
//! §4 reset-entropy measurement run on its compiled word loop, and
//! [`Engine::run_scalar`] is the one-trial-at-a-time reference that tests,
//! examples and benches compare it with. Planned-fault execution is
//! [`FaultPlan::run`](crate::fault::FaultPlan::run).
//!
//! [`Engine`]: crate::engine::Engine
//! [`Engine::run_scalar`]: crate::engine::Engine::run_scalar

/// What happened during one noisy run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Indices of operations that faulted, in execution order.
    pub faults: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use crate::circuit::Circuit;
    use crate::engine::Engine;
    use crate::noise::{NoNoise, UniformNoise};
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
    fn engine_scalar_run_is_seed_deterministic() {
        // Same seed ⇒ identical fault sequences and final states.
        let c = recovery_like_circuit();
        let noise = UniformNoise::new(0.2);
        let engine = Engine::compile(&c, &noise);
        let mut s_a = BitState::zeros(9);
        let mut s_b = BitState::zeros(9);
        let mut rng_a = SmallRng::seed_from_u64(17);
        let mut rng_b = SmallRng::seed_from_u64(17);
        let a = engine.run_scalar(&mut s_a, &mut rng_a);
        let b = engine.run_scalar(&mut s_b, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(s_a, s_b);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn width_mismatch_panics() {
        let c = Circuit::new(3);
        let mut s = BitState::zeros(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = Engine::compile(&c, &NoNoise).run_scalar(&mut s, &mut rng);
    }
}
