//! Scalar circuit executors: ideal runs and the observer hooks shared
//! with [`crate::engine`].
//!
//! Fault semantics follow the paper exactly: a failing operation does not
//! execute; instead every bit in its support is replaced by an independent
//! uniformly random bit ("the output is one of eight equally likely
//! outputs", §4). A failing initialization likewise leaves random bits
//! instead of zeros.
//!
//! Noisy execution lives on the [`Engine`] facade ([`Engine::run_scalar`],
//! [`Engine::run_scalar_observed`]): compile once and reuse across runs
//! instead of re-deriving fault probabilities per call. Planned-fault
//! execution is [`FaultPlan::run`](crate::fault::FaultPlan::run).
//!
//! [`Engine`]: crate::engine::Engine
//! [`Engine::run_scalar`]: crate::engine::Engine::run_scalar
//! [`Engine::run_scalar_observed`]: crate::engine::Engine::run_scalar_observed

use crate::circuit::Circuit;
use crate::state::BitState;
use crate::wire::Wire;

/// What happened during one noisy run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Indices of operations that faulted, in execution order.
    pub faults: Vec<usize>,
}

impl ExecReport {
    /// Number of faults that occurred.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }
}

/// Observer hooks for instrumented execution.
///
/// The entropy measurements of §4 are implemented as an observer that
/// inspects ancilla values at the moment they are reset — the precise point
/// where the scheme ejects entropy.
pub trait ExecObserver {
    /// Called before an `Init` executes, with the values currently on its
    /// wires packed as a pattern (bit `j` → wire `j` of the init's support).
    fn before_init(&mut self, op_index: usize, wires: &[Wire], values: u8) {
        let _ = (op_index, wires, values);
    }

    /// Called when an operation faults.
    fn on_fault(&mut self, op_index: usize) {
        let _ = op_index;
    }
}

/// An observer that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Runs `circuit` on `state` without noise.
///
/// # Panics
///
/// Panics if the state width does not match the circuit width.
pub fn run_ideal(circuit: &Circuit, state: &mut BitState) {
    circuit.run(state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::noise::{NoNoise, UniformNoise};
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
    fn observer_sees_pre_init_values() {
        struct Recorder(Vec<(usize, u8)>);
        impl ExecObserver for Recorder {
            fn before_init(&mut self, op_index: usize, _wires: &[Wire], values: u8) {
                self.0.push((op_index, values));
            }
        }
        let mut c = Circuit::new(3);
        c.not(w(0)).not(w(2)).init(&[w(0), w(1), w(2)]);
        let mut s = BitState::zeros(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut rec = Recorder(Vec::new());
        Engine::compile(&c, &NoNoise).run_scalar_observed(&mut s, &mut rng, &mut rec);
        // Before the init, wires held (1,0,1) -> pattern 0b101.
        assert_eq!(rec.0, vec![(2, 0b101)]);
        assert_eq!(s.count_ones(), 0);
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
