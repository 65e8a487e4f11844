//! Noise models.
//!
//! The paper's error model (§2): "at each application, a gate will randomize
//! all the bits it is applied to with probability g". Initializations are
//! operations too; §2.2 computes thresholds both with initialization errors
//! (every op fails at rate `g`) and without (perfect resets), so the models
//! here let the two rates differ.

use crate::op::Op;
use serde::{Deserialize, Serialize};

/// Assigns a failure probability to each operation.
///
/// Implementors must return probabilities in `[0, 1]`.
pub trait NoiseModel {
    /// Probability that `op` fails (randomizing its support).
    fn fault_probability(&self, op: &Op) -> f64;
}

/// Every operation — gates and initializations alike — fails with the same
/// probability `g`. This is the paper's default model.
///
/// # Examples
///
/// ```
/// use rft_revsim::noise::{NoiseModel, UniformNoise};
/// use rft_revsim::prelude::*;
///
/// let noise = UniformNoise::new(1.0 / 108.0);
/// let op = Op::from(Gate::Maj(w(0), w(1), w(2)));
/// assert!((noise.fault_probability(&op) - 1.0 / 108.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformNoise {
    g: f64,
}

impl UniformNoise {
    /// Creates a uniform model with per-operation failure probability `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not in `[0, 1]`.
    pub fn new(g: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&g),
            "failure probability must be in [0,1], got {g}"
        );
        UniformNoise { g }
    }

    /// The per-operation failure probability.
    pub fn rate(&self) -> f64 {
        self.g
    }
}

impl NoiseModel for UniformNoise {
    fn fault_probability(&self, _op: &Op) -> f64 {
        self.g
    }
}

/// Gates fail at rate `gate`, resets at rate `init`.
///
/// Setting `init = 0` reproduces the paper's "if initialization can be
/// assumed to be far more accurate than our gates" accounting (G = 9 instead
/// of 11, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitNoise {
    gate: f64,
    init: f64,
}

impl SplitNoise {
    /// Creates a split model.
    ///
    /// # Panics
    ///
    /// Panics if either rate is not in `[0, 1]`.
    pub fn new(gate: f64, init: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gate),
            "gate rate must be in [0,1], got {gate}"
        );
        assert!(
            (0.0..=1.0).contains(&init),
            "init rate must be in [0,1], got {init}"
        );
        SplitNoise { gate, init }
    }

    /// A model with perfect initialization.
    pub fn perfect_init(gate: f64) -> Self {
        SplitNoise::new(gate, 0.0)
    }
}

impl NoiseModel for SplitNoise {
    fn fault_probability(&self, op: &Op) -> f64 {
        match op {
            Op::Gate(_) => self.gate,
            Op::Init(_) => self.init,
        }
    }
}

/// Probability that one full pass of `circuit` executes fault-free under
/// `noise`: `Π (1 − pᵢ)` over the op stream.
///
/// This is the mass the engine's stratified rare-event estimator resolves
/// analytically (zero-fault elision); deep below threshold it approaches
/// 1 and quantifies how much of a plain Monte-Carlo budget is spent
/// confirming a foregone conclusion. The compiled equivalent is
/// [`Engine::fault_free_probability`](crate::engine::Engine::fault_free_probability).
///
/// # Panics
///
/// Panics if the model reports a probability outside `[0, 1]`.
pub fn fault_free_probability<N: NoiseModel + ?Sized>(
    circuit: &crate::circuit::Circuit,
    noise: &N,
) -> f64 {
    circuit
        .ops()
        .iter()
        .map(|op| {
            let p = noise.fault_probability(op);
            assert!(
                (0.0..=1.0).contains(&p),
                "noise model returned probability {p} outside [0,1]"
            );
            1.0 - p
        })
        .product()
}

/// The noiseless model (useful to share code paths in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoNoise;

impl NoiseModel for NoNoise {
    fn fault_probability(&self, _op: &Op) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::wire::w;

    #[test]
    fn uniform_noise_applies_to_all_ops() {
        let noise = UniformNoise::new(0.25);
        assert_eq!(noise.fault_probability(&Op::from(Gate::Not(w(0)))), 0.25);
        assert_eq!(noise.fault_probability(&Op::init(&[w(0)])), 0.25);
        assert_eq!(noise.rate(), 0.25);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn uniform_noise_rejects_invalid() {
        let _ = UniformNoise::new(1.5);
    }

    #[test]
    fn split_noise_distinguishes_inits() {
        let noise = SplitNoise::new(0.1, 0.0);
        assert_eq!(noise.fault_probability(&Op::from(Gate::Not(w(0)))), 0.1);
        assert_eq!(noise.fault_probability(&Op::init(&[w(0)])), 0.0);
        assert_eq!(SplitNoise::perfect_init(0.1), noise);
    }

    #[test]
    fn no_noise_is_zero() {
        assert_eq!(NoNoise.fault_probability(&Op::init(&[w(0)])), 0.0);
    }

    #[test]
    fn fault_free_probability_is_the_product() {
        use crate::circuit::Circuit;
        let mut c = Circuit::new(3);
        c.not(w(0)).cnot(w(0), w(1)).init(&[w(2)]);
        let g = 0.01;
        let p0 = fault_free_probability(&c, &UniformNoise::new(g));
        assert!((p0 - (1.0 - g).powi(3)).abs() < 1e-15);
        let split = fault_free_probability(&c, &SplitNoise::perfect_init(g));
        assert!((split - (1.0 - g).powi(2)).abs() < 1e-15);
        assert_eq!(fault_free_probability(&c, &NoNoise), 1.0);
    }
}
