//! Empirical entropy measurement (§4).
//!
//! The fault-tolerant scheme ejects entropy exactly where ancillas are
//! reset: each `Init` erases whatever the previous cycle left on its wires.
//! This module histograms the pre-reset patterns of every init site over
//! many noisy runs; the summed per-site Shannon entropies estimate the
//! bits dissipated per run (sub-additivity makes the sum an upper estimate
//! of the joint entropy, the same relaxation the paper uses).
//!
//! The measurement runs on the engine's compiled word loop through
//! **copy-out wires**. The measured circuit is the original with, before
//! every `Init`, one CNOT from each of the init's wires onto a fresh wire
//! past the original ones. A private noise model gives every op that
//! touches a copy wire rate 0 and every other op the caller's rate, so the
//! copies never fault and never take a draw from the fault schedule: on
//! the original wires the observed circuit runs lane for lane as the
//! original does at the same seed. After a word runs, a site's copy planes
//! hold its 64 pre-reset patterns, and each of the 8 bins is one popcount
//! of the AND of those planes or their complements.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rft_core::entropy::entropy_of_counts;
use rft_revsim::batch::BatchState;
use rft_revsim::circuit::Circuit;
use rft_revsim::engine::{Engine, WORD_SEED_STRIDE};
use rft_revsim::noise::NoiseModel;
use rft_revsim::op::Op;
use rft_revsim::state::BitState;
use rft_revsim::wire::{w, Wire};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Result of an entropy measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyMeasurement {
    /// Trials run.
    pub trials: u64,
    /// Init sites in the circuit.
    pub sites: usize,
    /// Estimated bits dissipated per run (sum of per-site entropies).
    pub bits_per_run: f64,
}

/// The caller's noise on the original wires; any op touching a copy wire
/// (index `first_copy` and up) never faults.
struct CopyOutNoise<'a, N: ?Sized> {
    inner: &'a N,
    first_copy: usize,
}

impl<N: NoiseModel + ?Sized> NoiseModel for CopyOutNoise<'_, N> {
    fn fault_probability(&self, op: &Op) -> f64 {
        let copy = |wire: &Wire| wire.index() >= self.first_copy;
        if op.support().as_slice().iter().any(copy) {
            0.0
        } else {
            self.inner.fault_probability(op)
        }
    }
}

/// `circuit` with a copy-out CNOT from each wire of every `Init` onto a
/// fresh wire, just before the init; returns it with each site's copy
/// wires (wire `j` of the init → copy `start + j`), in op order.
fn observed_circuit(circuit: &Circuit) -> (Circuit, Vec<Range<usize>>) {
    let init_wires = |op: &Op| match op {
        Op::Init(init) => init.wires().len(),
        _ => 0,
    };
    let copies: usize = circuit.ops().iter().map(init_wires).sum();
    let mut out = Circuit::new(circuit.n_wires() + copies);
    let (mut sites, mut next) = (Vec::new(), circuit.n_wires());
    for op in circuit.ops() {
        if let Op::Init(init) = op {
            let start = next;
            for &wire in init.wires() {
                out.cnot(wire, w(next as u32));
                next += 1;
            }
            sites.push(start..next);
        }
        out.push(*op);
    }
    (out, sites)
}

/// `state` in all 64 lanes of a one-word batch `n_wires` wide (wires
/// past the state's, the copy wires, start at zero).
fn broadcast(state: &BitState, n_wires: usize) -> BatchState {
    let mut batch = BatchState::zeros(n_wires, 1);
    for (i, bit) in state.iter().enumerate() {
        batch.set_word(w(i as u32), 0, if bit { u64::MAX } else { 0 });
    }
    batch
}

/// The per-site histograms of pre-reset patterns (bin `p` counts runs in
/// which the site's wire `j` held bit `j` of `p`), one per init in op
/// order, over `trials` runs of `circuit` from `input` under `noise`.
fn reset_histograms<N: NoiseModel + ?Sized>(
    circuit: &Circuit,
    input: &BitState,
    noise: &N,
    trials: u64,
    seed: u64,
) -> Vec<[u64; 8]> {
    assert!(trials > 0, "need at least one trial");
    assert_eq!(
        input.len(),
        circuit.n_wires(),
        "input width must match circuit width"
    );
    let (observed, sites) = observed_circuit(circuit);
    let noise = CopyOutNoise {
        inner: noise,
        first_copy: circuit.n_wires(),
    };
    let engine = Engine::compile(&observed, &noise);
    let start = broadcast(input, observed.n_wires());
    let mut hists = vec![[0u64; 8]; sites.len()];
    let mut batch = start.clone();
    for word in 0..trials.div_ceil(64) {
        let valid = u64::MAX >> (64 - (trials - word * 64).min(64));
        let seed = seed ^ WORD_SEED_STRIDE.wrapping_mul(word + 1);
        batch.clone_from(&start);
        engine.run_batch_fused(&mut batch, &mut [SmallRng::seed_from_u64(seed)]);
        for (hist, copies) in hists.iter_mut().zip(&sites) {
            for (pattern, bin) in hist.iter_mut().enumerate().take(1 << copies.len()) {
                let lanes = copies.clone().enumerate().fold(valid, |m, (j, c)| {
                    let plane = batch.word(w(c as u32), 0);
                    m & if pattern >> j & 1 == 1 { plane } else { !plane }
                });
                *bin += u64::from(lanes.count_ones());
            }
        }
    }
    hists
}

/// Measures the reset entropy of `circuit` under `noise` over `trials`
/// runs from the fixed initial state `input` (fixed input ensures all
/// observed randomness comes from faults, matching §4's accounting).
///
/// Runs `trials.div_ceil(64)` words on [`Engine::run_batch_fused`], word
/// `i` seeded from `seed` and `i` as the estimators seed theirs.
///
/// # Panics
///
/// Panics if `trials == 0` or the input width mismatches the circuit.
pub fn measure_reset_entropy<N>(
    circuit: &Circuit,
    input: &BitState,
    noise: &N,
    trials: u64,
    seed: u64,
) -> EntropyMeasurement
where
    N: NoiseModel,
{
    let hists = reset_histograms(circuit, input, noise, trials, seed);
    EntropyMeasurement {
        trials,
        sites: hists.len(),
        bits_per_run: hists.iter().map(|h| entropy_of_counts(h)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rft_core::concat::FtBuilder;
    use rft_revsim::gate::Gate;
    use rft_revsim::noise::{NoNoise, UniformNoise};

    fn init_only_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.init(&[w(0), w(1), w(2)]);
        c
    }

    /// A `cycles`-cycle FT Toffoli program at `level` and its encoded
    /// input for the logical state `logical`.
    fn toffoli_program(level: u8, cycles: usize, logical: u64) -> (Circuit, BitState) {
        let gate = Gate::Toffoli {
            controls: [w(0), w(1)],
            target: w(2),
        };
        let mut b = FtBuilder::new(level, 3);
        for _ in 0..cycles {
            b.apply(&gate);
        }
        let program = b.finish();
        let input = program.encode(&BitState::from_u64(logical, 3));
        (program.circuit().clone(), input)
    }

    #[test]
    fn noiseless_fixed_input_has_zero_entropy() {
        let c = init_only_circuit();
        let m = measure_reset_entropy(&c, &BitState::zeros(3), &NoNoise, 200, 1);
        assert_eq!(m.sites, 1);
        assert_eq!(m.bits_per_run, 0.0);
    }

    #[test]
    fn deterministic_nonzero_input_still_zero_entropy() {
        // The reset erases a *deterministic* pattern: zero Shannon entropy
        // (erasure costs information-theoretically nothing if the value is
        // known).
        let c = init_only_circuit();
        let m = measure_reset_entropy(&c, &BitState::from_u64(0b101, 3), &NoNoise, 100, 1);
        assert_eq!(m.bits_per_run, 0.0);
    }

    #[test]
    fn copy_out_wires_leave_the_original_wires_unchanged() {
        // On the original wires the observed circuit runs lane for lane
        // as the original does at the same seed: the copies never fault
        // and take no draw from the fault schedule.
        for level in [1u8, 2] {
            let (c, input) = toffoli_program(level, 2, 0b011);
            let (observed, _) = observed_circuit(&c);
            for g in [1e-3, 1e-2, 5e-2] {
                let noise = UniformNoise::new(g);
                let plain = Engine::compile(&c, &noise);
                let copy_out = CopyOutNoise {
                    inner: &noise,
                    first_copy: c.n_wires(),
                };
                let obs = Engine::compile(&observed, &copy_out);
                for word in 0..40u64 {
                    let seed = 0x5EED ^ WORD_SEED_STRIDE.wrapping_mul(word + 1);
                    let mut a = broadcast(&input, c.n_wires());
                    let mut b = broadcast(&input, observed.n_wires());
                    plain.run_batch_fused(&mut a, &mut [SmallRng::seed_from_u64(seed)]);
                    obs.run_batch_fused(&mut b, &mut [SmallRng::seed_from_u64(seed)]);
                    for i in 0..c.n_wires() {
                        let wire = w(i as u32);
                        assert_eq!(
                            a.word(wire, 0),
                            b.word(wire, 0),
                            "level {level}, g {g}, word {word}: wire {i} differs"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn copy_out_wires_hold_the_ideal_pre_reset_patterns() {
        // Without noise every lane's copy wires hold the pattern a prefix
        // run of the original circuit leaves on the init's wires. From a
        // codeword every syndrome is 0, so the input is arbitrary bits.
        for level in [1u8, 2] {
            let (c, _) = toffoli_program(level, 2, 0);
            let bits: Vec<bool> = (0..c.n_wires()).map(|i| i * 7 % 5 < 2).collect();
            let input = BitState::from_bools(&bits);
            let (observed, sites) = observed_circuit(&c);
            let mut batch = broadcast(&input, observed.n_wires());
            Engine::compile(&observed, &NoNoise)
                .run_batch_fused(&mut batch, &mut [SmallRng::seed_from_u64(1)]);
            let inits: Vec<usize> = (0..c.len())
                .filter(|&i| matches!(c.ops()[i], Op::Init(_)))
                .collect();
            assert_eq!(inits.len(), sites.len());
            let mut nonzero = 0;
            for (&i, copies) in inits.iter().zip(&sites) {
                let mut prefix = Circuit::new(c.n_wires());
                for op in &c.ops()[..i] {
                    prefix.push(*op);
                }
                let mut state = input.clone();
                prefix.run(&mut state);
                let Op::Init(init) = &c.ops()[i] else {
                    unreachable!()
                };
                let want = state.read_pattern(init.wires());
                nonzero += usize::from(want != 0);
                for (j, copy) in copies.clone().enumerate() {
                    let plane = batch.word(w(copy as u32), 0);
                    let bit = if want >> j & 1 == 1 { u64::MAX } else { 0 };
                    assert_eq!(plane, bit, "level {level}: init op {i}, wire {j}");
                }
            }
            assert!(nonzero > 0, "level {level}: every pre-reset pattern was 0");
        }
    }

    #[test]
    fn upstream_faults_create_reset_entropy() {
        // A noisy MAJ before the init randomizes the pattern the init
        // must erase. From zeros the init sees 000 unless the MAJ faults,
        // and a fault leaves one of eight equally likely patterns:
        // P(000) = 1 − 7g/8 and every other pattern g/8. Each bin must
        // sit within 5 binomial standard errors of that closed form.
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).init(&[w(0), w(1), w(2)]);
        let trials = 64_000u64;
        for g in [0.5, 0.05] {
            let noise = UniformNoise::new(g);
            let hists = reset_histograms(&c, &BitState::zeros(3), &noise, trials, 2);
            assert_eq!(hists.len(), 1);
            let exact: Vec<f64> = (0..8)
                .map(|p| if p == 0 { 1.0 - 7.0 * g / 8.0 } else { g / 8.0 })
                .collect();
            for (p, (&count, &q)) in hists[0].iter().zip(&exact).enumerate() {
                let freq = count as f64 / trials as f64;
                let se = (q * (1.0 - q) / trials as f64).sqrt();
                assert!(
                    (freq - q).abs() <= 5.0 * se,
                    "g {g}, pattern {p:03b}: measured {freq}, exact {q}"
                );
            }
            let m = measure_reset_entropy(&c, &BitState::zeros(3), &noise, trials, 2);
            let h: f64 = exact.iter().map(|&q| -q * q.log2()).sum();
            assert!(
                (m.bits_per_run - h).abs() < 0.02,
                "g {g}: measured {} bits, exact {h}",
                m.bits_per_run
            );
        }
    }

    #[test]
    fn fully_random_reset_approaches_three_bits() {
        // With fault probability 1 the gate always randomizes: the init
        // erases a uniform 3-bit pattern = 3 bits of entropy.
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).init(&[w(0), w(1), w(2)]);
        let m = measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(1.0), 8000, 3);
        assert!(
            (m.bits_per_run - 3.0).abs() < 0.05,
            "measured {}",
            m.bits_per_run
        );
    }

    #[test]
    fn entropy_grows_with_fault_rate() {
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).init(&[w(0), w(1), w(2)]);
        let lo =
            measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(0.01), 20_000, 4);
        let hi = measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(0.2), 20_000, 4);
        assert!(lo.bits_per_run < hi.bits_per_run);
    }
}
