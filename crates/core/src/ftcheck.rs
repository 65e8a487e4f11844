//! Exhaustive fault-tolerance verification of FT cycles.
//!
//! The paper's central claim about Figure 2 is combinatorial: *any single
//! faulty operation leaves at most one error in each output codeword*, so a
//! following recovery cycle can absorb it. [`CycleSpec::sweep_single_faults`]
//! verifies this by enumerating every `(logical input, failing op,
//! corruption pattern)` triple — a proof by exhaustion over the full fault
//! set, which is feasible because supports have at most three bits
//! (`2^3 = 8` patterns per op).

use rand::{Rng, RngCore};
use rft_revsim::batch::kernels::majority3;
use rft_revsim::batch::BatchState;
use rft_revsim::circuit::Circuit;
use rft_revsim::engine::{failure_mask_in, WordTrial};
use rft_revsim::fault::{double_fault_plans, single_fault_plans, FaultPlan};
use rft_revsim::permutation::Permutation;
use rft_revsim::state::BitState;
use rft_revsim::wire::Wire;

/// A fault-tolerant cycle to verify: a physical circuit computing a logical
/// function on level-1 repetition codewords.
#[derive(Debug, Clone)]
pub struct CycleSpec {
    circuit: Circuit,
    inputs: Vec<[Wire; 3]>,
    outputs: Vec<[Wire; 3]>,
    logical: Permutation,
}

/// Result of an exhaustive single-fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweep {
    /// Number of fault plans enumerated.
    pub plans: usize,
    /// Number of (input × plan) runs executed.
    pub runs: usize,
    /// Largest per-codeword Hamming error observed at the outputs.
    pub max_codeword_error: u32,
    /// Runs in which some output codeword had ≥ 2 errors (FT violations).
    pub violations: usize,
    /// One violating `(logical_input, plan)` example, if any.
    pub worst: Option<(u64, FaultPlan)>,
    /// Mean over inputs of `Σ_ops P(random fault pattern defeats FT)` —
    /// the coefficient `c` of the first-order term `c·g` in the cycle's
    /// logical error rate. Zero iff the cycle is single-fault tolerant.
    pub first_order_mean: f64,
    /// The same coefficient for the worst-case input.
    pub first_order_worst: f64,
}

impl FaultSweep {
    /// Whether the single-fault tolerance property holds
    /// (every output codeword within distance 1 of the ideal codeword).
    pub fn is_fault_tolerant(&self) -> bool {
        self.violations == 0
    }
}

impl CycleSpec {
    /// Creates a cycle specification.
    ///
    /// `inputs[i]` / `outputs[i]` are the level-1 codeword positions of
    /// logical bit `i` before/after the cycle, and `logical` is the
    /// intended function on `inputs.len()` logical bits.
    ///
    /// # Panics
    ///
    /// Panics if the logical width disagrees with `inputs`/`outputs`, or if
    /// any listed wire is out of range for the circuit.
    pub fn new(
        circuit: Circuit,
        inputs: Vec<[Wire; 3]>,
        outputs: Vec<[Wire; 3]>,
        logical: Permutation,
    ) -> Self {
        assert_eq!(inputs.len(), outputs.len(), "inputs/outputs must pair up");
        assert_eq!(logical.n_bits(), inputs.len(), "logical width mismatch");
        for block in inputs.iter().chain(outputs.iter()) {
            for wire in block {
                assert!(
                    wire.index() < circuit.n_wires(),
                    "wire {wire} out of range for {}-wire cycle",
                    circuit.n_wires()
                );
            }
        }
        CycleSpec {
            circuit,
            inputs,
            outputs,
            logical,
        }
    }

    /// The physical circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of logical bits.
    pub fn n_logical(&self) -> usize {
        self.inputs.len()
    }

    /// Input codeword positions per logical bit.
    pub fn inputs(&self) -> &[[Wire; 3]] {
        &self.inputs
    }

    /// Output codeword positions per logical bit.
    pub fn outputs(&self) -> &[[Wire; 3]] {
        &self.outputs
    }

    /// The intended logical function.
    pub fn logical(&self) -> &Permutation {
        &self.logical
    }

    /// Prepares the all-zero physical state with `input` encoded on the
    /// input codewords.
    pub fn encode_input(&self, input: u64) -> BitState {
        let mut state = BitState::zeros(self.circuit.n_wires());
        for (i, block) in self.inputs.iter().enumerate() {
            let bit = (input >> i) & 1 == 1;
            for &wire in block {
                state.set(wire, bit);
            }
        }
        state
    }

    /// Per-codeword Hamming distance of the outputs from the ideal
    /// codewords for logical input `input`.
    pub fn output_errors(&self, input: u64, state: &BitState) -> Vec<u32> {
        let ideal = self.logical.apply(input);
        self.outputs
            .iter()
            .enumerate()
            .map(|(i, block)| {
                let bit = (ideal >> i) & 1 == 1;
                block.iter().filter(|&&w| state.get(w) != bit).count() as u32
            })
            .collect()
    }

    /// Decodes the output codewords by majority into a logical value.
    pub fn decode_output(&self, state: &BitState) -> u64 {
        let mut value = 0u64;
        for (i, block) in self.outputs.iter().enumerate() {
            let ones = block.iter().filter(|&&w| state.get(w)).count();
            if ones >= 2 {
                value |= 1 << i;
            }
        }
        value
    }

    /// Batch analogue of [`CycleSpec::encode_input`]: writes 64 logical
    /// inputs at once onto plane word `word`. `logical[i]` holds logical
    /// bit `i`'s value across lanes.
    ///
    /// # Panics
    ///
    /// Panics if `logical.len() != self.n_logical()`.
    pub fn encode_input_word(&self, batch: &mut BatchState, word: usize, logical: &[u64]) {
        assert_eq!(logical.len(), self.n_logical(), "logical width mismatch");
        for (block, &bits) in self.inputs.iter().zip(logical) {
            for &wire in block {
                batch.set_word(wire, word, bits);
            }
        }
    }

    /// Batch analogue of [`CycleSpec::decode_output`]: bitwise majority per
    /// output codeword. Returns one plane word per logical bit.
    pub fn decode_output_word(&self, batch: &BatchState, word: usize) -> Vec<u64> {
        self.outputs
            .iter()
            .map(|block| {
                majority3(
                    batch.word(block[0], word),
                    batch.word(block[1], word),
                    batch.word(block[2], word),
                )
            })
            .collect()
    }

    /// Checks that without faults the cycle maps every encoded input to the
    /// exactly-encoded ideal output (all output codewords clean).
    pub fn verify_ideal(&self) -> Result<(), String> {
        for input in 0..(1u64 << self.n_logical()) {
            let mut state = self.encode_input(input);
            self.circuit.run(&mut state);
            let errors = self.output_errors(input, &state);
            if errors.iter().any(|&e| e != 0) {
                return Err(format!(
                    "ideal run of input {input:b} leaves output errors {errors:?}"
                ));
            }
        }
        Ok(())
    }

    /// Exhaustively verifies single-fault tolerance: for every logical
    /// input and every possible single-op corruption, every output codeword
    /// must be within Hamming distance 1 of its ideal codeword.
    pub fn sweep_single_faults(&self) -> FaultSweep {
        let mut sweep = FaultSweep {
            plans: 0,
            runs: 0,
            max_codeword_error: 0,
            violations: 0,
            worst: None,
            first_order_mean: 0.0,
            first_order_worst: 0.0,
        };
        let n_inputs = 1u64 << self.n_logical();
        let mut coeff = vec![0.0f64; n_inputs as usize];
        for plan in single_fault_plans(&self.circuit) {
            sweep.plans += 1;
            let op_index = plan.faults()[0].op_index;
            let pattern_weight = 1.0 / (1u64 << self.circuit.ops()[op_index].arity()) as f64;
            for input in 0..n_inputs {
                sweep.runs += 1;
                let mut state = self.encode_input(input);
                plan.run(&self.circuit, &mut state);
                let worst_block = self
                    .output_errors(input, &state)
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                sweep.max_codeword_error = sweep.max_codeword_error.max(worst_block);
                if worst_block >= 2 {
                    sweep.violations += 1;
                    coeff[input as usize] += pattern_weight;
                    if sweep.worst.is_none() {
                        sweep.worst = Some((input, plan.clone()));
                    }
                }
            }
        }
        sweep.first_order_mean = coeff.iter().sum::<f64>() / n_inputs as f64;
        sweep.first_order_worst = coeff.iter().copied().fold(0.0, f64::max);
        sweep
    }

    /// Searches for a pair of faults that defeats the cycle (≥ 2 errors in
    /// some output codeword). Returns the first such `(input, plan)`.
    ///
    /// The existence of such a pair shows the single-fault guarantee is
    /// tight — the scheme corrects one error, not two.
    pub fn find_double_fault_failure(&self) -> Option<(u64, FaultPlan)> {
        for plan in double_fault_plans(&self.circuit) {
            for input in 0..(1u64 << self.n_logical()) {
                let mut state = self.encode_input(input);
                plan.run(&self.circuit, &mut state);
                if self
                    .output_errors(input, &state)
                    .into_iter()
                    .any(|e| e >= 2)
                {
                    return Some((input, plan));
                }
            }
        }
        None
    }
}

/// A `CycleSpec` is directly usable as a Monte-Carlo trial: each lane
/// draws an independent uniform logical input, the input codewords are
/// encoded onto the plane word, and a lane fails when the majority-decoded
/// output disagrees with the intended logical function.
impl WordTrial for CycleSpec {
    fn n_wires(&self) -> usize {
        self.circuit.n_wires()
    }

    fn prepare(&self, batch: &mut BatchState, rng: &mut dyn RngCore) -> Vec<u64> {
        let mut logical = Vec::new();
        self.prepare_into(batch, rng, &mut logical);
        logical
    }

    fn prepare_into(&self, batch: &mut BatchState, rng: &mut dyn RngCore, inputs: &mut Vec<u64>) {
        inputs.clear();
        inputs.extend((0..self.n_logical()).map(|_| rng.random::<u64>()));
        self.encode_input_word(batch, 0, inputs);
    }

    fn judge(&self, batch: &BatchState, inputs: &[u64]) -> u64 {
        self.judge_masked(batch, inputs, u64::MAX)
    }

    fn judge_masked(&self, batch: &BatchState, inputs: &[u64], candidates: u64) -> u64 {
        if candidates == 0 {
            return 0;
        }
        let decoded = self.decode_output_word(batch, 0);
        failure_mask_in(candidates, inputs, &decoded, |input| {
            self.logical.apply(input)
        })
    }

    /// Encode → run → decode against the ideal function: a fault-free
    /// lane decodes exactly, so zero-fault elision is sound.
    fn fault_free_can_fail(&self) -> bool {
        false
    }
}

/// Builds the §2.2 non-local fault-tolerant cycle as a [`CycleSpec`]:
/// three level-1 codewords on their own 9-wire tiles, a transversal
/// application of `gate` (wires must be logical indices 0,1,2), then the
/// Figure 2 recovery on each tile. Exactly `G = 3 + 8 = 11` operations act
/// on each encoded bit.
///
/// # Panics
///
/// Panics if `gate` does not act on exactly the logical wires `{0,1,2}`.
pub fn transversal_cycle(gate: &rft_revsim::gate::Gate) -> CycleSpec {
    use crate::recovery::{DATA_IN, DATA_OUT, TILE_WIDTH};
    use rft_revsim::wire::w;

    let support = gate.support();
    assert!(
        support.len() == 3 && (0..3).all(|i| support.contains(w(i))),
        "gate must act on logical wires 0,1,2"
    );
    let mut circuit = Circuit::new(3 * TILE_WIDTH);
    let tile_wire = |tile: usize, q: Wire| w((tile * TILE_WIDTH) as u32 + q.raw());
    // Transversal application: code bit k of each tile.
    for q in DATA_IN {
        let map = [tile_wire(0, q), tile_wire(1, q), tile_wire(2, q)];
        circuit.push(rft_revsim::op::Op::Gate(gate.remap(&map)));
    }
    // Recovery on each tile.
    let recovery = crate::recovery::recovery_circuit();
    for tile in 0..3 {
        let map: Vec<Wire> = (0..TILE_WIDTH as u32)
            .map(|q| w((tile * TILE_WIDTH) as u32 + q))
            .collect();
        circuit.append_mapped(&recovery, &map);
    }
    let inputs = (0..3).map(|t| DATA_IN.map(|q| tile_wire(t, q))).collect();
    let outputs = (0..3).map(|t| DATA_OUT.map(|q| tile_wire(t, q))).collect();
    let mut logical = Circuit::new(3);
    logical.push(rft_revsim::op::Op::Gate(*gate));
    let perm = Permutation::of_circuit(&logical).expect("3-bit logical gate");
    CycleSpec::new(circuit, inputs, outputs, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{recovery_circuit, DATA_IN, DATA_OUT};
    use rft_revsim::prelude::*;

    fn recovery_spec() -> CycleSpec {
        CycleSpec::new(
            recovery_circuit(),
            vec![DATA_IN],
            vec![DATA_OUT],
            Permutation::identity(1),
        )
    }

    #[test]
    fn recovery_ideal_runs_clean() {
        recovery_spec().verify_ideal().unwrap();
    }

    #[test]
    fn recovery_is_single_fault_tolerant() {
        // THE theorem of §2: 8 ops × (2 four-pattern inits? no — inits are
        // 3-bit, so 8 patterns each) × 2 inputs, all leave ≤ 1 output error.
        let sweep = recovery_spec().sweep_single_faults();
        assert!(sweep.is_fault_tolerant(), "violation: {:?}", sweep.worst);
        assert_eq!(sweep.plans, 8 * 8); // 8 ops, all arity 3
        assert_eq!(sweep.runs, 64 * 2);
        assert_eq!(
            sweep.max_codeword_error, 1,
            "some fault must actually hit an output"
        );
    }

    #[test]
    fn recovery_double_faults_can_defeat_it() {
        let failure = recovery_spec().find_double_fault_failure();
        assert!(
            failure.is_some(),
            "two faults should be able to corrupt the codeword"
        );
    }

    #[test]
    fn decode_output_majority() {
        let spec = recovery_spec();
        let mut state = spec.encode_input(1);
        spec.circuit().run(&mut state);
        assert_eq!(spec.decode_output(&state), 1);
    }

    #[test]
    fn encode_input_writes_codewords() {
        let spec = recovery_spec();
        let state = spec.encode_input(1);
        assert!(state.get(DATA_IN[0]) && state.get(DATA_IN[1]) && state.get(DATA_IN[2]));
        assert_eq!(state.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "logical width mismatch")]
    fn spec_rejects_wrong_logical_width() {
        let _ = CycleSpec::new(
            recovery_circuit(),
            vec![DATA_IN],
            vec![DATA_OUT],
            Permutation::identity(2),
        );
    }

    #[test]
    fn transversal_cycle_budget_is_paper_g_11() {
        let gate = Gate::Toffoli {
            controls: [w(0), w(1)],
            target: w(2),
        };
        let spec = transversal_cycle(&gate);
        // G = 3 transversal + 8 recovery ops act on each encoded bit's tile.
        assert_eq!(spec.circuit().len(), 3 + 3 * 8);
        for tile in 0..3usize {
            let tile_wires: Vec<Wire> = (0..9u32).map(|q| w((tile * 9) as u32 + q)).collect();
            let touching = spec
                .circuit()
                .ops()
                .iter()
                .filter(|op| {
                    op.support()
                        .as_slice()
                        .iter()
                        .any(|q| tile_wires.contains(q))
                })
                .count();
            assert_eq!(touching, 11, "tile {tile}");
        }
    }

    #[test]
    fn transversal_cycle_is_correct_and_fault_tolerant() {
        let gate = Gate::Toffoli {
            controls: [w(0), w(1)],
            target: w(2),
        };
        let spec = transversal_cycle(&gate);
        spec.verify_ideal().unwrap();
        let sweep = spec.sweep_single_faults();
        assert!(sweep.is_fault_tolerant(), "violation: {:?}", sweep.worst);
        assert_eq!(sweep.first_order_worst, 0.0);
    }

    #[test]
    fn transversal_cycle_with_unordered_gate_wires() {
        // MAJ with logical wires in non-ascending order must still verify.
        let gate = Gate::Maj(w(2), w(0), w(1));
        let spec = transversal_cycle(&gate);
        spec.verify_ideal().unwrap();
    }

    #[test]
    fn a_bare_gate_cycle_is_not_fault_tolerant() {
        // Control: transversal MAJ on three codewords *without* recovery
        // still satisfies ≤1 error per codeword for a single fault (the
        // fault hits one bit of each codeword at most)… but a cycle that
        // *decodes* without fan-out protection is not. Use a single-codeword
        // "recovery" built from one MAJ + one MAJ⁻¹ on the same block: a
        // fault on the middle of the pair can leave 2+ errors.
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).maj_inv(w(0), w(1), w(2));
        let spec = CycleSpec::new(
            c,
            vec![[w(0), w(1), w(2)]],
            vec![[w(0), w(1), w(2)]],
            Permutation::identity(1),
        );
        spec.verify_ideal().unwrap();
        let sweep = spec.sweep_single_faults();
        assert!(
            !sweep.is_fault_tolerant(),
            "unprotected cycle should fail the sweep"
        );
    }
}
