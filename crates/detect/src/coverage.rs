//! Exhaustive single-fault detection-coverage accounting.
//!
//! For every op of a wrapped circuit, every deviation pattern on that
//! op's support, and every input assignment, one planned-fault run
//! classifies the outcome along three axes:
//!
//! - **site**: the fault hit a *body* op (the wrapped computation,
//!   ancilla inits included) or a *checker* op (rail init, input scan,
//!   output comparator);
//! - **deviation weight**: how many support bits the injected pattern
//!   flips relative to the ideal trace — weight 1 is the classic single
//!   bit-flip fault, and odd/even weight is what a parity rail can/cannot
//!   see;
//! - **outcome**: `harmful` (declared outputs differ from the ideal
//!   run), `detected` (flag raised), and their products.
//!
//! The theorems the construction promises — and the `detectcov`
//! experiment pins — fall straight out of the parity argument: at body
//! sites **every** odd-weight deviation (so every bit-flip) is detected
//! and **no** even-weight deviation is, so the undetected-and-harmful
//! residual is exactly the harmful even-weight body cases plus the
//! comparator's own last-gate gap.

use crate::checker::CheckedCircuit;
use rft_revsim::fault::FaultPlan;
use rft_revsim::state::BitState;
use rft_revsim::wire::Wire;
use serde::{Deserialize, Serialize};

/// Tallies over one class of injections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    /// Injections in this class (site × pattern × input).
    pub cases: u64,
    /// Runs whose declared outputs differed from the ideal run.
    pub harmful: u64,
    /// Runs that raised the detection flag.
    pub detected: u64,
    /// Harmful runs that did **not** raise the flag — the residual.
    pub harmful_undetected: u64,
    /// Detected runs whose outputs were nevertheless correct (a retry
    /// policy pays a rerun for these).
    pub false_alarms: u64,
}

impl Coverage {
    fn record(&mut self, harmful: bool, detected: bool) {
        self.cases += 1;
        self.harmful += harmful as u64;
        self.detected += detected as u64;
        self.harmful_undetected += (harmful && !detected) as u64;
        self.false_alarms += (detected && !harmful) as u64;
    }

    /// Fraction of injections that raised the flag.
    pub fn detection_rate(&self) -> f64 {
        if self.cases == 0 {
            return 1.0;
        }
        self.detected as f64 / self.cases as f64
    }

    /// Fraction of *harmful* injections that were detected (1.0 when
    /// nothing was harmful).
    pub fn harmful_coverage(&self) -> f64 {
        if self.harmful == 0 {
            return 1.0;
        }
        1.0 - self.harmful_undetected as f64 / self.harmful as f64
    }
}

/// The full exhaustive-coverage artifact of one wrapped circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Input assignments enumerated.
    pub inputs: u64,
    /// Ops in the wrapped circuit.
    pub ops: usize,
    /// Single bit-flip injection sites (Σ arity over all ops).
    pub bitflip_sites: usize,
    /// Weight-1 deviations at body ops (subset of `body_odd`).
    pub body_weight1: Coverage,
    /// Odd-weight deviations at body ops.
    pub body_odd: Coverage,
    /// Even-weight (≥ 2) deviations at body ops.
    pub body_even: Coverage,
    /// Weight-1 deviations at checker ops (subset of `checker_odd`).
    pub checker_weight1: Coverage,
    /// Odd-weight deviations at checker ops.
    pub checker_odd: Coverage,
    /// Even-weight (≥ 2) deviations at checker ops.
    pub checker_even: Coverage,
}

impl CoverageReport {
    /// Coverage over all injections (any site, any weight): fraction of
    /// harmful cases detected.
    pub fn total_harmful_coverage(&self) -> f64 {
        let mut harmful = 0u64;
        let mut undetected = 0u64;
        for c in [
            self.body_odd,
            self.body_even,
            self.checker_odd,
            self.checker_even,
        ] {
            harmful += c.harmful;
            undetected += c.harmful_undetected;
        }
        if harmful == 0 {
            return 1.0;
        }
        1.0 - undetected as f64 / harmful as f64
    }
}

/// Exhausts every `(op, deviation pattern, input)` triple of a wrapped
/// circuit and classifies each planned-fault run.
///
/// `input_wires` are enumerated over all `2^k` assignments (every other
/// wire starts 0); `outputs` are the wires whose final values define
/// harmfulness. Deviation weight 0 — a "fault" that writes exactly what
/// the ideal run produces — is skipped: it is indistinguishable from no
/// fault at all.
///
/// # Panics
///
/// Panics if the fault-free wrapped circuit miscomputes (raises its own
/// flag), or if `input_wires` has more than 20 bits (the enumeration
/// would be enormous).
pub fn exhaustive_coverage(
    checked: &CheckedCircuit,
    input_wires: &[Wire],
    outputs: &[Wire],
) -> CoverageReport {
    assert!(input_wires.len() <= 20, "input enumeration too large");
    let circuit = &checked.circuit;
    let n = circuit.n_wires();
    let len = circuit.len();
    let mut report = CoverageReport {
        inputs: 1u64 << input_wires.len(),
        ops: len,
        bitflip_sites: circuit.ops().iter().map(|op| op.arity()).sum(),
        body_weight1: Coverage::default(),
        body_odd: Coverage::default(),
        body_even: Coverage::default(),
        checker_weight1: Coverage::default(),
        checker_odd: Coverage::default(),
        checker_even: Coverage::default(),
    };
    for assignment in 0..report.inputs {
        let mut entry = BitState::zeros(n);
        for (bit, &wire) in input_wires.iter().enumerate() {
            entry.set(wire, (assignment >> bit) & 1 == 1);
        }
        // One ideal pass records, per op, the support pattern the
        // fault-free run leaves right after it — the reference every
        // deviation is measured against.
        let mut ideal = entry.clone();
        let mut trace: Vec<u8> = Vec::with_capacity(len);
        for op in circuit.ops() {
            op.apply(&mut ideal);
            trace.push(ideal.read_pattern(op.support().as_slice()));
        }
        assert!(
            !checked.detected(&ideal),
            "fault-free run raised the flag on input {assignment}"
        );
        let ideal_outputs: Vec<bool> = outputs.iter().map(|&o| ideal.get(o)).collect();
        for (t, op) in circuit.ops().iter().enumerate() {
            let patterns = 1u16 << op.arity();
            let in_body = checked.body_ops.contains(&t);
            for pattern in 0..patterns {
                let weight = (pattern as u8 ^ trace[t]).count_ones();
                if weight == 0 {
                    continue;
                }
                let plan = FaultPlan::single(t, pattern as u8);
                let mut state = entry.clone();
                plan.run(circuit, &mut state);
                let harmful = outputs
                    .iter()
                    .zip(&ideal_outputs)
                    .any(|(&o, &want)| state.get(o) != want);
                let detected = checked.detected(&state);
                let (weight1, odd, even) = if in_body {
                    (
                        &mut report.body_weight1,
                        &mut report.body_odd,
                        &mut report.body_even,
                    )
                } else {
                    (
                        &mut report.checker_weight1,
                        &mut report.checker_odd,
                        &mut report.checker_even,
                    )
                };
                if weight == 1 {
                    weight1.record(harmful, detected);
                }
                if weight % 2 == 1 {
                    odd.record(harmful, detected);
                } else {
                    even.record(harmful, detected);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::{Adder, AdderKind};
    use crate::checker::with_parity_check;

    fn report_for(kind: AdderKind, width: usize) -> CoverageReport {
        let adder = Adder::new(kind, width);
        let checked = with_parity_check(&adder.circuit, &adder.input_wires());
        exhaustive_coverage(&checked, &adder.input_wires(), &adder.output_wires())
    }

    #[test]
    fn parity_theorems_hold_for_the_ripple_adder() {
        let r = report_for(AdderKind::Ripple, 2);
        // Every odd-weight deviation at a body site flips the register
        // parity and is detected — bit-flips included.
        assert_eq!(r.body_weight1.detected, r.body_weight1.cases);
        assert_eq!(r.body_weight1.harmful_undetected, 0);
        assert_eq!(r.body_odd.detected, r.body_odd.cases);
        assert_eq!(r.body_odd.harmful_undetected, 0);
        // No even-weight deviation at a body site is ever visible.
        assert_eq!(r.body_even.detected, 0);
        assert!(r.body_even.cases > 0);
        // The comparator's own last gates are the classic self-checking
        // gap: some checker-site bit-flips slip through.
        assert!(r.checker_weight1.detected < r.checker_weight1.cases);
        // Under the paper's fault model a faulted op's support is
        // *replaced* by a uniform pattern, and deviations are odd-weight
        // only half the time — so coverage over all harmful random
        // patterns sits near 1/2 even though bit-flip coverage is 100%.
        assert!(r.total_harmful_coverage() >= 0.45);
    }

    #[test]
    fn theorems_hold_across_constructions() {
        for kind in [AdderKind::CarrySkip { block: 2 }, AdderKind::Cla] {
            let r = report_for(kind, 2);
            assert_eq!(r.body_odd.detected, r.body_odd.cases, "{}", kind.name());
            assert_eq!(r.body_even.detected, 0, "{}", kind.name());
        }
    }

    #[test]
    fn rates_are_well_defined_on_empty_classes() {
        let c = Coverage::default();
        assert_eq!(c.detection_rate(), 1.0);
        assert_eq!(c.harmful_coverage(), 1.0);
    }
}
