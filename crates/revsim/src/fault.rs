//! Deterministic fault injection.
//!
//! The paper's fault-tolerance argument for Figure 2 is combinatorial: "as
//! long as there is no more than one error in all of these operations, the
//! final result will not be an error". Rather than sampling that claim we
//! verify it exhaustively: a failed operation replaces the values on its
//! support with *any* of the `2^arity` patterns, so enumerating every
//! `(operation, pattern)` pair covers every possible single-fault outcome.
//! [`FaultPlan::run`] executes one such outcome deterministically.

use crate::circuit::Circuit;
use crate::op::Op;
use crate::state::BitState;
use serde::{Deserialize, Serialize};

/// One planned fault: operation `op_index` fails and leaves `pattern` on its
/// support (bit `j` of `pattern` → `support[j]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlannedFault {
    /// Index of the failing operation within the circuit.
    pub op_index: usize,
    /// Values written onto the operation's support instead of executing it.
    pub pattern: u8,
}

/// A set of planned faults for one deterministic run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(op_index: usize, pattern: u8) -> Self {
        FaultPlan {
            faults: vec![PlannedFault { op_index, pattern }],
        }
    }

    /// A plan from explicit faults.
    ///
    /// # Panics
    ///
    /// Panics if two faults target the same operation.
    pub fn new(faults: Vec<PlannedFault>) -> Self {
        for i in 0..faults.len() {
            for j in (i + 1)..faults.len() {
                assert_ne!(
                    faults[i].op_index, faults[j].op_index,
                    "two faults target op {}",
                    faults[i].op_index
                );
            }
        }
        FaultPlan { faults }
    }

    /// The planned faults.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Pattern for `op_index`, if it is planned to fail.
    #[inline]
    pub fn pattern_for(&self, op_index: usize) -> Option<u8> {
        self.faults
            .iter()
            .find(|f| f.op_index == op_index)
            .map(|f| f.pattern)
    }

    /// Runs `circuit` on `state` with exactly these faults: a planned op
    /// writes its pattern onto its support instead of executing, every
    /// other op runs ideally. No randomness is consumed — one `(input,
    /// plan)` pair is one run of the exhaustive fault sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the widths mismatch or a planned index is out of range.
    pub fn run(&self, circuit: &Circuit, state: &mut BitState) {
        assert_eq!(
            state.len(),
            circuit.n_wires(),
            "state width must match circuit width"
        );
        for fault in &self.faults {
            assert!(
                fault.op_index < circuit.len(),
                "planned fault targets op {} but circuit has {} ops",
                fault.op_index,
                circuit.len()
            );
        }
        for (i, op) in circuit.ops().iter().enumerate() {
            match self.pattern_for(i) {
                Some(pattern) => state.write_pattern(op.support().as_slice(), pattern),
                None => op.apply(state),
            }
        }
    }
}

impl FromIterator<PlannedFault> for FaultPlan {
    fn from_iter<T: IntoIterator<Item = PlannedFault>>(iter: T) -> Self {
        FaultPlan::new(iter.into_iter().collect())
    }
}

/// Enumerates every possible single-fault plan for `circuit`: each operation
/// failing with each of its `2^arity` output patterns.
///
/// # Examples
///
/// ```
/// use rft_revsim::prelude::*;
/// use rft_revsim::fault::single_fault_plans;
///
/// let mut c = Circuit::new(3);
/// c.maj(w(0), w(1), w(2)); // arity 3 -> 8 patterns
/// c.swap(w(0), w(1));      // arity 2 -> 4 patterns
/// assert_eq!(single_fault_plans(&c).count(), 12);
/// ```
pub fn single_fault_plans(circuit: &Circuit) -> impl Iterator<Item = FaultPlan> + '_ {
    circuit.ops().iter().enumerate().flat_map(|(i, op)| {
        let patterns = 1u16 << op.arity();
        (0..patterns).map(move |p| FaultPlan::single(i, p as u8))
    })
}

/// Enumerates every two-fault plan (unordered pairs of distinct operations,
/// all pattern combinations). Used to show the single-fault guarantee is
/// tight: some pair of faults defeats the recovery circuit.
pub fn double_fault_plans(circuit: &Circuit) -> impl Iterator<Item = FaultPlan> + '_ {
    let ops: Vec<(usize, &Op)> = circuit.ops().iter().enumerate().collect();
    let n = ops.len();
    let arity = move |i: usize| circuit.ops()[i].arity();
    (0..n).flat_map(move |i| {
        (i + 1..n).flat_map(move |j| {
            let pi = 1u16 << arity(i);
            let pj = 1u16 << arity(j);
            (0..pi).flat_map(move |a| {
                (0..pj).map(move |b| {
                    FaultPlan::new(vec![
                        PlannedFault {
                            op_index: i,
                            pattern: a as u8,
                        },
                        PlannedFault {
                            op_index: j,
                            pattern: b as u8,
                        },
                    ])
                })
            })
        })
    })
}

/// Total number of single-fault plans for a circuit.
pub fn single_fault_plan_count(circuit: &Circuit) -> usize {
    circuit.ops().iter().map(|op| 1usize << op.arity()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::w;

    fn two_op_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.not(w(0)); // 2 patterns
        c.maj(w(0), w(1), w(2)); // 8 patterns
        c
    }

    #[test]
    fn single_plans_enumerate_all_patterns() {
        let c = two_op_circuit();
        let plans: Vec<FaultPlan> = single_fault_plans(&c).collect();
        assert_eq!(plans.len(), 2 + 8);
        assert_eq!(plans.len(), single_fault_plan_count(&c));
        assert!(plans.iter().all(|p| p.len() == 1));
        // first op: patterns 0..2 on op 0
        assert_eq!(plans[0], FaultPlan::single(0, 0));
        assert_eq!(plans[1], FaultPlan::single(0, 1));
        assert_eq!(plans[2], FaultPlan::single(1, 0));
    }

    #[test]
    fn double_plans_pair_distinct_ops() {
        let c = two_op_circuit();
        let plans: Vec<FaultPlan> = double_fault_plans(&c).collect();
        // one op pair (0,1): 2 * 8 pattern combinations
        assert_eq!(plans.len(), 16);
        for plan in &plans {
            assert_eq!(plan.len(), 2);
            assert_ne!(plan.faults()[0].op_index, plan.faults()[1].op_index);
        }
    }

    #[test]
    fn pattern_lookup() {
        let plan = FaultPlan::single(3, 0b101);
        assert_eq!(plan.pattern_for(3), Some(0b101));
        assert_eq!(plan.pattern_for(2), None);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn planned_fault_overrides_one_op() {
        let mut c = Circuit::new(3);
        c.not(w(0)).not(w(1));
        let mut s = BitState::zeros(3);
        // op 0 "fails" leaving 0 on its support; op 1 runs normally.
        FaultPlan::single(0, 0).run(&c, &mut s);
        assert!(!s.get(w(0)));
        assert!(s.get(w(1)));
    }

    #[test]
    fn planned_fault_pattern_maps_to_support_order() {
        let mut c = Circuit::new(3);
        c.maj(w(2), w(0), w(1)); // support order: q2, q0, q1
        let mut s = BitState::zeros(3);
        FaultPlan::single(0, 0b011).run(&c, &mut s);
        // bit0 of pattern -> q2, bit1 -> q0, bit2 -> q1
        assert!(s.get(w(2)));
        assert!(s.get(w(0)));
        assert!(!s.get(w(1)));
    }

    #[test]
    #[should_panic(expected = "planned fault targets op")]
    fn planned_out_of_range_panics() {
        let c = Circuit::new(1);
        let mut s = BitState::zeros(1);
        FaultPlan::single(0, 0).run(&c, &mut s);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn planned_width_mismatch_panics() {
        let c = Circuit::new(3);
        let mut s = BitState::zeros(4);
        FaultPlan::none().run(&c, &mut s);
    }

    #[test]
    #[should_panic(expected = "two faults target op")]
    fn plan_rejects_duplicate_targets() {
        let _ = FaultPlan::new(vec![
            PlannedFault {
                op_index: 1,
                pattern: 0,
            },
            PlannedFault {
                op_index: 1,
                pattern: 1,
            },
        ]);
    }

    #[test]
    fn collect_plan_from_iterator() {
        let plan: FaultPlan = [
            PlannedFault {
                op_index: 0,
                pattern: 1,
            },
            PlannedFault {
                op_index: 2,
                pattern: 3,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(plan.len(), 2);
    }
}
