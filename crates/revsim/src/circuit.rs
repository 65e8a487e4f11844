//! Circuits: ordered sequences of operations on a fixed set of wires.
//!
//! This is the paper's "gate array" picture (§2): space on the y-axis, time
//! on the x-axis, gates applied one after another to bits at fixed
//! positions. A [`Circuit`] validates that every operation touches distinct,
//! in-range wires, tracks per-kind operation counts (the quantities `E` and
//! `G` of the threshold analysis), and supports composition, embedding and
//! inversion.

use crate::error::{Error, Result};
use crate::gate::{Gate, OpKind};
use crate::op::Op;
use crate::state::BitState;
use crate::wire::Wire;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered list of operations on `n_wires` wires.
///
/// # Examples
///
/// Build and run the three-gate decomposition of the majority gate
/// (Figure 1 of the paper):
///
/// ```
/// use rft_revsim::prelude::*;
///
/// let mut c = Circuit::new(3);
/// c.cnot(w(0), w(1)).cnot(w(0), w(2)).toffoli(w(1), w(2), w(0));
///
/// let mut s = BitState::from_u64(0b011, 3); // q0=1, q1=1, q2=0
/// c.run(&mut s);
/// assert_eq!(s.to_u64() & 1, 1); // q0 now holds the majority
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Circuit {
    n_wires: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit on `n_wires` wires.
    pub fn new(n_wires: usize) -> Self {
        Circuit {
            n_wires,
            ops: Vec::new(),
        }
    }

    /// Creates an empty circuit with pre-allocated op capacity.
    pub fn with_capacity(n_wires: usize, capacity: usize) -> Self {
        Circuit {
            n_wires,
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Number of wires.
    #[inline]
    pub fn n_wires(&self) -> usize {
        self.n_wires
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in order.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Validates an operation against this circuit's width.
    fn validate(&self, op: &Op) -> Result<()> {
        let support = op.support();
        for wire in support.as_slice() {
            if wire.index() >= self.n_wires {
                return Err(Error::WireOutOfRange {
                    wire: *wire,
                    n_wires: self.n_wires,
                });
            }
        }
        if !support.is_distinct() {
            let s = support.as_slice();
            for i in 0..s.len() {
                for j in (i + 1)..s.len() {
                    if s[i] == s[j] {
                        return Err(Error::DuplicateWire { wire: s[i] });
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends an operation after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WireOutOfRange`] or [`Error::DuplicateWire`] if the
    /// operation is malformed for this circuit.
    pub fn try_push(&mut self, op: Op) -> Result<()> {
        self.validate(&op)?;
        self.ops.push(op);
        Ok(())
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation references an out-of-range wire or touches a
    /// wire twice. Use [`Circuit::try_push`] for fallible insertion.
    pub fn push(&mut self, op: Op) -> &mut Self {
        if let Err(e) = self.try_push(op) {
            panic!("invalid operation: {e}");
        }
        self
    }

    /// Appends a NOT gate. See [`Circuit::push`] for panics.
    pub fn not(&mut self, a: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Not(a)))
    }

    /// Appends a CNOT gate (`control`, `target`). See [`Circuit::push`] for panics.
    pub fn cnot(&mut self, control: Wire, target: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Cnot { control, target }))
    }

    /// Appends a Toffoli gate (`c0`, `c1` controls). See [`Circuit::push`] for panics.
    pub fn toffoli(&mut self, c0: Wire, c1: Wire, target: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Toffoli {
            controls: [c0, c1],
            target,
        }))
    }

    /// Appends a SWAP gate. See [`Circuit::push`] for panics.
    pub fn swap(&mut self, a: Wire, b: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Swap(a, b)))
    }

    /// Appends a SWAP3 gate (Figure 5). See [`Circuit::push`] for panics.
    pub fn swap3(&mut self, a: Wire, b: Wire, c: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Swap3(a, b, c)))
    }

    /// Appends a Fredkin (controlled-swap) gate. See [`Circuit::push`] for panics.
    pub fn fredkin(&mut self, control: Wire, t0: Wire, t1: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Fredkin {
            control,
            targets: [t0, t1],
        }))
    }

    /// Appends the reversible majority gate MAJ (Table 1). See [`Circuit::push`] for panics.
    pub fn maj(&mut self, a: Wire, b: Wire, c: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Maj(a, b, c)))
    }

    /// Appends the inverse majority gate MAJ⁻¹. See [`Circuit::push`] for panics.
    pub fn maj_inv(&mut self, a: Wire, b: Wire, c: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::MajInv(a, b, c)))
    }

    /// Appends a double Feynman gate F2G. See [`Circuit::push`] for panics.
    pub fn f2g(&mut self, a: Wire, b: Wire, c: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::F2g(a, b, c)))
    }

    /// Appends an NFT gate. See [`Circuit::push`] for panics.
    pub fn nft(&mut self, a: Wire, b: Wire, c: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Nft(a, b, c)))
    }

    /// Appends an inverse NFT gate. See [`Circuit::push`] for panics.
    pub fn nft_inv(&mut self, a: Wire, b: Wire, c: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::NftInv(a, b, c)))
    }

    /// Appends a four-wire IG gate. See [`Circuit::push`] for panics.
    pub fn ig(&mut self, a: Wire, b: Wire, c: Wire, d: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::Ig(a, b, c, d)))
    }

    /// Appends an inverse IG gate. See [`Circuit::push`] for panics.
    pub fn ig_inv(&mut self, a: Wire, b: Wire, c: Wire, d: Wire) -> &mut Self {
        self.push(Op::Gate(Gate::IgInv(a, b, c, d)))
    }

    /// Appends an ancilla reset of 1–3 wires. See [`Circuit::push`] for panics.
    pub fn init(&mut self, wires: &[Wire]) -> &mut Self {
        self.push(Op::init(wires))
    }

    /// Appends all operations of `other`, remapping wire `i` of `other` to
    /// `map[i]` of `self`.
    ///
    /// This embeds a sub-circuit (e.g. a 9-wire recovery tile) into a larger
    /// register.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if `map` does not cover `other`'s
    /// wires, and propagates validation errors for remapped operations.
    pub fn try_append_mapped(&mut self, other: &Circuit, map: &[Wire]) -> Result<()> {
        if map.len() < other.n_wires {
            return Err(Error::WidthMismatch {
                expected: other.n_wires,
                found: map.len(),
            });
        }
        for op in &other.ops {
            self.try_push(op.remap(map))?;
        }
        Ok(())
    }

    /// Infallible [`Circuit::try_append_mapped`].
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or invalid remapped operations.
    pub fn append_mapped(&mut self, other: &Circuit, map: &[Wire]) -> &mut Self {
        if let Err(e) = self.try_append_mapped(other, map) {
            panic!("append_mapped failed: {e}");
        }
        self
    }

    /// Runs the circuit on `state` without noise.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.n_wires()`.
    pub fn run(&self, state: &mut BitState) {
        assert_eq!(
            state.len(),
            self.n_wires,
            "state width must match circuit width"
        );
        for op in &self.ops {
            op.apply(state);
        }
    }

    /// Whether the circuit is purely reversible (contains no `Init`).
    pub fn is_reversible(&self) -> bool {
        self.ops.iter().all(Op::is_reversible)
    }

    /// Returns the inverse circuit (ops reversed, each gate inverted).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Irreversible`] if the circuit contains an `Init`.
    pub fn inverted(&self) -> Result<Circuit> {
        let mut inv = Circuit::with_capacity(self.n_wires, self.ops.len());
        for op in self.ops.iter().rev() {
            match op {
                Op::Gate(g) => inv.ops.push(Op::Gate(g.inverse())),
                Op::Init(_) => return Err(Error::Irreversible),
            }
        }
        Ok(inv)
    }

    /// Per-kind operation counts.
    pub fn stats(&self) -> CircuitStats {
        let mut counts = BTreeMap::new();
        for op in &self.ops {
            *counts.entry(op.kind()).or_insert(0usize) += 1;
        }
        CircuitStats {
            counts,
            total: self.ops.len(),
        }
    }

    /// Number of operations whose support includes `wire`.
    ///
    /// This is the paper's per-bit operation count `G` when applied to a
    /// fault-tolerant cycle: "there are G = 3 + E operations acting on each
    /// encoded bit" (§2.2).
    pub fn ops_touching(&self, wire: Wire) -> usize {
        self.ops
            .iter()
            .filter(|op| op.support().contains(wire))
            .count()
    }

    /// Circuit depth under greedy ASAP scheduling (ops on disjoint wires run
    /// in the same time step).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_wires];
        let mut depth = 0;
        for op in &self.ops {
            let start = op
                .support()
                .as_slice()
                .iter()
                .map(|w| level[w.index()])
                .max()
                .unwrap_or(0);
            let end = start + 1;
            for w in op.support().as_slice() {
                level[w.index()] = end;
            }
            depth = depth.max(end);
        }
        depth
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} wires, {} ops:",
            self.n_wires,
            self.ops.len()
        )?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  {i:4}: {op}")?;
        }
        Ok(())
    }
}

impl Extend<Op> for Circuit {
    /// Extends the circuit, panicking on invalid operations (mirrors
    /// [`Circuit::push`]).
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

/// Per-kind operation counts of a circuit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitStats {
    counts: BTreeMap<OpKind, usize>,
    total: usize,
}

impl CircuitStats {
    /// Count of operations of the given kind.
    pub fn count(&self, kind: OpKind) -> usize {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total operation count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count of reversible gates (everything but `Init`).
    pub fn gate_ops(&self) -> usize {
        self.total - self.count(OpKind::Init)
    }

    /// Count of `Init` operations.
    pub fn init_ops(&self) -> usize {
        self.count(OpKind::Init)
    }

    /// Count of SWAP-family operations (SWAP + SWAP3).
    pub fn swap_family(&self) -> usize {
        self.count(OpKind::Swap) + self.count(OpKind::Swap3)
    }

    /// Count of MAJ-family operations (MAJ + MAJ⁻¹).
    pub fn maj_family(&self) -> usize {
        self.count(OpKind::Maj) + self.count(OpKind::MajInv)
    }

    /// Iterates over `(kind, count)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, usize)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ops (", self.total)?;
        for (i, (kind, count)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kind}×{count}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::w;

    fn maj_decomposition() -> Circuit {
        let mut c = Circuit::new(3);
        c.cnot(w(0), w(1))
            .cnot(w(0), w(2))
            .toffoli(w(1), w(2), w(0));
        c
    }

    #[test]
    fn builder_chains_and_runs() {
        let c = maj_decomposition();
        assert_eq!(c.len(), 3);
        let mut s = BitState::from_u64(0b110, 3); // q0=0,q1=1,q2=1 -> "011" row
        c.run(&mut s);
        assert_eq!(s.to_u64(), 0b111);
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Op::Gate(Gate::Not(w(2)))).unwrap_err();
        assert_eq!(
            err,
            Error::WireOutOfRange {
                wire: w(2),
                n_wires: 2
            }
        );
    }

    #[test]
    fn try_push_rejects_duplicate_wires() {
        let mut c = Circuit::new(3);
        let err = c
            .try_push(Op::Gate(Gate::Cnot {
                control: w(1),
                target: w(1),
            }))
            .unwrap_err();
        assert_eq!(err, Error::DuplicateWire { wire: w(1) });
    }

    #[test]
    #[should_panic(expected = "invalid operation")]
    fn push_panics_on_invalid() {
        let mut c = Circuit::new(1);
        c.swap(w(0), w(0));
    }

    #[test]
    fn inverted_undoes_everything() {
        let c = maj_decomposition();
        let inv = c.inverted().unwrap();
        for input in 0..8u64 {
            let mut s = BitState::from_u64(input, 3);
            c.run(&mut s);
            inv.run(&mut s);
            assert_eq!(s.to_u64(), input);
        }
    }

    #[test]
    fn inverted_fails_with_init() {
        let mut c = Circuit::new(3);
        c.init(&[w(0), w(1), w(2)]);
        assert_eq!(c.inverted().unwrap_err(), Error::Irreversible);
        assert!(!c.is_reversible());
    }

    #[test]
    fn stats_count_kinds() {
        let mut c = Circuit::new(9);
        c.init(&[w(3), w(4), w(5)])
            .init(&[w(6), w(7), w(8)])
            .maj_inv(w(0), w(3), w(6))
            .maj_inv(w(1), w(4), w(7))
            .maj_inv(w(2), w(5), w(8))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5))
            .maj(w(6), w(7), w(8));
        let stats = c.stats();
        assert_eq!(stats.total(), 8);
        assert_eq!(stats.init_ops(), 2);
        assert_eq!(stats.gate_ops(), 6);
        assert_eq!(stats.count(OpKind::Maj), 3);
        assert_eq!(stats.count(OpKind::MajInv), 3);
        assert_eq!(stats.maj_family(), 6);
        assert_eq!(stats.swap_family(), 0);
    }

    #[test]
    fn ops_touching_counts_support_membership() {
        let mut c = Circuit::new(4);
        c.cnot(w(0), w(1))
            .cnot(w(1), w(2))
            .swap(w(2), w(3))
            .not(w(0));
        assert_eq!(c.ops_touching(w(0)), 2);
        assert_eq!(c.ops_touching(w(1)), 2);
        assert_eq!(c.ops_touching(w(2)), 2);
        assert_eq!(c.ops_touching(w(3)), 1);
    }

    #[test]
    fn depth_parallelizes_disjoint_ops() {
        let mut c = Circuit::new(6);
        // Three disjoint CNOTs: depth 1.
        c.cnot(w(0), w(1)).cnot(w(2), w(3)).cnot(w(4), w(5));
        assert_eq!(c.depth(), 1);
        // A gate overlapping the first forces depth 2.
        c.cnot(w(1), w(2));
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn append_mapped_embeds_subcircuit() {
        let inner = maj_decomposition();
        let mut outer = Circuit::new(10);
        outer.append_mapped(&inner, &[w(7), w(8), w(9)]);
        assert_eq!(outer.len(), 3);
        assert_eq!(outer.ops()[0].support().as_slice(), &[w(7), w(8)]);
        // Semantics preserved under the embedding.
        let mut s = BitState::zeros(10);
        s.set(w(7), true);
        s.set(w(8), true);
        outer.run(&mut s);
        assert!(s.get(w(7)), "majority of (1,1,0) lands on mapped q0");
    }

    #[test]
    fn display_lists_ops() {
        let c = maj_decomposition();
        let text = c.to_string();
        assert!(text.contains("circuit on 3 wires"));
        assert!(text.contains("CNOT(q0,q1)"));
        assert!(text.contains("TOFFOLI(q1,q2,q0)"));
    }

    #[test]
    fn parity_gate_builders_and_inversion() {
        let mut c = Circuit::new(4);
        c.f2g(w(0), w(1), w(2))
            .nft(w(1), w(2), w(3))
            .ig(w(0), w(1), w(2), w(3))
            .ig_inv(w(0), w(1), w(2), w(3))
            .nft_inv(w(1), w(2), w(3));
        assert_eq!(c.stats().count(OpKind::Ig), 1);
        assert_eq!(c.stats().count(OpKind::IgInv), 1);
        let inv = c.inverted().unwrap();
        for input in 0..16u64 {
            let mut s = BitState::from_u64(input, 4);
            c.run(&mut s);
            inv.run(&mut s);
            assert_eq!(s.to_u64(), input);
        }
    }

    #[test]
    fn extend_accepts_ops() {
        let mut c = Circuit::new(2);
        c.extend([Op::Gate(Gate::Not(w(0))), Op::Gate(Gate::Swap(w(0), w(1)))]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stats_display_readable() {
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2));
        let text = c.stats().to_string();
        assert!(text.contains("MAJ×1"), "{text}");
    }
}
