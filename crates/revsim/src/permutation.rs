//! Exhaustive truth tables for small reversible circuits.
//!
//! A reversible circuit on `n ≤ MAX_WIRES` wires is a permutation of
//! `2^n` states. [`Permutation`] extracts that table, verifies bijectivity,
//! and supports composition/inversion — the tool used to check Figure 1
//! (MAJ = 2 CNOT + Toffoli) and Table 1 of the paper.

use crate::circuit::Circuit;
use crate::error::{Error, Result};
use crate::state::BitState;
use serde::{Deserialize, Serialize};

/// Maximum circuit width for exhaustive permutation extraction (2^20 states).
pub const MAX_WIRES: usize = 20;

/// A bijection on `2^n`-state space, stored as a full lookup table.
///
/// # Examples
///
/// ```
/// use rft_revsim::prelude::*;
/// use rft_revsim::permutation::Permutation;
///
/// let mut c = Circuit::new(2);
/// c.cnot(w(0), w(1));
/// let p = Permutation::of_circuit(&c)?;
/// assert_eq!(p.apply(0b01), 0b11);
/// assert!(p.compose(&p.inverse()).is_identity());
/// # Ok::<(), rft_revsim::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permutation {
    n_bits: usize,
    map: Vec<u64>,
}

impl Permutation {
    /// Extracts the permutation computed by a reversible circuit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyWires`] for circuits wider than
    /// [`MAX_WIRES`], and [`Error::Irreversible`] if the circuit contains an
    /// `Init` operation.
    pub fn of_circuit(circuit: &Circuit) -> Result<Permutation> {
        let n = circuit.n_wires();
        if n > MAX_WIRES {
            return Err(Error::TooManyWires {
                n_wires: n,
                max: MAX_WIRES,
            });
        }
        if !circuit.is_reversible() {
            return Err(Error::Irreversible);
        }
        let size = 1usize << n;
        let mut map = Vec::with_capacity(size);
        for input in 0..size as u64 {
            let mut state = BitState::from_u64(input, n);
            circuit.run(&mut state);
            map.push(state.to_u64());
        }
        Ok(Permutation { n_bits: n, map })
    }

    /// Builds a permutation from an explicit table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotBijective`] if the table is not a bijection on
    /// `2^n_bits` states (including wrong length).
    pub fn from_map(n_bits: usize, map: Vec<u64>) -> Result<Permutation> {
        let size = 1usize << n_bits;
        if map.len() != size {
            return Err(Error::NotBijective);
        }
        let mut seen = vec![false; size];
        for &v in &map {
            if v as usize >= size || seen[v as usize] {
                return Err(Error::NotBijective);
            }
            seen[v as usize] = true;
        }
        Ok(Permutation { n_bits, map })
    }

    /// The identity permutation on `n_bits` bits.
    pub fn identity(n_bits: usize) -> Permutation {
        Permutation {
            n_bits,
            map: (0..(1u64 << n_bits)).collect(),
        }
    }

    /// Number of bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Applies the permutation to a packed state.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn apply(&self, input: u64) -> u64 {
        self.map[input as usize]
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &v)| i as u64 == v)
    }

    /// Returns `other ∘ self` (apply `self` first).
    ///
    /// # Panics
    ///
    /// Panics if bit widths differ.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(
            self.n_bits, other.n_bits,
            "composing permutations of different widths"
        );
        let map = self.map.iter().map(|&v| other.map[v as usize]).collect();
        Permutation {
            n_bits: self.n_bits,
            map,
        }
    }

    /// Returns the inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut map = vec![0u64; self.map.len()];
        for (i, &v) in self.map.iter().enumerate() {
            map[v as usize] = i as u64;
        }
        Permutation {
            n_bits: self.n_bits,
            map,
        }
    }

    /// Iterates over `(input, output)` rows — a truth table.
    pub fn rows(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().enumerate().map(|(i, &v)| (i as u64, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::w;

    fn maj_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2));
        c
    }

    #[test]
    fn of_circuit_is_bijective_and_matches_gate() {
        let p = Permutation::of_circuit(&maj_circuit()).unwrap();
        assert_eq!(p.n_bits(), 3);
        // spot-check Table 1 row "100" -> "011" (little-endian 0b001 -> 0b110)
        assert_eq!(p.apply(0b001), 0b110);
        // bijectivity via from_map validation
        assert!(Permutation::from_map(3, p.rows().map(|(_, o)| o).collect()).is_ok());
    }

    #[test]
    fn rejects_wide_circuits() {
        let c = Circuit::new(MAX_WIRES + 1);
        assert!(matches!(
            Permutation::of_circuit(&c),
            Err(Error::TooManyWires {
                n_wires: 21,
                max: MAX_WIRES
            })
        ));
    }

    #[test]
    fn rejects_irreversible_circuits() {
        let mut c = Circuit::new(3);
        c.init(&[w(0)]);
        assert_eq!(
            Permutation::of_circuit(&c).unwrap_err(),
            Error::Irreversible
        );
    }

    #[test]
    fn compose_with_inverse_is_identity() {
        let p = Permutation::of_circuit(&maj_circuit()).unwrap();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn circuit_inverse_matches_permutation_inverse() {
        let c = maj_circuit();
        let p = Permutation::of_circuit(&c).unwrap();
        let p_inv = Permutation::of_circuit(&c.inverted().unwrap()).unwrap();
        assert_eq!(p.inverse(), p_inv);
    }

    #[test]
    fn from_map_rejects_non_bijections() {
        assert_eq!(
            Permutation::from_map(2, vec![0, 0, 1, 2]).unwrap_err(),
            Error::NotBijective
        );
        assert_eq!(
            Permutation::from_map(2, vec![0, 1, 2]).unwrap_err(),
            Error::NotBijective
        );
        assert_eq!(
            Permutation::from_map(1, vec![0, 2]).unwrap_err(),
            Error::NotBijective
        );
    }

    #[test]
    fn compose_applies_left_first() {
        // NOT then CNOT differs from CNOT then NOT on wire 0.
        let mut a = Circuit::new(2);
        a.not(w(0));
        let mut b = Circuit::new(2);
        b.cnot(w(0), w(1));
        let pa = Permutation::of_circuit(&a).unwrap();
        let pb = Permutation::of_circuit(&b).unwrap();
        let ab = pa.compose(&pb);
        // input 00 -> NOT -> 01(q0=1) -> CNOT -> q1 flips -> 11
        assert_eq!(ab.apply(0b00), 0b11);
        let ba = pb.compose(&pa);
        assert_eq!(ba.apply(0b00), 0b01);
    }
}
