//! Bit-packed register state.
//!
//! [`BitState`] holds the values of all wires in a circuit, packed 64 bits
//! per word. All Monte-Carlo inner loops run on this type, so the accessors
//! are small and inlined.

use crate::wire::Wire;
use rand::Rng;
use std::fmt;

/// The value of every wire in a gate array at one instant.
///
/// Bit `i` of the state is the value of [`Wire::new(i)`](Wire::new).
///
/// # Examples
///
/// ```
/// use rft_revsim::prelude::*;
///
/// let mut s = BitState::zeros(9);
/// s.set(w(4), true);
/// assert!(s.get(w(4)));
/// assert_eq!(s.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitState {
    words: Vec<u64>,
    len: usize,
}

impl BitState {
    /// Creates an all-zero state of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitState {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a state from a slice of booleans (`bits[i]` → wire `i`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut state = BitState::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                state.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        state
    }

    /// Creates a `len`-bit state from the low bits of `value`
    /// (bit `i` of `value` → wire `i`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or if `value` has bits set at or above `len`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        assert!(
            len == 64 || value < (1u64 << len),
            "value {value:#x} does not fit in {len} bits"
        );
        let mut state = BitState::zeros(len);
        if len > 0 {
            state.words[0] = value;
        }
        state
    }

    /// Number of bits in the state.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the state holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the value of a wire.
    ///
    /// # Panics
    ///
    /// Panics if the wire index is out of range.
    #[inline]
    pub fn get(&self, wire: Wire) -> bool {
        let i = wire.index();
        assert!(
            i < self.len,
            "wire {wire} out of range for {}-bit state",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the value of a wire.
    ///
    /// # Panics
    ///
    /// Panics if the wire index is out of range.
    #[inline]
    pub fn set(&mut self, wire: Wire, value: bool) {
        let i = wire.index();
        assert!(
            i < self.len,
            "wire {wire} out of range for {}-bit state",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the value of a wire.
    ///
    /// # Panics
    ///
    /// Panics if the wire index is out of range.
    #[inline]
    pub fn flip(&mut self, wire: Wire) {
        let i = wire.index();
        assert!(
            i < self.len,
            "wire {wire} out of range for {}-bit state",
            self.len
        );
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Exchanges the values of two wires.
    #[inline]
    pub fn swap_wires(&mut self, a: Wire, b: Wire) {
        let va = self.get(a);
        let vb = self.get(b);
        self.set(a, vb);
        self.set(b, va);
    }

    /// Sets each wire in `wires` to an independent uniformly random bit.
    ///
    /// This is the paper's fault action: a failed gate "randomizes all the
    /// bits it is applied to".
    #[inline]
    pub fn randomize<R: Rng + ?Sized>(&mut self, wires: &[Wire], rng: &mut R) {
        for &wire in wires {
            self.set(wire, rng.random::<bool>());
        }
    }

    /// Writes `pattern` onto `wires`: bit `j` of `pattern` → `wires[j]`.
    ///
    /// Used by deterministic fault plans to enumerate every possible
    /// corruption of an operation's support.
    #[inline]
    pub fn write_pattern(&mut self, wires: &[Wire], pattern: u8) {
        for (j, &wire) in wires.iter().enumerate() {
            self.set(wire, (pattern >> j) & 1 == 1);
        }
    }

    /// Reads the values of `wires` as a packed pattern: `wires[j]` → bit `j`.
    #[inline]
    pub fn read_pattern(&self, wires: &[Wire]) -> u8 {
        let mut pattern = 0u8;
        for (j, &wire) in wires.iter().enumerate() {
            if self.get(wire) {
                pattern |= 1 << j;
            }
        }
        pattern
    }

    /// Returns the state as a `u64` (bit `i` = wire `i`).
    ///
    /// # Panics
    ///
    /// Panics if the state is wider than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "state too wide for u64: {} bits", self.len);
        if self.len == 0 {
            0
        } else {
            self.words[0]
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates over all bit values, wire 0 first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| (self.words[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

impl fmt::Debug for BitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitState[")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitState {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitState::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::w;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_all_zero() {
        let s = BitState::zeros(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
        assert!(s.iter().all(|b| !b));
    }

    #[test]
    fn set_get_flip_across_word_boundary() {
        let mut s = BitState::zeros(130);
        for i in [0u32, 63, 64, 65, 127, 128, 129] {
            s.set(w(i), true);
            assert!(s.get(w(i)), "bit {i}");
            s.flip(w(i));
            assert!(!s.get(w(i)), "bit {i} after flip");
        }
    }

    #[test]
    fn from_bools_roundtrip() {
        let bits = [true, false, true, true, false];
        let s = BitState::from_bools(&bits);
        let back: Vec<bool> = s.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn from_u64_little_endian() {
        let s = BitState::from_u64(0b1011, 4);
        assert!(s.get(w(0)));
        assert!(s.get(w(1)));
        assert!(!s.get(w(2)));
        assert!(s.get(w(3)));
        assert_eq!(s.to_u64(), 0b1011);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_rejects_overflow_value() {
        let _ = BitState::from_u64(0b10000, 4);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn from_u64_rejects_wide() {
        let _ = BitState::from_u64(0, 65);
    }

    #[test]
    fn swap_wires_exchanges() {
        let mut s = BitState::from_u64(0b01, 2);
        s.swap_wires(w(0), w(1));
        assert_eq!(s.to_u64(), 0b10);
        s.swap_wires(w(0), w(1));
        assert_eq!(s.to_u64(), 0b01);
    }

    #[test]
    fn patterns_roundtrip() {
        let mut s = BitState::zeros(9);
        let wires = [w(2), w(5), w(7)];
        for pattern in 0u8..8 {
            s.write_pattern(&wires, pattern);
            assert_eq!(s.read_pattern(&wires), pattern);
        }
    }

    #[test]
    fn randomize_touches_only_given_wires() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = BitState::zeros(16);
        s.randomize(&[w(3), w(8)], &mut rng);
        for i in 0..16u32 {
            if i != 3 && i != 8 {
                assert!(!s.get(w(i)), "wire {i} should be untouched");
            }
        }
    }

    #[test]
    fn randomize_is_eventually_nonzero() {
        // With 64 random draws, the probability all stay zero is 2^-64.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = BitState::zeros(64);
        let wires: Vec<Wire> = (0..64).map(w).collect();
        s.randomize(&wires, &mut rng);
        assert!(s.count_ones() > 0);
    }

    #[test]
    fn display_and_debug_render_bits() {
        let s = BitState::from_bools(&[true, false, true]);
        assert_eq!(s.to_string(), "101");
        assert_eq!(format!("{s:?}"), "BitState[101]");
    }

    #[test]
    fn collect_from_iterator() {
        let s: BitState = [true, true, false].into_iter().collect();
        assert_eq!(s.to_string(), "110");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = BitState::zeros(3);
        let _ = s.get(w(3));
    }

    #[test]
    fn clear_resets() {
        let mut s = BitState::from_u64(0b111, 3);
        s.clear();
        assert_eq!(s.count_ones(), 0);
    }
}
