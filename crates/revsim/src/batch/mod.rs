//! Bit-parallel batch simulation: 64 independent trials per machine word.
//!
//! The Monte-Carlo inner loop of the reproduction executes the same circuit
//! over and over on independent random inputs. Because every gate in the
//! paper's set is a boolean function of at most three wires, sixty-four
//! trials can share one CPU word per wire: [`BatchState`] stores the state
//! *wire-major* as bit planes — bit `l` of plane word `w` of wire `i` is
//! wire `i`'s value in trial (lane) `64·w + l` — and every gate becomes a
//! handful of branch-free bitwise operations ([`kernels`]).
//!
//! Noisy execution ([`exec`]) keeps the paper's fault semantics exactly: a
//! faulting operation skips execution and replaces its support bits by
//! uniform random bits, independently per lane. Faults are sampled per
//! operation per word as a 64-lane Bernoulli mask (via an exact binomial
//! draw), so the expected RNG cost is one `f64` per operation per 64 trials
//! instead of one per operation per trial.
//!
//! ```
//! use rft_revsim::prelude::*;
//!
//! // MAJ⁻¹ encodes a repetition codeword — in all 64 lanes at once.
//! let mut c = Circuit::new(3);
//! c.maj_inv(w(0), w(1), w(2));
//!
//! let mut batch = BatchState::zeros(3, 1);
//! batch.set_word(w(0), 0, 0xDEAD_BEEF_0123_4567);
//! run_ideal_batch(&c, &mut batch);
//! assert_eq!(batch.word(w(1), 0), 0xDEAD_BEEF_0123_4567);
//! assert_eq!(batch.word(w(2), 0), 0xDEAD_BEEF_0123_4567);
//! ```

pub mod exec;
pub mod kernels;

pub use exec::{run_ideal_batch, BatchExecReport};

use crate::state::BitState;
use crate::wire::Wire;
use std::fmt;

/// The values of every wire across `64 × words_per_wire` concurrent trials,
/// stored as per-wire bit planes.
///
/// Lane `l` (a trial index) lives in bit `l % 64` of plane word `l / 64`.
#[derive(Clone, PartialEq, Eq)]
pub struct BatchState {
    n_wires: usize,
    words: usize,
    planes: Vec<u64>,
}

impl BatchState {
    /// Creates an all-zero batch of `n_wires` wires × `words` plane words
    /// (`64 × words` lanes).
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn zeros(n_wires: usize, words: usize) -> Self {
        assert!(words > 0, "need at least one plane word");
        BatchState {
            n_wires,
            words,
            planes: vec![0; n_wires * words],
        }
    }

    /// Builds a batch whose lanes are the given scalar states (lane `i` =
    /// `states[i]`); remaining lanes stay zero.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, the widths disagree, or there are more
    /// than `64 × words` states for the chosen word count
    /// (`words = states.len().div_ceil(64)`).
    pub fn from_states(states: &[BitState]) -> Self {
        assert!(!states.is_empty(), "need at least one lane state");
        let n_wires = states[0].len();
        let words = states.len().div_ceil(64);
        let mut batch = BatchState::zeros(n_wires, words);
        for (lane, state) in states.iter().enumerate() {
            batch.set_lane(lane, state);
        }
        batch
    }

    /// Number of wires.
    #[inline]
    pub fn n_wires(&self) -> usize {
        self.n_wires
    }

    /// Plane words per wire.
    #[inline]
    pub fn words_per_wire(&self) -> usize {
        self.words
    }

    /// Number of lanes (concurrent trials): `64 × words_per_wire`.
    #[inline]
    pub fn lanes(&self) -> usize {
        64 * self.words
    }

    /// Index of plane word `word` of `wire` in the backing vector.
    #[inline]
    fn idx(&self, wire: Wire, word: usize) -> usize {
        debug_assert!(wire.index() < self.n_wires && word < self.words);
        wire.index() * self.words + word
    }

    /// Reads one plane word: bit `l` is wire `wire`'s value in lane
    /// `64·word + l`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` or `word` is out of range.
    #[inline]
    pub fn word(&self, wire: Wire, word: usize) -> u64 {
        assert!(wire.index() < self.n_wires, "wire {wire} out of range");
        assert!(word < self.words, "plane word {word} out of range");
        self.planes[self.idx(wire, word)]
    }

    /// Writes one plane word.
    ///
    /// # Panics
    ///
    /// Panics if `wire` or `word` is out of range.
    #[inline]
    pub fn set_word(&mut self, wire: Wire, word: usize, value: u64) {
        assert!(wire.index() < self.n_wires, "wire {wire} out of range");
        assert!(word < self.words, "plane word {word} out of range");
        let i = self.idx(wire, word);
        self.planes[i] = value;
    }

    /// The full bit plane of one wire.
    #[inline]
    pub fn plane(&self, wire: Wire) -> &[u64] {
        assert!(wire.index() < self.n_wires, "wire {wire} out of range");
        &self.planes[wire.index() * self.words..(wire.index() + 1) * self.words]
    }

    /// Reads a single lane bit.
    ///
    /// # Panics
    ///
    /// Panics if `wire` or `lane` is out of range.
    #[inline]
    pub fn get(&self, wire: Wire, lane: usize) -> bool {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        (self.word(wire, lane / 64) >> (lane % 64)) & 1 == 1
    }

    /// Writes a single lane bit.
    ///
    /// # Panics
    ///
    /// Panics if `wire` or `lane` is out of range.
    #[inline]
    pub fn set(&mut self, wire: Wire, lane: usize, value: bool) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        let i = self.idx(wire, lane / 64);
        let mask = 1u64 << (lane % 64);
        if value {
            self.planes[i] |= mask;
        } else {
            self.planes[i] &= !mask;
        }
    }

    /// Extracts one lane as a scalar [`BitState`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> BitState {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        let mut state = BitState::zeros(self.n_wires);
        for i in 0..self.n_wires {
            let wire = Wire::new(i as u32);
            state.set(wire, self.get(wire, lane));
        }
        state
    }

    /// Overwrites one lane with a scalar [`BitState`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the widths disagree.
    pub fn set_lane(&mut self, lane: usize, state: &BitState) {
        assert_eq!(state.len(), self.n_wires, "lane width mismatch");
        for i in 0..self.n_wires {
            let wire = Wire::new(i as u32);
            self.set(wire, lane, state.get(wire));
        }
    }

    /// Sets every plane to zero.
    pub fn clear(&mut self) {
        self.planes.fill(0);
    }

    /// Total number of set bits across all planes and lanes.
    pub fn count_ones(&self) -> u64 {
        self.planes.iter().map(|w| w.count_ones() as u64).sum()
    }

    // -- internal accessors used by the kernels ---------------------------

    /// Reads a plane word without the public asserts (kernel path; the
    /// kernels validate the circuit/batch widths once per run).
    #[inline]
    pub(crate) fn w(&self, wire: Wire, word: usize) -> u64 {
        self.planes[wire.index() * self.words + word]
    }

    /// Writes a plane word without the public asserts (kernel path).
    #[inline]
    pub(crate) fn set_w(&mut self, wire: Wire, word: usize, value: u64) {
        self.planes[wire.index() * self.words + word] = value;
    }

    /// XORs into a plane word without the public asserts (kernel path).
    #[inline]
    pub(crate) fn xor_w(&mut self, wire: Wire, word: usize, value: u64) {
        self.planes[wire.index() * self.words + word] ^= value;
    }

    // -- wide-word accessors (compiled micro-op path) ----------------------
    //
    // A *wide word* is `W` consecutive 64-lane plane words of one wire,
    // loaded and stored as a `[u64; W]` value. Because the layout is
    // wire-major and contiguous (`planes[wire * words + word]`), these
    // compile to straight vector loads/stores and the element-wise logic
    // in the wide kernels autovectorizes (W ∈ {1, 2, 4}).

    /// Loads the wide word of `wire`. Requires `words_per_wire() == W`
    /// (checked once per run by the callers, debug-asserted here).
    #[inline]
    pub(crate) fn wide<const W: usize>(&self, wire: Wire) -> [u64; W] {
        debug_assert_eq!(self.words, W);
        let base = wire.index() * W;
        let mut out = [0u64; W];
        out.copy_from_slice(&self.planes[base..base + W]);
        out
    }

    /// Stores the wide word of `wire`.
    #[inline]
    pub(crate) fn set_wide<const W: usize>(&mut self, wire: Wire, value: [u64; W]) {
        debug_assert_eq!(self.words, W);
        let base = wire.index() * W;
        self.planes[base..base + W].copy_from_slice(&value);
    }

    /// XORs into the wide word of `wire`.
    #[inline]
    pub(crate) fn xor_wide<const W: usize>(&mut self, wire: Wire, value: [u64; W]) {
        debug_assert_eq!(self.words, W);
        let base = wire.index() * W;
        for (p, v) in self.planes[base..base + W].iter_mut().zip(value) {
            *p ^= v;
        }
    }

    /// Copies plane word 0 of every wire of single-word `src` into plane
    /// word `word` of `self` (the wide word loops stage per-word trial
    /// inputs this way).
    pub(crate) fn load_column(&mut self, word: usize, src: &BatchState) {
        debug_assert_eq!(src.words, 1);
        debug_assert_eq!(src.n_wires, self.n_wires);
        debug_assert!(word < self.words);
        for wire in 0..self.n_wires {
            self.planes[wire * self.words + word] = src.planes[wire];
        }
    }

    /// Copies plane word `word` of every wire of `self` into plane word 0
    /// of single-word `dst` (staging a finished column for judging).
    pub(crate) fn store_column(&self, word: usize, dst: &mut BatchState) {
        debug_assert_eq!(dst.words, 1);
        debug_assert_eq!(dst.n_wires, self.n_wires);
        debug_assert!(word < self.words);
        for wire in 0..self.n_wires {
            dst.planes[wire] = self.planes[wire * self.words + word];
        }
    }
}

impl fmt::Debug for BatchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BatchState({} wires × {} lanes)",
            self.n_wires,
            self.lanes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::w;

    #[test]
    fn zeros_shape() {
        let b = BatchState::zeros(5, 2);
        assert_eq!(b.n_wires(), 5);
        assert_eq!(b.words_per_wire(), 2);
        assert_eq!(b.lanes(), 128);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn lane_bits_roundtrip() {
        let mut b = BatchState::zeros(3, 2);
        b.set(w(1), 70, true);
        assert!(b.get(w(1), 70));
        assert!(!b.get(w(1), 69));
        assert!(!b.get(w(0), 70));
        assert_eq!(b.word(w(1), 1), 1 << 6);
        b.set(w(1), 70, false);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn from_states_transposes() {
        let states: Vec<BitState> = (0..10u64).map(|v| BitState::from_u64(v % 8, 3)).collect();
        let b = BatchState::from_states(&states);
        assert_eq!(b.words_per_wire(), 1);
        for (lane, s) in states.iter().enumerate() {
            assert_eq!(&b.lane(lane), s, "lane {lane}");
        }
        // Unfilled lanes are zero.
        assert_eq!(b.lane(63).count_ones(), 0);
    }

    #[test]
    fn set_word_matches_lane_view() {
        let mut b = BatchState::zeros(2, 1);
        b.set_word(w(0), 0, 0b1010);
        assert!(!b.get(w(0), 0));
        assert!(b.get(w(0), 1));
        assert!(b.get(w(0), 3));
        assert_eq!(b.plane(w(0)), &[0b1010]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_out_of_range_panics() {
        let b = BatchState::zeros(2, 1);
        let _ = b.word(w(2), 0);
    }

    #[test]
    #[should_panic(expected = "lane width mismatch")]
    fn set_lane_rejects_width_mismatch() {
        let mut b = BatchState::zeros(2, 1);
        b.set_lane(0, &BitState::zeros(3));
    }
}
