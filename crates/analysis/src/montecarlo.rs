//! Monte-Carlo estimation of logical error rates, on the unified
//! [`Engine`](rft_revsim::engine) facade.
//!
//! Two kinds of experiment:
//!
//! - [`ConcatMc`] runs the *compiled* fault-tolerant programs of
//!   [`rft_core::concat`] — the non-local scheme of §2 at any concatenation
//!   level — for one or more consecutive cycles;
//! - [`estimate_cycle_error`] runs a single extended rectangle described by
//!   a [`CycleSpec`] (used for the 2D/1D local cycles of §3).
//!
//! Both are thin layers over [`Engine::estimate`]: the circuit and noise
//! model are compiled once into an [`Engine`] (flattened op stream,
//! per-op fault probabilities, exact binomial fault-mask samplers, and —
//! lazily — the Poisson-binomial fault-count distribution), and a
//! [`WordTrial`] supplies the encode/judge logic per 64-trial word. Runs
//! are configured by typed [`McOptions`] — trials, seed, threads, a
//! backend label, an
//! [`Estimator`](rft_revsim::engine::Estimator) policy (whose default
//! `Auto` routes deep-sub-threshold points to the fault-count-stratified
//! rare-event estimator; both trials here opt into zero-fault elision
//! since a fault-free encode → run → decode lane cannot fail), and
//! optional adaptive early stopping at a target relative error. Results
//! are deterministic per seed and the same under every backend label
//! (one executor runs them all); the statistical equivalence tests live
//! in `tests/batch_stats.rs`.

use crate::stats::ErrorEstimate;
use rand::{Rng, RngCore};
use rft_core::concat::{FtBuilder, FtProgram};
use rft_core::ftcheck::CycleSpec;
use rft_revsim::batch::BatchState;
use rft_revsim::circuit::Circuit;
use rft_revsim::engine::{failure_mask_in, Engine, McOptions, McOutcome, WordTrial};
use rft_revsim::gate::Gate;
use rft_revsim::noise::NoiseModel;
use rft_revsim::op::Op;
use rft_revsim::permutation::Permutation;
use rft_revsim::state::BitState;

pub use rft_revsim::engine::DEFAULT_BATCH_THRESHOLD as BATCH_TRIAL_THRESHOLD;

/// The [`WordTrial`] of a compiled concatenated program: each lane draws
/// an independent uniform logical input, encodes it through the program's
/// data-position trees, and fails when the recursive-majority decode of
/// the final state disagrees with the ideal permutation.
#[derive(Debug, Clone, Copy)]
pub struct ConcatTrial<'a> {
    program: &'a FtProgram,
    ideal: &'a Permutation,
}

impl<'a> ConcatTrial<'a> {
    /// A trial for `program` judged against `ideal`.
    pub fn new(program: &'a FtProgram, ideal: &'a Permutation) -> Self {
        ConcatTrial { program, ideal }
    }
}

impl WordTrial for ConcatTrial<'_> {
    fn n_wires(&self) -> usize {
        self.program.n_physical()
    }

    fn prepare(&self, batch: &mut BatchState, rng: &mut dyn RngCore) -> Vec<u64> {
        let mut logical = Vec::new();
        self.prepare_into(batch, rng, &mut logical);
        logical
    }

    fn prepare_into(&self, batch: &mut BatchState, rng: &mut dyn RngCore, inputs: &mut Vec<u64>) {
        inputs.clear();
        inputs.extend((0..self.program.n_logical()).map(|_| rng.random::<u64>()));
        self.program.encode_word(batch, 0, inputs);
    }

    fn judge(&self, batch: &BatchState, inputs: &[u64]) -> u64 {
        self.judge_masked(batch, inputs, u64::MAX)
    }

    fn judge_masked(&self, batch: &BatchState, inputs: &[u64], candidates: u64) -> u64 {
        if candidates == 0 {
            return 0;
        }
        let decoded = self.program.decode_word(batch, 0);
        failure_mask_in(candidates, inputs, &decoded, |input| {
            self.ideal.apply(input)
        })
    }

    /// Encode → run → decode against the ideal permutation: a fault-free
    /// lane decodes exactly, so zero-fault elision is sound.
    fn fault_free_can_fail(&self) -> bool {
        false
    }

    /// The concatenation-distance elision: a level-`L` program compiled
    /// by [`FtBuilder`] fails only under at least `2^L` physical faults
    /// (each level-1 block corrects any single fault — proven
    /// exhaustively by `rft_core::ftcheck` — and each outer level
    /// corrects any single corrupted block), so [`Estimator::Auto`] may
    /// elide the lighter strata.
    ///
    /// [`Estimator::Auto`]: rft_revsim::engine::Estimator::Auto
    fn min_failing_faults(&self) -> u32 {
        1u32 << self.program.level().min(31)
    }
}

/// Monte-Carlo harness for concatenated (non-local) fault-tolerant gates.
#[must_use = "a ConcatMc is a compiled program awaiting estimation runs"]
#[derive(Debug)]
pub struct ConcatMc {
    program: FtProgram,
    ideal: Permutation,
    cycles: usize,
}

impl ConcatMc {
    /// Compiles `cycles` consecutive applications of `gate` (a gate on
    /// logical wires) at concatenation `level`.
    ///
    /// # Panics
    ///
    /// Panics if the gate's wires are invalid for three logical wires or
    /// the level exceeds [`FtBuilder::MAX_LEVEL`].
    pub fn new(level: u8, gate: Gate, cycles: usize) -> Self {
        assert!(cycles > 0, "need at least one cycle");
        let n_logical = gate.support().max_index() + 1;
        let mut logical = Circuit::new(n_logical);
        for _ in 0..cycles {
            logical.push(Op::Gate(gate));
        }
        let ideal = Permutation::of_circuit(&logical).expect("small logical circuit");
        let program = FtBuilder::compile(level, &logical).expect("gate-only logical circuit");
        ConcatMc {
            program,
            ideal,
            cycles,
        }
    }

    /// The compiled program.
    pub fn program(&self) -> &FtProgram {
        &self.program
    }

    /// Number of cycles per trial.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Approximate resident size in bytes (the op stream plus the ideal
    /// permutation table) — the size input of the compile cache's
    /// cost-based eviction policy; only relative magnitudes matter.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<ConcatMc>()
            + self.program.circuit().len() * size_of::<Op>()
            + (1usize << self.ideal.n_bits()) * size_of::<u64>()
    }

    /// Compiles this program against `noise` into a reusable [`Engine`]
    /// (the compile-once artifact behind [`ConcatMc::estimate`]).
    pub fn engine<N: NoiseModel + ?Sized>(&self, noise: &N) -> Engine {
        Engine::compile(self.program.circuit(), noise)
    }

    /// The [`WordTrial`] driving [`ConcatMc::estimate`], for use with a
    /// hand-built or cached [`Engine`].
    pub fn trial(&self) -> ConcatTrial<'_> {
        ConcatTrial::new(&self.program, &self.ideal)
    }

    /// Estimates the probability that a full trial (all cycles) ends with
    /// any logical bit decoded incorrectly, over random logical inputs.
    ///
    /// Routes through the [`Engine`] facade: the backend label follows
    /// `opts` ([`BackendKind::Auto`](rft_revsim::engine::BackendKind)
    /// reads `"batch"` at ≥ [`BATCH_TRIAL_THRESHOLD`] trials), and setting
    /// [`McOptions::target_rel_error`] enables adaptive early stopping.
    pub fn estimate<N>(&self, noise: &N, opts: &McOptions) -> ErrorEstimate
    where
        N: NoiseModel + ?Sized,
    {
        self.estimate_outcome(noise, opts).into()
    }

    /// [`ConcatMc::estimate`] returning the raw [`McOutcome`] (executed
    /// trials, early-stop flag and backend name included).
    pub fn estimate_outcome<N>(&self, noise: &N, opts: &McOptions) -> McOutcome
    where
        N: NoiseModel + ?Sized,
    {
        self.engine(noise).estimate(&self.trial(), opts)
    }

    /// Per-cycle logical error rate derived from [`ConcatMc::estimate`].
    pub fn estimate_per_cycle<N>(&self, noise: &N, opts: &McOptions) -> (ErrorEstimate, f64)
    where
        N: NoiseModel + ?Sized,
    {
        let est = self.estimate(noise, opts);
        let per_cycle = est.per_cycle(self.cycles);
        (est, per_cycle)
    }
}

/// Estimates the logical error probability of one extended rectangle (a
/// [`CycleSpec`]): encode a random input, run the cycle under `noise`,
/// majority-decode the outputs and compare with the ideal function.
///
/// Routes through the [`Engine`] facade with `opts` selecting the
/// backend, threads and stopping rule.
pub fn estimate_cycle_error<N>(spec: &CycleSpec, noise: &N, opts: &McOptions) -> ErrorEstimate
where
    N: NoiseModel + ?Sized,
{
    estimate_cycle_error_outcome(spec, noise, opts).into()
}

/// [`estimate_cycle_error`] returning the raw [`McOutcome`].
pub fn estimate_cycle_error_outcome<N>(spec: &CycleSpec, noise: &N, opts: &McOptions) -> McOutcome
where
    N: NoiseModel + ?Sized,
{
    Engine::compile(spec.circuit(), noise).estimate(spec, opts)
}

/// Estimates the *unprotected* error rate of `cycles` physical gates — the
/// `1 − (1−g)^T ≈ gT` baseline the paper compares against.
#[must_use]
pub fn unprotected_error(g: f64, gates: usize) -> f64 {
    1.0 - (1.0 - g).powi(gates as i32)
}

/// Scalar reference trial used by tests and docs: encodes one logical
/// input, runs the engine's scalar path once, decodes.
///
/// Exists mainly to document the per-trial semantics the word-based
/// estimators vectorize; not used on any hot path.
pub fn scalar_reference_trial<R: Rng + ?Sized>(
    mc: &ConcatMc,
    engine: &Engine,
    rng: &mut R,
) -> bool {
    let n_logical = mc.program().n_logical();
    // `1u64 << 64` would overflow; a full-width register takes any u64.
    let input = if n_logical >= 64 {
        rng.random()
    } else {
        rng.random_range(0..(1u64 << n_logical))
    };
    let logical_in = BitState::from_u64(input, n_logical);
    let mut state = mc.program().encode(&logical_in);
    engine.run_scalar(&mut state, rng);
    let decoded = mc.program().decode(&state).to_u64();
    decoded != mc.ideal.apply(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rft_revsim::engine::BackendKind;
    use rft_revsim::noise::{NoNoise, UniformNoise};
    use rft_revsim::wire::w;

    fn toffoli() -> Gate {
        Gate::Toffoli {
            controls: [w(0), w(1)],
            target: w(2),
        }
    }

    #[test]
    fn noiseless_concat_never_fails() {
        let mc = ConcatMc::new(1, toffoli(), 3);
        let est = mc.estimate(&NoNoise, &McOptions::new(200).seed(7).threads(2));
        assert_eq!(est.failures, 0);
    }

    #[test]
    fn heavy_noise_fails_often() {
        let mc = ConcatMc::new(1, toffoli(), 1);
        let est = mc.estimate(
            &UniformNoise::new(0.25),
            &McOptions::new(400).seed(7).threads(2),
        );
        assert!(est.rate > 0.2, "rate {} too low for heavy noise", est.rate);
    }

    #[test]
    fn below_threshold_level_one_beats_unprotected() {
        // g = ρ/4: the FT cycle should fail far less often than the 27
        // unprotected gates it replaces.
        let g = 1.0 / 432.0;
        let mc = ConcatMc::new(1, toffoli(), 1);
        let est = mc.estimate(
            &UniformNoise::new(g),
            &McOptions::new(20_000).seed(11).threads(4),
        );
        let baseline = unprotected_error(g, 27);
        assert!(
            est.rate < baseline,
            "protected {} not below unprotected {}",
            est.rate,
            baseline
        );
    }

    #[test]
    fn cycle_spec_mc_runs() {
        use rft_core::recovery::{recovery_circuit, DATA_IN, DATA_OUT};
        let spec = CycleSpec::new(
            recovery_circuit(),
            vec![DATA_IN],
            vec![DATA_OUT],
            Permutation::identity(1),
        );
        let est = estimate_cycle_error(&spec, &NoNoise, &McOptions::new(100).seed(3).threads(2));
        assert_eq!(est.failures, 0);
        let noisy = estimate_cycle_error(
            &spec,
            &UniformNoise::new(0.3),
            &McOptions::new(400).seed(3).threads(2),
        );
        assert!(noisy.failures > 0);
    }

    #[test]
    fn estimates_are_deterministic_and_backend_independent() {
        let mc = ConcatMc::new(1, toffoli(), 1);
        let noise = UniformNoise::new(0.02);
        let base = McOptions::new(4_000).seed(9);
        let a = mc.estimate_outcome(&noise, &base.threads(4));
        let b = mc.estimate_outcome(&noise, &base.threads(1));
        assert_eq!(a.failures, b.failures, "thread-count independent");
        let scalar = mc.estimate_outcome(&noise, &base.backend(BackendKind::Scalar));
        assert_eq!(a.failures, scalar.failures, "backend independent");
        assert_eq!(a.backend, "batch");
        assert_eq!(scalar.backend, "scalar");
    }

    #[test]
    fn estimate_dispatches_by_trial_count() {
        let mc = ConcatMc::new(1, toffoli(), 1);
        let noise = UniformNoise::new(0.2);
        let small = mc.estimate_outcome(&noise, &McOptions::new(BATCH_TRIAL_THRESHOLD - 1).seed(3));
        let large = mc.estimate_outcome(&noise, &McOptions::new(BATCH_TRIAL_THRESHOLD * 4).seed(3));
        assert_eq!(small.backend, "scalar");
        assert_eq!(large.backend, "batch");
        assert!(small.failures > 0 && large.failures > 0);
    }

    #[test]
    fn scalar_reference_trial_agrees_statistically() {
        // The documented per-trial semantics vs the word estimator: same
        // model, disjoint streams, overlapping Wilson intervals.
        let mc = ConcatMc::new(1, toffoli(), 1);
        let noise = UniformNoise::new(1.0 / 80.0);
        let engine = mc.engine(&noise);
        let trials = 4_000u64;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut failures = 0u64;
        for _ in 0..trials {
            if scalar_reference_trial(&mc, &engine, &mut rng) {
                failures += 1;
            }
        }
        let reference = ErrorEstimate::from_counts(failures, trials);
        let word = mc.estimate(&noise, &McOptions::new(trials).seed(6).threads(2));
        assert!(
            word.low <= reference.high && reference.low <= word.high,
            "word {word:?} vs reference {reference:?}"
        );
    }

    #[test]
    fn adaptive_early_stopping_spends_less() {
        let mc = ConcatMc::new(1, toffoli(), 1);
        let noise = UniformNoise::new(0.1);
        let full = mc.estimate_outcome(&noise, &McOptions::new(100_000).seed(3).threads(2));
        let adaptive = mc.estimate_outcome(
            &noise,
            &McOptions::new(100_000)
                .seed(3)
                .threads(2)
                .target_rel_error(0.294),
        );
        assert!(adaptive.early_stopped);
        assert!(
            adaptive.trials < full.trials / 10,
            "adaptive {} vs full {}",
            adaptive.trials,
            full.trials
        );
    }

    #[test]
    fn unprotected_error_matches_formula() {
        assert!((unprotected_error(0.01, 100) - (1.0 - 0.99f64.powi(100))).abs() < 1e-15);
        assert_eq!(unprotected_error(0.0, 1000), 0.0);
    }
}
