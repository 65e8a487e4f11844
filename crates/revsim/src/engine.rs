//! The unified execution engine: compile once, run many.
//!
//! Every consumer of the simulator — the Monte-Carlo estimators, the
//! experiment harness, benches and examples — funnels through this module.
//!
//! The pieces:
//!
//! - [`Engine`] — the compile-once artifact: the flattened operation
//!   stream plus the per-operation fault probabilities, grouped by rate,
//!   derived from a bound [`NoiseModel`].
//!   Compiling is one pass over the circuit; an `Engine` is then reused
//!   across as many runs as needed.
//! - [`McOptions`] — the typed Monte-Carlo run configuration: `trials`,
//!   `seed`, `threads`, a [`BackendKind`] label, a [`WordWidth`], an
//!   [`Estimator`] policy, and an optional target relative half-width
//!   that enables adaptive early stopping.
//! - [`WordTrial`] — how a caller prepares 64 trial inputs and judges 64
//!   outcomes; [`Engine::estimate`] drives it through the word loop,
//!   threaded and deterministically seeded.
//!
//! The estimators' round loop, its stopping rule and the interval math
//! live in [`crate::estimate`]; this module compiles, schedules faults
//! and runs words.
//!
//! Deterministic fault injection for the exhaustive proofs is
//! [`FaultPlan::run`](crate::fault::FaultPlan::run).
//!
//! # One executor; `BackendKind` names the run
//!
//! Every estimate executes on the compiled micro-op program
//! ([`crate::microop`]), `W ∈ {1, 2, 4}` 64-lane words per pass as
//! [`WordWidth`] resolves. [`BackendKind`] does not pick an executor: it
//! is the label a run reports in [`McOutcome::backend`].
//! [`BackendKind::Auto`] reads `"batch"` from [`DEFAULT_BATCH_THRESHOLD`]
//! (256) trials up and `"scalar"` below; explicit kinds pass through.
//!
//! Every word derives its RNG stream from `(seed, global word index)` and
//! consumes it in one fixed order, all drawn into a fault table before
//! the word's group executes: the word's inputs, then its lane-major
//! fault schedule, then one random plane per support wire of each
//! faulted op, in op order. A seed fixes the outcome at any width and
//! thread count. Both estimators' word loops draw the schedule through
//! one routine: a plain word picks the lanes with any fault and gives
//! each a count `K | K ≥ 1`; a stratified word gives every lane its
//! stratum's count. [`Engine::run_batch`] draws the plain schedule the
//! same way and runs it through the op-at-a-time masked loop behind
//! [`Engine::run_batch_masked_raw`]: that loop is the reference the
//! compiled program is tested (`tests/microop_fusion.rs`) and
//! benchmarked (`fused_vs_raw`) against, and `tests/batch_equivalence.rs`
//! checks its masked kernel lane by lane against [`Op::apply`].
//!
//! # Rare-event estimation
//!
//! Deep below threshold (`g ≪ ρ`) almost every trial executes fault-free,
//! and a fault-free trial of an encode → run → decode experiment cannot
//! fail: plain Monte-Carlo spends essentially its whole budget confirming
//! an outcome that is known analytically. The [`Estimator::Stratified`]
//! mode in [`McOptions`] instead *stratifies by the per-trial fault count*
//! `K` — a Poisson-binomial random variable whose distribution the engine
//! derives once from the compiled per-op fault probabilities
//! ([`Engine::fault_count_pmf`]).
//!
//! Writing `w_k = P(K = k)` and `q_k = P(trial fails | K = k)`, the
//! logical failure rate decomposes exactly as
//!
//! ```text
//! p  =  Σ_k w_k · q_k  =  Σ_{k ≥ m} w_k · q_k        (q_k = 0 for k < m)
//! ```
//!
//! where the *elided* strata `k < m` (`m =` `min_faults`, default 1)
//! contribute nothing: a fault-free word never fails, so the `k = 0`
//! stratum — weight `P(K = 0) =` [`Engine::fault_free_probability`] — is
//! resolved analytically with **zero variance and zero executed words**.
//! Each executed stratum conditions word generation on its fault count
//! (sample the count, then place the faults via the exact conditional
//! distribution), so the estimator
//!
//! ```text
//! p̂  =  Σ_{k ≥ m} w_k · q̂_k ,    q̂_k = failures_k / trials_k
//! ```
//!
//! is unbiased (`E q̂_k = q_k`), with variance
//! `Σ_k w_k² q_k (1 − q_k) / n_k` — smaller than plain MC's
//! `p(1 − p)/n` by roughly the fault-free mass, and far smaller once the
//! per-round Neyman reallocation concentrates trials in the strata that
//! actually produce failures. [`crate::estimate::stratified_estimate`]
//! turns the per-stratum tallies into a Wilson-style confidence interval.
//!
//! **Worked level-2 example.** A level-2 concatenated Toffoli cycle has
//! ~1800 fallible ops; at `g = 10⁻³` its logical failure rate is ~10⁻⁶
//! (Equation 2 bound `ρ(g/ρ)⁴ ≈ 4.5·10⁻⁶`). Plain MC at 10⁶ trials
//! expects a handful of failures — an interval spanning a decade. The
//! stratified estimator elides the `K ≤ 1` mass (~46%; single faults are
//! provably corrected, so `min_faults = 2` is sound once the single-fault
//! sweep of `rft_core::ftcheck` has passed), spends its words on the
//! `K = 2, 3, …` strata in Neyman proportion, and resolves the same rate
//! to ~10% relative error in seconds — see `benches/rare_event.rs`.
//!
//! The scheme preserves the engine's determinism contract: strata
//! allocation is a pure function of the seed-deterministic tallies, every
//! word still derives its RNG stream from `(seed, global word index)`,
//! so stratified results are bit-identical across widths and thread
//! counts for a given seed.
//!
//! # Examples
//!
//! ```
//! use rft_revsim::prelude::*;
//!
//! // The Figure-2-style recovery circuit under uniform noise.
//! let mut c = Circuit::new(9);
//! c.init(&[w(3), w(4), w(5)])
//!     .init(&[w(6), w(7), w(8)])
//!     .maj_inv(w(0), w(3), w(6))
//!     .maj_inv(w(1), w(4), w(7))
//!     .maj_inv(w(2), w(5), w(8))
//!     .maj(w(0), w(1), w(2))
//!     .maj(w(3), w(4), w(5))
//!     .maj(w(6), w(7), w(8));
//!
//! // Compile once...
//! let engine = Engine::compile(&c, &UniformNoise::new(0.01));
//!
//! // ...run many: scalar one-shot,
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut state = BitState::zeros(9);
//! let report = engine.run_scalar(&mut state, &mut rng);
//!
//! // ...or 64 lanes at a time on the bit-plane kernels.
//! let mut batch = BatchState::zeros(9, 1);
//! let batch_report = engine.run_batch(&mut batch, &mut rng);
//! assert_eq!(batch_report.faulted_lanes.len(), 1);
//! # let _ = report;
//! ```

use crate::batch::{kernels, BatchExecReport, BatchState};
use crate::circuit::Circuit;
use crate::exec::ExecReport;
use crate::helpers;
use crate::microop::{self, CompileStats, CompiledOps, ExecScratch};
use crate::noise::NoiseModel;
use crate::op::Op;
use crate::state::BitState;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rft_obs::{Collector, Metric};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

/// Trial count from which [`BackendKind::Auto`] labels a run `"batch"`
/// rather than `"scalar"` (four 64-lane words).
pub const DEFAULT_BATCH_THRESHOLD: u64 = 256;

/// Default number of fault-count strata for [`Estimator::Stratified`]
/// (explicit counts `m, m+1, …` plus one unbounded tail stratum).
pub const DEFAULT_STRATA_CAP: u32 = 4;

/// Executable probability mass (`P(K ≥ min_failing_faults)`) below which
/// [`Estimator::Auto`] routes an eligible trial to the stratified
/// estimator: once ≥ 80% of plain-MC words would resolve analytically,
/// conditioning pays for its bookkeeping many times over.
pub const STRATIFIED_ROUTING_THRESHOLD: f64 = 0.2;

/// Tail mass below which the fault-count PMF is truncated. The stratified
/// estimator is exactly unbiased for the truncated distribution, which is
/// within this absolute mass of the true Poisson binomial.
const PMF_TAIL_EPS: f64 = 1e-12;

/// Per-word seed stride (golden-ratio odd constant, as in SplitMix64):
/// word `i` of a run seeded `s` draws from
/// `SmallRng::seed_from_u64(s ^ WORD_SEED_STRIDE.wrapping_mul(i + 1))`.
pub const WORD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Marker for operations that never fault.
pub(crate) const NEVER: usize = usize::MAX;

thread_local! {
    /// The one-shot runs' fault table, kept per thread: allocating its
    /// `n_ops × W` masks and planes per call costs a clean level-2
    /// `run_batch_masked` 1.4× (BENCH_NOTES).
    static SCRATCH: RefCell<ExecScratch> = RefCell::default();
}

// ---------------------------------------------------------------------------
// Fault table: per-op probabilities, grouped by rate
// ---------------------------------------------------------------------------

/// A 64-lane Bernoulli(p) mask sampler: the CDF of `Binomial(64, r)`
/// for `r = min(p, 1 − p)`, so a rate near 1 (a level-2 word's
/// `P(K ≥ 1)`) samples its few clean lanes instead of underflowing.
#[derive(Debug, Clone)]
pub(crate) struct MaskSampler {
    /// `cdf[k]` = P(at most k lanes drawn at rate `r`); `cdf[64] = 1`.
    cdf: Vec<f64>,
    /// `p > 1/2`: the drawn lanes are the clean ones.
    invert: bool,
}

impl MaskSampler {
    pub(crate) fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "fault probability must be in [0,1], got {p}"
        );
        let (r, invert) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
        let mut cdf = vec![1.0; 65];
        if r > 0.0 {
            let ratio = r / (1.0 - r);
            let mut pmf = (1.0 - r).powi(64);
            let mut acc = 0.0;
            for (k, c) in cdf.iter_mut().enumerate().take(64) {
                acc += pmf;
                *c = acc.min(1.0);
                pmf *= ratio * (64 - k) as f64 / (k + 1) as f64;
            }
        }
        MaskSampler { cdf, invert }
    }

    /// Draws a 64-lane mask of i.i.d. Bernoulli(p) bits: one exact
    /// binomial draw for the count, then uniform placement — one `f64`
    /// sample when no lane is drawn.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let mut k = 0usize;
        while k < 64 && u >= self.cdf[k] {
            k += 1;
        }
        // Choose k distinct lane positions uniformly. For k > 32 place the
        // complement instead (fewer rejections). For a power-of-two span
        // `random_range(0..64)` is the top six bits of one draw, spelt out
        // to keep the hardware division out of this hot path.
        let (count, invert) = if k <= 32 { (k, false) } else { (64 - k, true) };
        let mut mask = 0u64;
        let mut placed = 0usize;
        while placed < count {
            let bit = 1u64 << (rng.random::<u64>() >> 58);
            if mask & bit == 0 {
                mask |= bit;
                placed += 1;
            }
        }
        if invert != self.invert {
            !mask
        } else {
            mask
        }
    }
}

/// A [`NoiseModel`] lowered against one circuit: per-op fault
/// probabilities, grouped by rate.
#[derive(Debug, Clone)]
pub(crate) struct FaultTable {
    /// Fault probability per operation.
    pub(crate) probs: Vec<f64>,
    /// Rate group per operation ([`NEVER`] = never faults).
    group_of: Vec<usize>,
    /// Support size per operation (random planes a fault consumes).
    pub(crate) arity: Vec<u8>,
    /// Fault probability per rate group (one per distinct nonzero rate).
    group_rates: Vec<f64>,
    /// `Π (1 − p_i)`: probability that one trial executes fault-free.
    p_fault_free: f64,
}

impl FaultTable {
    pub(crate) fn compile<N: NoiseModel + ?Sized>(circuit: &Circuit, noise: &N) -> Self {
        let mut group_rates: Vec<f64> = Vec::new();
        let mut probs = Vec::with_capacity(circuit.len());
        let mut p_fault_free = 1.0f64;
        let group_of = circuit
            .ops()
            .iter()
            .map(|op| {
                let p = noise.fault_probability(op);
                assert!(
                    (0.0..=1.0).contains(&p),
                    "noise model returned probability {p} outside [0,1]"
                );
                probs.push(p);
                p_fault_free *= 1.0 - p;
                if p <= 0.0 {
                    return NEVER;
                }
                match group_rates.iter().position(|r| r.to_bits() == p.to_bits()) {
                    Some(i) => i,
                    None => {
                        group_rates.push(p);
                        group_rates.len() - 1
                    }
                }
            })
            .collect();
        FaultTable {
            probs,
            group_of,
            arity: circuit.ops().iter().map(|op| op.arity() as u8).collect(),
            group_rates,
            p_fault_free,
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-count distribution: Poisson binomial over the rate groups
// ---------------------------------------------------------------------------

/// The per-trial fault-count distribution of a compiled circuit — a
/// Poisson binomial over the per-op Bernoulli fault indicators, factored
/// through the engine's *rate groups* (ops sharing one probability), so
/// a group's contribution is an exact `Binomial(n_j, p_j)`.
///
/// Built lazily (once per [`Engine`]) by [`Engine::fault_dist`]; powers
/// the [`Estimator::Stratified`] weights and every word's lane-major
/// fault placement ([`FaultCountDist::place_lanes`]). PMFs are truncated
/// where the remaining tail mass drops below [`PMF_TAIL_EPS`]; the
/// stratified estimator is exactly unbiased for the truncated
/// distribution.
#[derive(Debug, Clone)]
pub(crate) struct FaultCountDist {
    /// Rate groups in order of first appearance.
    groups: Vec<FaultGroup>,
    /// `suffix[j][k]` = P(groups `j..` contribute exactly `k` faults);
    /// `suffix[0]` is the full fault-count PMF. `suffix[m]` = `[1.0]`.
    suffix: Vec<Vec<f64>>,
    /// Mass beyond the PMF truncation point (`P(K ≥ pmf len)`), folded
    /// into the top bin when the tail stratum samples a count.
    tail_beyond: f64,
}

#[derive(Debug, Clone)]
struct FaultGroup {
    /// Global op indices sharing this rate (placement is uniform here).
    ops: Vec<u32>,
    /// `Binomial(ops.len(), rate)` PMF, truncated like the total PMF.
    pmf: Vec<f64>,
    /// Lemire rejection threshold of `random_range(0..ops.len())`.
    threshold: u64,
}

/// `Binomial(n, p)` PMF by the stable multiplicative recurrence, truncated
/// once the accumulated mass reaches `1 − PMF_TAIL_EPS / 4`.
fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
    if p >= 1.0 {
        let mut pmf = vec![0.0; n + 1];
        pmf[n] = 1.0;
        return pmf;
    }
    let ratio = p / (1.0 - p);
    let mut pmf = Vec::with_capacity(n + 1);
    let mut term = (1.0 - p).powi(n as i32);
    let mut acc = 0.0;
    for k in 0..=n {
        pmf.push(term);
        acc += term;
        if acc >= 1.0 - PMF_TAIL_EPS / 4.0 {
            break;
        }
        term *= ratio * (n - k) as f64 / (k + 1) as f64;
    }
    pmf
}

/// Convolution of two truncated PMFs, re-truncated at the same tail mass.
fn convolve_pmf(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    // Trim the tail once the retained mass is within tolerance.
    let mut acc = 0.0;
    let mut keep = out.len();
    for (k, &v) in out.iter().enumerate() {
        acc += v;
        if acc >= 1.0 - PMF_TAIL_EPS / 4.0 {
            keep = k + 1;
            break;
        }
    }
    out.truncate(keep);
    out
}

impl FaultCountDist {
    /// Approximate heap footprint (size input of cache eviction).
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let groups: usize = self
            .groups
            .iter()
            .map(|g| {
                size_of::<FaultGroup>()
                    + g.ops.len() * size_of::<u32>()
                    + g.pmf.len() * size_of::<f64>()
            })
            .sum();
        let suffix: usize = self
            .suffix
            .iter()
            .map(|row| size_of::<Vec<f64>>() + row.len() * size_of::<f64>())
            .sum();
        size_of::<FaultCountDist>() + groups + suffix
    }

    fn build(table: &FaultTable) -> Self {
        let mut groups: Vec<FaultGroup> = table
            .group_rates
            .iter()
            .map(|_| FaultGroup {
                ops: Vec::new(),
                pmf: Vec::new(),
                threshold: 0,
            })
            .collect();
        for (i, &s) in table.group_of.iter().enumerate() {
            if s != NEVER {
                groups[s].ops.push(i as u32);
            }
        }
        for (group, &rate) in groups.iter_mut().zip(&table.group_rates) {
            group.pmf = binomial_pmf(group.ops.len(), rate);
            let span = group.ops.len() as u64;
            group.threshold = span.wrapping_neg() % span;
        }
        let m = groups.len();
        let mut suffix = vec![Vec::new(); m + 1];
        suffix[m] = vec![1.0];
        for j in (0..m).rev() {
            suffix[j] = convolve_pmf(&groups[j].pmf, &suffix[j + 1]);
        }
        let tail_beyond = (1.0 - suffix[0].iter().sum::<f64>()).max(0.0);
        FaultCountDist {
            groups,
            suffix,
            tail_beyond,
        }
    }

    /// The (truncated) fault-count PMF.
    pub(crate) fn pmf(&self) -> &[f64] {
        &self.suffix[0]
    }

    /// `P(K = k)` (zero beyond the truncation point).
    pub(crate) fn pmf_at(&self, k: usize) -> f64 {
        self.pmf().get(k).copied().unwrap_or(0.0)
    }

    /// `P(K ≥ k)`, including the truncated tail mass.
    pub(crate) fn mass_at_least(&self, k: usize) -> f64 {
        let below: f64 = self.pmf().iter().take(k).sum();
        (1.0 - below).max(0.0)
    }

    /// Largest fault count the truncated PMF represents.
    pub(crate) fn max_k(&self) -> usize {
        self.pmf().len() - 1
    }

    /// Samples the fault set of one lane conditioned on **exactly** `k`
    /// faults, handing each chosen global op index to `place`, which
    /// returns `false` for an op this lane already holds.
    ///
    /// Sequential conditional sampling over the rate groups: group `j`
    /// takes `t` faults with probability `B_j[t] · S_{j+1}[rem − t] /
    /// S_j[rem]`, then `t` distinct ops are placed uniformly within the
    /// group (exact, since all its ops share one rate).
    fn sample_exact<R: Rng + ?Sized>(
        &self,
        k: usize,
        rng: &mut R,
        scratch: &mut Vec<usize>,
        mut place: impl FnMut(u32) -> bool,
    ) {
        let mut rem = k;
        let m = self.groups.len();
        for j in 0..m {
            if rem == 0 {
                break;
            }
            let group = &self.groups[j];
            let t = if j + 1 == m {
                rem.min(group.ops.len())
            } else {
                let total = self.suffix[j].get(rem).copied().unwrap_or(0.0);
                let hi = rem.min(group.pmf.len() - 1);
                let mut chosen = hi.min(group.ops.len());
                if total > 0.0 {
                    let mut u = rng.random::<f64>() * total;
                    let next = &self.suffix[j + 1];
                    for t in 0..=hi {
                        let w = group.pmf[t] * next.get(rem - t).copied().unwrap_or(0.0);
                        if u < w {
                            chosen = t;
                            break;
                        }
                        u -= w;
                    }
                }
                chosen
            };
            group.place_uniform(t, rng, scratch, &mut place);
            rem -= t;
        }
    }

    /// Phase 1's placement for word `w`, lane-major — the one schedule
    /// routine of both word loops. Each lane of `lanes`, in ascending
    /// order, draws its fault count from `count` and places exactly that
    /// many distinct faults straight into the table via
    /// [`FaultCountDist::sample_exact`]. The plain loop passes the lanes
    /// with any fault and `K | K ≥ 1` ([`PlainPlan`]); the stratified loop
    /// passes every lane and its stratum's count. The caller then draws
    /// the word's planes in op order ([`ExecScratch::draw_planes`]).
    fn place_lanes(
        &self,
        lanes: u64,
        mut count: impl FnMut(&mut SmallRng) -> usize,
        w: usize,
        rng: &mut SmallRng,
        scratch: &mut ExecScratch,
    ) {
        let mut picks = std::mem::take(&mut scratch.picks);
        let (mut events, mut faulted, mut bits) = (0u64, 0u64, lanes);
        while bits != 0 {
            let lane = bits.trailing_zeros();
            bits &= bits - 1;
            let k = count(rng);
            let before = events;
            self.sample_exact(k, rng, &mut picks, |op| {
                let placed = scratch.place(op, w, lane);
                events += u64::from(placed);
                placed
            });
            faulted |= u64::from(events != before) << lane;
        }
        scratch.picks = picks;
        scratch.tally(w, events, faulted);
    }
}

/// The law of one lane's fault count conditioned on `K ≥ lo`: a CDF over
/// `lo..=max_k` whose top bin absorbs the truncated tail mass.
#[derive(Debug)]
struct CountCdf {
    lo: usize,
    cdf: Vec<f64>,
}

impl CountCdf {
    fn at_least(dist: &FaultCountDist, lo: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (lo..=dist.max_k().max(lo))
            .map(|k| {
                acc += dist.pmf_at(k);
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last += dist.tail_beyond;
        }
        CountCdf { lo, cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = rng.random::<f64>() * total;
        // A linear scan: counts sit near the low end, so it exits in a
        // few predictable steps (same answer as a binary search).
        let mut pos = 0;
        while pos + 1 < self.cdf.len() && self.cdf[pos] <= u {
            pos += 1;
        }
        self.lo + pos
    }
}

/// The plain word's memoized schedule law ([`Engine::plain_plan`]): every
/// lane faults at all with `P(K ≥ 1)`, independently, and a faulted lane
/// then holds `K | K ≥ 1` faults placed by the exact conditional law —
/// the per-op Bernoulli law, up to the PMF's truncation.
#[derive(Debug)]
struct PlainPlan {
    /// Lanes with any fault.
    lanes: MaskSampler,
    /// A faulted lane's fault count.
    counts: CountCdf,
}

impl PlainPlan {
    /// Phase 1's placement for plain word `w` (see
    /// [`FaultCountDist::place_lanes`]).
    fn place(
        &self,
        dist: &FaultCountDist,
        w: usize,
        rng: &mut SmallRng,
        scratch: &mut ExecScratch,
    ) {
        let lanes = self.lanes.sample(rng);
        dist.place_lanes(lanes, |rng| self.counts.sample(rng), w, rng, scratch);
    }
}

impl FaultGroup {
    /// Places `t` distinct ops of the group, chosen uniformly. Rejection
    /// sampling on the smaller of the set and its complement: a draw
    /// `place` refuses (an op already placed) is drawn again. `scratch`
    /// is a caller-owned buffer reused across calls.
    fn place_uniform<R: Rng + ?Sized>(
        &self,
        t: usize,
        rng: &mut R,
        scratch: &mut Vec<usize>,
        place: &mut impl FnMut(u32) -> bool,
    ) {
        let n = self.ops.len();
        debug_assert!(t <= n);
        if t == 0 {
            return;
        }
        if t == n {
            for &op in &self.ops {
                place(op);
            }
            return;
        }
        let (count, invert) = if 2 * t <= n {
            (t, false)
        } else {
            (n - t, true)
        };
        // Inlined `random_range(0..n)` (Lemire widening multiply with a
        // rejection zone, its threshold precomputed per group) — the draw
        // stream and outputs are bit-identical to the `rand` call,
        // without a hardware division per placement.
        let span = n as u64;
        let mut draw = || loop {
            let wide = (rng.random::<u64>() as u128) * (span as u128);
            if (wide as u64) >= self.threshold {
                break (wide >> 64) as usize;
            }
        };
        if !invert {
            let mut placed = 0;
            while placed < count {
                placed += usize::from(place(self.ops[draw()]));
            }
            return;
        }
        scratch.clear();
        while scratch.len() < count {
            let i = draw();
            if !scratch.contains(&i) {
                scratch.push(i);
            }
        }
        for (i, &op) in self.ops.iter().enumerate() {
            if !scratch.contains(&i) {
                place(op);
            }
        }
    }
}

/// Executes one 64-lane word under a **precomputed** per-op fault-mask
/// schedule, op at a time — the reference behind
/// [`Engine::run_batch_masked_raw`]. Fault planes are drawn from `rng` in
/// op order via [`fill_fault_planes`], as the compiled masked loop does.
pub(crate) fn run_masked_word_batch(
    circuit: &Circuit,
    batch: &mut BatchState,
    masks: &[u64],
    rng: &mut SmallRng,
) -> BatchExecReport {
    assert_eq!(
        batch.words_per_wire(),
        1,
        "masked execution drives single-word batches"
    );
    assert_eq!(
        batch.n_wires(),
        circuit.n_wires(),
        "batch width must match circuit width"
    );
    assert_eq!(
        masks.len(),
        circuit.len(),
        "mask schedule does not match this circuit"
    );
    let mut report = BatchExecReport {
        fault_events: 0,
        faulted_lanes: vec![0; 1],
    };
    for (op, &fault) in circuit.ops().iter().zip(masks) {
        if fault == 0 {
            kernels::apply_word(batch, op, 0);
            continue;
        }
        let mut rand_planes = [0u64; 4];
        fill_fault_planes(op.arity(), fault, rng, &mut rand_planes);
        kernels::apply_word_masked(batch, op, 0, fault, &rand_planes);
        report.fault_events += fault.count_ones() as u64;
        report.faulted_lanes[0] |= fault;
    }
    report
}

/// Fills the per-support-wire random planes a masked op with a nonzero
/// `fault` mask consumes (entries past `arity` are left unused). In the
/// common sparse case — a single faulted lane — only `arity` random
/// *bits* are needed, so one `u64` draw covers them; otherwise one full
/// plane per support wire is drawn. Part of the shared masked schedule:
/// the compiled and the raw masked loops call this in the same op order.
#[inline]
pub(crate) fn fill_fault_planes(
    arity: usize,
    fault: u64,
    rng: &mut SmallRng,
    rand_planes: &mut [u64; 4],
) {
    let first = rng.random::<u64>();
    if fault & (fault - 1) == 0 {
        let lane = fault.trailing_zeros();
        for (k, plane) in rand_planes.iter_mut().enumerate() {
            *plane = ((first >> k) & 1) << lane;
        }
        return;
    }
    rand_planes[0] = first;
    for plane in &mut rand_planes[1..arity] {
        *plane = rng.random::<u64>();
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A circuit compiled against a noise model: the compile-once artifact
/// every run executes.
///
/// Owns the flattened op stream and the lowered fault table; build one
/// with [`Engine::compile`] and reuse it for any number of runs.
#[must_use = "an Engine does nothing until it runs"]
#[derive(Debug)]
pub struct Engine {
    circuit: Circuit,
    table: FaultTable,
    /// Fault-count distribution, built on first use by either word loop
    /// or [`Engine::run_batch`] (compiling stays a single cheap pass).
    dist: OnceLock<FaultCountDist>,
    /// The plain word's schedule law, derived from `dist` once.
    plain: OnceLock<PlainPlan>,
    /// Micro-op program (linear-segment fusion + wide kernels), built on
    /// first word-loop use — [`Engine::compile`] itself stays a single
    /// cheap pass.
    compiled: OnceLock<CompiledOps>,
    /// Memoized stratified-estimator layouts, keyed by
    /// `(min_faults, strata_cap)` (derived from the fault-count PMF once
    /// instead of on every estimate call).
    plans: Mutex<Vec<Arc<StrataPlan>>>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        let dist = OnceLock::new();
        if let Some(d) = self.dist.get() {
            let _ = dist.set(d.clone());
        }
        let compiled = OnceLock::new();
        if let Some(c) = self.compiled.get() {
            let _ = compiled.set(c.clone());
        }
        Engine {
            circuit: self.circuit.clone(),
            table: self.table.clone(),
            dist,
            plain: OnceLock::new(),
            compiled,
            plans: Mutex::new(self.plans.lock().map(|g| g.clone()).unwrap_or_default()),
        }
    }
}

impl Engine {
    /// Compiles `circuit` bound to `noise`.
    ///
    /// # Panics
    ///
    /// Panics if the model reports a probability outside `[0, 1]`.
    pub fn compile<N: NoiseModel + ?Sized>(circuit: &Circuit, noise: &N) -> Self {
        Engine {
            circuit: circuit.clone(),
            table: FaultTable::compile(circuit, noise),
            dist: OnceLock::new(),
            plain: OnceLock::new(),
            compiled: OnceLock::new(),
            plans: Mutex::new(Vec::new()),
        }
    }

    /// The lazily compiled micro-op program (see [`crate::microop`]).
    pub(crate) fn compiled(&self) -> &CompiledOps {
        self.compiled
            .get_or_init(|| microop::compile(&self.circuit, &self.table))
    }

    /// [`Engine::compiled`] with the lazy IR lowering instrumented: when
    /// this call performs the lowering, the time lands in
    /// `engine.lower_ns` under an `engine.lower` span. Subsequent calls
    /// hit the memoized program and record nothing.
    pub(crate) fn compiled_obs(&self, obs: &Collector) -> &CompiledOps {
        if let Some(compiled) = self.compiled.get() {
            return compiled;
        }
        let _span = obs.span_metric("engine.lower", Metric::LowerNanos);
        let compiled = self.compiled();
        obs.incr(Metric::IrLowerings);
        compiled
    }

    /// Statistics of the micro-op compile pass — ops before/after fusion
    /// and the fused-segment histogram. Forces the (lazy, memoized)
    /// micro-op compilation.
    pub fn compile_stats(&self) -> &CompileStats {
        &self.compiled().stats
    }

    /// Approximate resident size of this compiled engine in bytes: the
    /// op stream, the fault table, and whatever lazy artifacts (fault-
    /// count distribution, plain and stratified schedule plans, micro-op
    /// program) have been built so far.
    ///
    /// An estimate, not an allocator census — it is the size input of the
    /// compile cache's cost-based eviction policy, where only relative
    /// magnitudes matter (a level-2 engine weighs ~20× a level-1 one).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Engine>();
        bytes += std::mem::size_of_val::<[Op]>(self.circuit.ops());
        bytes += self.table.probs.len() * size_of::<f64>();
        bytes += self.table.group_of.len() * size_of::<usize>();
        bytes += self.table.arity.len();
        bytes += self.table.group_rates.len() * size_of::<f64>();
        if let Some(dist) = self.dist.get() {
            bytes += dist.approx_bytes();
        }
        if let Some(plan) = self.plain.get() {
            let cdfs = plan.lanes.cdf.len() + plan.counts.cdf.len();
            bytes += size_of::<PlainPlan>() + cdfs * size_of::<f64>();
        }
        if let Ok(plans) = self.plans.lock() {
            bytes += plans.iter().map(|p| p.approx_bytes()).sum::<usize>();
        }
        if let Some(ops) = self.compiled.get() {
            bytes += ops.approx_bytes();
        }
        bytes
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of operations in the compiled stream.
    pub fn n_ops(&self) -> usize {
        self.circuit.len()
    }

    /// Width of the compiled circuit in wires.
    pub fn n_wires(&self) -> usize {
        self.circuit.n_wires()
    }

    /// The precomputed fault probability of operation `op_index`.
    ///
    /// # Panics
    ///
    /// Panics if `op_index` is out of range.
    pub fn fault_probability(&self, op_index: usize) -> f64 {
        self.table.probs[op_index]
    }

    /// `P(K = 0)`: the probability that one trial executes entirely
    /// fault-free, `Π (1 − pᵢ)` over the compiled op stream — the mass the
    /// stratified estimator resolves analytically (zero-fault elision).
    pub fn fault_free_probability(&self) -> f64 {
        self.table.p_fault_free
    }

    /// The lazily built fault-count distribution.
    pub(crate) fn fault_dist(&self) -> &FaultCountDist {
        self.dist.get_or_init(|| FaultCountDist::build(&self.table))
    }

    /// The memoized plain schedule law (see [`PlainPlan`]).
    fn plain_plan(&self) -> &PlainPlan {
        self.plain.get_or_init(|| {
            let dist = self.fault_dist();
            PlainPlan {
                lanes: MaskSampler::new(dist.mass_at_least(1)),
                counts: CountCdf::at_least(dist, 1),
            }
        })
    }

    /// The PMF of the per-trial fault count `K` — a Poisson binomial over
    /// the per-op fault probabilities, computed once per engine (entry `k`
    /// is `P(K = k)`; the vector is truncated where the remaining tail
    /// mass drops below ~10⁻¹²). These are the stratified estimator's
    /// stratum weights.
    pub fn fault_count_pmf(&self) -> &[f64] {
        self.fault_dist().pmf()
    }

    /// Runs one noisy scalar trial on `state` (classic per-trial
    /// semantics: one uniform draw per fallible operation; a faulting
    /// operation randomizes its support instead of executing). The
    /// per-trial reference the word loops are checked against in tests,
    /// examples and benches; no estimate runs on it.
    ///
    /// # Panics
    ///
    /// Panics if the state width does not match the circuit width.
    pub fn run_scalar<R: Rng + ?Sized>(&self, state: &mut BitState, rng: &mut R) -> ExecReport {
        assert_eq!(
            state.len(),
            self.circuit.n_wires(),
            "state width must match circuit width"
        );
        let mut report = ExecReport::default();
        for (i, op) in self.circuit.ops().iter().enumerate() {
            let p = self.table.probs[i];
            if p > 0.0 && rng.random::<f64>() < p {
                state.randomize(op.support().as_slice(), rng);
                report.faults.push(i);
            } else {
                op.apply(state);
            }
        }
        report
    }

    /// Runs the circuit over the 64 lanes of a one-word `batch`, op at a
    /// time on the bit-plane kernels — the reference the compiled word
    /// loop is checked against. It draws the plain word's schedule the
    /// way the word loops do, then runs it through
    /// [`Engine::run_batch_masked_raw`]'s loop, which draws the planes.
    ///
    /// # Panics
    ///
    /// Panics unless `batch` is one word wide and matches the circuit.
    pub fn run_batch(&self, batch: &mut BatchState, rng: &mut SmallRng) -> BatchExecReport {
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(self.n_ops(), 1, true);
            self.plain_plan().place(self.fault_dist(), 0, rng, scratch);
            run_masked_word_batch(&self.circuit, batch, scratch.masks(), rng)
        })
    }

    /// Runs the **compiled micro-op program** (linear-segment fusion +
    /// wide kernels) over a `W`-word wide batch, where `W =
    /// batch.words_per_wire() = rngs.len() ∈ {1, 2, 4}` and logical word
    /// `w` draws all of its randomness from `rngs[w]`.
    ///
    /// Schedule, then execute: each word's lane-major fault schedule and
    /// then its random planes are drawn first, and the program then runs
    /// against that table. Lanes are bit-identical to `W` independent
    /// [`Engine::run_batch`] runs on single-word batches at the same
    /// seeds, and the schedule is the one [`Engine::estimate`]'s plain
    /// words draw. Its production caller is the §4 reset-entropy
    /// measurement (`rft_analysis::entropy_meas`), which reads the
    /// finished planes of copy-out wires; benches compare it against the
    /// raw path.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree, `rngs.len() != words_per_wire()`,
    /// or the width is not 1, 2 or 4.
    pub fn run_batch_fused(
        &self,
        batch: &mut BatchState,
        rngs: &mut [SmallRng],
    ) -> BatchExecReport {
        assert_eq!(
            batch.n_wires(),
            self.circuit.n_wires(),
            "batch width must match circuit width"
        );
        assert_eq!(
            batch.words_per_wire(),
            rngs.len(),
            "need exactly one RNG per logical word"
        );
        fn go<const W: usize>(
            engine: &Engine,
            batch: &mut BatchState,
            rngs: &mut [SmallRng],
        ) -> BatchExecReport {
            SCRATCH.with_borrow_mut(|scratch| {
                engine.schedule_plain(rngs, scratch);
                microop::execute::<W>(engine.compiled(), batch, scratch).into()
            })
        }
        match rngs.len() {
            1 => go::<1>(self, batch, rngs),
            2 => go::<2>(self, batch, rngs),
            4 => go::<4>(self, batch, rngs),
            w => panic!("unsupported word width {w} (expected 1, 2 or 4)"),
        }
    }

    /// Runs one `W`-wide word under a **precomputed** fault-mask
    /// schedule through the compiled micro-op program — the stratified
    /// rare-event estimator's execution path, public so benches can
    /// measure it against [`Engine::run_batch_masked_raw`].
    ///
    /// `masks` uses the flat wide layout `masks[i * W + w]` = lanes in
    /// which op `i` faults in logical word `w` (for `W = 1` this is the
    /// plain per-op schedule of [`Engine::run_batch_masked_raw`]).
    /// Logical word `w` draws the fault planes of its schedule from
    /// `rngs[w]` in op order via the shared sparse schedule before
    /// anything executes, so results are bit-identical to `W`
    /// single-word [`Engine::run_batch_masked_raw`] calls.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree, `rngs.len() != words_per_wire()`, the
    /// width is not 1, 2 or 4, or `masks.len() != n_ops × W`.
    pub fn run_batch_masked(
        &self,
        batch: &mut BatchState,
        masks: &[u64],
        rngs: &mut [SmallRng],
    ) -> BatchExecReport {
        assert_eq!(
            batch.n_wires(),
            self.circuit.n_wires(),
            "batch width must match circuit width"
        );
        let w = batch.words_per_wire();
        assert_eq!(w, rngs.len(), "need exactly one RNG per logical word");
        assert_eq!(
            masks.len(),
            self.circuit.len() * w,
            "mask schedule does not match this circuit (expected n_ops × width)"
        );
        fn go<const W: usize>(
            engine: &Engine,
            batch: &mut BatchState,
            masks: &[u64],
            rngs: &mut [SmallRng],
        ) -> BatchExecReport {
            SCRATCH.with_borrow_mut(|scratch| {
                scratch.load_schedule(masks, &engine.table.arity, rngs);
                microop::execute::<W>(engine.compiled(), batch, scratch).into()
            })
        }
        match w {
            1 => go::<1>(self, batch, masks, rngs),
            2 => go::<2>(self, batch, masks, rngs),
            4 => go::<4>(self, batch, masks, rngs),
            other => panic!("unsupported word width {other} (expected 1, 2 or 4)"),
        }
    }

    /// Phase 1 alone for one group of `rngs.len()` plain words: the
    /// lane-major placement and the plane draws, without inputs, kernels
    /// or judging. Returns the group's fault events. A bench hook
    /// (`plain_schedule_only`); no estimator calls it.
    ///
    /// # Panics
    ///
    /// Panics if the width is not 1 to 4.
    #[doc(hidden)]
    pub fn schedule_plain_only(&self, rngs: &mut [SmallRng]) -> u64 {
        SCRATCH.with_borrow_mut(|scratch| {
            self.schedule_plain(rngs, scratch);
            scratch.fault_events
        })
    }

    /// [`Engine::schedule_plain_only`] for words of stratum `stratum` in
    /// the `(min_faults, strata_cap)` layout (`stratified_schedule_only`).
    ///
    /// # Panics
    ///
    /// Panics if `stratum` is out of range or the width is not 1 to 4.
    #[doc(hidden)]
    pub fn schedule_stratified(
        &self,
        min_faults: u32,
        strata_cap: u32,
        stratum: usize,
        rngs: &mut [SmallRng],
    ) -> u64 {
        let plan = self.strata_plan(min_faults, strata_cap);
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(self.n_ops(), rngs.len(), true);
            for (w, rng) in rngs.iter_mut().enumerate() {
                plan.place(self.fault_dist(), stratum, w, rng, scratch);
                scratch.draw_planes(&self.table.arity, w, rng);
            }
            scratch.fault_events
        })
    }

    /// Phase 1 of a group of plain words, word `w` drawing from
    /// `rngs[w]`: its lane-major placement, then its planes in op order.
    fn schedule_plain(&self, rngs: &mut [SmallRng], scratch: &mut ExecScratch) {
        let (plan, dist) = (self.plain_plan(), self.fault_dist());
        scratch.begin(self.n_ops(), rngs.len(), true);
        for (w, rng) in rngs.iter_mut().enumerate() {
            plan.place(dist, w, rng, scratch);
            scratch.draw_planes(&self.table.arity, w, rng);
        }
    }

    /// The op-at-a-time masked word loop, kept as the raw reference the
    /// compiled path is benchmarked and property-tested against
    /// (`fused_vs_raw`); not part of any estimator path.
    ///
    /// # Panics
    ///
    /// Panics unless `batch` is one word wide and matches the circuit,
    /// and `masks` has one entry per op.
    #[doc(hidden)]
    pub fn run_batch_masked_raw(
        &self,
        batch: &mut BatchState,
        masks: &[u64],
        rng: &mut SmallRng,
    ) -> BatchExecReport {
        run_masked_word_batch(&self.circuit, batch, masks, rng)
    }

    /// Runs the `n` slots of `words` on the caller plus up to
    /// `threads − 1` persistent helpers (see [`helpers::run_chunked`]),
    /// returning per-tally `(failures, trials)` and the word extras.
    /// Participants claim chunks of the span from one cursor, so a
    /// stratified round's low-fault strata at its head and tail strata at
    /// its end spread over every thread. Each participant opens an
    /// `engine.words` span on its own thread so the trace attributes
    /// word-loop time to the thread that spent it; the split itself never
    /// consults the collector.
    pub(crate) fn run_span<T: WordTrial + ?Sized>(
        &self,
        width: usize,
        trial: &T,
        words: Words<'_>,
        n: u64,
        threads: usize,
        obs: &Collector,
    ) -> (Vec<(u64, u64)>, WordExtras) {
        helpers::run_chunked(threads, n, chunk_words(width), |claims| {
            let _s = obs.span("engine.words");
            match width {
                2 => self.run_words::<T, 2>(trial, words, claims),
                4 => self.run_words::<T, 4>(trial, words, claims),
                _ => self.run_words::<T, 1>(trial, words, claims),
            }
        })
        .into_iter()
        .fold(
            (vec![(0u64, 0u64); words.tallies()], WordExtras::default()),
            |(mut acc, mut x), (part, px)| {
                add_tallies(&mut acc, &part);
                x.merge(px);
                (acc, x)
            },
        )
    }

    /// The compiled word loop of both estimators: `W` logical words per
    /// iteration through the fused micro-op program, each word on its own
    /// seed-derived RNG stream (prepare → lane-major schedule → planes in
    /// op order, all drawn before the group executes), so results are
    /// bit-identical to the `W = 1` loop at any width and thread count.
    fn run_words<T: WordTrial + ?Sized, const W: usize>(
        &self,
        trial: &T,
        words: Words<'_>,
        slots: impl Iterator<Item = Range<u64>>,
    ) -> (Vec<(u64, u64)>, WordExtras) {
        let (compiled, dist) = (self.compiled(), self.fault_dist());
        let n_wires = self.circuit.n_wires();
        let mut wide = BatchState::zeros(n_wires, W);
        let mut col = BatchState::zeros(n_wires, 1);
        let mut inputs: [Vec<u64>; W] = std::array::from_fn(|_| Vec::new());
        let mut scratch = ExecScratch::default();
        let judge_faulted_only = !trial.fault_free_can_fail();
        let mut tallies = vec![(0u64, 0u64); words.tallies()];
        let mut extras = WordExtras::default();
        for Range { start, end } in slots {
            let mut slot = start;
            while slot < end {
                if end - slot < W as u64 {
                    // Remainder words run at width 1 — bit-identical, since
                    // every word owns its RNG stream regardless of grouping.
                    let once = std::iter::once(slot..end);
                    let (rest, x) = self.run_words::<T, 1>(trial, words, once);
                    add_tallies(&mut tallies, &rest);
                    extras.merge(x);
                    break;
                }
                scratch.begin(self.n_ops(), W, true);
                for (k, word_inputs) in inputs.iter_mut().enumerate() {
                    let s = slot + k as u64;
                    let mut rng = SmallRng::seed_from_u64(words.seed(s));
                    col.clear();
                    trial.prepare_into(&mut col, &mut rng, word_inputs);
                    wide.load_column(k, &col);
                    match words.strata {
                        None => self.plain_plan().place(dist, k, &mut rng, &mut scratch),
                        Some((plan, _)) => {
                            plan.place(dist, words.tally(s), k, &mut rng, &mut scratch)
                        }
                    }
                    scratch.draw_planes(&self.table.arity, k, &mut rng);
                }
                let outcome = microop::execute::<W>(compiled, &mut wide, &mut scratch);
                extras.fault_events += outcome.fault_events;
                extras.fused_segments += outcome.fused_segments;
                extras.replayed_segments += outcome.replayed_segments;
                for (k, word_inputs) in inputs.iter().enumerate() {
                    let s = slot + k as u64;
                    let valid = valid_lanes(words.trials, s);
                    extras.faulted_lanes += (outcome.faulted[k] & valid).count_ones() as u64;
                    let candidates = if judge_faulted_only {
                        outcome.faulted[k] & valid
                    } else {
                        valid
                    };
                    let tally = &mut tallies[words.tally(s)];
                    if candidates != 0 {
                        wide.store_column(k, &mut col);
                        tally.0 += trial
                            .judge_masked(&col, word_inputs, candidates)
                            .count_ones() as u64;
                    }
                    tally.1 += valid.count_ones() as u64;
                }
                slot += W as u64;
            }
        }
        (tallies, extras)
    }

    /// The memoized stratified-estimator layout for
    /// `(min_faults, strata_cap)`: stratum template (weights off the
    /// Poisson-binomial PMF) plus the tail stratum's conditional CDF.
    pub(crate) fn strata_plan(&self, min_faults: u32, strata_cap: u32) -> Arc<StrataPlan> {
        let mut plans = self.plans.lock().expect("strata plan cache poisoned");
        if let Some(plan) = plans
            .iter()
            .find(|p| p.min_faults == min_faults && p.strata_cap == strata_cap)
        {
            return Arc::clone(plan);
        }
        let cap = strata_cap.max(1) as usize;
        let min = min_faults as usize;
        let dist = self.fault_dist();
        let strata: Vec<StratumOutcome> = (0..cap)
            .map(|i| {
                let k = min + i;
                let (k_hi, weight) = if i + 1 == cap {
                    (None, dist.mass_at_least(k))
                } else {
                    (Some(k as u32), dist.pmf_at(k))
                };
                StratumOutcome {
                    k_lo: k as u32,
                    k_hi,
                    weight,
                    failures: 0,
                    trials: 0,
                }
            })
            .collect();
        let sample_weight: f64 = strata.iter().map(|s| s.weight).sum();
        let all_elided = strata.iter().all(|s| s.weight <= 0.0);
        let plan = Arc::new(StrataPlan {
            min_faults,
            strata_cap,
            strata,
            sample_weight,
            all_elided,
            tail: CountCdf::at_least(dist, min + cap - 1),
        });
        plans.push(Arc::clone(&plan));
        plan
    }
}

/// A memoized stratified-estimator layout (see [`Engine::strata_plan`]).
#[derive(Debug)]
pub(crate) struct StrataPlan {
    min_faults: u32,
    strata_cap: u32,
    /// Zero-tally stratum template with exact weights.
    pub(crate) strata: Vec<StratumOutcome>,
    /// Total executable probability mass.
    pub(crate) sample_weight: f64,
    /// Every stratum weight is zero — the run resolves analytically.
    pub(crate) all_elided: bool,
    /// The tail stratum's fault count.
    tail: CountCdf,
}

impl StrataPlan {
    /// Phase 1's placement for word `w` of stratum `si`: every lane
    /// holds the stratum's fault count — fixed for an explicit stratum,
    /// off the conditional CDF in the tail (see
    /// [`FaultCountDist::place_lanes`]).
    fn place(
        &self,
        dist: &FaultCountDist,
        si: usize,
        w: usize,
        rng: &mut SmallRng,
        scratch: &mut ExecScratch,
    ) {
        let count = |rng: &mut SmallRng| match self.strata[si].k_hi {
            Some(k) => k as usize,
            None => self.tail.sample(rng),
        };
        dist.place_lanes(u64::MAX, count, w, rng, scratch);
    }

    /// Approximate heap footprint (see [`Engine::approx_bytes`]).
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<StrataPlan>()
            + self.strata.len() * size_of::<StratumOutcome>()
            + self.tail.cdf.len() * size_of::<f64>()
    }
}

/// The words one word-loop span runs: slot `s` is global word
/// `base + s`, seeded from `(seed, base + s)`; the span's first `trials`
/// lanes are live, so its last word may be partial. A stratified span
/// places slot `s` in stratum `assignment[s]` of its plan; a plain span
/// draws the plain schedule into its one tally.
#[derive(Clone, Copy)]
pub(crate) struct Words<'a> {
    /// Base RNG seed of the estimate.
    pub(crate) seed: u64,
    /// Global index of slot 0.
    pub(crate) base: u64,
    /// Live trials from slot 0 on.
    pub(crate) trials: u64,
    /// The stratified plan and slot → stratum assignment (`None`: plain).
    pub(crate) strata: Option<(&'a StrataPlan, &'a [u32])>,
}

impl Words<'_> {
    fn seed(self, slot: u64) -> u64 {
        self.seed ^ WORD_SEED_STRIDE.wrapping_mul(self.base + slot + 1)
    }

    fn tally(self, slot: u64) -> usize {
        self.strata.map_or(0, |(_, a)| a[slot as usize] as usize)
    }

    fn tallies(self) -> usize {
        self.strata.map_or(1, |(plan, _)| plan.strata.len())
    }
}

/// Plain-integer tallies gathered inside the word loops and flushed to
/// the [`Collector`] once per advance of an estimation — the hot loops
/// never touch an atomic, so fully-enabled instrumentation costs a
/// handful of register adds per word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordExtras {
    /// Lanes that saw ≥1 fault, summed over valid lanes of every word.
    pub(crate) faulted_lanes: u64,
    /// Individual fault injections across all lanes and ops.
    pub(crate) fault_events: u64,
    /// Segment executions that stayed on the fused fast path.
    pub(crate) fused_segments: u64,
    /// Segment executions that fell back to native replay.
    pub(crate) replayed_segments: u64,
    /// Words executed under a conditional (stratified) mask schedule.
    pub(crate) masked_words: u64,
}

impl WordExtras {
    pub(crate) fn merge(&mut self, o: WordExtras) {
        self.faulted_lanes += o.faulted_lanes;
        self.fault_events += o.fault_events;
        self.fused_segments += o.fused_segments;
        self.replayed_segments += o.replayed_segments;
        self.masked_words += o.masked_words;
    }
}

/// Adds per-tally `(failures, trials)` counts of `part` into `acc`.
fn add_tallies(acc: &mut [(u64, u64)], part: &[(u64, u64)]) {
    for (a, p) in acc.iter_mut().zip(part) {
        a.0 += p.0;
        a.1 += p.1;
    }
}

/// Lanes of slot `slot` that lie inside a span of `trials` live lanes
/// (the final word may cover fewer than 64 real trials).
#[inline]
fn valid_lanes(trials: u64, slot: u64) -> u64 {
    let live = trials - slot * 64;
    if live >= 64 {
        u64::MAX
    } else {
        (1u64 << live) - 1
    }
}

/// Words per claim when a span is shared across threads: two passes of
/// the word loop, so claims stay aligned to the word width.
fn chunk_words(width: usize) -> u64 {
    2 * width as u64
}

// ---------------------------------------------------------------------------
// Options / outcome
// ---------------------------------------------------------------------------

/// Which Monte-Carlo estimator an estimation run should use (see the
/// module-level *Rare-event estimation* section for the derivation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Estimator {
    /// Execute every requested trial (the classic estimator).
    Plain,
    /// Fault-count-stratified sampling with analytic elision of
    /// low-fault-count words.
    Stratified {
        /// Words with fewer than this many faults contribute exactly zero
        /// failures analytically and are never executed. `1` (the
        /// default) is sound whenever a fault-free run cannot fail
        /// ([`WordTrial::fault_free_can_fail`] is `false`); larger values
        /// assert that the circuit provably corrects `min_faults − 1`
        /// faults (e.g. `2` once `rft_core::ftcheck`'s exhaustive
        /// single-fault sweep has passed). `0` disables elision and
        /// stratifies only.
        min_faults: u32,
        /// Number of fault-count strata: explicit counts `min_faults,
        /// min_faults+1, …` plus one unbounded tail stratum (so the
        /// explicit strata number `strata_cap − 1`). Clamped to ≥ 1.
        strata_cap: u32,
    },
    /// Choose per run: stratified — with the trial's declared
    /// [`WordTrial::min_failing_faults`] elision — when the executable
    /// mass `P(K ≥ min_failing_faults)` is below
    /// [`STRATIFIED_ROUTING_THRESHOLD`], plain otherwise.
    #[default]
    Auto,
}

impl Estimator {
    /// The stratified estimator with default parameters (zero-fault
    /// elision, [`DEFAULT_STRATA_CAP`] strata).
    pub const DEFAULT_STRATIFIED: Estimator = Estimator::Stratified {
        min_faults: 1,
        strata_cap: DEFAULT_STRATA_CAP,
    };

    /// Resolves `Auto` against the probability mass the stratified
    /// estimator would have to execute (`P(K ≥ min_failing_faults)` under
    /// the compiled fault-count distribution) and the trial's declared
    /// minimum failing fault count; explicit choices pass through.
    ///
    /// `Auto` picks the stratified estimator — with the trial's declared
    /// elision — whenever the executable mass is below
    /// [`STRATIFIED_ROUTING_THRESHOLD`], i.e. when most plain-MC words
    /// would be spent on outcomes that are known analytically.
    pub fn resolve(self, executable_mass: f64, min_failing_faults: u32) -> Estimator {
        match self {
            Estimator::Auto => {
                if min_failing_faults > 0 && executable_mass < STRATIFIED_ROUTING_THRESHOLD {
                    Estimator::Stratified {
                        min_faults: min_failing_faults,
                        strata_cap: DEFAULT_STRATA_CAP,
                    }
                } else {
                    Estimator::Plain
                }
            }
            explicit => explicit,
        }
    }
}

impl fmt::Display for Estimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Estimator::Plain => f.write_str("plain"),
            Estimator::Auto => f.write_str("auto"),
            Estimator::Stratified {
                min_faults,
                strata_cap,
            } => write!(f, "stratified:{min_faults}:{strata_cap}"),
        }
    }
}

impl FromStr for Estimator {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plain" => return Ok(Estimator::Plain),
            "auto" => return Ok(Estimator::Auto),
            "stratified" => return Ok(Estimator::DEFAULT_STRATIFIED),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("stratified:") {
            let mut parts = rest.splitn(2, ':');
            let min: u32 = parts
                .next()
                .unwrap_or_default()
                .parse()
                .map_err(|_| format!("bad min_faults in estimator {s:?}"))?;
            let cap: u32 = match parts.next() {
                Some(c) => c
                    .parse()
                    .map_err(|_| format!("bad strata_cap in estimator {s:?}"))?,
                None => DEFAULT_STRATA_CAP,
            };
            return Ok(Estimator::Stratified {
                min_faults: min,
                strata_cap: cap.max(1),
            });
        }
        Err(format!(
            "unknown estimator {s:?} (expected plain, auto, stratified, \
             stratified:<min_faults> or stratified:<min_faults>:<strata_cap>)"
        ))
    }
}

/// The backend label a run reports in [`McOutcome::backend`]. Every run
/// executes on the same compiled word loop (see the module docs); the
/// label is kept so requests, records and reports keep their shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// `Batch` from [`DEFAULT_BATCH_THRESHOLD`] trials up, `Scalar` below.
    #[default]
    Auto,
    /// Always labelled `"scalar"`.
    Scalar,
    /// Always labelled `"batch"`.
    Batch,
}

impl BackendKind {
    /// Resolves `Auto` against a trial budget; explicit kinds pass
    /// through.
    pub fn resolve(self, trials: u64) -> BackendKind {
        match self {
            BackendKind::Auto if trials >= DEFAULT_BATCH_THRESHOLD => BackendKind::Batch,
            BackendKind::Auto => BackendKind::Scalar,
            explicit => explicit,
        }
    }

    /// The lowercase name ([`fmt::Display`] writes the same).
    pub(crate) fn name(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Scalar => "scalar",
            BackendKind::Batch => "batch",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(BackendKind::Auto),
            "scalar" => Ok(BackendKind::Scalar),
            "batch" => Ok(BackendKind::Batch),
            other => Err(format!(
                "unknown backend {other:?} (expected auto, scalar or batch)"
            )),
        }
    }
}

/// Wide-word width of the word loop: how many consecutive 64-lane
/// logical words one pass of the compiled micro-op program executes
/// (`[u64; W]` planes, autovectorization-friendly).
///
/// Width never changes results: every logical word derives its RNG
/// stream from `(seed, global word index)` alone, so estimates are
/// **bit-identical at any width** (pinned by tests) — this knob trades
/// nothing but throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WordWidth {
    /// Full width (4).
    #[default]
    Auto,
    /// One 64-lane word per pass.
    W1,
    /// Two 64-lane words per pass.
    W2,
    /// Four 64-lane words per pass.
    W4,
}

impl WordWidth {
    /// Resolves to a concrete width.
    pub fn resolve(self) -> usize {
        match self {
            WordWidth::Auto | WordWidth::W4 => 4,
            WordWidth::W1 => 1,
            WordWidth::W2 => 2,
        }
    }
}

impl fmt::Display for WordWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WordWidth::Auto => "auto",
            WordWidth::W1 => "1",
            WordWidth::W2 => "2",
            WordWidth::W4 => "4",
        })
    }
}

impl FromStr for WordWidth {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(WordWidth::Auto),
            "1" => Ok(WordWidth::W1),
            "2" => Ok(WordWidth::W2),
            "4" => Ok(WordWidth::W4),
            other => Err(format!(
                "unknown word width {other:?} (expected auto, 1, 2 or 4)"
            )),
        }
    }
}

/// Typed Monte-Carlo run options for [`Engine::estimate`].
///
/// Fields are public for direct construction; the consuming builder
/// methods read better in call sites:
///
/// ```
/// use rft_revsim::engine::{BackendKind, McOptions};
///
/// let opts = McOptions::new(10_000)
///     .seed(2005)
///     .threads(4)
///     .backend(BackendKind::Auto)
///     .target_rel_error(0.196);
/// assert_eq!(opts.trials, 10_000);
/// ```
#[must_use = "McOptions configure a run but do not start one"]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McOptions {
    /// Trial budget (an upper bound when early stopping is enabled).
    pub trials: u64,
    /// Base RNG seed; every 64-trial word derives its own stream from it.
    pub seed: u64,
    /// Threads per round, the caller included (`0` is treated as `1`);
    /// capped by the persistent helper pool, see [`Engine::estimate`].
    pub threads: usize,
    /// Backend label policy (never changes results; see
    /// [`BackendKind`]).
    pub backend: BackendKind,
    /// Estimator selection policy ([`Estimator::Auto`] routes eligible
    /// deep-sub-threshold runs to the stratified rare-event estimator).
    pub estimator: Estimator,
    /// Wide-word width of the word loop (never changes results;
    /// see [`WordWidth`]).
    pub width: WordWidth,
    /// Target relative half-width `(high − low) / (2 · rate)` of the
    /// pooled 95% interval; when set, estimation stops at the first
    /// sub-round boundary where it is reached (adaptive sampling, see
    /// [`crate::estimate`]). A relative standard error `s` corresponds to
    /// a target of about `1.96 · s`.
    pub target_rel_error: Option<f64>,
}

impl McOptions {
    /// Options for `trials` trials with defaults: seed 0, one thread,
    /// auto backend label, auto width, auto estimator, no early
    /// stopping.
    pub fn new(trials: u64) -> Self {
        McOptions {
            trials,
            seed: 0,
            threads: 1,
            backend: BackendKind::Auto,
            estimator: Estimator::Auto,
            width: WordWidth::Auto,
            target_rel_error: None,
        }
    }

    /// Sets the trial budget.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// XORs `salt` into the seed (for deriving per-point sub-seeds in
    /// sweeps).
    pub fn salt(mut self, salt: u64) -> Self {
        self.seed ^= salt;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the backend label policy.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the estimator selection policy.
    pub fn estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the wide-word width policy.
    pub fn width(mut self, width: WordWidth) -> Self {
        self.width = width;
        self
    }

    /// Shorthand for [`Estimator::Stratified`] with explicit parameters.
    pub fn stratified(self, min_faults: u32, strata_cap: u32) -> Self {
        self.estimator(Estimator::Stratified {
            min_faults,
            strata_cap,
        })
    }

    /// Enables adaptive early stopping at the given target relative
    /// half-width of the pooled 95% interval (see
    /// [`McOptions::target_rel_error`](McOptions#structfield.target_rel_error)).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not positive and finite.
    pub fn target_rel_error(mut self, target: f64) -> Self {
        assert!(
            target > 0.0 && target.is_finite(),
            "target relative error must be positive and finite, got {target}"
        );
        self.target_rel_error = Some(target);
        self
    }
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions::new(4096)
    }
}

/// Raw result of an [`Engine::estimate`] run.
#[must_use = "an estimation outcome should be inspected or converted"]
#[derive(Debug, Clone, PartialEq)]
pub struct McOutcome {
    /// Failing trials observed. For the stratified estimator these are
    /// *conditional* failures (pooled over strata); weight them via
    /// [`McOutcome::interval`] or the per-stratum tallies in
    /// [`McOutcome::strata`].
    pub failures: u64,
    /// Trials actually executed (less than requested after an early stop;
    /// for a fully analytic stratified run — zero executable mass — the
    /// requested count, since every trial was resolved exactly).
    pub trials: u64,
    /// Trials requested.
    pub requested: u64,
    /// Whether adaptive early stopping cut the run short.
    pub early_stopped: bool,
    /// The run's resolved [`BackendKind`] label (`"scalar"` or
    /// `"batch"`).
    pub backend: &'static str,
    /// Name of the estimator that produced the run (`"plain"` or
    /// `"stratified"`; [`Estimator::Auto`] reports its resolution).
    pub estimator: &'static str,
    /// Total probability mass of the executed strata (`1.0` for plain;
    /// `P(K ≥ min_faults)` for stratified — the complement was elided
    /// analytically).
    pub sample_weight: f64,
    /// 64-lane circuit words actually executed — the cost metric the
    /// rare-event benches compare across estimators.
    pub executed_words: u64,
    /// Per-stratum tallies (empty for the plain estimator).
    pub strata: Vec<StratumOutcome>,
}

/// One fault-count stratum's tally in a stratified [`McOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratumOutcome {
    /// Smallest fault count in the stratum.
    pub k_lo: u32,
    /// Largest fault count (`None` = unbounded tail).
    pub k_hi: Option<u32>,
    /// `P(K ∈ stratum)` — the stratum's exact weight.
    pub weight: f64,
    /// Conditional failures observed in the stratum.
    pub failures: u64,
    /// Conditional trials executed in the stratum.
    pub trials: u64,
}

// ---------------------------------------------------------------------------
// Word trials
// ---------------------------------------------------------------------------

/// One 64-lane word of Monte-Carlo trials: how to prepare inputs and
/// judge failures. [`Engine::estimate`] supplies a single-word
/// [`BatchState`] (64 lanes) zeroed before `prepare`.
pub trait WordTrial: Sync {
    /// Physical width the trial expects (must match the engine's
    /// circuit).
    fn n_wires(&self) -> usize;

    /// Draws per-lane inputs from `rng`, encodes them into plane word 0
    /// of `batch`, and returns them (one plane per logical wire, bit `l`
    /// = lane `l`'s value) for [`WordTrial::judge`].
    fn prepare(&self, batch: &mut BatchState, rng: &mut dyn RngCore) -> Vec<u64>;

    /// Buffer-reusing variant of [`WordTrial::prepare`]: writes the lane
    /// inputs into `inputs` (cleared first) instead of allocating. The
    /// hot word loops call this; override it alongside `prepare` to keep
    /// the per-word cost allocation-free.
    fn prepare_into(&self, batch: &mut BatchState, rng: &mut dyn RngCore, inputs: &mut Vec<u64>) {
        inputs.clear();
        inputs.extend(self.prepare(batch, rng));
    }

    /// Mask of lanes whose final state counts as a logical failure.
    fn judge(&self, batch: &BatchState, inputs: &[u64]) -> u64;

    /// [`WordTrial::judge`] restricted to `candidates`: only lanes in the
    /// mask can be flagged (the result is implicitly ANDed with it). The
    /// word loops call this with the mask of *faulted* lanes whenever the
    /// trial declares fault-free lanes safe — skipping the per-lane
    /// decode of the (often vast) clean majority. Override together with
    /// `judge` to exploit the restriction.
    fn judge_masked(&self, batch: &BatchState, inputs: &[u64], candidates: u64) -> u64 {
        if candidates == 0 {
            return 0;
        }
        self.judge(batch, inputs) & candidates
    }

    /// Whether a lane that experienced **zero** faults can still be
    /// judged a failure. The stratified estimator's zero-fault elision is
    /// only sound when this is `false`; the conservative default keeps
    /// arbitrary trials on the plain estimator under [`Estimator::Auto`].
    /// Encode → run → decode trials (whose ideal execution is exact by
    /// construction) should override this to return `false`.
    fn fault_free_can_fail(&self) -> bool {
        true
    }

    /// Smallest number of faults that can possibly fail this trial — the
    /// `min_faults` elision [`Estimator::Auto`] may apply. `0` (required
    /// when [`WordTrial::fault_free_can_fail`] is `true`) disables
    /// elision; the default `1` for elision-eligible trials claims only
    /// the always-sound zero-fault elision. Trials with a *proven* fault
    /// distance may return more — e.g. a level-`L` concatenated program
    /// returns `2^L` (each level-1 block corrects any single fault and
    /// each outer level any single corrupted block).
    fn min_failing_faults(&self) -> u32 {
        u32::from(!self.fault_free_can_fail())
    }
}

/// Reads lane `lane`'s value out of per-wire plane words (bit `i` of the
/// result = bit `lane` of `planes[i]`).
#[inline]
pub fn lane_value(planes: &[u64], lane: usize) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &plane)| acc | (((plane >> lane) & 1) << i))
}

/// Mask of lanes where `ideal(input) != output`, comparing per-lane
/// values assembled from input and output plane words.
pub fn failure_mask(inputs: &[u64], outputs: &[u64], ideal: impl Fn(u64) -> u64) -> u64 {
    failure_mask_in(u64::MAX, inputs, outputs, ideal)
}

/// [`failure_mask`] restricted to the lanes of `candidates`: only those
/// lanes are assembled and compared (the hot loops pass the mask of
/// faulted lanes — deep below threshold almost every lane is clean and
/// skipped). For ≤ 4 logical wires the comparison is done bitwise across
/// all 64 lanes at once by enumerating the (at most 16) input patterns —
/// no per-lane assembly at all.
pub fn failure_mask_in(
    candidates: u64,
    inputs: &[u64],
    outputs: &[u64],
    ideal: impl Fn(u64) -> u64,
) -> u64 {
    if candidates == 0 {
        return 0;
    }
    let n = inputs.len();
    debug_assert_eq!(n, outputs.len());
    if n <= 4 {
        // Truth-table evaluation: build each ideal output plane from the
        // input planes, then diff whole planes.
        let mut diff = 0u64;
        for (k, &out_plane) in outputs.iter().enumerate() {
            let mut ideal_plane = 0u64;
            for pattern in 0..(1u64 << n) {
                if (ideal(pattern) >> k) & 1 == 1 {
                    let mut sel = u64::MAX;
                    for (i, &in_plane) in inputs.iter().enumerate() {
                        sel &= if (pattern >> i) & 1 == 1 {
                            in_plane
                        } else {
                            !in_plane
                        };
                    }
                    ideal_plane |= sel;
                }
            }
            diff |= ideal_plane ^ out_plane;
        }
        return diff & candidates;
    }
    let mut failed = 0u64;
    let mut rest = candidates;
    while rest != 0 {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let input = lane_value(inputs, lane);
        let output = lane_value(outputs, lane);
        if ideal(input) != output {
            failed |= 1u64 << lane;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoNoise, SplitNoise, UniformNoise};
    use crate::wire::w;

    fn recovery_like_circuit() -> Circuit {
        let mut c = Circuit::new(9);
        c.init(&[w(3), w(4), w(5)])
            .init(&[w(6), w(7), w(8)])
            .maj_inv(w(0), w(3), w(6))
            .maj_inv(w(1), w(4), w(7))
            .maj_inv(w(2), w(5), w(8))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5))
            .maj(w(6), w(7), w(8));
        c
    }

    /// A trivial trial: lanes fail when wire 0 ends up set.
    struct Wire0Trial {
        n_wires: usize,
    }

    impl WordTrial for Wire0Trial {
        fn n_wires(&self) -> usize {
            self.n_wires
        }

        fn prepare(&self, _batch: &mut BatchState, _rng: &mut dyn RngCore) -> Vec<u64> {
            Vec::new()
        }

        fn judge(&self, batch: &BatchState, _inputs: &[u64]) -> u64 {
            batch.word(w(0), 0)
        }
    }

    #[test]
    fn noiseless_scalar_run_reports_no_faults() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let mut s = BitState::zeros(9);
        let mut rng = SmallRng::seed_from_u64(0);
        let report = engine.run_scalar(&mut s, &mut rng);
        assert_eq!(report.fault_count(), 0);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn always_fail_randomizes_every_op() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(1.0));
        let mut s = BitState::zeros(9);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = engine.run_scalar(&mut s, &mut rng);
        assert_eq!(report.fault_count(), c.len());
    }

    #[test]
    fn split_noise_spares_inits() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &SplitNoise::new(1.0, 0.0));
        let mut s = BitState::zeros(9);
        let mut rng = SmallRng::seed_from_u64(2);
        let report = engine.run_scalar(&mut s, &mut rng);
        // 6 gates fail, 2 inits never fail.
        assert_eq!(report.fault_count(), 6);
        assert!(report.faults.iter().all(|&i| i >= 2));
        assert_eq!(engine.fault_probability(0), 0.0);
        assert_eq!(engine.fault_probability(2), 1.0);
    }

    #[test]
    fn batch_always_fail_faults_every_lane() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(1.0));
        let mut batch = BatchState::zeros(9, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = engine.run_batch(&mut batch, &mut rng);
        assert_eq!(report.fault_events, (c.len() * 64) as u64);
        assert_eq!(report.faulted_lanes, vec![u64::MAX]);
    }

    #[test]
    fn estimate_is_deterministic_and_backend_independent() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.2));
        let trial = Wire0Trial { n_wires: 9 };
        let base = McOptions::new(1000).seed(42);
        let scalar = engine.estimate(&trial, &base.backend(BackendKind::Scalar).threads(3));
        let batch = engine.estimate(&trial, &base.backend(BackendKind::Batch).threads(1));
        let auto = engine.estimate(&trial, &base.backend(BackendKind::Auto).threads(2));
        assert_eq!(scalar.failures, batch.failures);
        assert_eq!(batch.failures, auto.failures);
        assert_eq!(batch.trials, 1000);
        assert_eq!(auto.backend, "batch");
        assert_eq!(scalar.backend, "scalar");
        assert!(batch.failures > 0, "heavy noise must produce failures");
    }

    #[test]
    fn instrumentation_never_perturbs_an_estimate() {
        // The hard invariant of the obs layer: a live collector observes
        // the run without touching any RNG stream or scheduling decision,
        // so the outcome is identical to the uninstrumented call — plain
        // and stratified, across thread counts.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        let trial = PermTrial::new(&c);
        let plain = McOptions::new(5_000).seed(7).threads(3);
        let strat = plain.estimator(Estimator::Stratified {
            min_faults: 1,
            strata_cap: 4,
        });
        for opts in [&plain, &strat] {
            let bare = engine.estimate(&trial, opts);
            let obs = Collector::new();
            let watched = engine.estimate_obs(&trial, opts, &obs);
            assert_eq!(bare, watched);
            let snap = obs.snapshot();
            assert_eq!(snap.counter(Metric::EstimateCalls), 1);
            assert_eq!(snap.counter(Metric::ExecutedTrials), watched.trials);
            assert_eq!(snap.counter(Metric::ExecutedWords), watched.executed_words);
            assert_eq!(snap.counter(Metric::LaneFailures), watched.failures);
            assert!(snap.counter(Metric::FaultedLanes) > 0);
        }
        // Stratified bookkeeping: rounds ran, every executed word was
        // masked, and the elided mass gauge reflects the plan.
        let obs = Collector::new();
        let out = engine.estimate_obs(&trial, &strat, &obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counter(Metric::StratifiedRuns), 1);
        assert!(snap.counter(Metric::StratifiedRounds) >= 1);
        assert_eq!(snap.counter(Metric::MaskedWords), out.executed_words);
        assert_eq!(snap.counter(Metric::AllocatedWords), out.executed_words);
        assert!(snap.gauge(rft_obs::Gauge::ElidedMass) > 0.0);
        // The trace saw the estimate span plus at least one round and one
        // per-worker word-loop span.
        let events = obs.span_events();
        assert!(events.iter().any(|e| e.name == "engine.estimate"));
        assert!(events.iter().any(|e| e.name == "estimator.round"));
        assert!(events.iter().any(|e| e.name == "engine.words"));
    }

    #[test]
    fn estimate_counts_partial_final_word() {
        struct AllFail;
        impl WordTrial for AllFail {
            fn n_wires(&self) -> usize {
                9
            }
            fn prepare(&self, _batch: &mut BatchState, _rng: &mut dyn RngCore) -> Vec<u64> {
                Vec::new()
            }
            fn judge(&self, _batch: &BatchState, _inputs: &[u64]) -> u64 {
                u64::MAX
            }
        }
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        for trials in [1u64, 64, 65, 100, 130] {
            let out = engine.estimate(&AllFail, &McOptions::new(trials).threads(2));
            assert_eq!(out.failures, trials);
            assert_eq!(out.trials, trials);
        }
    }

    #[test]
    fn adaptive_early_stopping_cuts_the_budget() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.3));
        let trial = Wire0Trial { n_wires: 9 };
        // Rate ≈ 0.5: a loose 20% relative standard error (a 39.2%
        // relative half-width) needs only a few dozen failures, far below
        // the 200k budget.
        let opts = McOptions::new(200_000)
            .seed(9)
            .threads(2)
            .target_rel_error(0.392);
        let out = engine.estimate(&trial, &opts);
        assert!(out.early_stopped, "should stop early: {out:?}");
        assert!(out.trials < out.requested);
        assert!(out.interval().meets(0.392));
        // Even the early-stopped result is a function of the seed alone:
        // rounds are fixed-size, so the thread count cannot move the
        // stopping point.
        let again = engine.estimate(&trial, &opts);
        assert_eq!(out, again);
        let single_threaded = engine.estimate(&trial, &opts.threads(1));
        assert_eq!(out, single_threaded);
    }

    #[test]
    fn adaptive_runs_to_completion_when_target_unreachable() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let trial = Wire0Trial { n_wires: 9 };
        // No failures ever: the run must exhaust its budget.
        let out = engine.estimate(&trial, &McOptions::new(500).target_rel_error(0.196));
        assert!(!out.early_stopped);
        assert_eq!(out.trials, 500);
        assert_eq!(out.failures, 0);
    }

    #[test]
    fn early_stop_is_the_first_sub_round_that_meets_the_target() {
        // The stopped outcome meets the rule; the outcome one sub-round
        // earlier does not. Without a target the same seed runs the same
        // sub-rounds, so a budget cut at that boundary reproduces it.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.02));
        let trial = PermTrial::new(&c);
        let target = 0.02;
        for estimator in [Estimator::Plain, Estimator::DEFAULT_STRATIFIED] {
            let opts = McOptions::new(1 << 24)
                .seed(5)
                .threads(2)
                .estimator(estimator);
            let out = engine.estimate(&trial, &opts.target_rel_error(target));
            assert!(out.early_stopped, "{out:?}");
            assert!(out.interval().meets(target), "{out:?}");
            // Sub-rounds: 32 words each for plain; 32, 64, … for
            // stratified.
            let stratified = out.estimator == "stratified";
            let (mut before, mut size) = (0u64, 32u64);
            while before + size < out.executed_words {
                before += size;
                if stratified {
                    size = (size * 2).min(8192);
                }
            }
            assert_eq!(before + size, out.executed_words, "{out:?}");
            assert!(before > 0, "stopped at the first sub-round: {out:?}");
            let earlier = engine.estimate(&trial, &opts.trials(before * 64));
            assert_eq!(earlier.executed_words, before);
            assert!(!earlier.interval().meets(target), "{earlier:?}");
        }
    }

    #[test]
    fn backend_kind_parses_and_resolves() {
        assert_eq!("auto".parse::<BackendKind>().unwrap(), BackendKind::Auto);
        assert_eq!(
            "scalar".parse::<BackendKind>().unwrap(),
            BackendKind::Scalar
        );
        assert_eq!("batch".parse::<BackendKind>().unwrap(), BackendKind::Batch);
        assert!("simd".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Auto.resolve(256), BackendKind::Batch);
        assert_eq!(BackendKind::Auto.resolve(255), BackendKind::Scalar);
        assert_eq!(BackendKind::Scalar.resolve(1 << 20), BackendKind::Scalar);
        assert_eq!(BackendKind::Batch.resolve(1), BackendKind::Batch);
        for kind in [BackendKind::Auto, BackendKind::Scalar, BackendKind::Batch] {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
    }

    /// A sound stratified trial: random full-width inputs, failure = the
    /// final state differs from the ideal permutation of the input. A
    /// fault-free lane computes the permutation exactly, so elision is
    /// valid.
    struct PermTrial {
        circuit: Circuit,
        ideal: crate::permutation::Permutation,
    }

    impl PermTrial {
        fn new(circuit: &Circuit) -> Self {
            PermTrial {
                circuit: circuit.clone(),
                ideal: crate::permutation::Permutation::of_circuit(circuit)
                    .expect("small test circuit"),
            }
        }
    }

    impl WordTrial for PermTrial {
        fn n_wires(&self) -> usize {
            self.circuit.n_wires()
        }

        fn prepare(&self, batch: &mut BatchState, rng: &mut dyn RngCore) -> Vec<u64> {
            let planes: Vec<u64> = (0..self.circuit.n_wires()).map(|_| rng.random()).collect();
            for (i, &plane) in planes.iter().enumerate() {
                batch.set_word(crate::wire::w(i as u32), 0, plane);
            }
            planes
        }

        fn judge(&self, batch: &BatchState, inputs: &[u64]) -> u64 {
            let outputs: Vec<u64> = (0..self.circuit.n_wires())
                .map(|i| batch.word(crate::wire::w(i as u32), 0))
                .collect();
            failure_mask(inputs, &outputs, |x| self.ideal.apply(x))
        }

        fn fault_free_can_fail(&self) -> bool {
            false
        }
    }

    /// A MAJ-encode/decode circuit with no inits (a permutation, so
    /// `PermTrial` applies).
    fn permutation_circuit() -> Circuit {
        let mut c = Circuit::new(6);
        c.maj_inv(w(0), w(1), w(2))
            .maj_inv(w(3), w(4), w(5))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5));
        c
    }

    #[test]
    fn fault_count_pmf_matches_brute_force_enumeration() {
        // Exactness check: enumerate all 2^n fault subsets of a small
        // mixed-rate circuit and compare the Poisson-binomial PMF.
        let c = recovery_like_circuit();
        let noise = SplitNoise::new(0.3, 0.1);
        let engine = Engine::compile(&c, &noise);
        let probs: Vec<f64> = (0..c.len()).map(|i| engine.fault_probability(i)).collect();
        let n = probs.len();
        let mut expect = vec![0.0f64; n + 1];
        for subset in 0..(1u64 << n) {
            let mut p = 1.0;
            for (i, &pi) in probs.iter().enumerate() {
                p *= if (subset >> i) & 1 == 1 { pi } else { 1.0 - pi };
            }
            expect[subset.count_ones() as usize] += p;
        }
        let pmf = engine.fault_count_pmf();
        for (k, &e) in expect.iter().enumerate() {
            let got = pmf.get(k).copied().unwrap_or(0.0);
            assert!(
                (got - e).abs() < 1e-12,
                "k={k}: pmf {got} vs brute force {e}"
            );
        }
        assert!((engine.fault_free_probability() - expect[0]).abs() < 1e-15);
        let at_least_one: f64 = pmf[1..].iter().sum();
        assert!((at_least_one - (1.0 - expect[0])).abs() < 1e-12);
    }

    #[test]
    fn fault_count_pmf_uniform_is_binomial() {
        let c = recovery_like_circuit();
        let g = 0.01;
        let engine = Engine::compile(&c, &UniformNoise::new(g));
        let n = c.len();
        let pmf = engine.fault_count_pmf();
        let mut binom = 1.0f64 * (1.0 - g).powi(n as i32);
        let ratio = g / (1.0 - g);
        for (k, &v) in pmf.iter().enumerate() {
            assert!((v - binom).abs() < 1e-12, "k={k}: {v} vs {binom}");
            binom *= ratio * (n - k) as f64 / (k + 1) as f64;
        }
    }

    #[test]
    fn stratified_matches_plain_within_wilson() {
        // Statistical equivalence at a moderate rate where both
        // estimators resolve comfortably: disjoint seeds, overlapping
        // nominal ±3σ intervals.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.02));
        let trial = PermTrial::new(&c);
        let trials = 60_000u64;
        let plain = engine.estimate(
            &trial,
            &McOptions::new(trials).seed(1).estimator(Estimator::Plain),
        );
        let strat = engine.estimate(
            &trial,
            &McOptions::new(trials)
                .seed(2)
                .estimator(Estimator::DEFAULT_STRATIFIED),
        );
        assert_eq!(strat.estimator, "stratified");
        let p = plain.interval().rate;
        let s = strat.interval().rate;
        assert!(p > 0.0 && s > 0.0);
        // Combined-σ band (conservative: plain σ on both).
        let sd = (p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (p - s).abs() < 6.0 * sd,
            "plain {p} vs stratified {s} (sd {sd})"
        );
        assert!(strat.sample_weight < 0.2);

        // At a common precision *target*, elision pays in executed words:
        // conditional failures arrive ~1/P(any fault) times faster. Use a
        // deep rate so plain actually needs many 32-word rounds.
        let deep = Engine::compile(&c, &UniformNoise::new(0.002));
        let target = McOptions::new(4_000_000).target_rel_error(0.196).threads(2);
        let plain_t = deep.estimate(&trial, &target.seed(3).estimator(Estimator::Plain));
        let strat_t = deep.estimate(
            &trial,
            &target.seed(4).estimator(Estimator::DEFAULT_STRATIFIED),
        );
        assert!(plain_t.early_stopped && strat_t.early_stopped);
        assert!(
            strat_t.executed_words * 4 < plain_t.executed_words,
            "stratified {} words vs plain {} words to the same target",
            strat_t.executed_words,
            plain_t.executed_words
        );
    }

    #[test]
    fn stratified_min_faults_two_matches_plain_when_singles_cannot_fail() {
        // In this circuit a single fault *can* fail a lane, so rather
        // than elide k=1 we pin the opposite: min_faults = 2 must
        // under-count exactly by the single-fault stratum. Compare
        // min_faults = 1 (sound) against plain instead, and check the
        // k = 1 stratum carries most of the mass.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.005));
        let trial = PermTrial::new(&c);
        let strat = engine.estimate(&trial, &McOptions::new(40_000).seed(7).stratified(1, 4));
        let k1 = &strat.strata[0];
        assert_eq!(k1.k_lo, 1);
        assert!(k1.weight > strat.strata[1].weight * 10.0);
        assert!(k1.trials > 0);
    }

    #[test]
    fn stratified_is_seed_deterministic_and_backend_identical() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = PermTrial::new(&c);
        let base = McOptions::new(8_000)
            .seed(11)
            .estimator(Estimator::DEFAULT_STRATIFIED);
        let a = engine.estimate(&trial, &base.threads(4));
        let b = engine.estimate(&trial, &base.threads(1));
        assert_eq!(a, b, "thread-count independent");
        let scalar = engine.estimate(&trial, &base.backend(BackendKind::Scalar).threads(2));
        assert_eq!(a.failures, scalar.failures, "backend identical");
        assert_eq!(a.strata, scalar.strata);
    }

    #[test]
    fn stratified_elides_noiseless_runs_entirely() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let trial = PermTrial::new(&c);
        let out = engine.estimate(
            &trial,
            &McOptions::new(10_000).estimator(Estimator::DEFAULT_STRATIFIED),
        );
        assert_eq!(out.failures, 0);
        assert_eq!(out.trials, 10_000);
        assert_eq!(out.executed_words, 0, "nothing to execute");
        assert_eq!(out.interval().rate, 0.0);
        // Auto reaches the same analytic shortcut.
        let auto = engine.estimate(&trial, &McOptions::new(10_000));
        assert_eq!(auto.estimator, "stratified");
        assert_eq!(auto.executed_words, 0);
    }

    #[test]
    fn stratified_counts_partial_final_word() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.02));
        let trial = PermTrial::new(&c);
        for trials in [65u64, 100, 130] {
            let out = engine.estimate(
                &trial,
                &McOptions::new(trials).estimator(Estimator::DEFAULT_STRATIFIED),
            );
            assert_eq!(out.trials, trials, "stratified respects the budget");
        }
    }

    #[test]
    #[should_panic(expected = "fault_free_can_fail")]
    fn stratified_rejects_ineligible_trials() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = Wire0Trial { n_wires: 9 };
        let _ = engine.estimate(
            &trial,
            &McOptions::new(1000).estimator(Estimator::DEFAULT_STRATIFIED),
        );
    }

    #[test]
    fn auto_estimator_routes_by_executable_mass_and_eligibility() {
        assert_eq!(
            Estimator::Auto.resolve(0.05, 1),
            Estimator::DEFAULT_STRATIFIED
        );
        // A declared fault distance flows into the elision.
        assert_eq!(
            Estimator::Auto.resolve(0.01, 4),
            Estimator::Stratified {
                min_faults: 4,
                strata_cap: DEFAULT_STRATA_CAP
            }
        );
        // Ineligible trials (min 0) and heavy executable mass stay plain.
        assert_eq!(Estimator::Auto.resolve(0.05, 0), Estimator::Plain);
        assert_eq!(Estimator::Auto.resolve(0.5, 1), Estimator::Plain);
        assert_eq!(Estimator::Plain.resolve(0.0, 1), Estimator::Plain);
        let explicit = Estimator::Stratified {
            min_faults: 2,
            strata_cap: 3,
        };
        assert_eq!(explicit.resolve(0.1, 0), explicit);
    }

    #[test]
    fn estimator_parses_and_displays() {
        assert_eq!("plain".parse::<Estimator>().unwrap(), Estimator::Plain);
        assert_eq!("auto".parse::<Estimator>().unwrap(), Estimator::Auto);
        assert_eq!(
            "stratified".parse::<Estimator>().unwrap(),
            Estimator::DEFAULT_STRATIFIED
        );
        assert_eq!(
            "stratified:2".parse::<Estimator>().unwrap(),
            Estimator::Stratified {
                min_faults: 2,
                strata_cap: DEFAULT_STRATA_CAP
            }
        );
        assert_eq!(
            "stratified:2:6".parse::<Estimator>().unwrap(),
            Estimator::Stratified {
                min_faults: 2,
                strata_cap: 6
            }
        );
        assert!("nope".parse::<Estimator>().is_err());
        assert!("stratified:x".parse::<Estimator>().is_err());
        for e in [
            Estimator::Plain,
            Estimator::Auto,
            Estimator::DEFAULT_STRATIFIED,
        ] {
            assert_eq!(e.to_string().parse::<Estimator>().unwrap(), e);
        }
    }

    #[test]
    fn stratified_weights_account_for_all_mass() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = PermTrial::new(&c);
        let out = engine.estimate(&trial, &McOptions::new(1000).stratified(1, 4));
        let elided = engine.fault_free_probability();
        assert!(
            (out.sample_weight + elided - 1.0).abs() < 1e-9,
            "weights {} + elided {} should cover all mass",
            out.sample_weight,
            elided
        );
        let strata_sum: f64 = out.strata.iter().map(|s| s.weight).sum();
        assert!((strata_sum - out.sample_weight).abs() < 1e-12);
    }

    #[test]
    fn fused_masked_run_matches_raw_masked_reference() {
        // The compiled masked loop must match the op-at-a-time raw
        // reference bit for bit.
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        for seed in 0..10u64 {
            let mut masks = vec![0u64; c.len()];
            let mut seeder = SmallRng::seed_from_u64(seed.wrapping_mul(31));
            for m in masks.iter_mut() {
                *m = seeder.random::<u64>() & seeder.random::<u64>() & seeder.random::<u64>();
            }
            let mut raw = BatchState::zeros(9, 1);
            let mut fused = BatchState::zeros(9, 1);
            let mut rng_r = SmallRng::seed_from_u64(seed);
            let mut rng_f = SmallRng::seed_from_u64(seed);
            let rr = run_masked_word_batch(&c, &mut raw, &masks, &mut rng_r);
            let rf = engine.run_batch_masked(&mut fused, &masks, std::slice::from_mut(&mut rng_f));
            assert_eq!(rr, rf, "seed {seed}: reports differ");
            assert_eq!(raw, fused, "seed {seed}: states differ");
        }
    }

    #[test]
    fn mask_sampler_is_binomial() {
        // Lane-occupancy check: each of the 64 lanes is drawn with the
        // same marginal probability, on both sides of 1/2 (above it the
        // sampler draws the complement) and next to 1, where
        // `(1 − p)^64` underflows.
        for p in [0.2, 0.9, 1.0 - 1e-7] {
            let sampler = MaskSampler::new(p);
            let mut rng = SmallRng::seed_from_u64(9);
            let draws = 20_000usize;
            let mut per_lane = [0u32; 64];
            for _ in 0..draws {
                let mask = sampler.sample(&mut rng);
                for (lane, count) in per_lane.iter_mut().enumerate() {
                    *count += ((mask >> lane) & 1) as u32;
                }
            }
            let expected = p * draws as f64;
            let sd = (draws as f64 * p * (1.0 - p)).sqrt().max(1.0);
            for (lane, &count) in per_lane.iter().enumerate() {
                assert!(
                    ((count as f64) - expected).abs() < 6.0 * sd,
                    "p {p} lane {lane}: {count} vs {expected} ± {sd}"
                );
            }
        }
    }

    /// Upper `1e-6` quantile of χ² with `df` degrees of freedom
    /// (Wilson–Hilferty).
    fn chi2_crit(df: usize) -> f64 {
        let d = df as f64;
        let z = 4.75;
        d * (1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt()).powi(3)
    }

    /// Pearson χ² of `observed` counts against `expected`, adjacent bins
    /// pooled until each expects ≥ 5. Returns the statistic and its
    /// degrees of freedom.
    fn chi2(observed: &[u64], expected: &[f64]) -> (f64, usize) {
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let mut open = (0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            open = (open.0 + o as f64, open.1 + e);
            if open.1 >= 5.0 {
                bins.push(open);
                open = (0.0, 0.0);
            }
        }
        if let Some(last) = bins.last_mut() {
            *last = (last.0 + open.0, last.1 + open.1);
        }
        let stat = bins.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
        (stat, bins.len().saturating_sub(1))
    }

    #[test]
    fn plain_schedule_follows_the_per_op_bernoulli_law() {
        // The lane-major plain schedule must be the per-op Bernoulli law:
        // per-op marginals at pᵢ, per-lane fault counts distributed as the
        // fault-count PMF, and lanes independent of each other — on one
        // rate group and on two.
        let c = recovery_like_circuit();
        let words = 20_000u64;
        for (name, engine) in [
            ("uniform", Engine::compile(&c, &UniformNoise::new(0.05))),
            ("split", Engine::compile(&c, &SplitNoise::new(0.06, 0.02))),
        ] {
            let n_ops = c.len();
            let mut per_op = vec![0u64; n_ops];
            let mut counts = vec![0u64; n_ops + 1];
            let mut per_word = vec![0u64; 65];
            let mut pairs = vec![0u64; 64 * 64];
            let mut scratch = ExecScratch::default();
            for word in 0..words {
                let mut rng = SmallRng::seed_from_u64(word.wrapping_mul(WORD_SEED_STRIDE));
                scratch.begin(n_ops, 1, true);
                engine
                    .plain_plan()
                    .place(engine.fault_dist(), 0, &mut rng, &mut scratch);
                let masks = scratch.masks();
                let mut k = [0usize; 64];
                for (i, &m) in masks.iter().enumerate() {
                    per_op[i] += u64::from(m.count_ones());
                    for (lane, kl) in k.iter_mut().enumerate() {
                        *kl += ((m >> lane) & 1) as usize;
                    }
                }
                let mut faulted = 0u64;
                for (lane, &kl) in k.iter().enumerate() {
                    counts[kl] += 1;
                    faulted |= u64::from(kl > 0) << lane;
                }
                let events = masks.iter().map(|m| u64::from(m.count_ones())).sum();
                assert_eq!(scratch.fault_events, events, "{name}: fault events");
                per_word[faulted.count_ones() as usize] += 1;
                let mut a_bits = faulted;
                while a_bits != 0 {
                    let a = a_bits.trailing_zeros() as usize;
                    a_bits &= a_bits - 1;
                    let mut b_bits = faulted;
                    while b_bits != 0 {
                        let b = b_bits.trailing_zeros() as usize;
                        b_bits &= b_bits - 1;
                        pairs[a * 64 + b] += 1;
                    }
                }
            }
            let lanes = (words * 64) as f64;
            for (i, &n) in per_op.iter().enumerate() {
                let p = engine.fault_probability(i);
                let sd = (lanes * p * (1.0 - p)).sqrt();
                assert!(
                    (n as f64 - lanes * p).abs() <= 5.0 * sd,
                    "{name}: op {i} faulted {n} times vs {} ± {sd}",
                    lanes * p
                );
            }
            let pmf = engine.fault_count_pmf();
            let expected: Vec<f64> = (0..=n_ops)
                .map(|k| lanes * pmf.get(k).copied().unwrap_or(0.0))
                .collect();
            let (stat, df) = chi2(&counts, &expected);
            assert!(
                stat < chi2_crit(df),
                "{name}: K histogram χ² {stat} (df {df})"
            );
            // Lanes are independent: the faulted-lane count per word is
            // Binomial(64, P(K ≥ 1)), and every pair of lanes is faulted
            // together at P(K ≥ 1)².
            let q = 1.0 - pmf[0];
            let binom = binomial_pmf(64, q);
            let expected: Vec<f64> = (0..=64)
                .map(|j| words as f64 * binom.get(j).copied().unwrap_or(0.0))
                .collect();
            let (stat, df) = chi2(&per_word, &expected);
            assert!(
                stat < chi2_crit(df),
                "{name}: lanes per word χ² {stat} (df {df})"
            );
            let (n, sd) = (
                words as f64 * q * q,
                (words as f64 * q * q * (1.0 - q * q)).sqrt(),
            );
            for a in 0..64 {
                for b in a + 1..64 {
                    let both = pairs[a * 64 + b] as f64;
                    assert!(
                        (both - n).abs() <= 5.5 * sd,
                        "{name}: lanes {a}, {b} faulted together {both} times vs {n} ± {sd}"
                    );
                }
            }
        }
    }

    #[test]
    fn approx_bytes_charges_the_schedule_plans() {
        let engine = Engine::compile(&recovery_like_circuit(), &UniformNoise::new(0.05));
        let trial = Wire0Trial { n_wires: 9 };
        let opts = McOptions::new(256).seed(1);
        // Build the distribution and the program first, so only the plans
        // are left to grow the size.
        let _ = (engine.fault_count_pmf(), engine.compile_stats());
        let base = engine.approx_bytes();
        let _ = engine.estimate(&trial, &opts.estimator(Estimator::Plain));
        let plain = engine.approx_bytes();
        assert!(plain > base, "plain plan not charged: {base} → {plain}");
        let _ = engine.estimate(&trial, &opts.stratified(0, 4));
        let stratified = engine.approx_bytes();
        assert!(
            stratified > plain,
            "strata plan not charged: {plain} → {stratified}"
        );
    }

    #[test]
    fn lane_value_assembles_bits() {
        let planes = [0b1u64 << 5, 0b0, 0b1 << 5];
        assert_eq!(lane_value(&planes, 5), 0b101);
        assert_eq!(lane_value(&planes, 4), 0);
    }

    #[test]
    fn failure_mask_flags_mismatched_lanes() {
        // One logical wire; ideal = identity. Output differs on lane 3.
        let inputs = [0b1000u64];
        let outputs = [0b0000u64];
        assert_eq!(failure_mask(&inputs, &outputs, |x| x), 0b1000);
        assert_eq!(failure_mask(&inputs, &inputs, |x| x), 0);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn scalar_width_mismatch_panics() {
        let c = Circuit::new(3);
        let engine = Engine::compile(&c, &NoNoise);
        let mut s = BitState::zeros(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = engine.run_scalar(&mut s, &mut rng);
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn batch_width_mismatch_panics() {
        let c = Circuit::new(3);
        let engine = Engine::compile(&c, &NoNoise);
        let mut batch = BatchState::zeros(4, 1);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = engine.run_batch(&mut batch, &mut rng);
    }
}
