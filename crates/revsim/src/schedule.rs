//! The fault-sampling law: which ops fault, in which lanes, with which
//! random planes.
//!
//! [`FaultTable`] lowers a noise model against one circuit into per-op
//! probabilities grouped by rate; [`FaultCountDist`] is the exact
//! per-trial fault-count distribution over those groups. A plain word
//! draws its lanes and counts through [`PlainPlan`], a stratified word
//! through [`StrataPlan`]; both place faults lane-major into the
//! [`ExecScratch`] fault table, and [`fill_fault_planes`] draws the planes
//! a faulted op consumes. [`Engine`](crate::engine::Engine) memoizes the
//! distribution and the plans; the word loop that runs them is in
//! [`crate::engine`].

use crate::circuit::Circuit;
use crate::engine::StratumOutcome;
use crate::microop::ExecScratch;
use crate::noise::NoiseModel;
use rand::rngs::SmallRng;
use rand::Rng;

/// Tail mass below which the fault-count PMF is truncated. The stratified
/// estimator is exactly unbiased for the truncated distribution, which is
/// within this absolute mass of the true Poisson binomial.
const PMF_TAIL_EPS: f64 = 1e-12;

/// Marker for operations that never fault.
pub(crate) const NEVER: usize = usize::MAX;

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
    pub(crate) p_fault_free: f64,
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

    /// Approximate heap footprint (see
    /// [`Engine::approx_bytes`](crate::engine::Engine::approx_bytes)).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.probs.len() * size_of::<f64>()
            + self.group_of.len() * size_of::<usize>()
            + self.arity.len()
            + self.group_rates.len() * size_of::<f64>()
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
/// Built lazily (once per [`Engine`](crate::engine::Engine)) by
/// [`Engine::fault_dist`](crate::engine::Engine::fault_dist); powers the
/// [`Estimator::Stratified`](crate::engine::Estimator::Stratified) weights
/// and every word's lane-major fault placement
/// ([`FaultCountDist::place_lanes`]). PMFs are truncated where the
/// remaining tail mass drops below [`PMF_TAIL_EPS`]; the
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
pub(crate) fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
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
    pub(crate) fn approx_bytes(&self) -> usize {
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

    pub(crate) fn build(table: &FaultTable) -> Self {
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

/// The plain word's memoized schedule law
/// ([`Engine::plain_plan`](crate::engine::Engine::plain_plan)): every
/// lane faults at all with `P(K ≥ 1)`, independently, and a faulted lane
/// then holds `K | K ≥ 1` faults placed by the exact conditional law —
/// the per-op Bernoulli law, up to the PMF's truncation.
#[derive(Debug)]
pub(crate) struct PlainPlan {
    /// Lanes with any fault.
    lanes: MaskSampler,
    /// A faulted lane's fault count.
    counts: CountCdf,
}

impl PlainPlan {
    /// The plain law of `dist`.
    pub(crate) fn new(dist: &FaultCountDist) -> Self {
        PlainPlan {
            lanes: MaskSampler::new(dist.mass_at_least(1)),
            counts: CountCdf::at_least(dist, 1),
        }
    }

    /// Approximate heap footprint (see
    /// [`Engine::approx_bytes`](crate::engine::Engine::approx_bytes)).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let cdfs = self.lanes.cdf.len() + self.counts.cdf.len();
        size_of::<PlainPlan>() + cdfs * size_of::<f64>()
    }

    /// Phase 1's placement for plain word `w` (see
    /// [`FaultCountDist::place_lanes`]).
    pub(crate) fn place(
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

/// A memoized stratified-estimator layout (see
/// [`Engine::strata_plan`](crate::engine::Engine::strata_plan)).
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
    /// The `(min_faults, strata_cap)` layout of `dist`: explicit strata
    /// `min_faults, min_faults + 1, …` weighted off the PMF, then one tail
    /// stratum holding the rest of the mass.
    pub(crate) fn new(dist: &FaultCountDist, min_faults: u32, strata_cap: u32) -> Self {
        let cap = strata_cap.max(1) as usize;
        let min = min_faults as usize;
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
        StrataPlan {
            min_faults,
            strata_cap,
            strata,
            sample_weight,
            all_elided,
            tail: CountCdf::at_least(dist, min + cap - 1),
        }
    }

    /// Whether this is the `(min_faults, strata_cap)` layout.
    pub(crate) fn is_for(&self, min_faults: u32, strata_cap: u32) -> bool {
        self.min_faults == min_faults && self.strata_cap == strata_cap
    }

    /// Phase 1's placement for word `w` of stratum `si`: every lane
    /// holds the stratum's fault count — fixed for an explicit stratum,
    /// off the conditional CDF in the tail (see
    /// [`FaultCountDist::place_lanes`]).
    pub(crate) fn place(
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

    /// Approximate heap footprint (see
    /// [`Engine::approx_bytes`](crate::engine::Engine::approx_bytes)).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<StrataPlan>()
            + self.strata.len() * size_of::<StratumOutcome>()
            + self.tail.cdf.len() * size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
}
