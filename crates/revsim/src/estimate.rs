//! The round driver: one resumable [`Estimation`] behind every
//! Monte-Carlo estimate, with one stopping rule.
//!
//! [`Engine::estimation`] resolves a run's options once (the estimator,
//! [`Estimator::Auto`] included, its strata plan, the word width and the
//! backend label) and returns an [`Estimation`] holding the pooled
//! tallies: one per fault-count stratum, or one stratum of weight 1 for
//! the plain estimator. [`Estimation::advance`] runs the next `trials`
//! trials as globally numbered words — word `i` draws from `(seed, i)`,
//! so a plain estimation advanced by `a` and then `b` trials (multiples
//! of 64) runs exactly the words of one advance by `a + b`; a budget that
//! is not a multiple of 64 ends its advance with a partial word. A
//! stratified advance runs Neyman sub-rounds (32 words, doubling up to
//! 8192), each allocated from every earlier sub-round's tallies.
//!
//! **One stopping rule**, [`Interval::meets`]: the relative half-width
//! `(high − low) / (2 · rate)` of the pooled 95% interval (Wilson's for a
//! plain tally, [`stratified_estimate`] for strata) is at or below the
//! target. A sampled stratum that has not failed yet still carries its
//! Wilson upper bound (≈ z²/n), and at target `t` the rule needs about
//! `(1.96/t)²` failures before it can hold — no separate failure floor.
//!
//! [`Engine::estimate`] advances the whole budget at once without a
//! target, and one sub-round at a time with
//! [`McOptions::target_rel_error`] set, stopping at the first boundary
//! where the rule holds; a served job (`rft_analysis::job`) advances one
//! job round at a time and applies the same rule at round boundaries.

use crate::engine::{
    Engine, Estimator, McOptions, McOutcome, StratumOutcome, WordExtras, WordTrial, Words,
};
use crate::schedule::StrataPlan;
use rft_obs::{Collector, Gauge, Hist, Metric};
use std::sync::Arc;

/// The `z` value of a two-sided 95% normal interval.
pub const Z95: f64 = 1.959964;

/// Words in every sub-round of a plain estimate with a target, and in the
/// first of a stratified one. Independent of the thread count, so an
/// early-stopped result is a function of the seed alone.
const FIRST_SUB_ROUND_WORDS: u64 = 32;

/// Upper bound on the doubling stratified sub-round (bounds per-round
/// hand-off overhead without starving reallocation).
const MAX_SUB_ROUND_WORDS: u64 = 8192;

/// A failure-rate point estimate and its 95% interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Point estimate.
    pub rate: f64,
    /// Lower bound.
    pub low: f64,
    /// Upper bound.
    pub high: f64,
}

impl Interval {
    /// `failures / trials` with its Wilson interval; with no trials, the
    /// whole unit interval around a zero rate.
    pub fn binomial(failures: u64, trials: u64) -> Interval {
        if trials == 0 {
            return Interval {
                rate: 0.0,
                low: 0.0,
                high: 1.0,
            };
        }
        let (low, high) = wilson_interval(failures, trials, Z95);
        Interval {
            rate: failures as f64 / trials as f64,
            low,
            high,
        }
    }

    /// The relative half-width `(high − low) / (2 · rate)`; `None` while
    /// the rate is zero.
    pub fn rel_half_width(&self) -> Option<f64> {
        (self.rate > 0.0).then(|| (self.high - self.low) / (2.0 * self.rate))
    }

    /// The stopping rule: the relative half-width is at or below `target`.
    pub fn meets(&self, target: f64) -> bool {
        self.rel_half_width().is_some_and(|w| w <= target)
    }
}

impl McOutcome {
    /// The outcome's pooled 95% interval: Wilson's for a plain outcome,
    /// [`stratified_estimate`] for a stratified one. The interval the
    /// stopping rule reads.
    pub fn interval(&self) -> Interval {
        if self.strata.is_empty() {
            Interval::binomial(self.failures, self.trials)
        } else {
            stratified_estimate(&self.strata, Z95)
        }
    }
}

impl Engine {
    /// Monte-Carlo estimation: runs `opts.trials` independent trials of
    /// `trial` on the compiled word loop at the width `opts` resolves,
    /// and counts failing lanes.
    ///
    /// With `opts.threads > 1`, each round's words are shared between the
    /// calling thread and up to `opts.threads − 1` persistent helper
    /// threads: one process-wide pool of `available_parallelism() − 1`
    /// helpers, started on first use and parked between rounds, so a
    /// round spawns no threads. The caller always works on the round and
    /// never waits for a helper that has not started, so asking for more
    /// threads never makes a small estimate meaningfully slower.
    ///
    /// Trials are packed 64 per word; each word derives its RNG from
    /// `opts.seed` and the word index, so results are **a function of the
    /// seed alone**, the same at any thread count and width. With
    /// [`McOptions::target_rel_error`] set, estimation stops at the first
    /// sub-round boundary where the pooled interval meets the target (see
    /// the [module docs](self)); sub-rounds are thread-independent, so
    /// even early-stopped results are a function of the seed alone.
    ///
    /// # Panics
    ///
    /// Panics if `opts.trials == 0` or the trial's width disagrees with
    /// the compiled circuit.
    pub fn estimate<T: WordTrial + ?Sized>(&self, trial: &T, opts: &McOptions) -> McOutcome {
        self.estimate_obs(trial, opts, &Collector::disabled())
    }

    /// [`Engine::estimate`] with instrumentation: counters, histograms
    /// and spans land in `obs` (see the `rft-obs` catalog for the metric
    /// names). Collection is strictly observational — it never touches an
    /// RNG stream or a scheduling decision, so the outcome is
    /// byte-identical to [`Engine::estimate`] for the same inputs. Word
    /// tallies are accumulated as plain integers inside the hot loops and
    /// flushed to the collector once per advance, so the enabled path
    /// stays within noise of the disabled one (gated ≤ 2% by the
    /// `obs_overhead` bench group).
    ///
    /// # Panics
    ///
    /// Panics as [`Engine::estimate`].
    pub fn estimate_obs<T: WordTrial + ?Sized>(
        &self,
        trial: &T,
        opts: &McOptions,
        obs: &Collector,
    ) -> McOutcome {
        assert!(opts.trials > 0, "need at least one trial");
        let mut est = self.estimation(trial, opts, obs);
        let threads = opts.threads;
        let mut early_stopped = false;
        match opts.target_rel_error {
            None => est.advance(opts.trials, threads),
            Some(target) => {
                let mut left = opts.trials;
                while left > 0 {
                    let step = left.min(est.sub_round_trials());
                    est.advance(step, threads);
                    left -= step;
                    if left > 0 && est.interval().meets(target) {
                        early_stopped = true;
                        break;
                    }
                }
            }
        }
        if early_stopped {
            obs.incr(Metric::EarlyStops);
        }
        McOutcome {
            requested: opts.trials,
            early_stopped,
            ..est.outcome()
        }
    }

    /// A resumable estimation of `trial` under `opts` (its seed, width,
    /// backend label and estimator policy; `opts.trials` only resolves
    /// the [`BackendKind::Auto`](crate::engine::BackendKind::Auto) label,
    /// and `threads` and `target_rel_error` are the driver's). Nothing
    /// runs until [`Estimation::advance`].
    ///
    /// # Panics
    ///
    /// Panics if the trial's width disagrees with the compiled circuit,
    /// or a stratified estimator with `min_faults > 0` is asked of a
    /// trial whose fault-free lanes can fail.
    pub fn estimation<'a, T: WordTrial + ?Sized>(
        &'a self,
        trial: &'a T,
        opts: &McOptions,
        obs: &'a Collector,
    ) -> Estimation<'a, T> {
        assert_eq!(
            trial.n_wires(),
            self.n_wires(),
            "trial width must match circuit width"
        );
        obs.incr(Metric::EstimateCalls);
        let resolved = match opts.estimator {
            Estimator::Auto => {
                let m = trial.min_failing_faults();
                assert!(
                    m == 0 || !trial.fault_free_can_fail(),
                    "a trial whose fault-free lanes can fail must report \
                     min_failing_faults() == 0"
                );
                // P(K ≥ m): the cheap product for m ≤ 1, the lazily built
                // fault-count distribution beyond.
                let mass = match m {
                    0 => 1.0,
                    1 => 1.0 - self.fault_free_probability(),
                    _ => self.fault_dist().mass_at_least(m as usize),
                };
                Estimator::Auto.resolve(mass, m)
            }
            explicit => explicit,
        };
        let plan = match resolved {
            Estimator::Stratified {
                min_faults,
                strata_cap,
            } => {
                assert!(
                    min_faults == 0 || !trial.fault_free_can_fail(),
                    "the stratified estimator elides words with fewer than {min_faults} \
                     faults, but this trial reports that fault-free words can fail \
                     (WordTrial::fault_free_can_fail); use min_faults = 0 or Estimator::Plain"
                );
                obs.incr(Metric::StratifiedRuns);
                // Stratum layout + tail CDF are pure functions of the
                // compiled fault-count PMF, memoized on the engine.
                let plan = self.strata_plan(min_faults, strata_cap);
                obs.set_gauge(Gauge::ElidedMass, (1.0 - plan.sample_weight).max(0.0));
                Some(plan)
            }
            _ => {
                obs.incr(Metric::PlainRuns);
                None
            }
        };
        let strata = match &plan {
            Some(plan) => plan.strata.clone(),
            None => vec![StratumOutcome {
                k_lo: 0,
                k_hi: None,
                weight: 1.0,
                failures: 0,
                trials: 0,
            }],
        };
        // Everything below `min_faults` (e.g. a noiseless model): no word
        // ever runs, so the whole budget is one sub-round.
        let sub_round_words = match &plan {
            Some(plan) if plan.all_elided => u64::MAX / 64,
            _ => FIRST_SUB_ROUND_WORDS,
        };
        Estimation {
            engine: self,
            trial,
            obs,
            seed: opts.seed,
            width: opts.width.resolve(),
            backend: opts.backend.resolve(opts.trials).name(),
            plan,
            strata,
            trials: 0,
            executed_words: 0,
            sub_round_words,
            assignment: Vec::new(),
        }
    }
}

/// A resumable Monte-Carlo estimate: the resolved estimator, its pooled
/// tallies and the words executed so far (see the [module docs](self)).
/// Built by [`Engine::estimation`].
#[must_use = "an Estimation runs nothing until advanced"]
pub struct Estimation<'a, T: WordTrial + ?Sized> {
    engine: &'a Engine,
    trial: &'a T,
    obs: &'a Collector,
    seed: u64,
    /// Wide-word width `W ∈ {1, 2, 4}`.
    width: usize,
    /// [`McOutcome::backend`].
    backend: &'static str,
    /// The stratified layout; `None` for the plain estimator.
    plan: Option<Arc<StrataPlan>>,
    /// Pooled tallies: one per stratum, or one of weight 1 for plain.
    strata: Vec<StratumOutcome>,
    /// Trials advanced so far.
    trials: u64,
    /// Words executed so far; the next word's global index.
    executed_words: u64,
    /// Words in the next sub-round.
    sub_round_words: u64,
    /// Reused slot → stratum buffer of a stratified sub-round.
    assignment: Vec<u32>,
}

impl<T: WordTrial + ?Sized> Estimation<'_, T> {
    /// Runs the next `trials` trials on up to `threads` threads (`0` is
    /// treated as `1`), as words numbered on from the words already run:
    /// one span for plain, Neyman sub-rounds that continue the pooled
    /// state for stratified. The result does not depend on `threads`.
    pub fn advance(&mut self, trials: u64, threads: usize) {
        let obs = self.obs;
        let _span = obs.span_metric("engine.estimate", Metric::EstimateNanos);
        // Force the lazy IR lowering here so its cost is attributed to
        // `engine.lower` instead of bleeding into the word loops.
        self.engine.compiled_obs(obs);
        let (failures_before, trials_before) = self.pooled();
        let words_before = self.executed_words;
        let plan = self.plan.clone();
        let mut extras = WordExtras::default();
        let mut left = match &plan {
            Some(plan) if plan.all_elided => 0,
            _ => trials,
        };
        while left > 0 {
            let _round_span = plan.is_some().then(|| obs.span("estimator.round"));
            let round = match &plan {
                None => left.div_ceil(64),
                Some(plan) => self.allocate(plan, left),
            };
            let words = Words {
                seed: self.seed,
                base: self.executed_words,
                trials: left,
                strata: plan.as_deref().map(|p| (p, &self.assignment[..])),
            };
            let (tallies, x) =
                self.engine
                    .run_span(self.width, self.trial, words, round, threads.max(1), obs);
            extras.merge(x);
            for (s, (f, n)) in self.strata.iter_mut().zip(&tallies) {
                s.failures += f;
                s.trials += n;
            }
            self.executed_words += round;
            left = left.saturating_sub(round * 64);
        }
        self.trials += trials;
        let (failures, executed) = self.pooled();
        obs.add(Metric::ExecutedWords, self.executed_words - words_before);
        obs.add(Metric::ExecutedTrials, executed - trials_before);
        obs.add(Metric::LaneFailures, failures - failures_before);
        obs.add(Metric::FaultedLanes, extras.faulted_lanes);
        obs.add(Metric::FaultEvents, extras.fault_events);
        obs.add(Metric::FusedSegments, extras.fused_segments);
        obs.add(Metric::ReplayedSegments, extras.replayed_segments);
        if plan.is_some() {
            obs.add(Metric::MaskedWords, self.executed_words - words_before);
        }
    }

    /// Sizes the next stratified sub-round (at most `left` live trials)
    /// and splits its words over the strata into `assignment`; returns
    /// its words.
    fn allocate(&mut self, plan: &StrataPlan, left: u64) -> u64 {
        let obs = self.obs;
        obs.incr(Metric::StratifiedRounds);
        let round = self.sub_round_words.min(left.div_ceil(64));
        self.sub_round_words = (self.sub_round_words * 2).min(MAX_SUB_ROUND_WORDS);
        obs.add(Metric::AllocatedWords, round);
        let weights: Vec<f64> = plan.strata.iter().map(|s| s.weight).collect();
        let alloc = apportion_words(&neyman_scores(&self.strata), &weights, round);
        self.assignment.clear();
        for (si, &n) in alloc.iter().enumerate() {
            if n > 0 {
                obs.observe(Hist::RoundWords, n);
            }
            self.assignment
                .extend(std::iter::repeat_n(si as u32, n as usize));
        }
        round
    }

    /// Trials in the next sub-round: the granularity at which
    /// [`Engine::estimate`] checks its target.
    pub fn sub_round_trials(&self) -> u64 {
        self.sub_round_words * 64
    }

    /// The pooled 95% interval over every trial run so far; the stopping
    /// rule is [`Interval::meets`] on it.
    pub fn interval(&self) -> Interval {
        match self.plan {
            None => Interval::binomial(self.strata[0].failures, self.strata[0].trials),
            Some(_) => stratified_estimate(&self.strata, Z95),
        }
    }

    /// Pooled `(failures, trials)` as [`McOutcome`] reports them: a fully
    /// analytic stratified estimate counts every advanced trial.
    fn pooled(&self) -> (u64, u64) {
        if self.plan.as_ref().is_some_and(|p| p.all_elided) {
            return (0, self.trials);
        }
        self.strata
            .iter()
            .fold((0, 0), |(f, n), s| (f + s.failures, n + s.trials))
    }

    /// The pooled outcome so far (`requested` counts the trials advanced;
    /// `early_stopped` is the driver's to set).
    pub fn outcome(&self) -> McOutcome {
        let (failures, trials) = self.pooled();
        McOutcome {
            failures,
            trials,
            requested: self.trials,
            early_stopped: false,
            backend: self.backend,
            estimator: if self.plan.is_some() {
                "stratified"
            } else {
                "plain"
            },
            sample_weight: self.plan.as_ref().map_or(1.0, |p| p.sample_weight),
            executed_words: self.executed_words,
            strata: match self.plan {
                Some(_) => self.strata.clone(),
                None => Vec::new(),
            },
        }
    }
}

/// Neyman scores from the *observed* per-stratum variance
/// `wₖ·√(q̂ₖ(1−q̂ₖ))`. A stratum that has never failed is scored by its
/// rule-of-three uncertainty `wₖ·√(1.5/nₖ)`, capped at twice the best
/// failing score so it cannot starve failure accumulation. Before any
/// failure exists anywhere, all scores are zero and the round splits
/// uniformly (discovery).
fn neyman_scores(strata: &[StratumOutcome]) -> Vec<f64> {
    let failing = |s: &StratumOutcome| {
        let q = s.failures as f64 / s.trials as f64;
        s.weight * (q * (1.0 - q)).sqrt()
    };
    let max_failing = strata
        .iter()
        .filter(|s| s.weight > 0.0 && s.trials > 0 && s.failures > 0)
        .map(failing)
        .fold(0.0f64, f64::max);
    strata
        .iter()
        .map(|s| {
            if s.weight <= 0.0 || s.trials == 0 || max_failing <= 0.0 {
                0.0
            } else if s.failures == 0 {
                (s.weight * (1.5 / s.trials as f64).sqrt()).min(2.0 * max_failing)
            } else {
                failing(s)
            }
        })
        .collect()
}

/// Splits `total` round words across strata by largest-remainder
/// apportionment over `scores` (deterministic; ties break toward lower
/// indices).
///
/// With no positive score anywhere (nothing has failed yet) the round is
/// split **uniformly** across live strata — uniform discovery finds the
/// failure-bearing strata orders of magnitude sooner than weight-
/// proportional splitting when the heavy strata provably never fail.
/// Every live stratum keeps a one-word floor so a mistakenly written-off
/// stratum can resurface.
fn apportion_words(scores: &[f64], weights: &[f64], total: u64) -> Vec<u64> {
    let n = scores.len();
    let mut alloc = vec![0u64; n];
    if total == 0 {
        return alloc;
    }
    let live: Vec<bool> = weights.iter().map(|&w| w > 0.0).collect();
    let sum: f64 = scores.iter().sum();
    if sum <= 0.0 {
        // Discovery mode: uniform over live strata; when there are fewer
        // words than strata, the heaviest strata are served first (a
        // one-word budget should probe where the mass is).
        let n_live = live.iter().filter(|&&l| l).count().max(1) as u64;
        let base = total / n_live;
        let mut extra = total % n_live;
        let mut order: Vec<usize> = (0..n).filter(|&i| live[i]).collect();
        order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap().then(a.cmp(&b)));
        let mut given = 0u64;
        for &i in &order {
            let take = base + u64::from(extra > 0);
            extra = extra.saturating_sub(1);
            alloc[i] += take;
            given += take;
        }
        if given < total {
            alloc[0] += total - given;
        }
        return alloc;
    }
    let mut assigned = 0u64;
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n);
    for (i, &s) in scores.iter().enumerate() {
        let quota = total as f64 * s / sum;
        let floor = quota.floor() as u64;
        alloc[i] += floor;
        assigned += floor;
        fracs.push((quota - floor as f64, i));
    }
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut rest = total.saturating_sub(assigned);
    for &(_, i) in &fracs {
        if rest == 0 {
            break;
        }
        alloc[i] += 1;
        rest -= 1;
    }
    // One-word floor for live strata, taken from the largest allocation.
    for i in 0..n {
        if live[i] && alloc[i] == 0 {
            if let Some(donor) = (0..n).filter(|&j| alloc[j] > 1).max_by_key(|&j| alloc[j]) {
                alloc[donor] -= 1;
                alloc[i] += 1;
            }
        }
    }
    alloc
}

/// Combines per-stratum tallies `(weight wₖ, failures fₖ, trials nₖ)`
/// into a weighted estimate of `p = Σ wₖ qₖ` with a `z` interval.
///
/// The point estimate is the unbiased `Σ wₖ · fₖ/nₖ`. The interval
/// generalizes Wilson: each stratum contributes its Wilson midpoint `cₖ`
/// and half-width `hₖ`, combined as centre `Σ wₖ cₖ` and half-width
/// `√(Σ (wₖ hₖ)²)` (strata are independent) — for a single stratum this
/// reduces to the ordinary Wilson interval scaled by its weight. Strata
/// with weight but **no trials** (budget exhausted before coverage)
/// contribute their full ignorance interval `[0, wₖ]`, keeping the
/// result conservative. The interval is clamped to `[0, Σ wₖ]`: the true
/// rate cannot exceed the executed (non-elided) mass.
pub fn stratified_estimate(strata: &[StratumOutcome], z: f64) -> Interval {
    let mut rate = 0.0;
    let mut centre = 0.0;
    let mut var = 0.0;
    let mut unexecuted = 0.0;
    let total_weight: f64 = strata.iter().map(|s| s.weight).sum();
    for s in strata {
        if s.weight <= 0.0 {
            continue;
        }
        if s.trials == 0 {
            // Unexecuted stratum: bounded below by 0, above by its whole
            // weight — it widens only the upper side.
            unexecuted += s.weight;
            continue;
        }
        rate += s.weight * s.failures as f64 / s.trials as f64;
        let (lo, hi) = wilson_interval(s.failures, s.trials, z);
        let c = (lo + hi) / 2.0;
        let h = (hi - lo) / 2.0;
        centre += s.weight * c;
        var += (s.weight * h) * (s.weight * h);
    }
    let half = var.sqrt();
    // The Wilson midpoints are deliberately biased away from the extremes,
    // so for very sparse strata the smoothed band can drift off the
    // unbiased point estimate — widen minimally to contain it.
    let low = (centre - half).max(0.0).min(rate);
    let high = (centre + half + unexecuted)
        .min(total_weight)
        .min(1.0)
        .max(rate);
    Interval { rate, low, high }
}

/// The Wilson score interval for a binomial proportion.
///
/// Well-behaved at 0 and 1 and for small counts, unlike the normal
/// approximation — important because deep-below-threshold error rates
/// produce very few failures.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    assert!(n > 0, "need at least one observation");
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let half = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    (
        ((centre - half) / denom).max(0.0),
        ((centre + half) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_words_is_proportional_and_covering() {
        assert_eq!(apportion_words(&[3.0, 1.0], &[0.5, 0.5], 4), vec![3, 1]);
        // One-word floor: a zero-score live stratum still gets seeded.
        assert_eq!(apportion_words(&[1.0, 0.0], &[0.5, 0.5], 8), vec![7, 1]);
        // Discovery with fewer words than strata: heaviest strata first.
        assert_eq!(
            apportion_words(&[0.0, 0.0, 0.0], &[0.1, 0.02, 0.8], 1),
            vec![0, 0, 1]
        );
        // Discovery mode: no failures anywhere → uniform over live strata.
        assert_eq!(
            apportion_words(&[0.0, 0.0, 0.0], &[0.5, 0.0, 0.5], 5),
            vec![3, 0, 2]
        );
        // Dead strata get nothing.
        assert_eq!(apportion_words(&[1.0, 0.0], &[1.0, 0.0], 7), vec![7, 0]);
    }

    #[test]
    fn wilson_contains_point_estimate() {
        let (lo, hi) = wilson_interval(10, 100, 1.96);
        assert!(lo < 0.1 && 0.1 < hi);
        assert!(lo > 0.04 && hi < 0.19);
    }

    #[test]
    fn wilson_handles_zero_and_all() {
        let (lo, hi) = wilson_interval(0, 50, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.15);
        let (lo2, hi2) = wilson_interval(50, 50, 1.96);
        assert!(lo2 > 0.85);
        assert_eq!(hi2, 1.0);
    }

    #[test]
    fn stopping_rule_reads_the_relative_half_width() {
        let i = Interval::binomial(100, 10_000);
        let w = i.rel_half_width().expect("positive rate");
        assert!((w - (i.high - i.low) / (2.0 * i.rate)).abs() < 1e-15);
        assert!(i.meets(w) && !i.meets(w * 0.999));
        // No failure, no width: the rule cannot hold on a zero rate.
        assert_eq!(Interval::binomial(0, 1 << 20).rel_half_width(), None);
        assert!(!Interval::binomial(0, 1 << 20).meets(1e9));
        assert_eq!(Interval::binomial(0, 0).high, 1.0);
    }

    fn stratum(weight: f64, failures: u64, trials: u64) -> StratumOutcome {
        StratumOutcome {
            k_lo: 1,
            k_hi: Some(1),
            weight,
            failures,
            trials,
        }
    }

    #[test]
    fn single_stratum_reduces_to_scaled_wilson() {
        let w = 0.05;
        let est = stratified_estimate(&[stratum(w, 30, 1000)], 1.959964);
        let (lo, hi) = wilson_interval(30, 1000, 1.959964);
        assert!((est.rate - w * 0.03).abs() < 1e-12);
        assert!(
            (est.low - w * lo).abs() < 1e-12,
            "{} vs {}",
            est.low,
            w * lo
        );
        assert!((est.high - w * hi).abs() < 1e-12);
    }

    #[test]
    fn stratified_combines_independent_strata() {
        let strata = [stratum(0.1, 50, 1000), stratum(0.01, 10, 100)];
        let est = stratified_estimate(&strata, 1.959964);
        let expect = 0.1 * 0.05 + 0.01 * 0.1;
        assert!((est.rate - expect).abs() < 1e-12);
        assert!(est.low < est.rate && est.rate < est.high);
        // Tighter than the naive sum of the two scaled intervals.
        let (l1, h1) = wilson_interval(50, 1000, 1.959964);
        let (l2, h2) = wilson_interval(10, 100, 1.959964);
        let naive = (0.1 * (h1 - l1) + 0.01 * (h2 - l2)) / 2.0;
        assert!((est.high - est.low) / 2.0 <= naive + 1e-12);
    }

    #[test]
    fn zero_failure_stratum_keeps_its_wilson_upper_bound() {
        // A sampled stratum that never failed still widens the interval
        // by about its weight times z²/n, so the stopping rule sees it.
        let n = 10_000;
        let failing = stratified_estimate(&[stratum(0.5, 100, n)], Z95);
        let both = stratified_estimate(&[stratum(0.5, 100, n), stratum(0.5, 0, n)], Z95);
        assert_eq!(both.rate, failing.rate);
        let (_, hi) = wilson_interval(0, n, Z95);
        assert!((hi - Z95 * Z95 / n as f64).abs() < 1e-6);
        assert!(both.high - both.low > failing.high - failing.low);
    }

    #[test]
    fn unexecuted_stratum_contributes_full_ignorance() {
        let strata = [stratum(0.2, 0, 500), stratum(0.01, 0, 0)];
        let est = stratified_estimate(&strata, 1.959964);
        // The unexecuted stratum's whole weight stays inside the interval.
        assert!(est.high >= 0.01, "high {} must cover [0, 0.01]", est.high);
        assert_eq!(est.rate, 0.0);
        assert_eq!(est.low, 0.0);
    }

    #[test]
    fn stratified_interval_clamps_to_executed_mass() {
        // All conditional trials fail: the upper bound cannot exceed the
        // stratum mass.
        let est = stratified_estimate(&[stratum(0.03, 100, 100)], 1.959964);
        assert!(est.high <= 0.03 + 1e-15);
        assert!(est.rate <= 0.03 + 1e-15);
    }

    #[test]
    fn zero_weight_everything_is_exactly_zero() {
        let est = stratified_estimate(&[stratum(0.0, 0, 0)], 1.959964);
        assert_eq!((est.rate, est.low, est.high), (0.0, 0.0, 0.0));
    }
}
