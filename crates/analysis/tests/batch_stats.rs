//! Statistical guarantees of the engine-based Monte-Carlo estimators.
//!
//! Every backend label runs the same executor, so estimates agree exactly
//! per seed (pinned by the revsim property tests); across
//! *different* seeds the estimators must still be statistically
//! consistent, reproduce the paper's qualitative behaviour (noiseless
//! perfection, below-threshold suppression), and — for the adaptive
//! early-stopping path — deliver estimates whose Wilson intervals both
//! meet the requested precision and cover the truth.

use rft_analysis::prelude::*;
use rft_core::ftcheck::transversal_cycle;
use rft_revsim::prelude::*;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

fn scalar_opts(trials: u64, seed: u64) -> McOptions {
    McOptions::new(trials)
        .seed(seed)
        .threads(4)
        .backend(BackendKind::Scalar)
}

fn batch_opts(trials: u64, seed: u64) -> McOptions {
    McOptions::new(trials)
        .seed(seed)
        .threads(4)
        .backend(BackendKind::Batch)
}

#[test]
fn estimator_is_deterministic_per_seed() {
    let mc = ConcatMc::new(1, toffoli(), 1);
    let noise = UniformNoise::new(0.02);
    let a = mc.estimate(&noise, &batch_opts(4_000, 9));
    let b = mc.estimate(&noise, &batch_opts(4_000, 9));
    assert_eq!(a.failures, b.failures);
    // ...and thread-count independent (per-word seeding).
    let c = mc.estimate(&noise, &batch_opts(4_000, 9).threads(1));
    assert_eq!(a.failures, c.failures);
}

#[test]
fn scalar_and_batch_agree_on_concat_mc_within_wilson() {
    // Level-1 Toffoli cycle at a paper-scale rate: generous 95% interval
    // overlap between the two backends on *disjoint* seeds.
    let mc = ConcatMc::new(1, toffoli(), 1);
    for g in [1.0 / 60.0, 1.0 / 165.0] {
        let noise = UniformNoise::new(g);
        let scalar = mc.estimate(&noise, &scalar_opts(12_000, 21));
        let batch = mc.estimate(&noise, &batch_opts(12_000, 22));
        assert!(
            batch.low <= scalar.high && scalar.low <= batch.high,
            "g={g}: batch {batch:?} vs scalar {scalar:?}"
        );
    }
}

#[test]
fn scalar_and_batch_agree_on_cycle_spec_within_wilson() {
    let spec = transversal_cycle(&toffoli());
    let g = 1.0 / 100.0;
    let noise = UniformNoise::new(g);
    let scalar = estimate_cycle_error(&spec, &noise, &scalar_opts(12_000, 31));
    let batch = estimate_cycle_error(&spec, &noise, &batch_opts(12_000, 32));
    assert!(
        batch.low <= scalar.high && scalar.low <= batch.high,
        "batch {batch:?} vs scalar {scalar:?}"
    );
}

#[test]
fn batch_below_threshold_beats_unprotected() {
    // The headline below-threshold claim must survive the engine rewrite:
    // at g = ρ/4 the protected cycle beats the 27 unprotected gates.
    let g = 1.0 / 432.0;
    let mc = ConcatMc::new(1, toffoli(), 1);
    let est = mc.estimate(&UniformNoise::new(g), &batch_opts(40_000, 11));
    let baseline = unprotected_error(g, 27);
    assert!(
        est.rate < baseline,
        "protected {} not below unprotected {}",
        est.rate,
        baseline
    );
}

#[test]
fn batch_split_noise_matches_perfect_init_semantics() {
    // With perfect inits and g on gates only, the estimate must not exceed
    // the all-ops estimate (statistically: compare interval bounds).
    let mc = ConcatMc::new(1, toffoli(), 1);
    let g = 1.0 / 40.0;
    let all = mc.estimate(&UniformNoise::new(g), &batch_opts(20_000, 5));
    let split = mc.estimate(&SplitNoise::perfect_init(g), &batch_opts(20_000, 6));
    assert!(
        split.low <= all.high,
        "perfect-init {split:?} should not exceed all-ops {all:?}"
    );
}

#[test]
fn adaptive_early_stopping_meets_its_wilson_bound() {
    // Wilson-bound check of the adaptive path: ask for a target relative
    // standard error, and verify (a) the run stops early, (b) the achieved
    // Wilson interval is consistent with the requested precision, and
    // (c) the early-stopped interval covers a high-budget reference rate.
    let mc = ConcatMc::new(1, toffoli(), 1);
    let noise = UniformNoise::new(1.0 / 60.0);
    let target = 0.10;
    let outcome = mc.estimate_outcome(
        &noise,
        &McOptions::new(2_000_000)
            .seed(41)
            .threads(4)
            .target_rel_error(target),
    );
    assert!(outcome.early_stopped, "budget should not be exhausted");
    assert!(
        outcome.trials < outcome.requested / 4,
        "adaptive spent {} of {} trials",
        outcome.trials,
        outcome.requested
    );

    let est = ErrorEstimate::from(outcome);
    // (b) The Wilson half-width at stop time should be in the vicinity of
    // z·target·rate — allow 2× slack for the discreteness of round
    // boundaries and the normal-vs-Wilson difference.
    let half_width = (est.high - est.low) / 2.0;
    assert!(
        half_width <= 2.0 * 1.96 * target * est.rate,
        "half-width {half_width} too wide for target {target} at rate {}",
        est.rate
    );

    // (c) Coverage: a large fixed-budget reference run on a different
    // seed must land inside (or overlap) the early-stopped interval.
    let reference = mc.estimate(&noise, &batch_opts(200_000, 4242));
    assert!(
        est.low <= reference.high && reference.low <= est.high,
        "adaptive {est:?} vs reference {reference:?}"
    );
}

#[test]
fn stratified_agrees_with_plain_on_concat_mc() {
    // Moderate paper-scale rate where both estimators resolve: forced
    // plain vs forced stratified on disjoint seeds must overlap at 95%.
    let mc = ConcatMc::new(1, toffoli(), 1);
    let noise = UniformNoise::new(1.0 / 165.0);
    let plain = mc.estimate(&noise, &batch_opts(60_000, 51).estimator(Estimator::Plain));
    let strat = mc.estimate(
        &noise,
        &batch_opts(60_000, 52).estimator(Estimator::DEFAULT_STRATIFIED),
    );
    assert!(
        strat.low <= plain.high && plain.low <= strat.high,
        "stratified {strat:?} vs plain {plain:?}"
    );
    // The stratified interval is the tighter of the two at equal budget.
    assert!(
        strat.high - strat.low < plain.high - plain.low,
        "stratified {strat:?} should beat plain {plain:?} in width"
    );
}

#[test]
fn stratified_min_faults_two_is_sound_for_the_ft_cycle() {
    // The level-1 cycle provably corrects any single fault (ftcheck's
    // exhaustive sweep), so eliding the k ≤ 1 strata must not bias the
    // estimate: compare min_faults = 2 against plain at a rate where
    // plain resolves well.
    let mc = ConcatMc::new(1, toffoli(), 1);
    let noise = UniformNoise::new(1.0 / 60.0);
    let plain = mc.estimate(&noise, &batch_opts(60_000, 61).estimator(Estimator::Plain));
    let strat = mc.estimate(&noise, &batch_opts(60_000, 62).stratified(2, 4));
    assert!(
        strat.low <= plain.high && plain.low <= strat.high,
        "min_faults=2 {strat:?} vs plain {plain:?}"
    );
}

#[test]
fn auto_routes_deep_points_to_the_stratified_estimator() {
    // g = 10⁻³ on the level-1 cycle: plain MC at this budget would
    // usually see zero failures; the auto-routed stratified estimator
    // resolves a positive rate with a finite interval.
    let mc = ConcatMc::new(1, toffoli(), 1);
    let noise = UniformNoise::new(1e-3);
    let outcome = mc.estimate_outcome(&noise, &batch_opts(30_000, 71));
    assert_eq!(outcome.estimator, "stratified");
    let est = ErrorEstimate::from(outcome.clone());
    assert!(est.rate > 0.0, "deep rate resolved: {est:?}");
    assert!(est.rate < 1e-3, "level-1 must suppress below g: {est:?}");
    // The Equation-1 bound 3·C(11,2)·g² per encoded bit is a sanity
    // ceiling for the whole-cycle rate at 3 encoded bits.
    assert!(
        est.rate < 3.0 * 3.0 * 55.0 * 1e-6,
        "rate {} too high",
        est.rate
    );
    // Determinism across thread counts survives the stratified path.
    let again = mc.estimate_outcome(&noise, &batch_opts(30_000, 71).threads(1));
    assert_eq!(outcome.failures, again.failures);
    assert_eq!(outcome.strata, again.strata);
}

#[test]
fn adaptive_stopping_is_noop_when_failures_are_scarce() {
    // Deep below threshold almost nothing fails: the adaptive run must
    // quietly fall back to the full budget rather than stop on noise.
    let mc = ConcatMc::new(1, toffoli(), 1);
    let noise = UniformNoise::new(1.0 / 2000.0);
    let outcome = mc.estimate_outcome(
        &noise,
        &McOptions::new(3_000)
            .seed(8)
            .threads(2)
            .target_rel_error(0.05),
    );
    assert!(!outcome.early_stopped);
    assert_eq!(outcome.trials, 3_000);
}
