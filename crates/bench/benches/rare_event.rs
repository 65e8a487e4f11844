//! Rare-event Monte-Carlo: the fault-count-stratified estimator against
//! plain MC in the deep-sub-threshold regime.
//!
//! Two kinds of measurement:
//!
//! 1. **Fixed-budget timing** (`rare_event_estimate`): wall-clock of one
//!    estimation round trip per estimator at `g ∈ {1e-2, 1e-3, 1e-4}` on
//!    the level-1 cycle — the per-word overhead of conditional mask
//!    generation, measured honestly at equal trial counts.
//! 2. **Cost-to-precision summaries** (`rare_event_words`,
//!    `rare_event_level2`): executed 64-lane circuit words needed to reach
//!    a target relative half-width of the 95% interval (1.96× the relative
//!    standard error it used to name) — the metric that actually matters
//!    for rare events, where plain MC burns its budget on fault-free
//!    words. These lines carry custom fields and are appended to the
//!    `CRITERION_JSON` file alongside the timing lines.
//!
//! `RARE_EVENT_PROFILE=quick` shrinks budgets for CI smoke runs; the
//! checked-in `BENCH_rare_event.json` baseline comes from a full run.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use rft_analysis::prelude::*;
use rft_revsim::prelude::*;
use std::io::Write as _;
use std::time::Instant;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

/// Appends one JSON line to `CRITERION_JSON` (if set) and echoes it.
fn emit(line: String) {
    println!("summary {line}");
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

fn measure(
    mc: &ConcatMc,
    noise: &UniformNoise,
    opts: &McOptions,
) -> (McOutcome, ErrorEstimate, f64) {
    let start = Instant::now();
    let outcome = mc.estimate_outcome(noise, opts);
    let secs = start.elapsed().as_secs_f64();
    let est = ErrorEstimate::from(outcome.clone());
    (outcome, est, secs)
}

/// Fixed-budget timing: estimator overhead at equal trial counts.
fn fixed_budget_timing(c: &mut Criterion, quick: bool) {
    let mc = &ConcatMc::new(1, toffoli(), 1);
    let mut group = c.benchmark_group("rare_event_estimate");
    let trials: u64 = if quick { 1 << 12 } else { 1 << 16 };
    for g in [1e-2f64, 1e-3, 1e-4] {
        let noise = UniformNoise::new(g);
        group.throughput(Throughput::Elements(trials));
        for (name, estimator) in [
            ("plain", Estimator::Plain),
            ("stratified", Estimator::DEFAULT_STRATIFIED),
        ] {
            let opts = McOptions::new(trials).seed(1).estimator(estimator);
            group.bench_function(BenchmarkId::new(name, format!("g{g:.0e}")), move |b| {
                b.iter(|| black_box(mc.estimate_outcome(&noise, &opts).failures));
            });
        }
    }
    group.finish();
}

/// Words-to-target: executed circuit words each estimator needs to reach
/// the same relative-error target on the level-1 cycle.
fn words_to_target(quick: bool) {
    let mc = ConcatMc::new(1, toffoli(), 1);
    let target = if quick { 0.294 } else { 0.196 };
    let gs: &[f64] = if quick {
        &[1e-2, 1e-3]
    } else {
        &[1e-2, 1e-3, 1e-4]
    };
    for &g in gs {
        let noise = UniformNoise::new(g);
        // Generous caps: both estimators should stop on the target, not
        // the budget (the plain cap scales with 1/p ≈ 1/(c·g²)).
        let plain_cap: u64 = if quick { 1 << 22 } else { 1 << 28 };
        let strat_cap: u64 = plain_cap;
        let (plain_out, plain_est, plain_secs) = measure(
            &mc,
            &noise,
            &McOptions::new(plain_cap)
                .seed(3)
                .estimator(Estimator::Plain)
                .target_rel_error(target),
        );
        let (strat_out, strat_est, strat_secs) = measure(
            &mc,
            &noise,
            &McOptions::new(strat_cap)
                .seed(4)
                .estimator(Estimator::DEFAULT_STRATIFIED)
                .target_rel_error(target),
        );
        // The distance-justified variant: the level-1 cycle provably
        // corrects any single fault (ftcheck), so `min_faults = 2` elides
        // the k ≤ 1 strata entirely.
        let (strat2_out, strat2_est, strat2_secs) = measure(
            &mc,
            &noise,
            &McOptions::new(strat_cap)
                .seed(4)
                .stratified(2, 4)
                .target_rel_error(target),
        );
        let ratio = plain_out.executed_words as f64 / strat_out.executed_words.max(1) as f64;
        let ratio2 = plain_out.executed_words as f64 / strat2_out.executed_words.max(1) as f64;
        // The mass plain MC wastes on a-priori-known outcomes at this g.
        let p0 = fault_free_probability(mc.program().circuit(), &noise);
        emit(format!(
            "{{\"group\":\"rare_event_words\",\"bench\":\"level1_g{g:.0e}\",\
             \"target_rel_error\":{target},\"p_fault_free\":{p0:.6},\
             \"plain_words\":{},\"strat_words\":{},\"strat2_words\":{},\
             \"words_ratio\":{ratio:.2},\"words_ratio_min2\":{ratio2:.2},\
             \"plain_rate\":{:.6e},\"strat_rate\":{:.6e},\"strat2_rate\":{:.6e},\
             \"plain_secs\":{plain_secs:.3},\"strat_secs\":{strat_secs:.3},\
             \"strat2_secs\":{strat2_secs:.3},\
             \"plain_stopped\":{},\"strat_stopped\":{},\"strat2_stopped\":{}}}",
            plain_out.executed_words,
            strat_out.executed_words,
            strat2_out.executed_words,
            plain_est.rate,
            strat_est.rate,
            strat2_est.rate,
            plain_out.early_stopped,
            strat_out.early_stopped,
            strat2_out.early_stopped,
        ));
    }
}

/// Level-2 resolution at g = 1e-3: measurements plain MC cannot bracket
/// in any practical budget (the measured rates sit three orders of
/// magnitude below even the Equation 2 bound `ρ(g/ρ)⁴ ≈ 4.5·10⁻⁶`, so
/// 10⁶ plain trials expect exactly zero failures).
///
/// `min_faults = 4` is the concatenation-distance elision: the exhaustive
/// single-fault sweep of `rft_core::ftcheck` proves every level-1 block
/// corrects any single fault, and the outer level corrects any single
/// corrupted block, so a level-2 logical failure needs at least
/// `2² = 4` physical faults — strata `K ≤ 3` contribute exactly zero.
///
/// The cost of the stratified estimate scales as `w₄/p` (trials ≈
/// `0.65·w₄/(t²·p)`), and the `K = 4` mass `w₄ ≈ (n_ops·g)⁴/24` falls
/// with the fourth power of the circuit size while the rate falls only
/// polynomially — so the level-2 CNOT (≈ 2/3 the ops of the Toffoli)
/// resolves several times faster and is the headline scenario; the
/// full-profile run also records the level-2 Toffoli.
fn level2_resolution(quick: bool) {
    let cnot = Gate::Cnot {
        control: w(0),
        target: w(1),
    };
    level2_point("level2_cnot_g1e-3_min4", cnot, quick);
    if !quick {
        level2_point("level2_toffoli_g1e-3_min4", toffoli(), false);
    }
}

fn level2_point(bench: &str, gate: Gate, quick: bool) {
    let mc = ConcatMc::new(2, gate, 1);
    let g = 1e-3;
    let noise = UniformNoise::new(g);
    let target = if quick { 0.98 } else { 0.392 };
    let cap: u64 = if quick { 1 << 23 } else { 1 << 28 };
    let (out, est, secs) = measure(
        &mc,
        &noise,
        &McOptions::new(cap)
            .seed(5)
            .stratified(4, 4)
            .target_rel_error(target),
    );
    let rel_se = stratified_rel_se(&out);
    let rel_half = out.interval().rel_half_width().unwrap_or(f64::INFINITY);
    // The plain-MC foil: 10⁶ trials at the same point.
    let plain_budget = 1_000_000u64;
    let (plain_out, plain_est, plain_secs) = measure(
        &mc,
        &noise,
        &McOptions::new(plain_budget)
            .seed(6)
            .estimator(Estimator::Plain),
    );
    emit(format!(
        "{{\"group\":\"rare_event_level2\",\"bench\":\"{bench}\",\
         \"target_rel_error\":{target},\
         \"rate\":{:.6e},\"low\":{:.6e},\"high\":{:.6e},\
         \"rel_std_error\":{rel_se:.3},\"rel_half_width\":{rel_half:.3},\
         \"words\":{},\"seconds\":{secs:.3},\"threads\":1,\
         \"cond_failures\":{},\"cond_trials\":{},\
         \"plain_1M_failures\":{},\"plain_1M_low\":{:.6e},\"plain_1M_high\":{:.6e},\
         \"plain_1M_secs\":{plain_secs:.3}}}",
        est.rate,
        est.low,
        est.high,
        out.executed_words,
        out.failures,
        out.trials,
        plain_out.failures,
        plain_est.low,
        plain_est.high,
    ));
}

/// Achieved relative standard error of a stratified outcome
/// (`√(Σ wₖ² q̂ₖ(1−q̂ₖ)/nₖ) / p̂`).
fn stratified_rel_se(out: &McOutcome) -> f64 {
    let mut rate = 0.0;
    let mut var = 0.0;
    for s in &out.strata {
        if s.trials == 0 || s.weight <= 0.0 {
            continue;
        }
        let n = s.trials as f64;
        let q = s.failures as f64 / n;
        rate += s.weight * q;
        var += s.weight * s.weight * q * (1.0 - q) / n;
    }
    if rate > 0.0 {
        var.sqrt() / rate
    } else {
        f64::INFINITY
    }
}

fn main() {
    let quick = std::env::var("RARE_EVENT_PROFILE")
        .map(|v| v == "quick")
        .unwrap_or(false);
    let mut c = Criterion::default();
    fixed_budget_timing(&mut c, quick);
    words_to_target(quick);
    level2_resolution(quick);
}
