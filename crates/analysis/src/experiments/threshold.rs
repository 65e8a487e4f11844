//! `threshold`: §2.2 — Monte-Carlo logical error rate of the level-1 FT
//! cycle versus the analytic Equation 1 bound, and the measured
//! pseudo-threshold against the published ρ = 1/165 (with init errors) and
//! ρ = 1/108 (perfect init).
//!
//! The analytic ρ is a *lower bound* on the true threshold (the paper:
//! "the circuits and threshold values presented here represent a lower
//! bound"), so the measured crossing should sit at or above it.
//!
//! The sweep runs under [`RunConfig`]'s estimator policy (default
//! [`Estimator::Auto`](rft_revsim::engine::Estimator)): the deep points
//! `g ≪ ρ`, where almost every plain-MC trial would execute fault-free,
//! route to the fault-count-stratified rare-event estimator and resolve
//! rates far below what the raw trial budget could otherwise bracket.

use super::RunConfig;
use crate::experiment::{Experiment, ExperimentContext};
use crate::report::{rate_ci, sci, Check, Report, Series, Table};
use crate::stats::ErrorEstimate;
use crate::sweep::{find_crossing, log_grid, SweepPoint};
use rft_core::threshold::GateBudget;
use rft_revsim::gate::Gate;
use rft_revsim::noise::{SplitNoise, UniformNoise};
use rft_revsim::wire::w;
use serde::{Deserialize, Serialize};

/// One sweep point with its analytic companion values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPoint {
    /// Physical error rate.
    pub g: f64,
    /// Measured per-cycle logical error rate.
    pub logical: f64,
    /// Wilson CI of the raw estimate.
    pub estimate: ErrorEstimate,
    /// Equation 1 bound `3·C(G,2)·g²`.
    pub eq1_bound: f64,
}

/// Results for one noise accounting (with / without init errors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdSeries {
    /// Accounting name.
    pub name: String,
    /// Paper gate budget and threshold for this accounting.
    pub budget_ops: u32,
    /// The published analytic threshold.
    pub analytic_threshold: f64,
    /// Sweep points.
    pub points: Vec<ThresholdPoint>,
    /// Measured pseudo-threshold (crossing `g_logical = g`), if bracketed.
    pub measured_crossing: Option<f64>,
}

/// Results of the §2.2 threshold reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdResult {
    /// Series for G = 11 (uniform noise) and G = 9 (perfect init).
    pub series: Vec<ThresholdSeries>,
    /// Cycles per trial used to estimate per-cycle rates.
    pub cycles: usize,
}

/// Registry entry: the `threshold` experiment.
pub struct ThresholdExperiment;

impl Experiment for ThresholdExperiment {
    fn id(&self) -> &'static str {
        "threshold"
    }

    fn title(&self) -> &'static str {
        "§2.2 — measured pseudo-thresholds vs the Equation 1 bound"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["mc", "sweep", "eq1"]
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Report {
        run_ctx(ctx).to_report()
    }
}

/// Runs the threshold sweep with the given Monte-Carlo budget.
pub fn run(cfg: &RunConfig) -> ThresholdResult {
    run_ctx(&mut ExperimentContext::new(*cfg))
}

/// [`run`] on an explicit context: the level-1 program comes from the
/// shared compile cache and the two 12-point sweeps run cross-point
/// parallel under the context's scheduler.
pub fn run_ctx(ctx: &mut ExperimentContext) -> ThresholdResult {
    let cycles = 4usize;
    let gate = Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    };
    let mc = ctx.concat(1, gate, cycles);

    let make_series = |name: &str, budget: GateBudget, perfect_init: bool, seed: u64| {
        // ρ is a lower bound on the true threshold: the measured crossing
        // sits several times higher, so sweep well past ρ.
        let rho = budget.threshold();
        let grid = log_grid(rho / 8.0, rho * 16.0, 12);
        let points_raw = ctx.sweep(&grid, |g, share| {
            let opts = share.options().seed(seed).salt(g.to_bits());
            if perfect_init {
                ctx.estimate_concat(&mc, &SplitNoise::perfect_init(g), &opts)
            } else {
                ctx.estimate_concat(&mc, &UniformNoise::new(g), &opts)
            }
        });
        let points: Vec<ThresholdPoint> = points_raw
            .iter()
            .map(|p| ThresholdPoint {
                g: p.g,
                logical: p.estimate.per_cycle(cycles),
                estimate: p.estimate,
                eq1_bound: budget.logical_error_bound(p.g).expect("valid rate"),
            })
            .collect();
        // Crossing of the *per-cycle* rate with g.
        let per_cycle_points: Vec<SweepPoint> = points
            .iter()
            .map(|p| SweepPoint {
                g: p.g,
                estimate: ErrorEstimate {
                    failures: p.estimate.failures,
                    trials: p.estimate.trials,
                    rate: p.logical.max(1e-12),
                    low: p.logical,
                    high: p.logical,
                },
            })
            .collect();
        let measured_crossing = find_crossing(&per_cycle_points, |g| g);
        ThresholdSeries {
            name: name.to_string(),
            budget_ops: budget.ops(),
            analytic_threshold: rho,
            points,
            measured_crossing,
        }
    };

    let seed = ctx.cfg().seed;
    let series = vec![
        make_series(
            "uniform noise (init counted, G = 11)",
            GateBudget::NONLOCAL_WITH_INIT,
            false,
            seed,
        ),
        make_series(
            "perfect init (G = 9)",
            GateBudget::NONLOCAL_NO_INIT,
            true,
            seed ^ 0xABCD,
        ),
    ];
    ThresholdResult { series, cycles }
}

impl ThresholdResult {
    /// The [`Report`] artifact: one sweep table and logical-rate series
    /// per noise accounting, plus the crossing-above-bound checks.
    pub fn to_report(&self) -> Report {
        let exp = &ThresholdExperiment;
        let mut r = Report::new(exp.id(), exp.title(), exp.tags());
        for s in &self.series {
            let mut t = Table::new(
                format!(
                    "§2.2 threshold sweep — {} (ρ = 1/{:.0})",
                    s.name,
                    1.0 / s.analytic_threshold
                ),
                &[
                    "g",
                    "g/ρ",
                    "logical (per cycle)",
                    "raw CI",
                    "Eq.1 bound",
                    "helps?",
                ],
            );
            for p in &s.points {
                t.row(&[
                    sci(p.g),
                    format!("{:.2}", p.g / s.analytic_threshold),
                    sci(p.logical),
                    rate_ci(p.estimate.rate, p.estimate.low, p.estimate.high),
                    sci(p.eq1_bound),
                    if p.logical < p.g { "yes" } else { "no" }.to_string(),
                ]);
            }
            r.table(t);
            r.series(Series::new(
                format!("per-cycle logical rate — {}", s.name),
                "g",
                "logical error rate",
                s.points.iter().map(|p| (p.g, p.logical)).collect(),
            ));
            match s.measured_crossing {
                Some(g) => r.note(format!(
                    "{}: measured pseudo-threshold ≈ {} = 1/{:.0} (analytic lower bound 1/{:.0})",
                    s.name,
                    sci(g),
                    1.0 / g,
                    1.0 / s.analytic_threshold
                )),
                None => r.note(format!(
                    "{}: no crossing bracketed in the sweep range",
                    s.name
                )),
            };
            r.check(Check::bool(
                format!(
                    "{}: measured crossing ≥ 0.8× the analytic lower bound (MC slack)",
                    s.name
                ),
                s.measured_crossing
                    .is_some_and(|g| g >= s.analytic_threshold * 0.8),
            ));
        }
        r
    }

    /// Prints the rendered report.
    pub fn print(&self) {
        self.to_report().print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_threshold_sweep_is_sane() {
        let r = run(&RunConfig {
            trials: 1500,
            seed: 7,
            threads: 4,
            ..RunConfig::quick()
        });
        assert_eq!(r.series.len(), 2);
        for s in &r.series {
            // Error rates must be monotone-ish: last point (well above ρ)
            // worse than first point (well below ρ).
            let first = s.points.first().unwrap();
            let last = s.points.last().unwrap();
            assert!(last.logical > first.logical);
            // Below threshold the scheme helps.
            assert!(
                first.logical < first.g * 1.2,
                "{}: at g/ρ = 1/8, logical {} should be ≲ g {}",
                s.name,
                first.logical,
                first.g
            );
        }
    }

    #[test]
    fn print_renders() {
        let r = run(&RunConfig {
            trials: 500,
            seed: 3,
            threads: 2,
            ..RunConfig::quick()
        });
        r.print();
    }
}
