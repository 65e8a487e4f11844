//! Smoke tests: every experiment reproduction runs at the quick budget and
//! asserts its headline claim, so `cargo test` certifies the full
//! EXPERIMENTS.md pipeline.

use reversible_ft::analysis::experiments::{
    advantage, blowup, entropy, fig2, levelreq, local, nand, suppression, table1, table2,
    threshold, RunConfig,
};
use reversible_ft::analysis::report::Report;

fn quick() -> RunConfig {
    RunConfig {
        trials: 2_000,
        seed: 2005,
        threads: 4,
        ..RunConfig::quick()
    }
}

/// Asserts that every self-check of `report` passed, listing the failures.
fn assert_passes(report: Report) {
    assert!(report.passed(), "{:#?}", report.failed_checks());
}

#[test]
fn table1_all_checks_pass() {
    assert!(table1::run().all_ok());
}

#[test]
fn fig2_verifies_fault_tolerance_claims() {
    assert!(fig2::run().all_ok());
}

#[test]
fn threshold_sweep_brackets_and_beats_the_analytic_bound() {
    assert_passes(threshold::run(&quick()).to_report());
}

#[test]
fn suppression_below_threshold() {
    assert!(suppression::run(&quick()).below_threshold_suppression());
}

#[test]
fn blowup_worked_example() {
    assert_passes(blowup::run().to_report());
}

#[test]
fn levelreq_exponent() {
    assert_passes(levelreq::run().to_report());
}

#[test]
fn local_structure_and_ordering() {
    let r = local::run(&quick());
    assert!(r.structure_ok());
    assert!(r.mc_ordering_ok());
}

#[test]
fn table2_matches() {
    assert_passes(table2::run().to_report());
}

#[test]
fn entropy_within_bounds() {
    let r = entropy::run(&RunConfig {
        trials: 6_000,
        ..quick()
    });
    assert!(r.within_bounds());
}

#[test]
fn nand_footnote_4() {
    assert_passes(nand::run().to_report());
}

#[test]
fn advantage_window() {
    assert!(advantage::run().monotone_in_g());
}

#[test]
fn ablation_confirms_design_choices() {
    use reversible_ft::analysis::experiments::ablation;
    assert!(ablation::run(&RunConfig {
        trials: 5_000,
        ..quick()
    })
    .confirms_design());
}
