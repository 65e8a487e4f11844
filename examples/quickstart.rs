//! Quickstart: encode a bit in the 3-bit repetition code, corrupt it, and
//! recover it with the paper's fault-tolerant error-recovery circuit
//! (Figure 2), measure its logical error rate through the unified engine,
//! then look at the threshold numbers that govern when this is worth
//! doing.
//!
//! Run with: `cargo run --release --example quickstart`

use reversible_ft::analysis::prelude::*;
use reversible_ft::core::prelude::*;
use reversible_ft::revsim::prelude::*;

fn main() {
    // ── 1. The reversible majority gate (Table 1) ───────────────────────
    let verification = verify_maj();
    println!("MAJ reproduces Table 1: {}", verification.matches_table_1);
    println!(
        "MAJ = 2 CNOT + Toffoli (Figure 1): {}",
        verification.decomposition_matches
    );

    // ── 2. Encode one logical bit, inject an error, recover ─────────────
    // The recovery tile is 9 wires: codeword on q0,q1,q2, ancillas q3..q8.
    let mut state = BitState::zeros(TILE_WIDTH);
    for q in DATA_IN {
        state.set(q, true); // logical 1 → codeword 111
    }
    state.flip(DATA_IN[1]); // a physical bit-flip error
    println!("\ncorrupted codeword: {state}");

    recovery_circuit().run(&mut state);
    let recovered: Vec<bool> = DATA_OUT.iter().map(|&q| state.get(q)).collect();
    println!("after recovery, output codeword (q0,q3,q6): {recovered:?}");
    assert_eq!(
        recovered,
        vec![true, true, true],
        "the error must be corrected"
    );

    // ── 3. Why it is fault tolerant: exhaustive single-fault sweep ──────
    let spec = CycleSpec::new(
        recovery_circuit(),
        vec![DATA_IN],
        vec![DATA_OUT],
        reversible_ft::revsim::permutation::Permutation::identity(1),
    );
    let sweep = spec.sweep_single_faults();
    println!(
        "\nexhaustive sweep: {} fault plans × 2 inputs, worst output error = {} bit(s), \
         fault tolerant: {}",
        sweep.plans,
        sweep.max_codeword_error,
        sweep.is_fault_tolerant()
    );

    // ── 4. Measure it: compile-once/run-many through the Engine ─────────
    // `estimate_cycle_error` compiles the cycle + noise into an Engine and
    // runs Monte-Carlo trials through the auto-selected backend (batch
    // above 256 trials). `target_rel_error` stops as soon as the 95%
    // interval's half-width is within ~20% of the estimate (a ~10%
    // relative standard error) instead of burning the whole budget.
    let g = 1.0 / 100.0;
    let opts = McOptions::new(500_000)
        .seed(2005)
        .threads(4)
        .target_rel_error(0.196);
    let est = estimate_cycle_error(&spec, &UniformNoise::new(g), &opts);
    println!(
        "\nMonte-Carlo at g = 1/100: logical error {:.2e} (95% CI {:.2e}..{:.2e}, \
         stopped after {} of 500000 trials)",
        est.rate, est.low, est.high, est.trials
    );
    println!(
        "one faulty recovery in isolation would cost ≈ g·G = {:.2e}; the cycle does better",
        g * 11.0
    );

    // ── 5. The thresholds this buys (§2.2) ──────────────────────────────
    for (name, budget) in [
        ("G = 9 (perfect init)", GateBudget::NONLOCAL_NO_INIT),
        ("G = 11 (init counted)", GateBudget::NONLOCAL_WITH_INIT),
    ] {
        println!(
            "{name}: threshold ρ = 1/{:.0}; at g = ρ/10 a gate at level 2 fails with p ≤ {:.2e}",
            1.0 / budget.threshold(),
            budget
                .error_at_level(budget.threshold() / 10.0, 2)
                .expect("valid rate"),
        );
    }
}
