//! Concatenation in action (§2.1–2.3): the same logical Toffoli compiled
//! at levels 0, 1 and 2, executed under increasing noise. Below threshold
//! each level crushes the error rate (doubly-exponentially, Eq. 2); above
//! it, encoding makes things worse — the defining signature of a
//! fault-tolerance threshold.
//!
//! Run with: `cargo run --release --example concatenation_demo`

use reversible_ft::analysis::prelude::*;
use reversible_ft::core::prelude::*;
use reversible_ft::revsim::prelude::*;

fn main() {
    let gate = Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    };
    let budget = GateBudget::NONLOCAL_WITH_INIT;
    let rho = budget.threshold();
    let cycles = 3usize;
    let trials = 40_000u64;

    println!("logical Toffoli, {cycles} consecutive FT cycles per trial, {trials} trials/point");
    println!("analytic threshold (lower bound): ρ = 1/{:.0}\n", 1.0 / rho);

    // Show the compiled sizes first (the §2.3 blow-up).
    for level in 0..=2u8 {
        let cost = measure_gate_cost(level);
        println!(
            "level {level}: {} ops per logical gate, {} wires per logical bit, depth {}",
            cost.ops, cost.wires_per_bit, cost.depth
        );
    }

    println!("\n  g/ρ     level 0     level 1     level 2     Eq.2 bound (L=2)");
    for mult in [0.1, 0.25, 0.5, 1.0, 2.0, 8.0, 16.0] {
        let g = rho * mult;
        let noise = UniformNoise::new(g);
        let mut rates = Vec::new();
        for level in 0..=2u8 {
            let mc = ConcatMc::new(level, gate, cycles);
            let t = if level == 2 { trials / 4 } else { trials };
            // One typed options value per point, run on the engine's
            // compiled word loop.
            let opts = McOptions::new(t).seed(7).salt(g.to_bits()).threads(8);
            let (est, per_cycle) = mc.estimate_per_cycle(&noise, &opts);
            let _ = est;
            rates.push(per_cycle);
        }
        let bound = budget.error_at_level(g, 2).expect("valid rate").min(1.0);
        println!(
            "  {:<7.2} {:<11.6} {:<11.6} {:<11.6} {:.2e}",
            mult, rates[0], rates[1], rates[2], bound
        );
    }

    println!(
        "\nreading the table: below ρ each level multiplies reliability; around 8–16ρ the\n\
         ordering inverts — the measured pseudo-threshold sits a few times above the\n\
         conservative analytic bound, exactly as the paper anticipates (\"the circuits …\n\
         represent a lower bound on the threshold\")."
    );
}
