//! `nand`: §4 footnote 4 — simulating irreversible NAND with noisy-free
//! reversible gates dissipates at least 3/2 bits per cycle, and `MAJ⁻¹`
//! achieves the optimum. Verified by exhausting all `8!` three-bit
//! reversible gates.

use crate::experiment::{Experiment, ExperimentContext};
use crate::report::{Check, Report, Table};
use rft_core::entropy::{
    nand_via_maj_inv, nand_via_toffoli, optimal_nand_dissipation, NandSimulation,
};
use serde::{Deserialize, Serialize};

/// Results of the NAND-dissipation reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NandResult {
    /// Toffoli-based simulation.
    pub toffoli: NandSimulation,
    /// MAJ⁻¹-based simulation (footnote 4).
    pub maj_inv: NandSimulation,
    /// Exhaustive optimum over all 3-bit reversible gates (bits).
    pub optimal_bits: f64,
    /// Number of optimal schemes found.
    pub optimal_schemes: usize,
}

/// Registry entry: the `nand` experiment.
pub struct NandExperiment;

impl Experiment for NandExperiment {
    fn id(&self) -> &'static str {
        "nand"
    }

    fn title(&self) -> &'static str {
        "§4 footnote 4 — 3/2-bit NAND dissipation optimum, by exhaustion"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["exact", "entropy"]
    }

    fn run(&self, _ctx: &mut ExperimentContext) -> Report {
        run().to_report()
    }
}

/// Runs the dissipation comparison and exhaustive optimality search.
pub fn run() -> NandResult {
    let (optimal_bits, optimal_schemes) = optimal_nand_dissipation();
    NandResult {
        toffoli: nand_via_toffoli(),
        maj_inv: nand_via_maj_inv(),
        optimal_bits,
        optimal_schemes,
    }
}

impl NandResult {
    /// The [`Report`] artifact: the dissipation comparison plus the
    /// footnote-4 optimality checks.
    pub fn to_report(&self) -> Report {
        let exp = &NandExperiment;
        let mut r = Report::new(exp.id(), exp.title(), exp.tags());
        let mut t = Table::new(
            "§4 footnote 4 — NAND from reversible gates: bits dissipated per cycle",
            &[
                "scheme",
                "joint reset entropy",
                "marginal sum",
                "conditional floor",
            ],
        );
        for sim in [&self.toffoli, &self.maj_inv] {
            t.row(&[
                sim.wiring.clone(),
                format!("{:.4}", sim.reset_joint_entropy),
                format!("{:.4}", sim.reset_marginal_sum),
                format!("{:.4}", sim.reset_conditional_entropy),
            ]);
        }
        r.table(t);
        r.note(format!(
            "exhaustive optimum over all 8! three-bit reversible gates: {:.4} bits \
             (paper: 3/2), achieved by {} (gate, wiring, output) schemes",
            self.optimal_bits, self.optimal_schemes
        ));
        r.check(Check::approx(
            "exhaustive optimum is 3/2 bits",
            self.optimal_bits,
            1.5,
            1e-12,
        ))
        .check(Check::approx(
            "MAJ⁻¹ wiring achieves the optimum",
            self.maj_inv.reset_joint_entropy,
            1.5,
            1e-12,
        ))
        .check(Check::bool(
            "plain Toffoli wiring dissipates more than 3/2",
            self.toffoli.reset_joint_entropy > 1.5,
        ));
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
    fn footnote_4_verifies() {
        let r = run();
        assert!(r.to_report().passed());
        assert!(r.optimal_schemes > 0);
        // The Toffoli wiring pays the full 2 bits without concentration.
        assert!((r.toffoli.reset_joint_entropy - 2.0).abs() < 1e-12);
    }

    #[test]
    fn print_renders() {
        run().print();
    }
}
