//! `blowup`: §2.3 — gate and bit blow-up of concatenation, measured from
//! the compiler against the closed forms `Γ_L = (3(G−2))^L`, `S_L = 9^L`,
//! plus the paper's worked example (g = ρ/10, T = 10⁶ ⇒ L = 2, 441 gates,
//! 81 bits).

use crate::experiment::{Experiment, ExperimentContext};
use crate::report::{Check, Report, Series, Table};
use rft_core::concat::{measure_gate_cost, GateCost};
use rft_core::threshold::GateBudget;
use serde::{Deserialize, Serialize};

/// One row of the blow-up comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlowupRow {
    /// Concatenation level.
    pub level: u8,
    /// Measured ops per FT gate.
    pub measured_ops: usize,
    /// `(3(G−2))^L` with `G = 11`.
    pub formula_g11: f64,
    /// `(3(G−2))^L` with `G = 9`.
    pub formula_g9: f64,
    /// Measured wires per logical bit.
    pub measured_wires: usize,
    /// `9^L`.
    pub formula_wires: f64,
    /// Measured cycle depth.
    pub depth: usize,
}

/// Results of the §2.3 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlowupResult {
    /// Levels 0..=3 measured against the formulas.
    pub rows: Vec<BlowupRow>,
    /// Worked example: required level for T = 10⁶ at g = ρ/10 (paper: 2).
    pub worked_level: u32,
    /// Worked example gate factor (paper: 441).
    pub worked_gate_factor: f64,
    /// Worked example size factor (paper: 81).
    pub worked_size_factor: f64,
    /// Unprotected module size limit at the same g (paper: ~1000 gates).
    pub unprotected_limit: f64,
}

/// Registry entry: the `blowup` experiment.
pub struct BlowupExperiment;

impl Experiment for BlowupExperiment {
    fn id(&self) -> &'static str {
        "blowup"
    }

    fn title(&self) -> &'static str {
        "§2.3 — gate/bit blow-up of concatenation vs closed forms"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["exact", "overhead"]
    }

    fn run(&self, _ctx: &mut ExperimentContext) -> Report {
        run().to_report()
    }
}

/// Runs the blow-up measurements.
pub fn run() -> BlowupResult {
    let rows = (0..=3u8)
        .map(|level| {
            let GateCost {
                ops,
                wires_per_bit,
                depth,
                ..
            } = measure_gate_cost(level);
            BlowupRow {
                level,
                measured_ops: ops,
                formula_g11: GateBudget::NONLOCAL_WITH_INIT.gate_blowup(level as u32),
                formula_g9: GateBudget::NONLOCAL_NO_INIT.gate_blowup(level as u32),
                measured_wires: wires_per_bit,
                formula_wires: GateBudget::size_blowup(level as u32),
                depth,
            }
        })
        .collect();
    let budget = GateBudget::NONLOCAL_NO_INIT;
    let g = budget.threshold() / 10.0;
    let overhead = budget
        .module_overhead(g, 1e6)
        .expect("valid rate")
        .expect("below threshold");
    BlowupResult {
        rows,
        worked_level: overhead.level,
        worked_gate_factor: overhead.gate_factor,
        worked_size_factor: overhead.size_factor,
        unprotected_limit: 1.0 / g,
    }
}

impl BlowupResult {
    /// The [`Report`] artifact: the blow-up table, machine-readable
    /// series and worked-example checks.
    pub fn to_report(&self) -> Report {
        let exp = &BlowupExperiment;
        let mut r = Report::new(exp.id(), exp.title(), exp.tags());
        let mut t = Table::new(
            "§2.3 — circuit blow-up (measured vs closed form)",
            &[
                "L",
                "ops/gate",
                "(3·9)^L",
                "(3·7)^L",
                "wires/bit",
                "9^L",
                "depth",
            ],
        );
        for row in &self.rows {
            t.row(&[
                row.level.to_string(),
                row.measured_ops.to_string(),
                format!("{:.0}", row.formula_g11),
                format!("{:.0}", row.formula_g9),
                row.measured_wires.to_string(),
                format!("{:.0}", row.formula_wires),
                row.depth.to_string(),
            ]);
        }
        r.table(t);
        r.series(Series::new(
            "measured ops per FT gate",
            "level",
            "ops",
            self.rows
                .iter()
                .map(|row| (row.level as f64, row.measured_ops as f64))
                .collect(),
        ));
        r.series(Series::new(
            "measured wires per logical bit",
            "level",
            "wires",
            self.rows
                .iter()
                .map(|row| (row.level as f64, row.measured_wires as f64))
                .collect(),
        ));
        r.note(format!(
            "worked example (g = ρ/10, T = 10⁶): L = {} (paper 2), gate ×{:.0} (paper 441), \
             bits ×{:.0} (paper 81); unprotected limit ≈ {:.0} gates (paper ~1000)",
            self.worked_level,
            self.worked_gate_factor,
            self.worked_size_factor,
            self.unprotected_limit
        ));
        r.check(Check::eq("worked-example level", self.worked_level, 2))
            .check(Check::approx(
                "worked-example gate factor",
                self.worked_gate_factor,
                441.0,
                1e-9,
            ))
            .check(Check::approx(
                "worked-example size factor",
                self.worked_size_factor,
                81.0,
                1e-9,
            ))
            .check(Check::bool(
                "measured ops never exceed the uniform formula",
                self.rows
                    .iter()
                    .all(|row| row.measured_ops as f64 <= row.formula_g11 + 1e-9),
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
    fn worked_example_matches_paper() {
        let r = run();
        assert!(r.to_report().passed());
        assert!((r.unprotected_limit - 1080.0).abs() < 1.0);
    }

    #[test]
    fn measured_never_exceeds_uniform_formula() {
        for row in run().rows {
            assert!(
                row.measured_ops as f64 <= row.formula_g11 + 1e-9,
                "level {}: {} > {}",
                row.level,
                row.measured_ops,
                row.formula_g11
            );
            assert_eq!(row.measured_wires as f64, row.formula_wires);
        }
    }

    #[test]
    fn print_renders() {
        run().print();
    }
}
