//! `table2`: §3.3 — concatenating 2D below 1D schemes. Reproduces the
//! published Table 2 column exactly and adds a semi-empirical variant using
//! the other published threshold pairings.

use crate::experiment::{Experiment, ExperimentContext};
use crate::report::{Check, Report, Series, Table};
use rft_core::mixed::{table2, table2_for, Table2Row, PAPER_TABLE_2};
use rft_core::threshold::GateBudget;
use serde::{Deserialize, Serialize};

/// Results of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// Computed rows with the paper's threshold pair (1/2109, 1/273).
    pub rows: Vec<Table2Row>,
    /// Paper's printed column for comparison.
    pub paper: Vec<(u32, u32, f64)>,
    /// Alternative pairing with initialization counted (1/2340, 1/360).
    pub with_init_rows: Vec<Table2Row>,
    /// Largest |computed − paper| over the column.
    pub max_deviation: f64,
}

/// Registry entry: the `table2` experiment.
pub struct Table2Experiment;

impl Experiment for Table2Experiment {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Table 2 — §3.3 mixed 2D-under-1D concatenation thresholds"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["exact", "locality"]
    }

    fn run(&self, _ctx: &mut ExperimentContext) -> Report {
        run().to_report()
    }
}

/// Runs the Table 2 reproduction.
pub fn run() -> Table2Result {
    let rows = table2();
    let paper: Vec<(u32, u32, f64)> = PAPER_TABLE_2.to_vec();
    let max_deviation = rows
        .iter()
        .zip(paper.iter())
        .map(|(r, &(_, _, ratio))| (r.ratio - ratio).abs())
        .fold(0.0, f64::max);
    let with_init_rows = table2_for(
        GateBudget::LOCAL_1D_WITH_INIT.threshold(),
        GateBudget::LOCAL_2D_WITH_INIT.threshold(),
        5,
    );
    Table2Result {
        rows,
        paper,
        with_init_rows,
        max_deviation,
    }
}

impl Table2Result {
    /// The [`Report`] artifact: both table variants plus the
    /// printed-precision check against the published column.
    pub fn to_report(&self) -> Report {
        let exp = &Table2Experiment;
        let mut r = Report::new(exp.id(), exp.title(), exp.tags());
        let mut t = Table::new(
            "Table 2 — ρ(k)/ρ₂ for k levels of 2D under 1D (ρ₁ = 1/2109, ρ₂ = 1/273)",
            &["k", "Width", "ρ(k)/ρ₂ computed", "paper", "ρ(k)"],
        );
        for (row, &(_, _, paper)) in self.rows.iter().zip(self.paper.iter()) {
            t.row(&[
                row.k.to_string(),
                row.width.to_string(),
                format!("{:.4}", row.ratio),
                format!("{paper:.2}"),
                format!("1/{:.0}", 1.0 / row.rho_k),
            ]);
        }
        r.table(t);
        let mut t2 = Table::new(
            "Table 2 variant — initialization counted (ρ₁ = 1/2340, ρ₂ = 1/360)",
            &["k", "Width", "ρ(k)/ρ₂", "ρ(k)"],
        );
        for row in &self.with_init_rows {
            t2.row(&[
                row.k.to_string(),
                row.width.to_string(),
                format!("{:.4}", row.ratio),
                format!("1/{:.0}", 1.0 / row.rho_k),
            ]);
        }
        r.table(t2);
        r.series(Series::new(
            "ρ(k)/ρ₂ computed",
            "k",
            "ratio",
            self.rows
                .iter()
                .map(|row| (row.k as f64, row.ratio))
                .collect(),
        ));
        r.check(Check::approx(
            "max |computed − paper| within printed precision",
            self.max_deviation,
            0.0,
            0.005,
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
    fn reproduces_table_2_exactly() {
        let r = run();
        assert!(r.to_report().passed(), "max deviation {}", r.max_deviation);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.rows[3].width, 27);
    }

    #[test]
    fn print_renders() {
        run().print();
    }
}
