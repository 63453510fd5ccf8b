//! Table 2: average and maximum speedup of Jigsaw over cuBLAS and the
//! SOTA SpMM implementations, per sparsity level and vector width.

use gpu_sim::GpuSpec;
use serde::{Deserialize, Serialize};

use crate::runner::{compare_all, render_table, Comparison};
use crate::suite::{workloads, Workload};

/// Methods reported in Table 2, in column order.
pub const METHODS: &[&str] = &["cuBLAS", "CLASP", "Magicube", "Sputnik", "SparTA"];

/// The paper's Table 2 reference numbers `(avg, max)` indexed by
/// `(sparsity, v, method)` — used by EXPERIMENTS.md for side-by-side
/// comparison.
// Some measured speedups happen to equal π to two decimals.
#[allow(clippy::approx_constant)]
pub const PAPER_TABLE2: &[(f64, usize, &str, f64, f64)] = &[
    (0.80, 2, "cuBLAS", 0.77, 1.27),
    (0.80, 4, "cuBLAS", 0.89, 1.34),
    (0.80, 8, "cuBLAS", 1.00, 1.67),
    (0.90, 2, "cuBLAS", 1.00, 1.58),
    (0.90, 4, "cuBLAS", 1.13, 1.95),
    (0.90, 8, "cuBLAS", 1.35, 1.85),
    (0.95, 2, "cuBLAS", 1.19, 1.73),
    (0.95, 4, "cuBLAS", 1.44, 2.83),
    (0.95, 8, "cuBLAS", 1.78, 4.12),
    (0.98, 2, "cuBLAS", 1.43, 1.89),
    (0.98, 4, "cuBLAS", 1.72, 4.14),
    (0.98, 8, "cuBLAS", 2.14, 5.45),
    (0.80, 2, "CLASP", 1.13, 1.97),
    (0.80, 4, "CLASP", 1.32, 1.90),
    (0.80, 8, "CLASP", 1.38, 1.90),
    (0.90, 2, "CLASP", 1.09, 1.53),
    (0.90, 4, "CLASP", 1.26, 1.60),
    (0.90, 8, "CLASP", 1.36, 1.89),
    (0.95, 2, "CLASP", 1.08, 1.55),
    (0.95, 4, "CLASP", 1.28, 1.62),
    (0.95, 8, "CLASP", 1.34, 1.77),
    (0.98, 2, "CLASP", 1.15, 1.69),
    (0.98, 4, "CLASP", 1.28, 1.76),
    (0.98, 8, "CLASP", 1.31, 1.85),
    (0.80, 2, "Magicube", 2.90, 6.47),
    (0.80, 4, "Magicube", 2.68, 6.25),
    (0.80, 8, "Magicube", 1.75, 2.50),
    (0.90, 2, "Magicube", 3.09, 8.62),
    (0.90, 4, "Magicube", 2.77, 6.14),
    (0.90, 8, "Magicube", 1.71, 2.44),
    (0.95, 2, "Magicube", 3.03, 7.40),
    (0.95, 4, "Magicube", 3.01, 7.08),
    (0.95, 8, "Magicube", 1.70, 2.56),
    (0.98, 2, "Magicube", 3.31, 8.77),
    (0.98, 4, "Magicube", 3.22, 8.43),
    (0.98, 8, "Magicube", 1.70, 2.82),
    (0.80, 2, "Sputnik", 1.91, 3.84),
    (0.80, 4, "Sputnik", 2.23, 4.49),
    (0.80, 8, "Sputnik", 2.71, 5.25),
    (0.90, 2, "Sputnik", 1.65, 2.43),
    (0.90, 4, "Sputnik", 1.91, 3.46),
    (0.90, 8, "Sputnik", 2.39, 4.65),
    (0.95, 2, "Sputnik", 1.46, 2.09),
    (0.95, 4, "Sputnik", 1.74, 2.60),
    (0.95, 8, "Sputnik", 2.11, 3.83),
    (0.98, 2, "Sputnik", 1.40, 1.73),
    (0.98, 4, "Sputnik", 1.60, 2.38),
    (0.98, 8, "Sputnik", 1.87, 3.68),
    (0.80, 2, "SparTA", 1.56, 3.14),
    (0.80, 4, "SparTA", 1.71, 3.16),
    (0.80, 8, "SparTA", 1.77, 2.85),
    (0.90, 2, "SparTA", 1.89, 3.15),
    (0.90, 4, "SparTA", 1.99, 2.98),
    (0.90, 8, "SparTA", 2.17, 3.09),
    (0.95, 2, "SparTA", 2.18, 3.04),
    (0.95, 4, "SparTA", 2.43, 3.16),
    (0.95, 8, "SparTA", 2.68, 3.59),
    (0.98, 2, "SparTA", 2.56, 3.46),
    (0.98, 4, "SparTA", 2.81, 3.61),
    (0.98, 8, "SparTA", 3.09, 4.46),
];

/// One Table 2 cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Sparsity level.
    pub sparsity: f64,
    /// Vector width.
    pub v: usize,
    /// Baseline name.
    pub method: String,
    /// Average speedup over the suite × N grid.
    pub avg: f64,
    /// Maximum speedup.
    pub max: f64,
}

/// Table 2 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2 {
    /// All cells.
    pub cells: Vec<Cell>,
    /// Raw per-workload comparisons (reused by Figure 10).
    pub comparisons: Vec<Comparison>,
}

/// Runs Table 2 (and gathers the data Figure 10 re-slices).
pub fn run(spec: &GpuSpec) -> Table2 {
    let jobs: Vec<(Workload, usize)> = workloads()
        .into_iter()
        .flat_map(|w| dlmc::N_SWEEP.iter().map(move |&n| (w, n)))
        .collect();
    let comparisons: Vec<Comparison> = jobs.iter().map(|(w, n)| compare_all(w, *n, spec)).collect();

    let mut cells = Vec::new();
    for &sparsity in dlmc::SPARSITY_LEVELS {
        for &v in dlmc::VECTOR_WIDTHS {
            for &method in METHODS {
                let speedups: Vec<f64> = comparisons
                    .iter()
                    .filter(|c| (c.sparsity - sparsity).abs() < 1e-9 && c.v == v)
                    .filter_map(|c| c.speedup_over(method))
                    .collect();
                if speedups.is_empty() {
                    continue;
                }
                let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
                let max = speedups.iter().copied().fold(f64::MIN, f64::max);
                cells.push(Cell {
                    sparsity,
                    v,
                    method: method.to_string(),
                    avg,
                    max,
                });
            }
        }
    }
    Table2 { cells, comparisons }
}

impl Table2 {
    /// Cell lookup.
    pub fn cell(&self, sparsity: f64, v: usize, method: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| (c.sparsity - sparsity).abs() < 1e-9 && c.v == v && c.method == method)
    }

    /// Renders the paper-style table.
    pub fn to_text(&self) -> String {
        let header: Vec<String> = ["Sparsity", "v"]
            .iter()
            .map(|s| s.to_string())
            .chain(METHODS.iter().map(|m| m.to_string()))
            .collect();
        let mut rows = Vec::new();
        for &sparsity in dlmc::SPARSITY_LEVELS {
            for &v in dlmc::VECTOR_WIDTHS {
                let mut row = vec![format!("{:.0}%", sparsity * 100.0), v.to_string()];
                for &method in METHODS {
                    match self.cell(sparsity, v, method) {
                        Some(c) => row.push(format!("{:.2}/{:.2}", c.avg, c.max)),
                        None => row.push("-".to_string()),
                    }
                }
                rows.push(row);
            }
        }
        format!(
            "Table 2 — Jigsaw speedup avg/max over each baseline\n{}",
            render_table(&header, &rows)
        )
    }
}
