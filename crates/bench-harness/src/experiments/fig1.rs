//! Figure 1: proportion of DLMC-style matrices that natively satisfy
//! the SpTC 2:4 pattern, per vector width, across sparsity levels.

use serde::{Deserialize, Serialize};
use sptc::compress::matrix_satisfies_2_4;

use dlmc::{ValueDist, VectorSparseSpec};

use crate::runner::render_table;
use crate::suite::shapes;

/// Sparsity axis of Figure 1.
pub const SPARSITIES: &[f64] = &[0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.98];

/// One curve point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Point {
    /// Sparsity level.
    pub sparsity: f64,
    /// Vector width.
    pub v: usize,
    /// Fraction of sampled matrices satisfying 2:4 everywhere.
    pub fraction: f64,
}

/// Figure 1 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig1 {
    /// All curve points.
    pub points: Vec<Point>,
}

/// Samples per (shape, sparsity, v) cell.
const SAMPLES: u64 = 4;

/// Runs the experiment.
pub fn run() -> Fig1 {
    let cells: Vec<(f64, usize)> = SPARSITIES
        .iter()
        .flat_map(|&s| dlmc::VECTOR_WIDTHS.iter().map(move |&v| (s, v)))
        .collect();
    let points = cells
        .iter()
        .map(|&(sparsity, v)| {
            let mut total = 0usize;
            let mut ok = 0usize;
            for shape in shapes() {
                for sample in 0..SAMPLES {
                    let m = VectorSparseSpec {
                        rows: shape.m,
                        cols: shape.k,
                        sparsity,
                        v,
                        dist: ValueDist::Ones,
                        seed: 7_000 + sample * 31 + (v as u64) * 7 + (sparsity * 100.0) as u64,
                    }
                    .generate();
                    total += 1;
                    if matrix_satisfies_2_4(&m.data, m.cols) {
                        ok += 1;
                    }
                }
            }
            Point {
                sparsity,
                v,
                fraction: ok as f64 / total as f64,
            }
        })
        .collect();
    Fig1 { points }
}

impl Fig1 {
    /// Fraction at a grid point.
    pub fn fraction(&self, sparsity: f64, v: usize) -> f64 {
        self.points
            .iter()
            .find(|p| (p.sparsity - sparsity).abs() < 1e-9 && p.v == v)
            .map(|p| p.fraction)
            .unwrap_or(f64::NAN)
    }

    /// Renders the table.
    pub fn to_text(&self) -> String {
        let header: Vec<String> = std::iter::once("sparsity".to_string())
            .chain(dlmc::VECTOR_WIDTHS.iter().map(|v| format!("v={v}")))
            .collect();
        let rows: Vec<Vec<String>> = SPARSITIES
            .iter()
            .map(|&s| {
                std::iter::once(format!("{:.0}%", s * 100.0))
                    .chain(
                        dlmc::VECTOR_WIDTHS
                            .iter()
                            .map(|&v| format!("{:.1}%", 100.0 * self.fraction(s, v))),
                    )
                    .collect()
            })
            .collect();
        format!(
            "Figure 1 — matrices natively satisfying the 2:4 SpTC pattern\n{}",
            render_table(&header, &rows)
        )
    }
}
