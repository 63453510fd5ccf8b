//! Figure 11: proportion of matrices supporting the SpTC pattern after
//! the multi-granularity sparsity reorder, per `BLOCK_TILE` and vector
//! width across sparsity levels (paper §4.3).

use jigsaw_core::{JigsawConfig, ReorderPlan};
use serde::{Deserialize, Serialize};

use dlmc::{ValueDist, VectorSparseSpec};

use crate::runner::render_table;
use crate::suite::full_suite;

/// Sparsity axis (the paper's 80–98% random-pruning range).
pub const SPARSITIES: &[f64] = &[0.80, 0.85, 0.90, 0.95, 0.98];

/// One measured point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Point {
    /// Sparsity level.
    pub sparsity: f64,
    /// Vector width.
    pub v: usize,
    /// `BLOCK_TILE_M` granularity.
    pub block_tile: usize,
    /// Fraction of matrices reordered successfully (K did not grow).
    pub success_rate: f64,
    /// Mean evictions per successful matrix (retry pressure).
    pub avg_evictions: f64,
    /// Mean fraction of the dense K actually computed.
    pub avg_k_fraction: f64,
}

/// Figure 11 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig11 {
    /// All points.
    pub points: Vec<Point>,
}

/// Shapes for the reorder study: the DLMC K range including the small-K
/// failure cases §4.3 highlights.
fn study_shapes() -> &'static [dlmc::LayerShape] {
    if full_suite() {
        dlmc::REORDER_STUDY_SHAPES
    } else {
        &dlmc::REORDER_STUDY_SHAPES[..5]
    }
}

/// Samples per cell.
const SAMPLES: u64 = 3;

/// Runs the experiment.
pub fn run() -> Fig11 {
    let cells: Vec<(f64, usize, usize)> = SPARSITIES
        .iter()
        .flat_map(|&s| {
            dlmc::VECTOR_WIDTHS.iter().flat_map(move |&v| {
                JigsawConfig::BLOCK_TILE_CANDIDATES
                    .iter()
                    .map(move |&bt| (s, v, bt))
            })
        })
        .collect();
    let points: Vec<Point> = cells
        .iter()
        .map(|&(sparsity, v, block_tile)| {
            let mut successes = 0usize;
            let mut total = 0usize;
            let mut evictions = 0usize;
            let mut k_fraction = 0.0f64;
            for shape in study_shapes() {
                for sample in 0..SAMPLES {
                    let a = VectorSparseSpec {
                        rows: shape.m,
                        cols: shape.k,
                        sparsity,
                        v,
                        dist: ValueDist::Ones,
                        seed: 9_000
                            + sample * 131
                            + (v as u64) * 17
                            + block_tile as u64
                            + (sparsity * 1000.0) as u64,
                    }
                    .generate();
                    let stats = ReorderPlan::build(&a, &JigsawConfig::v4(block_tile)).stats();
                    total += 1;
                    if stats.success {
                        successes += 1;
                    }
                    evictions += stats.evictions;
                    k_fraction += stats.avg_k_fraction;
                }
            }
            Point {
                sparsity,
                v,
                block_tile,
                success_rate: successes as f64 / total as f64,
                avg_evictions: evictions as f64 / total as f64,
                avg_k_fraction: k_fraction / total as f64,
            }
        })
        .collect();
    Fig11 { points }
}

impl Fig11 {
    /// Point lookup.
    pub fn point(&self, sparsity: f64, v: usize, bt: usize) -> Option<&Point> {
        self.points
            .iter()
            .find(|p| (p.sparsity - sparsity).abs() < 1e-9 && p.v == v && p.block_tile == bt)
    }

    /// Renders the table.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "Figure 11 — reorder success rate (and computed K fraction) after \
             multi-granularity sparsity reorder\n",
        );
        for &bt in &JigsawConfig::BLOCK_TILE_CANDIDATES {
            out.push_str(&format!("\n[BLOCK_TILE = {bt}]\n"));
            let header: Vec<String> = std::iter::once("sparsity".to_string())
                .chain(dlmc::VECTOR_WIDTHS.iter().map(|v| format!("v={v}")))
                .collect();
            let rows: Vec<Vec<String>> =
                SPARSITIES
                    .iter()
                    .map(|&s| {
                        std::iter::once(format!("{:.0}%", s * 100.0))
                            .chain(dlmc::VECTOR_WIDTHS.iter().map(
                                |&v| match self.point(s, v, bt) {
                                    Some(p) => format!(
                                        "{:.0}% (K×{:.2})",
                                        100.0 * p.success_rate,
                                        p.avg_k_fraction
                                    ),
                                    None => "-".to_string(),
                                },
                            ))
                            .collect()
                    })
                    .collect();
            out.push_str(&render_table(&header, &rows));
        }
        out
    }
}
