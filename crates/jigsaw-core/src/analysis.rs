//! Analytical reorderability model — the closed-form counterpart of the
//! paper's §4.3 discussion, used to *predict* (without running the
//! reorder) how much a matrix will benefit from Jigsaw.
//!
//! Under the benchmark construction (§4.1: independent vertical vectors
//! of width `v` at element sparsity `s`), a column of a `BLOCK_TILE`-row
//! strip is all-zero with probability `s^(BLOCK_TILE / v)`, so the
//! expected computed-K fraction and the two trends of Figure 11 —
//! larger `v` helps, larger `BLOCK_TILE` hurts — fall out analytically.
//! The empirical functions cross-check the model against a real matrix.

use dlmc::Matrix;
use serde::{Deserialize, Serialize};

use crate::config::MMA_TILE;
use crate::reorder::live_columns;

/// Predicted reorder behaviour for one parameter point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReorderForecast {
    /// Element sparsity assumed.
    pub sparsity: f64,
    /// Vector width assumed.
    pub v: usize,
    /// `BLOCK_TILE_M` assumed.
    pub block_tile: usize,
    /// Probability a column is all-zero within one strip.
    pub p_zero_column: f64,
    /// Expected fraction of the dense K each strip computes
    /// (live columns, before 2:4 packing effects).
    pub expected_k_fraction: f64,
    /// Expected nonzeros per live column per 16-row tile — the signal
    /// for how hard Algorithm 1 has to work (≤ 2 per aligned quad row
    /// is the feasibility territory).
    pub live_column_density: f64,
}

/// Closed-form forecast under the independent-vector model.
pub fn forecast(sparsity: f64, v: usize, block_tile: usize) -> ReorderForecast {
    assert!((0.0..=1.0).contains(&sparsity));
    assert!(v >= 1 && block_tile >= MMA_TILE);
    let lanes_per_strip = (block_tile as f64 / v as f64).max(1.0);
    let p_zero_column = sparsity.powf(lanes_per_strip);
    let expected_k_fraction = 1.0 - p_zero_column;
    // Among live columns: lane cells are nonzero with conditional
    // density (1-s) / (1 - s^lanes) per lane; scale to per-16-row-tile
    // occupied rows.
    let lanes_per_tile = (MMA_TILE as f64 / v as f64).max(1.0);
    let cell_density = (1.0 - sparsity) / (1.0 - p_zero_column).max(f64::EPSILON);
    let live_column_density = (cell_density * lanes_per_tile).min(lanes_per_tile);
    ReorderForecast {
        sparsity,
        v,
        block_tile,
        p_zero_column,
        expected_k_fraction,
        live_column_density,
    }
}

/// Empirical strip statistics of a real matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StripCensus {
    /// `BLOCK_TILE_M` used for the census.
    pub block_tile: usize,
    /// Fraction of (strip, column) pairs that are all-zero.
    pub zero_column_fraction: f64,
    /// Mean live columns per strip.
    pub mean_live_columns: f64,
    /// Largest live-column count over strips (the K the worst strip
    /// must cover).
    pub max_live_columns: usize,
    /// Coefficient of variation of live columns across strips — load
    /// imbalance the kernel's heterogeneous blocks inherit.
    pub live_column_cv: f64,
}

/// Measures the strip-level census of `a`.
pub fn strip_census(a: &Matrix, block_tile: usize) -> StripCensus {
    assert!(block_tile >= 1);
    let mut live_counts = Vec::new();
    for row0 in (0..a.rows).step_by(block_tile) {
        let h = block_tile.min(a.rows - row0);
        live_counts.push(live_columns(a, row0, h).0.len());
    }
    let strips = live_counts.len().max(1) as f64;
    let mean = live_counts.iter().sum::<usize>() as f64 / strips;
    let var = live_counts
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / strips;
    let max = live_counts.iter().copied().max().unwrap_or(0);
    StripCensus {
        block_tile,
        zero_column_fraction: 1.0 - mean / a.cols.max(1) as f64,
        mean_live_columns: mean,
        max_live_columns: max,
        live_column_cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

/// Quick decision aid: forecast whether Jigsaw is expected to beat a
/// dense kernel on this matrix (the ×2 SpTC throughput must outweigh
/// the computed-K fraction; below the break-even, §4.7's hybrid or a
/// dense kernel is the better choice).
pub fn jigsaw_expected_win(a: &Matrix, v_hint: usize, block_tile: usize) -> bool {
    let census = strip_census(a, block_tile);
    // Effective work fraction ~ live columns / K, halved by the SpTC.
    let work = census.mean_live_columns / a.cols.max(1) as f64;
    let _ = v_hint;
    work / 2.0 < 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::ReorderPlan;
    use crate::JigsawConfig;
    use dlmc::{ValueDist, VectorSparseSpec};

    #[test]
    fn forecast_matches_theory_points() {
        // s = 0.9, v = 8, BT = 16: p_zero = 0.9^2 = 0.81.
        let f = forecast(0.9, 8, 16);
        assert!((f.p_zero_column - 0.81).abs() < 1e-12);
        assert!((f.expected_k_fraction - 0.19).abs() < 1e-12);
        // v = 2: p_zero = 0.9^8 ≈ 0.430.
        let f2 = forecast(0.9, 2, 16);
        assert!((f2.p_zero_column - 0.9f64.powi(8)).abs() < 1e-12);
        // Larger BLOCK_TILE -> fewer zero columns.
        assert!(forecast(0.9, 8, 64).p_zero_column < f.p_zero_column);
    }

    #[test]
    fn forecast_agrees_with_generated_matrices() {
        for &(s, v, bt) in &[(0.9, 4usize, 32usize), (0.95, 8, 16), (0.8, 2, 64)] {
            let a = VectorSparseSpec {
                rows: 512,
                cols: 512,
                sparsity: s,
                v,
                dist: ValueDist::Ones,
                seed: 64,
            }
            .generate();
            let predicted = forecast(s, v, bt).p_zero_column;
            let measured = strip_census(&a, bt).zero_column_fraction;
            assert!(
                (predicted - measured).abs() < 0.05,
                "s={s} v={v} bt={bt}: predicted {predicted}, measured {measured}"
            );
        }
    }

    #[test]
    fn forecast_tracks_actual_reorder_k_fraction() {
        let (s, v, bt) = (0.95, 8usize, 32usize);
        let a = VectorSparseSpec {
            rows: 512,
            cols: 512,
            sparsity: s,
            v,
            dist: ValueDist::Ones,
            seed: 65,
        }
        .generate();
        let predicted = forecast(s, v, bt).expected_k_fraction;
        let actual = ReorderPlan::build(&a, &JigsawConfig::v4(bt))
            .stats()
            .avg_k_fraction;
        // Window quantization adds a bit; the forecast is a lower bound
        // within ~25%.
        assert!(
            actual >= predicted * 0.9 && actual <= predicted * 1.4,
            "predicted {predicted}, actual {actual}"
        );
    }

    #[test]
    fn census_detects_imbalance() {
        // One heavy strip among empties.
        let mut a = dlmc::Matrix::zeros(128, 64);
        for c in 0..64 {
            a.set(5, c, sptc::F16::ONE);
        }
        let census = strip_census(&a, 32);
        assert!(census.live_column_cv > 1.0);
        assert_eq!(census.max_live_columns, 64);
    }

    #[test]
    fn win_predictor_flips_with_sparsity() {
        let dense = VectorSparseSpec::new(128, 128, 0.3, 4, 1).generate();
        let sparse = VectorSparseSpec::new(128, 128, 0.95, 4, 1).generate();
        assert!(!jigsaw_expected_win(&dense, 4, 32));
        assert!(jigsaw_expected_win(&sparse, 4, 32));
    }
}
