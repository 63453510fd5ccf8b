//! Multi-granularity sparsity reorder (paper §3.2): the `BLOCK_TILE`
//! zero-column extraction composed with the `MMA_TILE` Algorithm-1
//! reorder, applied strip-by-strip over the whole matrix.

pub mod strip;
pub mod tile;

use dlmc::Matrix;
use serde::{Deserialize, Serialize};

pub use strip::{live_columns, pack_strip, reorder_strip, StripPlan, PAD};
pub use tile::{
    quad_compatible, reorder_tile, reorder_tile_bidirectional, tile_satisfies_in_place,
    ColumnMasks, TileReorder, TILE,
};

use crate::config::JigsawConfig;

/// The reorder decisions for a whole matrix: one [`StripPlan`] per
/// `BLOCK_TILE_M` row strip.
#[derive(Clone, Debug)]
pub struct ReorderPlan {
    /// Matrix height.
    pub m: usize,
    /// Matrix width (the reduction dimension K).
    pub k: usize,
    /// `BLOCK_TILE_M` used.
    pub block_tile_m: usize,
    /// Per-strip plans, in row order.
    pub strips: Vec<StripPlan>,
}

/// Aggregate statistics of a reorder (drives Figure 11).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReorderStats {
    /// Paper §4.3 success: the reordered data satisfies 2:4 while
    /// keeping every strip's K no bigger than the original (no severe
    /// reorder retry).
    pub success: bool,
    /// Total 16-column windows across strips (the SpTC work quantum).
    pub total_windows: usize,
    /// Windows the unreordered matrix would need (`ceil(K/16)` per
    /// strip) — the dense-K baseline.
    pub baseline_windows: usize,
    /// All-zero columns skipped, summed over strips.
    pub zero_cols_skipped: usize,
    /// Reorder-retry evictions, summed over strips.
    pub evictions: usize,
    /// Fraction of K each strip computes, averaged (lower = more
    /// compute skipped).
    pub avg_k_fraction: f64,
}

impl ReorderPlan {
    /// Reorders `a` at the granularity `config` selects.
    ///
    /// Precondition: `a.rows` is a multiple of `MMA_TILE` (16) —
    /// [`crate::JigsawSpmm::plan`] checks this and returns
    /// `PlanError::RowsNotTileAligned` before reaching here.
    pub fn build(a: &Matrix, config: &JigsawConfig) -> ReorderPlan {
        Self::build_traced(a, config, &jigsaw_obs::Span::disabled())
    }

    /// [`ReorderPlan::build`] with per-phase spans attached to
    /// `parent`: a `plan.block_reorder` child covering the zero-column
    /// split of every strip and a `plan.tile_reorder` child covering
    /// the window packing + Algorithm-1 reorder.
    pub fn build_traced(
        a: &Matrix,
        config: &JigsawConfig,
        parent: &jigsaw_obs::Span,
    ) -> ReorderPlan {
        assert_eq!(
            a.rows % TILE,
            0,
            "matrix rows must be a multiple of MMA_TILE (16)"
        );
        let bt = config.block_tile_m;
        let bank_aware = config.bank_conflict_elimination;
        let strip_starts: Vec<usize> = (0..a.rows).step_by(bt).collect();

        // BLOCK_TILE phase: zero-column split, one pass over strips.
        let block_span = parent.child("plan.block_reorder");
        let live_sets: Vec<(usize, Vec<u32>, usize)> = strip_starts
            .iter()
            .map(|&row0| {
                let height = bt.min(a.rows - row0);
                let (live, zero_cols) = strip::live_columns(a, row0, height);
                (row0, live, zero_cols)
            })
            .collect();
        if block_span.is_recording() {
            block_span.attr("strips", strip_starts.len());
            block_span.attr(
                "zero_cols",
                live_sets.iter().map(|(_, _, z)| *z).sum::<usize>(),
            );
        }
        block_span.finish();

        // MMA_TILE phase: window packing with eviction retry.
        let tile_span = parent.child("plan.tile_reorder");
        let strips: Vec<StripPlan> = live_sets
            .into_iter()
            .map(|(row0, live, zero_cols)| {
                let height = bt.min(a.rows - row0);
                strip::pack_strip(a, row0, height, bank_aware, live, zero_cols)
            })
            .collect();
        if tile_span.is_recording() {
            tile_span.attr(
                "evictions",
                strips.iter().map(|s| s.evictions).sum::<usize>(),
            );
            tile_span.attr("windows", strips.iter().map(|s| s.windows()).sum::<usize>());
        }
        tile_span.finish();

        ReorderPlan {
            m: a.rows,
            k: a.cols,
            block_tile_m: bt,
            strips,
        }
    }

    /// Windows per strip the *unreordered* matrix needs.
    pub fn baseline_windows_per_strip(&self) -> usize {
        self.k.div_ceil(TILE)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ReorderStats {
        let per_strip_budget = self.baseline_windows_per_strip();
        let total_windows: usize = self.strips.iter().map(|s| s.windows()).sum();
        let baseline_windows = per_strip_budget * self.strips.len();
        let success = self.strips.iter().all(|s| s.windows() <= per_strip_budget);
        let zero_cols_skipped = self.strips.iter().map(|s| s.zero_cols).sum();
        let evictions = self.strips.iter().map(|s| s.evictions).sum();
        let avg_k_fraction = if baseline_windows == 0 {
            0.0
        } else {
            total_windows as f64 / baseline_windows as f64
        };
        ReorderStats {
            success,
            total_windows,
            baseline_windows,
            zero_cols_skipped,
            evictions,
            avg_k_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmc::{ValueDist, VectorSparseSpec};

    fn gen(rows: usize, cols: usize, sparsity: f64, v: usize, seed: u64) -> Matrix {
        VectorSparseSpec {
            rows,
            cols,
            sparsity,
            v,
            dist: ValueDist::Uniform,
            seed,
        }
        .generate()
    }

    #[test]
    fn plan_counts_strips() {
        let a = gen(128, 128, 0.9, 4, 1);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(32));
        assert_eq!(plan.strips.len(), 4);
        for s in &plan.strips {
            assert_eq!(s.height, 32);
        }
    }

    #[test]
    fn high_sparsity_wide_vectors_succeed_and_skip_work() {
        let a = gen(256, 512, 0.95, 8, 2);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
        let stats = plan.stats();
        assert!(stats.success);
        assert!(stats.avg_k_fraction < 0.5, "{}", stats.avg_k_fraction);
        assert!(stats.zero_cols_skipped > 0);
    }

    #[test]
    fn dense_matrix_fails_success_criterion() {
        // Fully dense: live columns can only pack 8 per window -> K
        // doubles -> "failure" by the paper's definition.
        let a = Matrix::from_f32(32, 64, &[1.0; 32 * 64]);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(32));
        let stats = plan.stats();
        assert!(!stats.success);
        assert!(stats.avg_k_fraction > 1.0);
    }

    #[test]
    fn smaller_block_tile_skips_more_at_low_sparsity() {
        // Paper §4.3: at 80% sparsity the success rate (and zero-column
        // yield) drops as BLOCK_TILE grows.
        let a = gen(512, 256, 0.8, 8, 3);
        let f16 = ReorderPlan::build(&a, &JigsawConfig::v4(16)).stats();
        let f64_ = ReorderPlan::build(&a, &JigsawConfig::v4(64)).stats();
        assert!(
            f16.avg_k_fraction <= f64_.avg_k_fraction,
            "BT16 {} vs BT64 {}",
            f16.avg_k_fraction,
            f64_.avg_k_fraction
        );
    }

    #[test]
    fn stats_baseline_windows() {
        let a = gen(64, 160, 0.9, 2, 4);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(64));
        assert_eq!(plan.baseline_windows_per_strip(), 10);
        assert_eq!(plan.stats().baseline_windows, 10);
    }
}
