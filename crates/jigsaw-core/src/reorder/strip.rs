//! `BLOCK_TILE`-granularity column reorder (paper §3.2, Figure 5).
//!
//! For each row strip of height `BLOCK_TILE_M`, columns of A that are
//! all-zero *within the strip* move to the end and are skipped entirely
//! — the kernel never issues SpTC work for them. The surviving columns
//! are packed into 16-column `MMA_TILE` windows; each 16-row tile of a
//! window is reordered by Algorithm 1 ([`super::tile`]). When a window
//! cannot be reordered, the *reorder retry* evicts the column least
//! represented in compatible quads; evicted columns queue up and form
//! trailing windows of their own (Figure 5 (c)→(d)).

use dlmc::Matrix;

use super::tile::{
    column_compatibility_frequency, reorder_tile, ColumnMasks, TileReorder, DEFAULT_WORK_LIMIT,
    TILE,
};

/// Sentinel for a padded (all-zero) slot in a window's column order.
pub const PAD: u32 = u32::MAX;

/// Reorder result for one `BLOCK_TILE` row strip.
#[derive(Clone, Debug)]
pub struct StripPlan {
    /// First row of the strip.
    pub row0: usize,
    /// Strip height (a multiple of 16).
    pub height: usize,
    /// Original column index occupying each window slot, `windows * 16`
    /// entries; [`PAD`] marks zero-filled slots. This is the
    /// `col_idx_array` of the reorder-aware storage format.
    pub col_order: Vec<u32>,
    /// Per-tile column permutations, indexed `window * tile_rows +
    /// tile_row` — the `block_col_idx_array`.
    pub tiles: Vec<TileReorder>,
    /// Columns of A that were all-zero within the strip (skipped).
    pub zero_cols: usize,
    /// Reorder-retry evictions performed.
    pub evictions: usize,
}

impl StripPlan {
    /// Number of 16-column windows the strip computes.
    pub fn windows(&self) -> usize {
        self.col_order.len() / TILE
    }

    /// 16-row tile rows in the strip.
    pub fn tile_rows(&self) -> usize {
        self.height / TILE
    }

    /// The tile reorder for `(window, tile_row)`.
    pub fn tile(&self, window: usize, tile_row: usize) -> &TileReorder {
        &self.tiles[window * self.tile_rows() + tile_row]
    }

    /// Original column for reordered position `pos` of `(window,
    /// tile_row)`, or `None` for a padded slot.
    pub fn source_column(&self, window: usize, tile_row: usize, pos: usize) -> Option<usize> {
        let src_slot = self.tile(window, tile_row).perm[pos] as usize;
        match self.col_order[window * TILE + src_slot] {
            PAD => None,
            c => Some(c as usize),
        }
    }
}

/// Builds the column row-occupancy masks of one 16-row tile over the
/// window's slots ([`PAD`] slots stay empty; rows past the matrix end
/// count as zero).
pub(crate) fn window_masks(m: &Matrix, row0: usize, slots: &[u32]) -> ColumnMasks {
    debug_assert_eq!(slots.len(), TILE);
    let mut masks = [0u16; TILE];
    for dr in 0..TILE.min(m.rows.saturating_sub(row0)) {
        let row = m.row(row0 + dr);
        for (mask, &col) in masks.iter_mut().zip(slots) {
            if col != PAD && !row[col as usize].is_zero() {
                *mask |= 1 << dr;
            }
        }
    }
    masks
}

/// The `BLOCK_TILE` step in isolation: partitions the strip's columns
/// into the live set (in original order) and a count of all-zero
/// columns to skip. This is the first phase of [`reorder_strip`],
/// exposed so the planner can time the block reorder separately from
/// the tile reorder.
pub fn live_columns(m: &Matrix, row0: usize, height: usize) -> (Vec<u32>, usize) {
    // Row by row, so the strip is read in storage order.
    let mut live = vec![false; m.cols];
    for r in row0..(row0 + height).min(m.rows) {
        for (l, v) in live.iter_mut().zip(m.row(r)) {
            *l |= !v.is_zero();
        }
    }
    let live: Vec<u32> = (0..m.cols as u32).filter(|&c| live[c as usize]).collect();
    let zero_cols = m.cols - live.len();
    (live, zero_cols)
}

/// The `MMA_TILE` step in isolation: packs an already-partitioned live
/// column set into 16-column windows with Algorithm-1 reorder and
/// eviction retry. Second phase of [`reorder_strip`].
pub fn pack_strip(
    m: &Matrix,
    row0: usize,
    height: usize,
    bank_aware: bool,
    live: Vec<u32>,
    zero_cols: usize,
) -> StripPlan {
    assert_eq!(height % TILE, 0, "strip height must be a multiple of 16");
    let tile_rows = height / TILE;

    let mut col_order: Vec<u32> = Vec::new();
    let mut tiles: Vec<TileReorder> = Vec::new();
    let mut evictions = 0usize;

    // Process the live queue window by window; evicted columns re-queue
    // and form trailing windows.
    let mut queue = std::collections::VecDeque::from(live);
    let mut per_tile: Vec<(Option<TileReorder>, ColumnMasks)> = Vec::with_capacity(tile_rows);
    while !queue.is_empty() {
        let mut slots = [PAD; TILE];
        for slot in &mut slots {
            match queue.pop_front() {
                Some(c) => *slot = c,
                None => break,
            }
        }

        // MMA_TILE step with reorder retry.
        loop {
            per_tile.clear();
            per_tile.extend((0..tile_rows).map(|tr| {
                let masks = window_masks(m, row0 + tr * TILE, &slots);
                (reorder_tile(&masks, bank_aware, DEFAULT_WORK_LIMIT), masks)
            }));

            if per_tile.iter().all(|(t, _)| t.is_some()) {
                tiles.extend(per_tile.iter().filter_map(|(t, _)| *t));
                col_order.extend_from_slice(&slots);
                break;
            }

            // Retry: evict the column least frequent in compatible
            // quads, summed over the failing tiles (never a pad slot).
            let mut freq_total = [0u64; TILE];
            for (_, masks) in per_tile.iter().filter(|(t, _)| t.is_none()) {
                let freq = column_compatibility_frequency(masks);
                for (total, &f) in freq_total.iter_mut().zip(&freq) {
                    *total += u64::from(f);
                }
            }
            let victim = (0..TILE)
                .filter(|&s| slots[s] != PAD)
                .min_by_key(|&s| freq_total[s])
                .expect("a window that fails must contain live columns");
            let col = slots[victim];
            slots[victim] = PAD;
            queue.push_back(col);
            evictions += 1;
        }
    }

    StripPlan {
        row0,
        height,
        col_order,
        tiles,
        zero_cols,
        evictions,
    }
}

/// Reorders one row strip — the `BLOCK_TILE` zero-column split
/// ([`live_columns`]) followed by `MMA_TILE` window packing
/// ([`pack_strip`]). `bank_aware` enables the §3.4.1 preference.
pub fn reorder_strip(m: &Matrix, row0: usize, height: usize, bank_aware: bool) -> StripPlan {
    let (live, zero_cols) = live_columns(m, row0, height);
    pack_strip(m, row0, height, bank_aware, live, zero_cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmc::{ValueDist, VectorSparseSpec};
    use sptc::F16;

    fn plan_covers_all_nonzero_columns(m: &Matrix, plan: &StripPlan) {
        use std::collections::HashSet;
        let mut seen: HashSet<u32> = HashSet::new();
        for &c in &plan.col_order {
            if c != PAD {
                assert!(seen.insert(c), "column {c} appears twice");
            }
        }
        for c in 0..m.cols {
            let zero = m.column_zero_in_strip(c, plan.row0, plan.row0 + plan.height);
            assert_eq!(
                !zero,
                seen.contains(&(c as u32)),
                "column {c} coverage mismatch (zero={zero})"
            );
        }
    }

    #[test]
    fn empty_strip_has_no_windows() {
        let m = Matrix::zeros(32, 64);
        let plan = reorder_strip(&m, 0, 32, true);
        assert_eq!(plan.windows(), 0);
        assert_eq!(plan.zero_cols, 64);
        assert_eq!(plan.evictions, 0);
    }

    #[test]
    fn single_nonzero_column() {
        let mut m = Matrix::zeros(16, 64);
        m.set(3, 17, F16::ONE);
        let plan = reorder_strip(&m, 0, 16, true);
        assert_eq!(plan.windows(), 1);
        assert_eq!(plan.zero_cols, 63);
        plan_covers_all_nonzero_columns(&m, &plan);
        // The lone column sits in slot 0 of the window.
        assert_eq!(plan.col_order[0], 17);
        assert!(plan.col_order[1..].iter().all(|&c| c == PAD));
    }

    #[test]
    fn dense_strip_needs_evictions_or_full_windows() {
        // A fully dense 16x32 strip: no column is zero, every window of
        // 16 dense columns fails 2:4 (4 dense per quad) -> evictions
        // must occur, and every nonzero column must still be computed.
        let m = Matrix::from_f32(16, 32, &[1.0; 16 * 32]);
        let plan = reorder_strip(&m, 0, 16, false);
        plan_covers_all_nonzero_columns(&m, &plan);
        assert!(plan.evictions > 0);
        // Dense data blows K up: 8 live columns per window max.
        assert!(plan.windows() >= 4);
        // Every tile's perm must be a valid permutation.
        for t in &plan.tiles {
            assert!(t.is_permutation());
        }
    }

    #[test]
    fn vector_sparse_strip_reorders_cleanly() {
        let m = VectorSparseSpec {
            rows: 64,
            cols: 128,
            sparsity: 0.9,
            v: 8,
            dist: ValueDist::Uniform,
            seed: 3,
        }
        .generate();
        let plan = reorder_strip(&m, 0, 64, true);
        plan_covers_all_nonzero_columns(&m, &plan);
        assert_eq!(plan.tiles.len(), plan.windows() * plan.tile_rows());
        // At 90% sparsity with v=8 the live columns fit in far fewer
        // windows than K/16.
        assert!(plan.windows() <= 128 / 16);
    }

    #[test]
    fn multi_tile_row_strips_get_independent_perms() {
        let m = VectorSparseSpec {
            rows: 32,
            cols: 64,
            sparsity: 0.8,
            v: 2,
            dist: ValueDist::Uniform,
            seed: 7,
        }
        .generate();
        let plan = reorder_strip(&m, 0, 32, true);
        assert_eq!(plan.tile_rows(), 2);
        for w in 0..plan.windows() {
            let t0 = plan.tile(w, 0);
            let t1 = plan.tile(w, 1);
            assert!(t0.is_permutation() && t1.is_permutation());
        }
    }

    #[test]
    fn source_column_roundtrip() {
        let mut m = Matrix::zeros(16, 20);
        for c in 0..20 {
            m.set(c % 16, c, F16::ONE);
        }
        let plan = reorder_strip(&m, 0, 16, true);
        let mut recovered: Vec<usize> = Vec::new();
        for w in 0..plan.windows() {
            for pos in 0..TILE {
                if let Some(c) = plan.source_column(w, 0, pos) {
                    recovered.push(c);
                }
            }
        }
        recovered.sort_unstable();
        assert_eq!(recovered, (0..20).collect::<Vec<_>>());
    }
}
