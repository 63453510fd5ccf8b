//! The reorder-aware storage format (paper §3.3, Figure 6).
//!
//! Three index levels plus the compressed values:
//!
//! * `col_idx` (top, red in Figure 6) — per `BLOCK_TILE` strip, the
//!   original column index occupying each window slot after the
//!   zero-column reorder ([`crate::reorder::PAD`] marks padding),
//! * `block_col_idx` (middle, blue) — per `MMA_TILE`, the 16
//!   window-relative source positions in reordered order,
//! * `sptc_metadata` (innermost) — the 2-bit positional metadata the
//!   SpTC consumes, packed per `mma.sp` k-step (a pair of windows) and
//!   optionally interleaved so one `ldmatrix` serves two k-steps
//!   (paper §3.4.3),
//! * `values` — the compressed nonzeros, each 16×8 block stored
//!   contiguously in Z-swizzled order.

use dlmc::Matrix;
use sptc::compress::{compress_group_2_4, GROUP, KEPT_PER_GROUP};
use sptc::metadata::{interleave_two_ops, ROWS};
use sptc::F16;

use crate::config::MMA_TILE;
use crate::reorder::{ReorderPlan, StripPlan, PAD};
use crate::swizzle::{zorder, BLOCK_ELEMS};

/// Compressed strip payload.
#[derive(Clone, Debug)]
pub struct StripFormat {
    /// First row of the strip in A.
    pub row0: usize,
    /// Strip height.
    pub height: usize,
    /// Windows (16-column groups) the strip computes.
    pub windows: usize,
    /// Top-level index: original column per window slot (`windows*16`).
    pub col_idx: Vec<u32>,
    /// Middle index: per tile `(window, tile_row)`, 16 source positions.
    pub block_col_idx: Vec<u8>,
    /// Compressed values: one Z-swizzled 128-element block per
    /// `(window, tile_row)`, window-major.
    pub values: Vec<F16>,
    /// SpTC metadata words; layout per [`JigsawFormat::interleaved`].
    pub metadata: Vec<u32>,
}

/// The full compressed matrix.
#[derive(Clone, Debug)]
pub struct JigsawFormat {
    /// Matrix height.
    pub m: usize,
    /// Matrix width (K).
    pub k: usize,
    /// `BLOCK_TILE_M` of the plan that produced this format.
    pub block_tile_m: usize,
    /// Whether metadata uses the interleaved two-op layout.
    pub interleaved: bool,
    /// Per-strip payloads.
    pub strips: Vec<StripFormat>,
}

impl JigsawFormat {
    /// Compresses `a` according to `plan`.
    ///
    /// Panics if a tile recorded in the plan no longer satisfies 2:4 —
    /// the plan and matrix must match.
    pub fn build(a: &Matrix, plan: &ReorderPlan, interleaved: bool) -> JigsawFormat {
        let strips = plan
            .strips
            .iter()
            .map(|sp| build_strip(a, sp, interleaved))
            .collect();
        JigsawFormat {
            m: plan.m,
            k: plan.k,
            block_tile_m: plan.block_tile_m,
            interleaved,
            strips,
        }
    }

    /// Number of `mma.sp` k-steps (window pairs) strip `s` runs.
    pub fn k_steps(&self, s: usize) -> usize {
        self.strips[s].windows.div_ceil(2)
    }

    /// Compressed value at `(window, tile_row, r, slot)` of strip `s`
    /// (slot 0..8 of the compressed row).
    pub fn value(&self, s: usize, window: usize, tile_row: usize, r: usize, slot: usize) -> F16 {
        let strip = &self.strips[s];
        let tile_rows = strip.height / MMA_TILE;
        let block = window * tile_rows + tile_row;
        strip.values[block * BLOCK_ELEMS + zorder(r, slot)]
    }

    /// The 16 metadata words of `mma.sp` k-step `pair` in `(strip,
    /// tile_row)`, decoding the interleave if present.
    pub fn metadata_words(&self, s: usize, tile_row: usize, pair: usize) -> [u32; ROWS] {
        let strip = &self.strips[s];
        let tile_rows = strip.height / MMA_TILE;
        let pairs = strip.windows.div_ceil(2);
        debug_assert!(pair < pairs);
        if !self.interleaved {
            let base = (tile_row * pairs + pair) * ROWS;
            let mut words = [0u32; ROWS];
            words.copy_from_slice(&strip.metadata[base..base + ROWS]);
            return words;
        }
        // Interleaved: steps are stored two at a time in 32-word blocks.
        let duo = pair / 2;
        let duos = pairs.div_ceil(2);
        debug_assert!(tile_row < tile_rows);
        let base = (tile_row * duos + duo) * 32;
        let block: [u32; 32] = strip.metadata[base..base + 32]
            .try_into()
            .expect("interleave block is 32 words");
        let (op0, op1) = sptc::metadata::deinterleave_two_ops(&block);
        if pair.is_multiple_of(2) {
            op0
        } else {
            op1
        }
    }

    /// Bytes of the format as laid out by this implementation
    /// (values f16, `col_idx` u32, `block_col_idx` u8, metadata u32).
    pub fn measured_bytes(&self) -> usize {
        self.strips
            .iter()
            .map(|s| {
                s.values.len() * 2
                    + s.col_idx.len() * 4
                    + s.block_col_idx.len()
                    + s.metadata.len() * 4
            })
            .sum()
    }

    /// The paper's §4.6 analytic footprint in bytes (which charges 4
    /// bytes per index entry and ignores the savings from deleted
    /// zero columns): `5MK/8 + 4MK/BLOCK_TILE + 4MK/MMA_TILE`.
    pub fn paper_analytic_bytes(m: usize, k: usize, block_tile: usize) -> f64 {
        let mk = (m * k) as f64;
        5.0 * mk / 8.0 + 4.0 * mk / block_tile as f64 + 4.0 * mk / MMA_TILE as f64
    }

    /// The paper's footprint as a fraction of the dense f16 matrix
    /// (`2MK` bytes): 56.25% / 50% / 46.87% for `BLOCK_TILE` 16/32/64.
    pub fn paper_analytic_fraction(block_tile: usize) -> f64 {
        // Independent of M and K.
        Self::paper_analytic_bytes(16, 16, block_tile) / (2.0 * 16.0 * 16.0)
    }
}

fn build_strip(a: &Matrix, sp: &StripPlan, interleaved: bool) -> StripFormat {
    let tile_rows = sp.tile_rows();
    let windows = sp.windows();
    let mut block_col_idx = Vec::with_capacity(windows * tile_rows * MMA_TILE);
    let mut values = Vec::with_capacity(windows * tile_rows * BLOCK_ELEMS);

    // Per-(window, tile_row): compress the reordered tile in one pass.
    // Metadata is assembled per k-step (window pair) afterwards.
    // meta_half[tile_row * windows + window][r] = 16-bit half-word of
    // row r.
    let mut meta_half = vec![[0u16; ROWS]; tile_rows * windows];

    // Iteration must stay window-major: the value layout depends on it.
    for w in 0..windows {
        let window_cols = &sp.col_order[w * MMA_TILE..(w + 1) * MMA_TILE];
        for tr in 0..tile_rows {
            let reorder = sp.tile(w, tr);
            block_col_idx.extend_from_slice(&reorder.perm);
            // Source column of each reordered position, resolved once.
            let cols = reorder.perm.map(|p| window_cols[usize::from(p)]);

            let mut block = [F16::ZERO; BLOCK_ELEMS];
            let row0 = sp.row0 + tr * MMA_TILE;
            for (r, half) in meta_half[tr * windows + w].iter_mut().enumerate() {
                // Materialize the reordered 16-element row (rows past
                // the matrix end stay zero).
                let mut row = [F16::ZERO; MMA_TILE];
                if row0 + r < a.rows {
                    let src = a.row(row0 + r);
                    for (cell, &col) in row.iter_mut().zip(&cols) {
                        if col != PAD {
                            *cell = src[col as usize];
                        }
                    }
                }
                for (g, group) in row.chunks_exact(GROUP).enumerate() {
                    let (kept, idx) = compress_group_2_4(group.try_into().expect("group of 4"))
                        .unwrap_or_else(|| {
                            panic!(
                                "plan promised 2:4 at strip row0={} window={w} tile={tr} row={r}",
                                sp.row0
                            )
                        });
                    for (k, (&v, &i)) in kept.iter().zip(&idx).enumerate() {
                        let slot = g * KEPT_PER_GROUP + k;
                        block[zorder(r, slot)] = v;
                        *half |= u16::from(i) << (2 * slot);
                    }
                }
            }
            values.extend_from_slice(&block);
        }
    }

    // Assemble per-k-step metadata words: low 16 bits = even window,
    // high 16 bits = odd window (the second half of the mma.sp K).
    let pairs = windows.div_ceil(2);
    let step_words = |tr: usize, p: usize| -> [u32; ROWS] {
        let mut words = [0u32; ROWS];
        if p >= pairs {
            return words;
        }
        let lo = &meta_half[tr * windows + 2 * p];
        let hi = (2 * p + 1 < windows).then(|| &meta_half[tr * windows + 2 * p + 1]);
        for (r, word) in words.iter_mut().enumerate() {
            *word = u32::from(lo[r]) | (hi.map_or(0, |h| u32::from(h[r])) << 16);
        }
        words
    };
    let mut metadata = Vec::new();
    for tr in 0..tile_rows {
        if interleaved {
            for duo in 0..pairs.div_ceil(2) {
                let (op0, op1) = (step_words(tr, 2 * duo), step_words(tr, 2 * duo + 1));
                metadata.extend_from_slice(&interleave_two_ops(&op0, &op1));
            }
        } else {
            for p in 0..pairs {
                metadata.extend_from_slice(&step_words(tr, p));
            }
        }
    }

    StripFormat {
        row0: sp.row0,
        height: sp.height,
        windows,
        col_idx: sp.col_order.clone(),
        block_col_idx,
        values,
        metadata,
    }
}

/// Original column feeding reordered position `pos` (0..16) of window
/// `w` in `(strip, tile_row)` — `None` for padded slots. Mirrors
/// [`StripPlan::source_column`] but reads the stored format, which is
/// what the kernel does.
pub fn format_source_column(
    f: &JigsawFormat,
    s: usize,
    window: usize,
    tile_row: usize,
    pos: usize,
) -> Option<usize> {
    let strip = &f.strips[s];
    let tile_rows = strip.height / MMA_TILE;
    let tile = window * tile_rows + tile_row;
    let src_slot = strip.block_col_idx[tile * MMA_TILE + pos] as usize;
    match strip.col_idx[window * MMA_TILE + src_slot] {
        PAD => None,
        c => Some(c as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JigsawConfig;
    use dlmc::{ValueDist, VectorSparseSpec};

    fn build(sparsity: f64, v: usize, interleaved: bool) -> (Matrix, JigsawFormat) {
        let a = VectorSparseSpec {
            rows: 64,
            cols: 128,
            sparsity,
            v,
            dist: ValueDist::SmallInt,
            seed: 21,
        }
        .generate();
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(32));
        let format = JigsawFormat::build(&a, &plan, interleaved);
        (a, format)
    }

    #[test]
    fn format_shapes_are_consistent() {
        let (_, f) = build(0.9, 4, false);
        for s in &f.strips {
            let tile_rows = s.height / MMA_TILE;
            assert_eq!(s.col_idx.len(), s.windows * MMA_TILE);
            assert_eq!(s.block_col_idx.len(), s.windows * tile_rows * MMA_TILE);
            assert_eq!(s.values.len(), s.windows * tile_rows * BLOCK_ELEMS);
            let pairs = s.windows.div_ceil(2);
            assert_eq!(s.metadata.len(), tile_rows * pairs * ROWS);
        }
    }

    #[test]
    fn interleaved_metadata_same_words() {
        let (_, plain) = build(0.9, 4, false);
        let (_, inter) = build(0.9, 4, true);
        for s in 0..plain.strips.len() {
            let tile_rows = plain.strips[s].height / MMA_TILE;
            let pairs = plain.strips[s].windows.div_ceil(2);
            for tr in 0..tile_rows {
                for p in 0..pairs {
                    assert_eq!(
                        plain.metadata_words(s, tr, p),
                        inter.metadata_words(s, tr, p),
                        "strip {s} tile {tr} pair {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn values_decompress_back_to_source() {
        // Walk every stored value through its metadata position and
        // check it matches the original matrix element.
        let (a, f) = build(0.85, 2, false);
        for (s, strip) in f.strips.iter().enumerate() {
            let tile_rows = strip.height / MMA_TILE;
            for w in 0..strip.windows {
                for tr in 0..tile_rows {
                    let words = f.metadata_words(s, tr, w / 2);
                    for (r, &word) in words.iter().enumerate().take(MMA_TILE) {
                        let idx = sptc::metadata::unpack_row_metadata(word);
                        // This window occupies the low or high 8 slots.
                        let off = (w % 2) * 8;
                        for slot in 0..8 {
                            let v = f.value(s, w, tr, r, slot);
                            let in_group = idx[off + slot] as usize;
                            let pos = (slot / 2) * 4 + in_group;
                            let expect = format_source_column(&f, s, w, tr, pos)
                                .map(|c| a.get(strip.row0 + tr * MMA_TILE + r, c))
                                .unwrap_or(F16::ZERO);
                            if !v.is_zero() {
                                assert_eq!(v, expect, "s{s} w{w} tr{tr} r{r} slot{slot}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paper_footprint_fractions() {
        assert!((JigsawFormat::paper_analytic_fraction(16) - 0.5625).abs() < 1e-9);
        assert!((JigsawFormat::paper_analytic_fraction(32) - 0.5).abs() < 1e-9);
        assert!((JigsawFormat::paper_analytic_fraction(64) - 0.46875).abs() < 1e-9);
    }

    #[test]
    fn measured_bytes_shrink_with_sparsity() {
        let (_, f95) = build(0.95, 8, true);
        let (_, f80) = build(0.80, 8, true);
        assert!(f95.measured_bytes() < f80.measured_bytes());
    }
}
