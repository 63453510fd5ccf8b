//! Functional execution of the Jigsaw SpMM from the compressed format.
//!
//! Two paths compute `C = A × B` out of a [`JigsawFormat`]:
//!
//! * [`execute_fast`] — scalar walk over the compressed values and
//!   metadata; validates the format's indices end-to-end at a speed
//!   usable on large matrices,
//! * [`execute_via_fragments`] — the full warp data path: Z-swizzled
//!   values into A fragments, metadata words through the F-selector,
//!   B gathered per `block_col_idx`, executed by
//!   [`sptc::mma_sp_m16n8k32`] exactly as the hardware would.
//!
//! Both must agree with the dense reference (and do, bit-exactly, for
//! integer-valued inputs).
//!
//! [`execute_fast`] is also the **differential oracle** of the
//! compiled microkernel family ([`crate::compiled::dispatch`]): the
//! `scalar` variant must match it bit-for-bit on every input, and every
//! fused variant must match `scalar` bit-for-bit, as the
//! `kernel_parity` cross-ISA test suite checks.

use dlmc::Matrix;
use sptc::fragment::{AccFragment, F16Fragment, FragKind};
use sptc::metadata::distribute_metadata;
use sptc::F16;

use crate::config::{MMA_N, MMA_TILE};
use crate::format::{format_source_column, JigsawFormat};

/// Scalar execution from the compressed format.
pub fn execute_fast(f: &JigsawFormat, b: &Matrix) -> Vec<f32> {
    assert_eq!(f.k, b.rows, "A columns must match B rows");
    let n = b.cols;
    let mut c = vec![0.0f32; f.m * n];

    // Convert B once up front: F16→f32 widening is exact, so hoisting
    // it out of the per-nonzero loop cannot change any result bit.
    let bf: Vec<f32> = b.data.iter().map(|v| v.to_f32()).collect();

    // Strips own consecutive, disjoint row ranges of C.
    let mut rest = c.as_mut_slice();
    for (si, strip) in f.strips.iter().enumerate() {
        debug_assert_eq!(strip.row0 * n + rest.len(), f.m * n);
        let (c_strip, tail) = rest.split_at_mut(strip.height * n);
        rest = tail;
        let tile_rows = strip.height / MMA_TILE;
        for tr in 0..tile_rows {
            for w in 0..strip.windows {
                let words = f.metadata_words(si, tr, w / 2);
                let off = (w % 2) * 8;
                for r in 0..MMA_TILE {
                    let idx = sptc::metadata::unpack_row_metadata(words[r]);
                    let c_row = &mut c_strip[(tr * MMA_TILE + r) * n..][..n];
                    for slot in 0..8 {
                        let v = f.value(si, w, tr, r, slot);
                        if v.is_zero() {
                            continue;
                        }
                        let pos = (slot / 2) * 4 + idx[off + slot] as usize;
                        let Some(col) = format_source_column(f, si, w, tr, pos) else {
                            continue;
                        };
                        let vf = v.to_f32();
                        let b_row = &bf[col * n..][..n];
                        for (acc, &bv) in c_row.iter_mut().zip(b_row) {
                            *acc += vf * bv;
                        }
                    }
                }
            }
        }
    }
    c
}

/// Full-fidelity execution through the SpTC fragment emulation.
///
/// Considerably slower than [`execute_fast`]; intended for small and
/// medium shapes in tests and examples.
pub fn execute_via_fragments(f: &JigsawFormat, b: &Matrix) -> Vec<f32> {
    assert_eq!(f.k, b.rows);
    let n = b.cols;
    let n_tiles = n.div_ceil(MMA_N);
    let mut c = vec![0.0f32; f.m * n];

    for (si, strip) in f.strips.iter().enumerate() {
        let tile_rows = strip.height / MMA_TILE;
        let pairs = strip.windows.div_ceil(2);
        for tr in 0..tile_rows {
            for nt in 0..n_tiles {
                let mut acc = AccFragment::zero();
                for p in 0..pairs {
                    // A fragment: compressed 16x16 = the two windows'
                    // 16x8 blocks side by side.
                    let mut a_tile = vec![F16::ZERO; MMA_TILE * 16];
                    for r in 0..MMA_TILE {
                        for slot in 0..8 {
                            a_tile[r * 16 + slot] = f.value(si, 2 * p, tr, r, slot);
                            if 2 * p + 1 < strip.windows {
                                a_tile[r * 16 + 8 + slot] = f.value(si, 2 * p + 1, tr, r, slot);
                            }
                        }
                    }
                    // B tile 32x8 gathered through the index arrays.
                    let mut b_tile = vec![F16::ZERO; 32 * MMA_N];
                    for i in 0..32 {
                        let w = 2 * p + i / MMA_TILE;
                        if w >= strip.windows {
                            break;
                        }
                        let pos = i % MMA_TILE;
                        let Some(col) = format_source_column(f, si, w, tr, pos) else {
                            continue;
                        };
                        for j in 0..MMA_N {
                            let cc = nt * MMA_N + j;
                            if cc < n {
                                b_tile[i * MMA_N + j] = b.get(col, cc);
                            }
                        }
                    }
                    let words = f.metadata_words(si, tr, p);
                    let selector = (p % 2) as u8;
                    let meta = distribute_metadata(&words, selector);
                    let a_frag = F16Fragment::load(FragKind::A16x16, &a_tile);
                    let b_frag = F16Fragment::load(FragKind::B32x8, &b_tile);
                    acc = sptc::mma_sp_m16n8k32(&a_frag, &b_frag, &acc, &meta, selector);
                }
                // Write the 16x8 tile back.
                let tile = acc.store();
                for r in 0..MMA_TILE {
                    for j in 0..MMA_N {
                        let cc = nt * MMA_N + j;
                        if cc < n {
                            c[(strip.row0 + tr * MMA_TILE + r) * n + cc] = tile[r * MMA_N + j];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Relative-tolerance comparison for float outputs from different
/// accumulation orders.
pub fn max_relative_error(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let denom = x.abs().max(y.abs()).max(1.0);
            f64::from((x - y).abs()) / f64::from(denom)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JigsawConfig;
    use crate::reorder::ReorderPlan;
    use dlmc::{dense_rhs, ValueDist, VectorSparseSpec};

    fn setup(
        rows: usize,
        cols: usize,
        n: usize,
        sparsity: f64,
        v: usize,
        bt: usize,
        seed: u64,
    ) -> (Matrix, Matrix, JigsawFormat) {
        let a = VectorSparseSpec {
            rows,
            cols,
            sparsity,
            v,
            dist: ValueDist::SmallInt,
            seed,
        }
        .generate();
        let b = dense_rhs(cols, n, ValueDist::SmallInt, seed + 1);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(bt));
        let format = JigsawFormat::build(&a, &plan, true);
        (a, b, format)
    }

    #[test]
    fn fast_matches_reference_exactly_on_integers() {
        for (bt, v, s) in [(16, 2, 0.8), (32, 4, 0.9), (64, 8, 0.95)] {
            let (a, b, f) = setup(64, 96, 24, s, v, bt, 5);
            let expect = a.matmul_reference(&b);
            let got = execute_fast(&f, &b);
            assert_eq!(got, expect, "bt={bt} v={v} s={s}");
        }
    }

    #[test]
    fn fragments_match_reference_exactly_on_integers() {
        let (a, b, f) = setup(32, 64, 16, 0.9, 4, 32, 9);
        let expect = a.matmul_reference(&b);
        let got = execute_via_fragments(&f, &b);
        assert_eq!(got, expect);
    }

    #[test]
    fn fragments_match_fast_on_both_metadata_layouts() {
        let a = VectorSparseSpec {
            rows: 48,
            cols: 80,
            sparsity: 0.85,
            v: 2,
            dist: ValueDist::SmallInt,
            seed: 4,
        }
        .generate();
        let b = dense_rhs(80, 8, ValueDist::SmallInt, 44);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
        for interleaved in [false, true] {
            let f = JigsawFormat::build(&a, &plan, interleaved);
            assert_eq!(
                execute_via_fragments(&f, &b),
                execute_fast(&f, &b),
                "interleaved={interleaved}"
            );
        }
    }

    #[test]
    fn dense_input_still_computes_correctly() {
        // Even when reorder "fails" (K grows), the result must be right.
        let a = Matrix::from_f32(
            16,
            32,
            &(0..512).map(|i| ((i % 5) as f32) - 2.0).collect::<Vec<_>>(),
        );
        let b = dense_rhs(32, 8, ValueDist::SmallInt, 7);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(16));
        let f = JigsawFormat::build(&a, &plan, true);
        assert_eq!(execute_fast(&f, &b), a.matmul_reference(&b));
    }

    #[test]
    fn uniform_values_within_tolerance() {
        let a = VectorSparseSpec {
            rows: 64,
            cols: 64,
            sparsity: 0.9,
            v: 4,
            dist: ValueDist::Uniform,
            seed: 12,
        }
        .generate();
        let b = dense_rhs(64, 16, ValueDist::Uniform, 13);
        let plan = ReorderPlan::build(&a, &JigsawConfig::v4(64));
        let f = JigsawFormat::build(&a, &plan, true);
        let err = max_relative_error(&execute_fast(&f, &b), &a.matmul_reference(&b));
        assert!(err < 1e-5, "relative error {err}");
    }

    #[test]
    fn odd_n_padding() {
        let (a, b, f) = setup(32, 32, 13, 0.9, 2, 32, 3);
        assert_eq!(execute_via_fragments(&f, &b), a.matmul_reference(&b));
    }
}
