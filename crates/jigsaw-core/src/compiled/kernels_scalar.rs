//! The scalar microkernel — the semantic reference every other variant
//! in the dispatch registry is measured against. It applies a
//! vector-row group row by row, each row in its own stream order.

use super::dispatch::{assert_group_args, GroupC};

/// Scalar microkernel: row by row, four nonzeros per pass over the C
/// segment (quartering C traffic), products applied as sequential f32
/// adds so each row is bit-identical to the one-at-a-time order — and
/// therefore to `execute_fast`, the differential oracle.
pub fn axpy_group_scalar(mut c: GroupC<'_>, vals: &[f32], cols: &[u32], slab: &[f32]) {
    assert_group_args(&c, vals, cols, slab);
    let (h, w) = (c.rows(), c.width());
    let nnz = cols.len();
    for r in 0..h {
        let c_row = c.row(r);
        let v = |i: usize| vals[i * h + r];
        let mut i = 0;
        while i + 4 <= nnz {
            let b0 = &slab[cols[i] as usize * w..][..w];
            let b1 = &slab[cols[i + 1] as usize * w..][..w];
            let b2 = &slab[cols[i + 2] as usize * w..][..w];
            let b3 = &slab[cols[i + 3] as usize * w..][..w];
            let (v0, v1, v2, v3) = (v(i), v(i + 1), v(i + 2), v(i + 3));
            for (j, cj) in c_row.iter_mut().enumerate() {
                let mut acc = *cj;
                acc += v0 * b0[j];
                acc += v1 * b1[j];
                acc += v2 * b2[j];
                acc += v3 * b3[j];
                *cj = acc;
            }
            i += 4;
        }
        while i < nnz {
            let bi = &slab[cols[i] as usize * w..][..w];
            let vi = v(i);
            for (cj, &bj) in c_row.iter_mut().zip(bi) {
                *cj += vi * bj;
            }
            i += 1;
        }
    }
}
