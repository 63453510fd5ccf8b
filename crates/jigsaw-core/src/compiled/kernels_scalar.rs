//! The scalar microkernel — the semantic reference every other variant
//! in the dispatch registry is measured against. It applies a
//! vector-row group row by row, each row in its own stream order.

use super::dispatch::{assert_group_args, Group, Slab};

/// Scalar microkernel: the two groups one after the other. Safe on any
/// input: every B access is a bounds-checked slice.
pub fn axpy_group_scalar(first: Group<'_>, second: Option<Group<'_>>, slab: Slab<'_>) {
    for g in std::iter::once(first).chain(second) {
        group_scalar(g, slab);
    }
}

/// One group, row by row: the row is zeroed, then takes four nonzeros
/// per pass over the C segment (quartering C traffic), products
/// applied as sequential f32 adds so each row is bit-identical to the
/// one-at-a-time order — and therefore to `execute_fast`, the
/// differential oracle.
fn group_scalar(mut g: Group<'_>, slab: Slab<'_>) {
    assert_group_args(&g, &slab);
    let (h, w) = (g.c.rows(), g.c.width());
    let (vals, cols, slab) = (g.vals, g.cols, slab.data);
    let nnz = cols.len();
    for r in 0..h {
        let c_row = g.c.row(r);
        c_row.fill(0.0);
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
