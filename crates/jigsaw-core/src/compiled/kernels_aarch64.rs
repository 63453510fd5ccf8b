//! aarch64 NEON microkernel of the dispatch registry: 4×f32x4 (16
//! floats per pass over the C segment), fused multiply-adds via
//! `vfmaq_n_f32`, applying a vector-row group row by row, each row
//! zeroed first. Keeps the per-row `(window, slot)` accumulation order
//! of the scalar reference; a fused multiply-add of two f16 values
//! rounds like the scalar multiply then add, so it is bit-identical to
//! the scalar variant (DESIGN.md §13).
#![cfg(target_arch = "aarch64")]

use super::dispatch::{assert_group_args, Group, Slab};

/// NEON microkernel: the two groups one after the other.
///
/// # Safety
///
/// neon must be present: the dispatch layer only returns this kernel
/// after runtime feature detection
/// ([`super::dispatch::KernelKind::available`]). Every stream column is
/// below `slab.k`, the [`super::dispatch::AxpyFn`] contract.
pub unsafe fn axpy_group_neon(first: Group<'_>, second: Option<Group<'_>>, slab: Slab<'_>) {
    for mut g in std::iter::once(first).chain(second) {
        assert_group_args(&g, &slab);
        let h = g.c.rows();
        for r in 0..h {
            let c_row = g.c.row(r);
            c_row.fill(0.0);
            // SAFETY: neon and every column below `k` are this
            // function's contract; the slab holding `k` rows of `w`
            // and `h` values per column are asserted above.
            unsafe { axpy_row_neon(c_row, g.vals, g.cols, slab.data, h, r) }
        }
    }
}

/// Row `r` of an `h`-row group: four f32x4 vectors per pass (16
/// lanes), one nonzero broadcast per `vfmaq_n_f32`, scalar `mul_add`
/// cleanup under 4 lanes.
///
/// # Safety
///
/// Requires neon. `vals.len() == h · cols.len()` and every `cols[i]
/// as usize * w + w <= slab.len()`, with `w == c_row.len()`: the caller
/// asserted the lengths and `slab.len() >= k·w`, and every column is
/// below `k` by the [`super::dispatch::AxpyFn`] contract.
#[target_feature(enable = "neon")]
unsafe fn axpy_row_neon(
    c_row: &mut [f32],
    vals: &[f32],
    cols: &[u32],
    slab: &[f32],
    h: usize,
    r: usize,
) {
    use std::arch::aarch64::*;
    let w = c_row.len();
    let c_ptr = c_row.as_mut_ptr();
    let slab_ptr = slab.as_ptr();
    for (vs, &col) in vals.chunks_exact(h).zip(cols) {
        let bi = slab_ptr.add(col as usize * w);
        let v = vs[r];
        let mut j = 0;
        // 4×f32x4: four independent accumulator vectors per pass keep
        // the FMA pipeline full without reassociating across lanes.
        while j + 16 <= w {
            let mut a0 = vld1q_f32(c_ptr.add(j));
            let mut a1 = vld1q_f32(c_ptr.add(j + 4));
            let mut a2 = vld1q_f32(c_ptr.add(j + 8));
            let mut a3 = vld1q_f32(c_ptr.add(j + 12));
            a0 = vfmaq_n_f32(a0, vld1q_f32(bi.add(j)), v);
            a1 = vfmaq_n_f32(a1, vld1q_f32(bi.add(j + 4)), v);
            a2 = vfmaq_n_f32(a2, vld1q_f32(bi.add(j + 8)), v);
            a3 = vfmaq_n_f32(a3, vld1q_f32(bi.add(j + 12)), v);
            vst1q_f32(c_ptr.add(j), a0);
            vst1q_f32(c_ptr.add(j + 4), a1);
            vst1q_f32(c_ptr.add(j + 8), a2);
            vst1q_f32(c_ptr.add(j + 12), a3);
            j += 16;
        }
        while j + 4 <= w {
            let acc = vfmaq_n_f32(vld1q_f32(c_ptr.add(j)), vld1q_f32(bi.add(j)), v);
            vst1q_f32(c_ptr.add(j), acc);
            j += 4;
        }
        while j < w {
            *c_ptr.add(j) = v.mul_add(*bi.add(j), *c_ptr.add(j));
            j += 1;
        }
    }
}
